"""In-memory span recorder for the benchmark's traced run.

A span is ``[name, start, end, parent]``: wall-clock bounds from
``time.perf_counter`` and the index of the span that was open when it
started (``-1`` for a top-level span).  Spans come from two places, both
in the benchmark's own files:

* :meth:`Tracer.span` around calls the benchmark makes itself (the
  analyses, the JSONL export, the store operations);
* :meth:`Tracer.wrap`, which replaces a layer's public method on its class
  for the length of one traced iteration, so calls the program makes
  internally (``WorldBuilder.build`` inside the study, a journal append
  inside a monitor poll) are recorded too.  :meth:`Tracer.unwrap_all`
  puts the original methods back.

Untraced iterations use :data:`NULL_TRACER`, whose spans are
``nullcontext`` and which never patches anything, so end-to-end timings
carry no tracing cost.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional


class Tracer:
    """Records spans and layer counts for one traced iteration at a time."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []
        self._patched: List[tuple] = []

    def reset(self) -> None:
        """Forget the previous iteration's spans and counts."""
        self.spans = []
        self.counts = defaultdict(float)
        self._open = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to the per-iteration count ``name``."""
        self.counts[name] += value

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(tracer, args, result, before_value)``, which reads counts
        from public handles (``self`` is ``args[0]``).  Both run outside
        the span.  Class methods are wrapped through their function.
        """
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            with tracer.span(name):
                result = function(*args, **kwargs)
            if after is not None:
                after(tracer, args, result, state)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every method :meth:`wrap` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)


class _NullTracer:
    """The untraced stand-in: spans cost one ``nullcontext``."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, value: float) -> None:
        pass


NULL_TRACER = _NullTracer()
