"""Named counters, gauges, and timing spans for the study pipeline.

A :class:`MetricsRegistry` is process-local and dependency-free: plain
dicts behind a small API, no locks, no globals.  The registry draws a hard
line between two kinds of measurement:

* **counters and gauges** record *simulated* quantities — requests made,
  likes delivered, virtual minutes elapsed.  They are deterministic: two
  runs with the same seed produce identical snapshots (the run-manifest
  acceptance gate).
* **timings** record *wall-clock* spans (world build, crawl, delivery).
  They are honest but machine-dependent, and are therefore reported in
  their own section that no determinism contract covers.

:class:`NullMetricsRegistry` is the disabled form: every method is a
no-op, ``enabled`` is False so hot paths can skip work entirely, and the
shared :data:`NULL_METRICS` instance makes "observability off" the
zero-allocation default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.trace import EventTrace


@dataclass
class ObservabilityConfig:
    """What a study run collects about itself.

    Attributes
    ----------
    enabled:
        Master switch.  Off (the default) wires the whole pipeline to
        :data:`NULL_METRICS` — no counters, no trace, no overhead.
    trace_limit:
        Maximum buffered trace events; older events are dropped (and
        counted) once the bound is hit, so a pathological run cannot
        grow memory without limit.
    """

    enabled: bool = False
    trace_limit: int = 10_000

    def __post_init__(self) -> None:
        check_positive(self.trace_limit, "trace_limit")

    def build_registry(self) -> "MetricsRegistry":
        """The registry this configuration asks for (shared no-op when off)."""
        if not self.enabled:
            return NULL_METRICS
        from repro.obs.trace import EventTrace

        return MetricsRegistry(trace=EventTrace(limit=self.trace_limit))


class _Span:
    """Context manager timing one wall-clock span into the registry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


class _NullSpan:
    """The span of a disabled registry: enters and exits, measures nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Process-local named counters, gauges, and wall-time spans.

    Counter and gauge names are free-form dotted strings
    (``"osn.requests.profile"``); snapshots are sorted by name so output
    ordering is deterministic regardless of instrumentation order.
    """

    enabled: bool = True

    def __init__(self, trace: Optional["EventTrace"] = None) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # repro-lint: allow-CKPT002 wall-time span durations are host-side diagnostics, deliberately excluded from deterministic study state (same boundary DET001 draws)
        self._timings: Dict[str, Dict[str, float]] = {}
        self.trace = trace

    # -- counters -----------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_counter(self, name: str, value: float) -> None:
        """Overwrite counter ``name`` (the write half of stats views)."""
        self._counters[name] = value

    def value(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never touched)."""
        return self._counters.get(name, 0)

    # -- gauges -------------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        self._gauges[name] = value

    def gauge(self, name: str) -> float:
        """Latest value of gauge ``name`` (0 when never set)."""
        return self._gauges.get(name, 0)

    # -- wall-clock timings -------------------------------------------------------

    def span(self, name: str) -> _Span:
        """A ``with``-block that times its body into timing ``name``."""
        return _Span(self, name)

    def observe(self, name: str, seconds: float) -> None:
        """Fold one wall-clock measurement into timing ``name``."""
        entry = self._timings.get(name)
        if entry is None:
            self._timings[name] = {
                "count": 1,
                "total_seconds": seconds,
                "max_seconds": seconds,
            }
            return
        entry["count"] += 1
        entry["total_seconds"] += seconds
        entry["max_seconds"] = max(entry["max_seconds"], seconds)

    # -- trace passthrough --------------------------------------------------------

    def trace_event(self, kind: str, time: Optional[int] = None, **fields) -> None:
        """Emit a structured trace event (dropped when tracing is off)."""
        if self.trace is not None:
            self.trace.emit(kind, time=time, **fields)

    # -- snapshots ----------------------------------------------------------------

    def counters_snapshot(self) -> Dict[str, float]:
        """All counters, sorted by name, int-cast where exact."""
        return {name: _tidy(self._counters[name]) for name in sorted(self._counters)}

    def gauges_snapshot(self) -> Dict[str, float]:
        """All gauges, sorted by name, int-cast where exact."""
        return {name: _tidy(self._gauges[name]) for name in sorted(self._gauges)}

    def timings_snapshot(self) -> Dict[str, Dict[str, float]]:
        """All wall-clock timings, sorted by name, rounded for reporting."""
        return {
            name: {
                "count": int(entry["count"]),
                "total_seconds": round(entry["total_seconds"], 6),
                "max_seconds": round(entry["max_seconds"], 6),
            }
            for name, entry in sorted(self._timings.items())
        }

    def snapshot(self) -> Dict[str, Dict]:
        """The full registry state: deterministic sections first."""
        return {
            "counters": self.counters_snapshot(),
            "gauges": self.gauges_snapshot(),
            "timings": self.timings_snapshot(),
        }

    # -- checkpoint support -------------------------------------------------------

    def state_dict(self) -> Dict[str, Dict]:
        """The deterministic registry state (counters and gauges).

        Wall-clock timings are deliberately excluded: they are outside the
        determinism contract, and a resumed run honestly re-accumulates its
        own (different) wall time.
        """
        return {
            "counters": self.counters_snapshot(),
            "gauges": self.gauges_snapshot(),
        }


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every operation is a no-op.

    ``enabled`` is False so hot paths can skip preparing metric values at
    all; everything else accepts and discards.  A single shared instance
    (:data:`NULL_METRICS`) serves the whole process.
    """

    enabled = False

    def inc(self, name: str, amount: float = 1) -> None:
        return None

    def set_counter(self, name: str, value: float) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def observe(self, name: str, seconds: float) -> None:
        return None

    def trace_event(self, kind: str, time: Optional[int] = None, **fields) -> None:
        return None

    def state_dict(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}}


#: The shared disabled registry — the default everywhere observability is off.
NULL_METRICS = NullMetricsRegistry()


def _tidy(value: float) -> float:
    """Render exact-integer floats as ints so snapshots read cleanly."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value
