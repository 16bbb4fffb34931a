"""XDET001-003 — cross-module RngStream lineage rules.

The determinism contract hangs on the ``RngStream`` spawn discipline:
children are seed-derived (``child(label)`` consumes no parent entropy),
so a run is byte-identical iff (a) nobody draws from a parent after its
children were derived *in code that can reorder*, (b) no two consumers
end up holding the same stream, and (c) every stream descends from the
single study root.  The per-module DET002 rule catches raw
``random``/``numpy`` calls; these project rules track the streams
themselves across calls, returns, and attributes (via the
:class:`~repro.lint.xmod.graph.Project` summaries):

* **XDET001** — a parent stream is drawn from *after* spawning children
  in the same function, including draws that happen inside a callee the
  parent was handed to.  Such code breaks as soon as the fork block and
  the draw are reordered or a child is added between them.
* **XDET002** — stream aliasing: the same parent forked twice under one
  constant label (seed-derived children with equal labels are the *same*
  stream — two consumers in lockstep), a constant-label fork inside a
  loop (every iteration yields the identical child), or one stream
  retained by two different callees (two owners of one generator).
* **XDET003** — a root ``RngStream(...)`` constructed outside the
  blessed modules: every stream must descend from the study root via
  ``child``, or resume cannot re-derive it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ProjectRule, register_project

#: Modules allowed to construct root streams: the RNG home itself and
#: the study builder that derives the per-subsystem hierarchy.
ROOT_ALLOWLIST = frozenset({"repro.util.rng", "repro.honeypot.study"})


@register_project
class StreamOrderRule(ProjectRule):
    """XDET001: parent stream consumed after spawning children."""

    code = "XDET001"
    name = "stream-order"
    severity = Severity.ERROR
    description = (
        "RngStream drawn from after it spawned children (directly or "
        "inside a callee it was handed to); draw before forking"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for key in sorted(project.functions):
            fn = project.functions[key]
            module_name = key.split(":", 1)[0]
            facts = project.modules.get(module_name)
            if facts is None:
                continue
            events = project.expanded_events(key)
            first_fork: Dict[str, Tuple[int, str]] = {}
            reported: Set[str] = set()
            for ev in events:
                if ev.kind == "fork":
                    if ev.stream not in first_fork:
                        first_fork[ev.stream] = (ev.line, ev.label)
                elif ev.kind == "draw" and ev.stream in first_fork:
                    fork_line, _ = first_fork[ev.stream]
                    if ev.line <= fork_line or ev.stream in reported:
                        continue
                    reported.add(ev.stream)
                    how = (
                        f"inside {ev.callee}"
                        if ev.callee
                        else f".{ev.label}()"
                    )
                    yield self.finding(
                        project,
                        facts.path,
                        ev.line,
                        f"stream '{ev.stream}' is drawn from ({how}) in "
                        f"{fn.qualname} after spawning children (first "
                        f"fork at line {fork_line}); draws must precede "
                        "forks so re-deriving children never shifts the "
                        "parent's entropy position",
                    )


@register_project
class StreamAliasRule(ProjectRule):
    """XDET002: two consumers ending up with the same stream."""

    code = "XDET002"
    name = "stream-alias"
    severity = Severity.ERROR
    description = (
        "stream aliasing: duplicate constant fork label, constant-label "
        "fork in a loop, or one stream retained by two callees"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for key in sorted(project.functions):
            fn = project.functions[key]
            module_name = key.split(":", 1)[0]
            facts = project.modules.get(module_name)
            if facts is None:
                continue

            # (a) duplicate constant labels on one parent, (b) constant
            # label forked inside a loop — both derive the same child.
            seen_labels: Dict[Tuple[str, str], int] = {}
            for ev in fn.events:
                if ev.kind != "fork" or not ev.label:
                    continue
                label_key = (ev.stream, ev.label)
                if ev.in_loop:
                    yield self.finding(
                        project,
                        facts.path,
                        ev.line,
                        f"constant fork label '{ev.label}' inside a loop "
                        f"in {fn.qualname}: every iteration derives the "
                        "identical child stream; fold the loop variable "
                        "into the label",
                    )
                    continue
                if label_key in seen_labels:
                    yield self.finding(
                        project,
                        facts.path,
                        ev.line,
                        f"stream '{ev.stream}' forked twice under the "
                        f"same label '{ev.label}' in {fn.qualname} "
                        f"(first at line {seen_labels[label_key]}): "
                        "seed-derived children with equal labels are "
                        "the same stream",
                    )
                else:
                    seen_labels[label_key] = ev.line

            # (c) one stream retained by two different callees
            retainers: Dict[str, List[Tuple[int, str]]] = {}
            for ev in fn.events:
                if ev.kind != "arg":
                    continue
                resolved = project.resolve_callee(ev.callee)
                if resolved is None:
                    continue
                callee_key, callee = resolved
                pname = project.callee_param(callee, ev.label)
                if pname is None:
                    continue
                effect = project.summaries.get(callee_key, {}).get(pname)
                if effect is None or not effect.stores:
                    continue
                sites = retainers.setdefault(ev.stream, [])
                if any(other_key == callee_key for _, other_key in sites):
                    continue  # same callee seeing the stream again
                sites.append((ev.line, callee_key))
                if len(sites) == 2:
                    first_line, first_callee = sites[0]
                    yield self.finding(
                        project,
                        facts.path,
                        ev.line,
                        f"stream '{ev.stream}' is retained by two "
                        f"callees in {fn.qualname}: "
                        f"{first_callee.split(':', 1)[-1]} (line "
                        f"{first_line}) and "
                        f"{callee_key.split(':', 1)[-1]}; two owners of "
                        "one generator interleave nondeterministically — "
                        "hand each consumer its own child",
                    )


@register_project
class StreamRootRule(ProjectRule):
    """XDET003: root streams constructed outside the blessed modules."""

    code = "XDET003"
    name = "stream-root"
    severity = Severity.ERROR
    description = (
        "RngStream constructed outside repro.util.rng discipline; all "
        "streams must descend from the study root via child()"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            if module_name in ROOT_ALLOWLIST:
                continue
            facts = project.modules[module_name]
            for fn in facts.functions:
                for ev in fn.events:
                    if ev.kind != "root":
                        continue
                    yield self.finding(
                        project,
                        facts.path,
                        ev.line,
                        f"root RngStream constructed in {fn.qualname} "
                        f"({module_name}); only "
                        f"{sorted(ROOT_ALLOWLIST)} may create roots — "
                        "derive a child from the study hierarchy instead",
                    )
