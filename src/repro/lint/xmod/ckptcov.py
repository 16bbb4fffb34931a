"""CKPT001/CKPT002 — checkpoint coverage of resumable state.

The crash-resume contract is that a study SIGKILLed at any point resumes
byte-identical by deterministic replay from its seed, with every phase
barrier the crashed run reached compared against its stored snapshot.
That comparison only catches a divergence if every object whose state
survives a barrier reports that state through ``state_dict`` — a single
mutable attribute missing from it is a blind spot where the replay can
fork without any barrier noticing.

* **CKPT001** — a class holding mutable instance state that is
  reachable from the ``HoneypotStudy`` phase barriers (a field of the
  ``_StudyComponents`` wiring dataclass) defines no ``state_dict``.
  Classes whose state is proven by other means (the world, rebuilt from
  the seed; the dataset, journaled write-ahead) carry a justified inline
  suppression at the class definition.
* **CKPT002** — a class defining ``state_dict`` has a mutable attribute
  that no state key covers (matching the attribute name modulo a leading
  underscore) and that carries no justified suppression at its first
  assignment.

The analyzer reads ``state_dict`` keys from the returned dict literal
(plus subscript stores on the returned name) — building the state dict
any other way hides keys from static checking and is itself worth
avoiding.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ProjectRule, register_project
from repro.lint.xmod.facts import ClassFact, ModuleFacts

#: The wiring dataclass whose fields define barrier reachability.
ANCHOR_MODULE_SUFFIX = "honeypot.study"
ANCHOR_CLASS = "_StudyComponents"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Annotation identifiers that are typing machinery, not project classes.
_NON_CLASS_NAMES = frozenset(
    {
        "Dict",
        "List",
        "Optional",
        "Tuple",
        "Set",
        "FrozenSet",
        "Union",
        "Any",
        "Callable",
        "Iterator",
        "Iterable",
        "Sequence",
        "Mapping",
        "MutableMapping",
        "Deque",
        "Type",
        "str",
        "int",
        "float",
        "bool",
        "bytes",
        "object",
        "None",
        "dict",
        "list",
        "set",
        "tuple",
    }
)


def _has_mutable_state(cls: ClassFact) -> bool:
    if any(attr.kind in ("container", "evolving") for attr in cls.attrs):
        return True
    return any(kind == "container" for _, _, kind in cls.fields)


def _mutable_attrs(cls: ClassFact) -> List[Tuple[str, int]]:
    return [
        (attr.name, attr.line)
        for attr in cls.attrs
        if attr.kind in ("container", "evolving")
    ]


@register_project
class CheckpointStateRule(ProjectRule):
    """CKPT001: barrier-reachable mutable state without a state_dict."""

    code = "CKPT001"
    name = "checkpoint-state"
    severity = Severity.ERROR
    description = (
        "mutable class reachable from the HoneypotStudy phase barriers "
        "defines no state_dict"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for module_name, cls in _barrier_reachable(project):
            if cls.has_state_dict or not _has_mutable_state(cls):
                continue
            mutable = ", ".join(name for name, _ in _mutable_attrs(cls)) or (
                "dataclass container fields"
            )
            yield self.finding(
                project,
                project.modules[module_name].path,
                cls.line,
                f"class {cls.name} holds mutable state ({mutable}) "
                "reachable from the HoneypotStudy phase barriers but "
                "defines no state_dict; add one, or suppress here with the "
                "replay/journal justification",
            )


@register_project
class CheckpointCoverageRule(ProjectRule):
    """CKPT002: every mutable attribute is covered by a state_dict key."""

    code = "CKPT002"
    name = "checkpoint-coverage"
    severity = Severity.ERROR
    description = (
        "a class defining state_dict has a mutable attribute no state key "
        "covers"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            facts = project.modules[module_name]
            for cls in facts.classes:
                if cls.has_state_dict:
                    yield from self._check_coverage(project, facts, cls)

    def _check_coverage(
        self, project, facts: ModuleFacts, cls: ClassFact
    ) -> Iterator[Finding]:
        written = {key for key, _ in cls.state_keys}
        for attr, line in _mutable_attrs(cls):
            if attr in written or attr.lstrip("_") in written:
                continue
            yield self.finding(
                project,
                facts.path,
                line,
                f"mutable attribute {cls.name}.{attr} is not covered by "
                "any state_dict key; cover it or suppress here with why "
                "barrier equality holds without it",
            )


def _barrier_reachable(project) -> List[Tuple[str, ClassFact]]:
    """Project classes referenced by the anchor dataclass's fields."""
    out: List[Tuple[str, ClassFact]] = []
    seen: Set[Tuple[str, str]] = set()
    for module_name in sorted(project.modules):
        if not module_name.endswith(ANCHOR_MODULE_SUFFIX):
            continue
        anchor_module = project.modules[module_name]
        anchor = anchor_module.class_named(ANCHOR_CLASS)
        if anchor is None:
            continue
        for _, annotation, _ in anchor.fields:
            for ident in _IDENT_RE.findall(annotation):
                if ident in _NON_CLASS_NAMES:
                    continue
                resolved = project.resolve_class(anchor_module, ident)
                if resolved is None:
                    continue
                target_module, target_cls = resolved
                if target_cls.name == ANCHOR_CLASS:
                    continue  # the wiring record itself is replayed
                key = (target_module.module, target_cls.name)
                if key not in seen:
                    seen.add(key)
                    out.append((target_module.module, target_cls))
    return sorted(out, key=lambda item: (item[0], item[1].name))
