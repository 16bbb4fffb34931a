"""``repro.lint.xmod`` — the whole-program (cross-module) analysis pass.

Layered on the per-module rule framework: the runner extracts
:class:`~repro.lint.xmod.facts.ModuleFacts` from every file (cached by
content hash in :mod:`~repro.lint.xmod.cache`), assembles them into a
:class:`~repro.lint.xmod.graph.Project` — symbol table, import graph,
and interprocedural RNG summaries — and runs the project rules over it:

* ``XDET001-003`` (:mod:`.rngflow`) — RngStream lineage across calls,
  returns, and attributes,
* ``CKPT001/002`` (:mod:`.ckptcov`) — checkpoint coverage: barrier
  state reported through ``state_dict``,
* ``ARCH001`` (:mod:`.arch`) — package layering DAG and import cycles,
* ``SQL001`` (:mod:`.sqlschema`) — SQL literals vs the declared schema.

Enabled with ``repro-lint --xmod``; see ``docs/architecture.md`` for the
graph model and rule semantics.
"""

from repro.lint.xmod.cache import FactsCache
from repro.lint.xmod.facts import ModuleFacts, extract_module_facts
from repro.lint.xmod.graph import Project, build_project

__all__ = [
    "FactsCache",
    "ModuleFacts",
    "extract_module_facts",
    "Project",
    "build_project",
]
