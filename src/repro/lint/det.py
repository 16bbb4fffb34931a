"""Determinism rules: DET001 (clock), DET002 (RNG), DET003 (sets), DET004 (procs).

These are the statically-checkable ways a PR breaks the
byte-identical-run contract:

* a wall-clock read feeding a simulated quantity (``DET001``),
* randomness drawn outside the seeded :class:`repro.util.rng.RngStream`
  hierarchy (``DET002``),
* iteration order of an unordered ``set`` escaping into ordered output
  (``DET003``) — the sneakiest, because CPython iterates sets of small
  ints stably, so the bug only shows up once strings (per-process hash
  randomisation) or a different resize history enter the set,
* process state (``multiprocessing``, pids, forks, signals) touched
  anywhere but :mod:`repro.failpoints` (``DET004``) — a study runs in
  one process, and untracked child processes are invisible to
  crash-resume.

Dicts are deliberately *not* flagged: CPython dicts iterate in insertion
order, so a dict built deterministically iterates deterministically.
Sets have no such guarantee.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Severity
from repro.lint.rules import Finding, ModuleContext, Rule, register


class ImportTable:
    """Alias resolution for one module: local name -> dotted origin.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.aliases[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, aliases expanded."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


# --------------------------------------------------------------------------- #
# DET001 — wall-clock reads
# --------------------------------------------------------------------------- #

#: Modules allowed to read the wall clock.  ``repro.obs.metrics`` owns the
#: timing spans (explicitly separated from deterministic counters),
#: ``repro.cli`` reports end-to-end wall time to the terminal, and
#: ``repro.sim.engine`` times its dispatch loop via its ``_walltime`` alias.
#: ``repro.failpoints`` sleeps only to *inject* stalls and hangs; its
#: clock reads never feed simulated state (disarmed, it touches no clock).
WALL_CLOCK_ALLOWLIST = frozenset(
    {
        "repro.obs.metrics",
        "repro.cli",
        "repro.failpoints",
        "repro.sim.engine",
    }
)

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """DET001: wall-clock reads outside the explicit allowlist."""

    code = "DET001"
    name = "wall-clock"
    severity = Severity.ERROR
    description = (
        "wall-clock read (time.*, datetime.now) outside the allowlist; "
        "simulated quantities must use the engine clock"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.module_name in WALL_CLOCK_ALLOWLIST:
            return
        table = ImportTable(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time" or alias.name.startswith("time."):
                        yield self.finding(
                            module,
                            node,
                            "import of the wall-clock module 'time' outside "
                            "the allowlist "
                            f"({', '.join(sorted(WALL_CLOCK_ALLOWLIST))}); "
                            "simulated time comes from the EventEngine clock",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                yield self.finding(
                    module,
                    node,
                    "from-import of wall-clock functions from 'time' outside "
                    "the allowlist; simulated time comes from the "
                    "EventEngine clock",
                )
            elif isinstance(node, ast.Call):
                dotted = table.resolve(node.func)
                if dotted in _CLOCK_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock call {dotted}() outside the allowlist "
                        f"({', '.join(sorted(WALL_CLOCK_ALLOWLIST))}); a "
                        "wall-clock read can never feed a simulated quantity",
                    )


# --------------------------------------------------------------------------- #
# DET002 — randomness outside the RngStream hierarchy
# --------------------------------------------------------------------------- #

#: The one module allowed to construct generators directly: it is where
#: ``RngStream`` wraps ``numpy.random.default_rng`` with derived seeds.
RNG_HOME = "repro.util.rng"

#: numpy.random attributes that are types/constructors, not global-state
#: draws.  Everything else on ``numpy.random`` is the legacy global RNG.
_NUMPY_RANDOM_TYPES = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox",
     "MT19937", "SFC64", "RandomState"}
)


@register
class UnseededRandomRule(Rule):
    """DET002: stdlib ``random`` or global ``numpy.random`` use."""

    code = "DET002"
    name = "unseeded-random"
    severity = Severity.ERROR
    description = (
        "stdlib random / global numpy.random use; all randomness must flow "
        "through repro.util.rng.RngStream"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        table = ImportTable(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module,
                            node,
                            "import of stdlib 'random' (hidden global state); "
                            "draw from a repro.util.rng.RngStream instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield self.finding(
                        module,
                        node,
                        "from-import from stdlib 'random' (hidden global "
                        "state); draw from a repro.util.rng.RngStream instead",
                    )
                elif node.module == "numpy.random" and not node.level:
                    for alias in node.names:
                        if alias.name in _NUMPY_RANDOM_TYPES:
                            continue
                        if alias.name == "default_rng" and module.module_name == RNG_HOME:
                            continue
                        yield self.finding(
                            module,
                            node,
                            f"from-import of numpy.random.{alias.name} "
                            "outside repro.util.rng; all randomness must "
                            "flow through RngStream",
                        )
            elif isinstance(node, ast.Call):
                dotted = table.resolve(node.func)
                if dotted is None or not dotted.startswith("numpy.random."):
                    continue
                attr = dotted.split(".", 2)[2]
                leaf = attr.split(".")[0]
                if leaf in _NUMPY_RANDOM_TYPES:
                    continue
                if leaf == "default_rng" and module.module_name == RNG_HOME:
                    continue
                what = (
                    "seeded generator construction"
                    if leaf == "default_rng"
                    else "global-state draw"
                )
                yield self.finding(
                    module,
                    node,
                    f"numpy.random.{attr}() {what} outside repro.util.rng; "
                    "fork a child RngStream instead",
                )


# --------------------------------------------------------------------------- #
# DET004 — process state outside repro.failpoints
# --------------------------------------------------------------------------- #

#: The only modules that may touch process state.  ``repro.failpoints``
#: SIGKILLs / hard-exits its *own* process — that is the whole point of
#: the ``kill``/``torn``/``exit`` actions, which model power loss at a
#: durable-path chokepoint.  It never manages children.
PROCESS_ALLOWLIST = frozenset({"repro.failpoints"})

#: Modules whose import means a new process (or pool) is being managed.
_PROCESS_MODULES = ("multiprocessing", "concurrent.futures")

#: os-level process calls that create, identify, or signal processes.
_PROCESS_CALLS = frozenset(
    {
        "os.fork",
        "os.forkpty",
        "os.getpid",
        "os.getppid",
        "os.kill",
        "os.killpg",
        "os.setpgrp",
        "os.setsid",
        "os.wait",
        "os.waitpid",
        "os._exit",
    }
)


def _is_process_module(name: str) -> bool:
    return any(
        name == module or name.startswith(module + ".")
        for module in _PROCESS_MODULES
    )


@register
class ProcessStateRule(Rule):
    """DET004: process management outside :data:`PROCESS_ALLOWLIST`.

    A study runs in one process.  A stray ``multiprocessing`` pool or
    ``os.fork()`` creates process state that crash-resume cannot see,
    and a casual ``os.getpid()`` invites pid-dependent (and thus
    run-dependent) behaviour.
    """

    code = "DET004"
    name = "process-state"
    severity = Severity.ERROR
    description = (
        "process management (multiprocessing, os.fork/getpid/kill); a "
        "study runs in one process"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.module_name in PROCESS_ALLOWLIST:
            return
        table = ImportTable(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_process_module(alias.name):
                        yield self.finding(
                            module,
                            node,
                            f"import of process module {alias.name!r}; a "
                            "study runs in one process",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                if _is_process_module(node.module):
                    yield self.finding(
                        module,
                        node,
                        f"from-import from process module {node.module!r}; "
                        "a study runs in one process",
                    )
            elif isinstance(node, ast.Call):
                dotted = table.resolve(node.func)
                if dotted in _PROCESS_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"process-state call {dotted}(); a study runs in "
                        "one process",
                    )


# --------------------------------------------------------------------------- #
# DET003 — unordered set iteration escaping into ordered output
# --------------------------------------------------------------------------- #

#: Builtins whose result does not depend on argument iteration order.
_ORDER_FREE_REDUCERS = frozenset(
    {"len", "sorted", "sum", "min", "max", "any", "all", "set", "frozenset",
     "bool"}
)

#: Builtins that materialise their argument's iteration order.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "enumerate", "iter", "next", "zip", "map", "filter",
     "reversed"}
)

#: Set methods that neither iterate observably nor leak order.
_SAFE_SET_METHODS = frozenset(
    {"add", "update", "discard", "remove", "clear", "copy", "union",
     "intersection", "difference", "symmetric_difference",
     "intersection_update", "difference_update",
     "symmetric_difference_update", "issubset", "issuperset", "isdisjoint"}
)

_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _is_set_annotation(node: Optional[ast.AST]) -> bool:
    """Whether an annotation expression denotes a set type."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATION_NAMES
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATION_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].split(".")[-1].strip()
        return head in _SET_ANNOTATION_NAMES
    return False


def _is_set_expr(node: Optional[ast.AST]) -> bool:
    """Whether an expression is statically known to produce a set."""
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr
            in ("union", "intersection", "difference", "symmetric_difference")
            and _is_set_expr(node.func.value)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body) and _is_set_expr(node.orelse)
    return False


def _is_empty_set_call(node: ast.AST) -> bool:
    """Whether ``node`` is an argument-less ``set()``/``frozenset()``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
        and not node.args
        and not node.keywords
    )


class _ParentMap:
    """Child -> parent links for one scope's subtree."""

    def __init__(self, root: ast.AST) -> None:
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(root):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)


def _target_key(node: ast.AST) -> Optional[str]:
    """A stable key for an assignment target we track: name or self-attr."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


@register
class SetOrderRule(Rule):
    """DET003: unordered set values reaching ordered output.

    A set binding is flagged when any use in its scope is
    order-sensitive: iterated by a ``for``/comprehension that feeds an
    ordered consumer, materialised by ``list``/``tuple``/``enumerate``/
    ``join``, popped, or escaping wholesale through ``return``/``yield``/
    container stores where unknown consumers may iterate it.  Membership
    tests, ``len``, set algebra, and order-free reducers (``sorted``,
    ``sum``, ``min``, ``max``, ``any``, ``all``) are safe.
    """

    code = "DET003"
    name = "set-order"
    severity = Severity.ERROR
    description = (
        "unordered set iteration/escape reaching ordered output without "
        "sorted(); set order is not covered by the determinism contract"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from self._check_scope(module, module.tree, kind="module")
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(module, node, kind="function")
            elif isinstance(node, ast.ClassDef):
                yield from self._check_scope(module, node, kind="class")

    # -- scope walking -------------------------------------------------------

    def _scoped_nodes(self, scope: ast.AST, kind: str) -> List[ast.AST]:
        """Nodes belonging to ``scope``.

        Module and function scopes exclude nested function/class bodies
        (those are analysed as their own scopes).  Class scopes span the
        whole class subtree, because ``self.<attr>`` bindings and uses are
        spread across methods.
        """
        if kind == "class":
            return list(ast.walk(scope))
        nodes: List[ast.AST] = []
        stack: List[ast.AST] = [scope]
        while stack:
            node = stack.pop()
            nodes.append(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue  # nested scopes are analysed separately
                stack.append(child)
        return nodes

    def _check_scope(
        self, module: ModuleContext, scope: ast.AST, kind: str
    ) -> Iterator[Finding]:
        nodes = self._scoped_nodes(scope, kind)
        bindings = self._set_bindings(scope, nodes, kind)
        parents = _ParentMap(scope)
        flagged: Set[str] = set()
        for node in nodes:
            key = self._use_key(node, kind)
            if key is not None and key in bindings and key not in flagged:
                unsafe = self._unsafe_use(node, parents)
                if unsafe is not None:
                    flagged.add(key)
                    binding = bindings[key]
                    yield self.finding(
                        module,
                        binding,
                        f"set {key!r} {unsafe} (line "
                        f"{getattr(node, 'lineno', '?')}) without an "
                        "ordering step; iterate sorted(...) or justify with "
                        "a suppression",
                    )
            # Inline set expressions used unsafely without a binding; class
            # scopes skip these (the owning function scope reports them).
            # An argument-less set()/frozenset() is empty — nothing to
            # iterate — so it is exempt.
            if (
                kind != "class"
                and _is_set_expr(node)
                and not _is_empty_set_call(node)
                and not self._is_binding_value(node, parents)
            ):
                unsafe = self._unsafe_use(node, parents)
                if unsafe is not None:
                    yield self.finding(
                        module,
                        node,
                        f"set expression {unsafe} (line "
                        f"{getattr(node, 'lineno', '?')}) without an "
                        "ordering step; wrap it in sorted(...)",
                    )

    # -- bindings -----------------------------------------------------------

    def _set_bindings(
        self, scope: ast.AST, nodes: List[ast.AST], kind: str
    ) -> Dict[str, ast.AST]:
        """name / self.attr -> binding node, for set-valued assignments.

        Function and module scopes track plain names; class scopes track
        only ``self.<attr>`` keys (plain names inside methods belong to the
        method's own scope).
        """

        def wanted(key: str) -> bool:
            is_attr = key.startswith("self.")
            return is_attr if kind == "class" else not is_attr

        bindings: Dict[str, ast.AST] = {}

        def record(target: ast.AST, node: ast.AST) -> None:
            key = _target_key(target)
            if key is not None and wanted(key) and key not in bindings:
                bindings[key] = node

        for node in nodes:
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    record(target, node)
            elif isinstance(node, ast.AnnAssign):
                if _is_set_annotation(node.annotation) or _is_set_expr(node.value):
                    record(node.target, node)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if _is_set_annotation(arg.annotation) and wanted(arg.arg):
                    bindings.setdefault(arg.arg, arg)
        return bindings

    def _use_key(self, node: ast.AST, kind: str) -> Optional[str]:
        if (
            kind != "class"
            and isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
        ):
            return node.id
        if (
            kind == "class"
            and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        return None

    def _is_binding_value(self, node: ast.AST, parents: _ParentMap) -> bool:
        parent = parents.parent(node)
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            return getattr(parent, "value", None) is node
        return False

    # -- use classification --------------------------------------------------

    def _unsafe_use(
        self, node: ast.AST, parents: _ParentMap
    ) -> Optional[str]:
        """A description of the order-sensitive use, or None if safe."""
        parent = parents.parent(node)
        if parent is None:
            return None

        # Attribute access on the set: safe methods vs .pop().
        if isinstance(parent, ast.Attribute) and parent.value is node:
            grand = parents.parent(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                if parent.attr in _SAFE_SET_METHODS:
                    return None
                if parent.attr == "pop":
                    return "is .pop()ed (removes an arbitrary element)"
                return None  # unknown method: resolved when its def is linted
            return None

        # Membership tests and set comparisons are order-free.
        if isinstance(parent, ast.Compare):
            return None
        # Set algebra and boolean contexts are order-free.
        if isinstance(parent, (ast.BinOp, ast.BoolOp, ast.UnaryOp, ast.IfExp)):
            return None
        if isinstance(parent, (ast.If, ast.While, ast.Assert)):
            return None
        if isinstance(parent, ast.AugAssign):
            return None

        # Direct iteration.
        if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
            return "is iterated by a for statement"
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            comp = parents.parent(parent)
            if self._comprehension_is_order_free(comp, parents):
                return None
            return "is iterated by a comprehension feeding ordered output"

        # Call argument positions.
        if isinstance(parent, ast.Call) and node in parent.args:
            func = parent.func
            if isinstance(func, ast.Name):
                if func.id in _ORDER_FREE_REDUCERS:
                    return None
                if func.id in _ORDER_SENSITIVE_CALLS:
                    return f"is materialised by {func.id}()"
                return None  # user function: its own body is linted
            if isinstance(func, ast.Attribute) and func.attr == "join":
                return "is joined into a string"
            return None
        if isinstance(parent, ast.Call) and node in [
            kw.value for kw in parent.keywords
        ]:
            return None

        # Wholesale escapes: unknown consumers may iterate.
        if isinstance(parent, ast.Return) and parent.value is node:
            return "escapes via return (unknown consumers may iterate it)"
        if isinstance(parent, (ast.Yield, ast.YieldFrom)) and parent.value is node:
            return "escapes via yield"
        if isinstance(parent, ast.Subscript) and parent.value is node:
            return None  # subscripting a set is a TypeError anyway
        if isinstance(parent, ast.Assign) and parent.value is node:
            # Stored into a subscript or attribute of something else: escapes.
            for target in parent.targets:
                if isinstance(target, ast.Subscript):
                    return "is stored into a container (escapes unordered)"
            return None
        if isinstance(parent, (ast.List, ast.Tuple, ast.Dict)):
            return "is stored into a container literal (escapes unordered)"
        if isinstance(parent, ast.DictComp) and parent.value is node:
            return "is stored as a dict-comprehension value (escapes unordered)"
        if isinstance(parent, ast.Starred):
            return "is unpacked with * (materialises iteration order)"
        return None

    def _comprehension_is_order_free(
        self, comp: Optional[ast.AST], parents: _ParentMap
    ) -> bool:
        """Whether a comprehension's result is consumed order-insensitively.

        A ``SetComp`` result is itself unordered (handled if *it* escapes).
        A generator/list comprehension is safe when its nearest enclosing
        call is an order-free reducer (``sum(1 for x in s ...)``) or
        ``sorted``.
        """
        if isinstance(comp, ast.SetComp):
            return True
        if not isinstance(comp, (ast.GeneratorExp, ast.ListComp)):
            return False
        parent = parents.parent(comp)
        if isinstance(parent, ast.Call) and comp in parent.args:
            func = parent.func
            if isinstance(func, ast.Name) and func.id in _ORDER_FREE_REDUCERS:
                return True
        return False
