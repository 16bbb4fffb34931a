"""Per-module fact extraction for the whole-program (xmod) analyzer.

One parse of a module produces a :class:`ModuleFacts` — a small,
JSON-serialisable summary of everything the cross-module rules need:

* imports (with line, imported names, and whether the import is deferred
  inside a function body) — the ARCH001 layering edges,
* classes (instance attributes classified by mutability, dataclass
  fields, and the key set written by ``state_dict``) — the CKPT001/002
  checkpoint-coverage inputs,
* functions (a line-ordered stream of :class:`RngEvent` records tracking
  every ``RngStream`` construction, fork, draw, store, and call-argument
  handoff) — the XDET lineage inputs,
* SQL-looking string literals and module-level UPPER_CASE string
  constants — the SQL001 inputs.

Facts are deliberately *not* ASTs: they are tiny, stable, and round-trip
through JSON, which is what makes the content-hash cache
(:mod:`repro.lint.xmod.cache`) possible — a warm run never re-parses an
unchanged module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.det import ImportTable

#: Bump when the fact schema changes: cached entries with a different
#: version are discarded (a schema change must invalidate every cache).
FACTS_VERSION = 3

#: RngStream methods that consume generator entropy (plus the raw
#: ``generator`` escape hatch).  ``child`` is deliberately absent: forks
#: are seed-derived and consume nothing.
DRAW_METHODS = frozenset(
    {
        "random",
        "uniform",
        "randint",
        "normal",
        "poisson",
        "bernoulli",
        "choice",
        "shuffled",
        "sample_without_replacement",
        "generator",
    }
)

_CONTAINER_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
    }
)

_CONTAINER_ANNOTATION_RE = re.compile(
    r"\b(List|Dict|Set|DefaultDict|Deque|Counter|OrderedDict|"
    r"list|dict|set|bytearray|"
    r"MutableMapping|MutableSequence|MutableSet)\b"
)

_SQL_RE = re.compile(
    r"^\s*(SELECT|INSERT|UPDATE|DELETE|CREATE|WITH|PRAGMA)\b", re.IGNORECASE
)

#: Placeholder substituted for f-string interpolations in captured SQL
#: text; identifiers containing it are never checked against the schema.
SQL_DYNAMIC = "\x00dyn\x00"


@dataclass(frozen=True, slots=True)
class ImportFact:
    """One import statement edge."""

    module: str  # absolute dotted target ("repro.osn" for from-imports)
    names: Tuple[str, ...]  # names for from-imports, () for plain import
    line: int
    deferred: bool  # inside a function body (lazy import)


@dataclass(frozen=True, slots=True)
class AttrFact:
    """One instance attribute of a class, classified by mutability.

    ``kind`` is ``"container"`` (initialised to a mutable container in
    ``__init__``), ``"evolving"`` (reassigned or augmented outside
    ``__init__``), or ``"wiring"`` (bound once in
    ``__init__`` to something passed in — collaborator references, not
    state this class owns).
    """

    name: str
    line: int
    kind: str


@dataclass(frozen=True, slots=True)
class ClassFact:
    """Checkpoint-relevant summary of one class definition."""

    name: str
    line: int
    is_dataclass: bool
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    attrs: Tuple[AttrFact, ...]
    #: dataclass / annotated class-body fields: (name, annotation, kind)
    fields: Tuple[Tuple[str, str, str], ...]
    #: keys the top-level returned dict of ``state_dict`` writes
    state_keys: Tuple[Tuple[str, int], ...]
    #: attrs bound in ``__init__`` directly from an RngStream value
    stream_attrs: Tuple[str, ...]

    @property
    def has_state_dict(self) -> bool:
        return "state_dict" in self.methods


@dataclass(frozen=True, slots=True)
class RngEvent:
    """One RNG-relevant action inside a function body.

    ``kind`` is one of ``root`` (``RngStream(...)`` constructed), ``fork``
    (``.child(...)``), ``draw`` (entropy consumed), ``store`` (stream
    written into an attribute or container), or ``arg`` (stream passed to
    a call — ``callee``/``label`` say where, so the graph can splice the
    callee's effects in at this line).
    """

    kind: str
    stream: str  # local name, "self.X", or "free:X" for closures
    line: int
    label: str = ""  # fork: constant label; arg: "0"/"kw:name"; draw: method
    callee: str = ""  # arg events: best-effort dotted callee reference
    in_loop: bool = False


@dataclass(frozen=True, slots=True)
class FunctionFact:
    """RNG event stream of one function, method, or nested closure."""

    qualname: str  # "f", "Class.meth", or "f.<locals>.inner"
    line: int
    params: Tuple[str, ...]
    stream_params: Tuple[str, ...]
    events: Tuple[RngEvent, ...]


@dataclass(frozen=True, slots=True)
class SqlFact:
    """One SQL-looking string literal (f-string parts -> SQL_DYNAMIC)."""

    text: str
    line: int


@dataclass(frozen=True, slots=True)
class FailpointFact:
    """One failpoint registry interaction (the FP001 inputs).

    ``kind`` is ``"register"`` (``failpoints.register(...)`` — or a bare
    ``register(...)`` inside a module itself named ``failpoints``) or
    ``"hit"`` (``failpoints.hit(...)``).  ``name`` is the literal string
    argument; ``dynamic`` marks calls whose name is not a plain literal,
    which FP001 refuses — a computed name defeats the static catalog.
    """

    kind: str
    name: str
    line: int
    dynamic: bool


@dataclass(slots=True)
class ModuleFacts:
    """Everything the project-wide rules need from one module."""

    module: str
    path: str
    imports: Tuple[ImportFact, ...] = ()
    classes: Tuple[ClassFact, ...] = ()
    functions: Tuple[FunctionFact, ...] = ()
    sql: Tuple[SqlFact, ...] = ()
    failpoints: Tuple[FailpointFact, ...] = ()
    aliases: Dict[str, str] = field(default_factory=dict)
    constants: Dict[str, str] = field(default_factory=dict)

    def class_named(self, name: str) -> Optional[ClassFact]:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None

    # -- JSON round-trip (the cache file format) -------------------------- #

    def as_dict(self) -> dict:
        return {
            "module": self.module,
            "path": self.path,
            "imports": [
                [i.module, list(i.names), i.line, i.deferred]
                for i in self.imports
            ],
            "classes": [_class_to_list(c) for c in self.classes],
            "functions": [_function_to_list(f) for f in self.functions],
            "sql": [[s.text, s.line] for s in self.sql],
            "failpoints": [
                [f.kind, f.name, f.line, f.dynamic] for f in self.failpoints
            ],
            "aliases": dict(self.aliases),
            "constants": dict(self.constants),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleFacts":
        return cls(
            module=data["module"],
            path=data["path"],
            imports=tuple(
                ImportFact(m, tuple(names), line, deferred)
                for m, names, line, deferred in data["imports"]
            ),
            classes=tuple(_class_from_list(row) for row in data["classes"]),
            functions=tuple(
                _function_from_list(row) for row in data["functions"]
            ),
            sql=tuple(SqlFact(text, line) for text, line in data["sql"]),
            failpoints=tuple(
                FailpointFact(kind, name, line, dynamic)
                for kind, name, line, dynamic in data["failpoints"]
            ),
            aliases=dict(data["aliases"]),
            constants=dict(data["constants"]),
        )


def _class_to_list(c: ClassFact) -> list:
    return [
        c.name,
        c.line,
        c.is_dataclass,
        list(c.bases),
        list(c.methods),
        [[a.name, a.line, a.kind] for a in c.attrs],
        [list(row) for row in c.fields],
        [list(row) for row in c.state_keys],
        list(c.stream_attrs),
    ]


def _class_from_list(row: list) -> ClassFact:
    return ClassFact(
        name=row[0],
        line=row[1],
        is_dataclass=row[2],
        bases=tuple(row[3]),
        methods=tuple(row[4]),
        attrs=tuple(AttrFact(*a) for a in row[5]),
        fields=tuple(tuple(f) for f in row[6]),
        state_keys=tuple((k, line) for k, line in row[7]),
        stream_attrs=tuple(row[8]),
    )


def _function_to_list(f: FunctionFact) -> list:
    return [
        f.qualname,
        f.line,
        list(f.params),
        list(f.stream_params),
        [
            [e.kind, e.stream, e.line, e.label, e.callee, e.in_loop]
            for e in f.events
        ],
    ]


def _function_from_list(row: list) -> FunctionFact:
    return FunctionFact(
        qualname=row[0],
        line=row[1],
        params=tuple(row[2]),
        stream_params=tuple(row[3]),
        events=tuple(RngEvent(*e) for e in row[4]),
    )


# --------------------------------------------------------------------------- #
# Extraction
# --------------------------------------------------------------------------- #


def extract_module_facts(
    tree: ast.Module, path: str, module_name: str
) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one parsed module."""
    extractor = _Extractor(path, module_name, tree)
    extractor.run()
    return ModuleFacts(
        module=module_name,
        path=path,
        imports=tuple(extractor.imports),
        classes=tuple(extractor.classes),
        functions=tuple(extractor.functions),
        sql=tuple(extractor.sql),
        failpoints=tuple(extractor.failpoints),
        aliases=dict(extractor.table.aliases),
        constants=extractor.constants,
    )


def _annotation_src(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - malformed annotation node
        return ""


def _is_container_value(node: ast.AST) -> bool:
    """True when ``node`` evaluates to a fresh mutable container."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in _CONTAINER_CALLS
    return False


class _Extractor:
    """Single-pass recursive walker producing all fact kinds at once."""

    def __init__(self, path: str, module_name: str, tree: ast.Module) -> None:
        self.path = path
        self.module_name = module_name
        self.tree = tree
        self.table = ImportTable(tree)
        self.imports: List[ImportFact] = []
        self.classes: List[ClassFact] = []
        self.functions: List[FunctionFact] = []
        self.sql: List[SqlFact] = []
        self.failpoints: List[FailpointFact] = []
        self.constants: Dict[str, str] = {}
        self.module_defs: Set[str] = set()
        self._fstring_parts: Set[int] = set()

    def run(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_defs.add(node.name)
        self._collect_imports()
        self._collect_sql_and_constants()
        self._collect_failpoints()
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self._extract_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionAnalysis(self, node, node.name, None, {}).run()

    # -- imports ---------------------------------------------------------- #

    def _collect_imports(self) -> None:
        deferred_spans: List[Tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred_spans.append((node.lineno, node.end_lineno or node.lineno))

        def is_deferred(line: int) -> bool:
            return any(lo <= line <= hi for lo, hi in deferred_spans)

        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append(
                        ImportFact(alias.name, (), node.lineno, is_deferred(node.lineno))
                    )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # relative: resolve against this module
                    base = self.module_name.split(".")
                    base = base[: len(base) - node.level]
                    module = ".".join(base + ([module] if module else []))
                if not module:
                    continue
                self.imports.append(
                    ImportFact(
                        module,
                        tuple(alias.name for alias in node.names),
                        node.lineno,
                        is_deferred(node.lineno),
                    )
                )

    # -- SQL literals and UPPER_CASE constants ---------------------------- #

    def _collect_sql_and_constants(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.JoinedStr):
                parts: List[str] = []
                for value in node.values:
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        self._fstring_parts.add(id(value))
                        parts.append(value.value)
                    else:
                        parts.append(SQL_DYNAMIC)
                text = "".join(parts)
                if _SQL_RE.match(text):
                    self.sql.append(SqlFact(text, node.lineno))
        for node in ast.walk(self.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in self._fstring_parts
                and _SQL_RE.match(node.value)
            ):
                self.sql.append(SqlFact(node.value, node.lineno))
        self.sql.sort(key=lambda s: s.line)
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.isupper()
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.constants[node.targets[0].id] = node.value.value

    # -- failpoint registrations and hit sites ---------------------------- #

    def _collect_failpoints(self) -> None:
        """Record every ``failpoints.register``/``failpoints.hit`` call.

        Bare ``register(...)`` / ``hit(...)`` names also count inside a
        module itself named ``failpoints`` — that is how the registry
        module's own catalog (and FP001 fixtures mimicking it) shows up.
        """
        in_registry = self.module_name.rpartition(".")[2] == "failpoints"
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = self.table.resolve(node.func)
            if dotted is None:
                continue
            kind = ""
            for candidate in ("register", "hit"):
                if dotted.endswith(f"failpoints.{candidate}") or (
                    in_registry and dotted == candidate
                ):
                    kind = candidate
            if not kind:
                continue
            name, dynamic = "", True
            if node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    name, dynamic = first.value, False
            self.failpoints.append(
                FailpointFact(kind, name, node.lineno, dynamic)
            )
        self.failpoints.sort(key=lambda f: f.line)

    # -- classes ---------------------------------------------------------- #

    def _extract_class(self, node: ast.ClassDef) -> None:
        is_dataclass = any(
            "dataclass" in _annotation_src(dec) for dec in node.decorator_list
        )
        bases = tuple(
            b for b in (_annotation_src(base) for base in node.bases) if b
        )
        methods: List[str] = []
        fields: List[Tuple[str, str, str]] = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                annotation = _annotation_src(item.annotation)
                kind = "scalar"
                if _CONTAINER_ANNOTATION_RE.search(annotation):
                    kind = "container"
                elif item.value is not None and (
                    "default_factory" in _annotation_src(item.value)
                    or _is_container_value(item.value)
                ):
                    kind = "container"
                fields.append((item.target.id, annotation, kind))

        # Pass 1: which attrs does __init__ bind straight to a stream?
        stream_attrs = self._init_stream_attrs(node)

        # Pass 2: full method analysis (attr writes, state keys, events).
        collector = _ClassCollector(node.name)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analysis = _FunctionAnalysis(
                    self,
                    item,
                    f"{node.name}.{item.name}",
                    _ClassContext(node.name, stream_attrs, collector, item.name),
                    {},
                )
                analysis.run()

        self.classes.append(
            ClassFact(
                name=node.name,
                line=node.lineno,
                is_dataclass=is_dataclass,
                bases=bases,
                methods=tuple(methods),
                attrs=collector.classify(),
                fields=tuple(fields),
                state_keys=tuple(collector.state_keys),
                stream_attrs=tuple(sorted(stream_attrs)),
            )
        )

    def _init_stream_attrs(self, node: ast.ClassDef) -> Tuple[str, ...]:
        init = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return ()
        stream_params = _stream_params(init)
        attrs: List[str] = []
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            is_stream = (
                isinstance(value, ast.Name) and value.id in stream_params
            ) or _is_stream_call(value, self.table)
            if not is_stream:
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in attrs
                ):
                    attrs.append(target.attr)
        return tuple(sorted(attrs))


def _stream_params(node: ast.AST) -> Tuple[str, ...]:
    """Parameter names of ``node`` that carry RngStream values."""
    args = node.args
    streams: List[str] = []
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        if "RngStream" in _annotation_src(a.annotation):
            streams.append(a.arg)
        elif a.annotation is None and a.arg == "rng":
            streams.append(a.arg)
    return tuple(streams)


def _is_stream_call(node: ast.AST, table: ImportTable) -> bool:
    """True for ``RngStream(...)`` (aliased or dotted) constructor calls."""
    if not isinstance(node, ast.Call):
        return False
    dotted = table.resolve(node.func)
    return dotted is not None and (
        dotted == "RngStream" or dotted.endswith(".RngStream")
    )


@dataclass(slots=True)
class _ClassContext:
    class_name: str
    stream_attrs: Tuple[str, ...]
    collector: "_ClassCollector"
    method_name: str


class _ClassCollector:
    """Accumulates attr writes and state_dict keys across one class."""

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name
        #: attr -> list of (method, container_value, augmented, line)
        self.writes: Dict[str, List[Tuple[str, bool, bool, int]]] = {}
        self.state_keys: List[Tuple[str, int]] = []

    def record_write(
        self, method: str, attr: str, container: bool, augmented: bool, line: int
    ) -> None:
        self.writes.setdefault(attr, []).append(
            (method, container, augmented, line)
        )

    def classify(self) -> Tuple[AttrFact, ...]:
        facts: List[AttrFact] = []
        for attr in sorted(self.writes):
            writes = self.writes[attr]
            line = min(w[3] for w in writes)
            init_only = all(
                method in ("__init__", "__post_init__")
                for method, _, _, _ in writes
            )
            augmented = any(aug for _, _, aug, _ in writes)
            container = any(
                cont
                for method, cont, _, _ in writes
                if method in ("__init__", "__post_init__")
            )
            if augmented or not init_only:
                kind = "evolving"
            elif container:
                kind = "container"
            else:
                kind = "wiring"
            facts.append(AttrFact(attr, line, kind))
        return tuple(facts)


class _FunctionAnalysis:
    """Analyzes one function/method body into a :class:`FunctionFact`.

    Statements are walked in source order; control flow is deliberately
    flattened (branches concatenate) — for lint purposes line order is
    the program order.  Nested defs recurse with the enclosing stream
    bindings visible as ``free:<name>`` keys.
    """

    def __init__(
        self,
        extractor: _Extractor,
        node: ast.AST,
        qualname: str,
        class_ctx: Optional[_ClassContext],
        outer_streams: Dict[str, str],
    ) -> None:
        self.x = extractor
        self.node = node
        self.qualname = qualname
        self.class_ctx = class_ctx
        self.events: List[RngEvent] = []
        self.loop_depth = 0
        self.local_defs: Set[str] = {
            n.name
            for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        args = node.args
        self.params: List[str] = [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        if self.params and self.params[0] in ("self", "cls"):
            self.params = self.params[1:]
        self.stream_params = sorted(_stream_params(node))
        #: name -> stream key ("x", "free:x", "self.x" handled separately)
        self.streams: Dict[str, str] = {p: p for p in self.stream_params}
        for name, key in outer_streams.items():
            if name not in self.streams and name not in self.params:
                self.streams[name] = f"free:{name}"
        # state_dict bookkeeping
        self.method_name = class_ctx.method_name if class_ctx else ""
        self.returned_names: Set[str] = set()
        if self.method_name == "state_dict":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and isinstance(
                    sub.value, ast.Name
                ):
                    self.returned_names.add(sub.value.id)

    def run(self) -> None:
        for stmt in self.node.body:
            self._stmt(stmt)
        self.x.functions.append(
            FunctionFact(
                qualname=self.qualname,
                line=self.node.lineno,
                params=tuple(self.params),
                stream_params=tuple(self.stream_params),
                events=tuple(self.events),
            )
        )

    # -- statements ------------------------------------------------------- #

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outer = {
                name: name for name in self.streams  # visible as free vars
            }
            _FunctionAnalysis(
                self.x,
                stmt,
                f"{self.qualname}.<locals>.{stmt.name}",
                None,
                outer,
            ).run()
            return
        if isinstance(stmt, ast.ClassDef):
            return  # classes nested in functions: out of scope
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan(stmt.value)
            if (
                self.class_ctx
                and isinstance(stmt.target, ast.Attribute)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "self"
            ):
                self.class_ctx.collector.record_write(
                    self.method_name or self.qualname.split(".")[-1],
                    stmt.target.attr,
                    False,
                    True,
                    stmt.lineno,
                )
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan(stmt.iter)
            self.loop_depth += 1
            for sub in stmt.body:
                self._stmt(sub)
            self.loop_depth -= 1
            for sub in stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.While):
            self._scan(stmt.test)
            self.loop_depth += 1
            for sub in stmt.body:
                self._stmt(sub)
            self.loop_depth -= 1
            for sub in stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.If):
            self._scan(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan(item.context_expr)
            for sub in stmt.body:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._return_value(stmt.value)
            return
        if isinstance(stmt, ast.Expr):
            self._scan(stmt.value)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan(child)

    def _return_value(self, value: ast.expr) -> None:
        if self.method_name == "state_dict" and isinstance(value, ast.Dict):
            self._collect_state_keys(value)
        self._scan(value)

    def _assign(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        key = self._scan(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if (
                    self.method_name == "state_dict"
                    and isinstance(value, ast.Dict)
                    and target.id in self.returned_names
                ):
                    self._collect_state_keys(value)
                if key is None:
                    self.streams.pop(target.id, None)
                elif key == "<root>" or key.endswith(".child"):
                    # a fresh stream: its identity is the new name, not
                    # the parent it was derived from
                    self.streams[target.id] = target.id
                else:
                    self.streams[target.id] = key  # plain alias
            elif isinstance(target, ast.Attribute):
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if self.class_ctx:
                        self.class_ctx.collector.record_write(
                            self.method_name
                            or self.qualname.split(".")[-1],
                            target.attr,
                            _is_container_value(value),
                            False,
                            target.lineno,
                        )
                    if key is not None:
                        self.events.append(
                            RngEvent(
                                "store",
                                key,
                                target.lineno,
                                label=f"self.{target.attr}",
                                in_loop=self.loop_depth > 0,
                            )
                        )
                else:
                    self._scan(target.value)
            elif isinstance(target, ast.Subscript):
                self._scan(target.value)
                self._scan(target.slice)
                if (
                    self.method_name == "state_dict"
                    and isinstance(target.value, ast.Name)
                    and target.value.id in self.returned_names
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    self.class_ctx.collector.state_keys.append(
                        (target.slice.value, target.lineno)
                    )
                if key is not None:
                    self.events.append(
                        RngEvent(
                            "store",
                            key,
                            target.lineno,
                            label="container",
                            in_loop=self.loop_depth > 0,
                        )
                    )
            elif isinstance(target, (ast.Tuple, ast.List)):
                for el in target.elts:
                    if isinstance(el, ast.Name):
                        self.streams.pop(el.id, None)

    def _collect_state_keys(self, node: ast.Dict) -> None:
        if self.class_ctx is None:
            return
        for k in node.keys:
            if isinstance(k, ast.Constant) and isinstance(k.value, str):
                self.class_ctx.collector.state_keys.append((k.value, k.lineno))

    # -- expressions ------------------------------------------------------ #

    def _stream_key(self, node: ast.expr) -> Optional[str]:
        """The stream key ``node`` denotes, without emitting events."""
        if isinstance(node, ast.Name):
            return self.streams.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_ctx
            and node.attr in self.class_ctx.stream_attrs
        ):
            return f"self.{node.attr}"
        return None

    def _scan(self, node: ast.expr) -> Optional[str]:
        """Emit events for ``node``; return its stream key if any."""
        direct = self._stream_key(node)
        if direct is not None:
            return direct

        if isinstance(node, ast.Call):
            return self._call(node)

        if isinstance(node, ast.Attribute):
            base = self._stream_key(node.value)
            if base is not None:
                if node.attr == "generator":
                    self._event("draw", base, node.lineno, label="generator")
                return None
            self._scan(node.value)
            return None

        if isinstance(node, (ast.IfExp,)):
            self._scan(node.test)
            a = self._scan(node.body)
            b = self._scan(node.orelse)
            return a or b

        if isinstance(node, ast.BoolOp):
            last: Optional[str] = None
            for value in node.values:
                last = self._scan(value)
            return last

        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan(child)
            elif isinstance(child, ast.comprehension):
                # generators are not expr nodes; their iter/ifs still
                # carry reads (e.g. `for t in state["snapshots"]`)
                self._scan(child.iter)
                for condition in child.ifs:
                    self._scan(condition)
        return None

    def _call(self, node: ast.Call) -> Optional[str]:
        func = node.func
        # stream method calls: draws, forks, and neutral accessors
        if isinstance(func, ast.Attribute):
            base = self._stream_key(func.value)
            if base is not None:
                for arg in node.args:
                    self._scan(arg)
                for kw in node.keywords:
                    self._scan(kw.value)
                if func.attr == "child":
                    label = ""
                    if node.args and isinstance(node.args[0], ast.Constant):
                        label = str(node.args[0].value)
                    for kw in node.keywords:
                        if kw.arg == "label" and isinstance(
                            kw.value, ast.Constant
                        ):
                            label = str(kw.value.value)
                    self._event(
                        "fork", base, node.lineno, label=label
                    )
                    return f"{base}.child"
                if func.attr in DRAW_METHODS:
                    self._event("draw", base, node.lineno, label=func.attr)
                return None

        # RngStream(...) root construction
        if _is_stream_call(node, self.x.table):
            self._event("root", "<new>", node.lineno)
            for arg in node.args:
                self._scan(arg)
            return "<root>"

        # ordinary call: streams passed as arguments are handoffs
        callee = self._callee_ref(func)
        for index, arg in enumerate(node.args):
            key = self._stream_key(arg)
            if key is not None and callee:
                self._event(
                    "arg", key, node.lineno, label=str(index), callee=callee
                )
            else:
                # anonymous handoffs (f(rng.child("x"))) are always safe:
                # the callee owns the fresh child outright
                self._scan(arg)
        for kw in node.keywords:
            key = self._stream_key(kw.value)
            if key is not None and callee and kw.arg:
                self._event(
                    "arg", key, node.lineno, label=f"kw:{kw.arg}", callee=callee
                )
            else:
                self._scan(kw.value)
        if callee and ".<locals>." in callee:
            # closures touch captured streams without any argument; the
            # graph splices their free-variable effects in at this line
            self._event("call", "", node.lineno, callee=callee)
        if not isinstance(func, (ast.Name, ast.Attribute)):
            self._scan(func)
        return None

    def _callee_ref(self, func: ast.expr) -> str:
        """Best-effort dotted reference for a call target."""
        if isinstance(func, ast.Name):
            if func.id in self.local_defs:
                return f"{self.x.module_name}:{self.qualname}.<locals>.{func.id}"
            if func.id in self.x.module_defs:
                return f"{self.x.module_name}:{func.id}"
            resolved = self.x.table.resolve(func)
            return resolved or func.id
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self.class_ctx
            ):
                return (
                    f"{self.x.module_name}:"
                    f"{self.class_ctx.class_name}.{func.attr}"
                )
            resolved = self.x.table.resolve(func)
            return resolved or ""
        return ""

    def _event(self, kind: str, stream: str, line: int, label: str = "", callee: str = "") -> None:
        self.events.append(
            RngEvent(
                kind,
                stream,
                line,
                label=label,
                callee=callee,
                in_loop=self.loop_depth > 0,
            )
        )
