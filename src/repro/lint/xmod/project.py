"""Per-module fact extraction and the assembled :class:`ProjectUnit`.

The cross-module rules never touch raw ASTs: each file is distilled —
once per run — into a :class:`ModuleFacts` record of plain data:

* every function/method with its **calls** (callee dotted names resolved
  through the module's own imports — the only resolution that is safe to
  do per-file),
* an **origin DAG** per function: each call site is a node carrying the
  taint origins of its arguments/receiver, where an origin is either a
  parameter (``p0``) or another call's result (``c<line>:<col>``).  The
  TRU001 rule replays policy (which callees are sources, sanitizers,
  sinks) over this DAG without re-walking the AST,
* **guard events** (names tested by an ``if``/``while``/``assert`` whose
  body raises, with the raised exception names) — the linter's notion of
  a validation/narrowing point,
* **struct unpack bindings** (the names a ``Struct.unpack*`` result is
  bound to) for TRU001's decoder field strictness,
* **class inventories** (lock attributes, shared container attributes,
  thread/task entry points, container mutations with the locks held at
  each site) for ASY002.

Extraction is deliberately *policy-free*: nothing in this module knows
what a taint source or a lock rule is, which keeps every rule testable
against hand-built facts.

The dataflow model is flow-ordered but not path-sensitive: statements
are walked in source order, branch bodies sequentially, and a guard
event records the origins a name held *when guarded*.  Rebinding a name
replaces its origins (so ``rows = validate(rows)`` starts a fresh,
sanitizable origin).  This is the standard advisory-linter trade-off:
false negatives are possible in pathological control flow, silent
false positives are not — every report points at a concrete call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.lint.model import ModuleUnit

#: Lock-ish constructors recognized for ASY002 class inventories.
_LOCK_TYPES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "asyncio.Lock", "asyncio.Condition", "asyncio.Semaphore",
    "threading.Semaphore", "threading.BoundedSemaphore",
}

#: Container constructors whose instances count as shared mutable state.
_CONTAINER_TYPES = {
    "dict", "list", "set", "bytearray",
    "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
}

#: Method names that mutate a container in place.
MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "appendleft",
}

#: Method names that absorb their arguments into the receiver (the
#: receiver's taint origins grow by the argument's).
_ABSORB_METHODS = {"append", "extend", "add", "insert", "update",
                   "appendleft", "setdefault"}


def module_name_for(rel: str) -> str:
    """Dotted module name for a root-relative posix path.

    ``src/repro/lint/engine.py`` -> ``repro.lint.engine``;
    ``pkg/sub/__init__.py`` -> ``pkg.sub``.  A leading ``src/`` segment
    is dropped so names match the import system's view of the tree.
    """
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


# -- fact records -------------------------------------------------------------


@dataclass
class CallNode:
    """One call site, as the taint DAG and call graph see it."""

    id: str                      #: ``"<line>:<col>"`` — unique per function
    callee: str                  #: import-resolved dotted name, ``self.m``,
    #: ``<local>.m`` for calls on locals, or a bare name for unresolved ids
    line: int
    col: int
    arg_origins: List[List[str]] = field(default_factory=list)
    arg_roots: List[Optional[str]] = field(default_factory=list)
    arg_lines: List[int] = field(default_factory=list)
    kw_origins: Dict[str, List[str]] = field(default_factory=dict)
    kw_roots: Dict[str, Optional[str]] = field(default_factory=dict)
    kw_lines: Dict[str, int] = field(default_factory=dict)
    receiver_origins: List[str] = field(default_factory=list)
    receiver_root: Optional[str] = None
    try_handlers: List[str] = field(default_factory=list)


@dataclass
class GuardFact:
    """A name tested by a raising (or asserting) conditional."""

    name: str
    origins: List[str]
    raised: List[str]
    line: int


@dataclass
class ReturnFact:
    origins: List[str]
    roots: List[str]
    line: int


@dataclass
class UnpackFact:
    """One ``Struct.unpack*`` binding inside a function."""

    fields: List[str]
    callee: str
    line: int


@dataclass
class FunctionFacts:
    qualname: str
    name: str
    line: int
    is_async: bool
    params: List[str]
    class_name: Optional[str]
    calls: List[CallNode] = field(default_factory=list)
    guards: List[GuardFact] = field(default_factory=list)
    raises: List[str] = field(default_factory=list)
    returns: List[ReturnFact] = field(default_factory=list)
    unpacks: List[UnpackFact] = field(default_factory=list)
    nested_raises: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class MutationFact:
    attr: str
    method: str
    line: int
    locks: List[str]
    kind: str  # "subscript" | "method:<name>" | "rebind" | "del"


@dataclass
class ClassFacts:
    name: str
    line: int
    methods: List[str] = field(default_factory=list)
    lock_attrs: List[str] = field(default_factory=list)
    container_attrs: List[str] = field(default_factory=list)
    thread_entries: List[str] = field(default_factory=list)
    task_entries: List[str] = field(default_factory=list)
    mutations: List[MutationFact] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the cross-module rules need from one file."""

    module: str
    rel: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionFacts] = field(default_factory=list)
    classes: List[ClassFacts] = field(default_factory=list)


# -- extraction ---------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[Tuple[str, List[str]]]:
    """(root name, attribute chain) of a Name/Attribute expression."""
    chain: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    return current.id, list(reversed(chain))


def _exception_names(node: Optional[ast.expr]) -> List[str]:
    """Exception identifiers named by a handler type or raise expr."""
    if node is None:
        return []
    names: List[str] = []
    targets: List[ast.expr] = (
        list(node.elts) if isinstance(node, ast.Tuple) else [node]
    )
    for target in targets:
        if isinstance(target, ast.Call):
            target = target.func
        dotted = _dotted(target)
        if dotted is not None:
            root, chain = dotted
            names.append(chain[-1] if chain else root)
    return names


def _arg_root(node: ast.expr) -> Optional[str]:
    """Root name of one argument expression, for taint lookups
    (``frame.sender`` taints via ``frame``)."""
    if isinstance(node, ast.Starred):
        node = node.value
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = _dotted(node)
        return dotted[0] if dotted else None
    return None


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, from every import in the file.

    ``import time as time_mod`` maps ``time_mod -> time``;
    ``from datetime import datetime`` maps
    ``datetime -> datetime.datetime``.  Function-level imports are
    included (protocol modules import lazily for startup cost).
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are left unresolved
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


class _FunctionExtractor:
    """Walks one function body in source order, building its facts."""

    def __init__(
        self,
        facts: FunctionFacts,
        resolver: "_ModuleResolver",
        class_ctx: Optional[ClassFacts],
    ) -> None:
        self.facts = facts
        self.resolver = resolver
        self.class_ctx = class_ctx
        self.env: Dict[str, FrozenSet[str]] = {
            param: frozenset({f"p{index}"})
            for index, param in enumerate(facts.params)
        }
        self.try_stack: List[List[str]] = []
        self.lock_stack: List[str] = []

    # -- expression origins -------------------------------------------------

    def origins_of(self, node: ast.expr) -> FrozenSet[str]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            dotted = _dotted(node if isinstance(node, ast.Attribute)
                             else node.value)
            if dotted is not None:
                return self.env.get(dotted[0], frozenset())
            inner = node.value
            return self.origins_of(inner) if isinstance(
                inner, ast.expr) else frozenset()
        if isinstance(node, ast.Call):
            call = self.record_call(node)
            return frozenset({call.id})
        if isinstance(node, ast.Await):
            return self.origins_of(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            merged: FrozenSet[str] = frozenset()
            for element in node.elts:
                merged |= self.origins_of(element)
            return merged
        if isinstance(node, ast.Dict):
            merged = frozenset()
            for value in list(node.keys) + list(node.values):
                if value is not None:
                    merged |= self.origins_of(value)
            return merged
        if isinstance(node, ast.BoolOp):
            merged = frozenset()
            for value in node.values:
                merged |= self.origins_of(value)
            return merged
        if isinstance(node, ast.BinOp):
            return self.origins_of(node.left) | self.origins_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.origins_of(node.operand)
        if isinstance(node, ast.Compare):
            merged = self.origins_of(node.left)
            for comparator in node.comparators:
                merged |= self.origins_of(comparator)
            return merged
        if isinstance(node, ast.IfExp):
            return self.origins_of(node.body) | self.origins_of(node.orelse)
        if isinstance(node, ast.Starred):
            return self.origins_of(node.value)
        if isinstance(node, ast.JoinedStr):
            merged = frozenset()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    merged |= self.origins_of(value.value)
            return merged
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            merged = frozenset()
            for generator in node.generators:
                merged |= self.origins_of(generator.iter)
            return merged
        return frozenset()

    # -- call recording ------------------------------------------------------

    def record_call(self, node: ast.Call) -> CallNode:
        callee, receiver_root = self.resolver.callee_of(
            node.func, self.class_ctx
        )
        call = CallNode(
            id=f"{node.lineno}:{node.col_offset}",
            callee=callee,
            line=node.lineno,
            col=node.col_offset,
            receiver_root=receiver_root,
            try_handlers=sorted(
                {name for frame in self.try_stack for name in frame}
            ),
        )
        if receiver_root is not None:
            call.receiver_origins = sorted(
                self.env.get(receiver_root, frozenset())
            )
        for arg in node.args:
            call.arg_roots.append(_arg_root(arg))
            call.arg_lines.append(getattr(arg, "lineno", node.lineno))
            call.arg_origins.append(sorted(self.origins_of(arg)))
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            call.kw_roots[keyword.arg] = _arg_root(keyword.value)
            call.kw_lines[keyword.arg] = getattr(
                keyword.value, "lineno", node.lineno
            )
            call.kw_origins[keyword.arg] = sorted(
                self.origins_of(keyword.value)
            )
        # A mutator method grows its receiver's origins by what it
        # absorbed (`frames.append(Frame(...))` -> `frames` carries the
        # constructor's origins, so `return frames` reports them).
        method = callee.rsplit(".", 1)[-1]
        if (
            receiver_root is not None
            and method in _ABSORB_METHODS
        ):
            absorbed: FrozenSet[str] = frozenset({call.id})
            for origins in call.arg_origins:
                absorbed |= frozenset(origins)
            self.env[receiver_root] = (
                self.env.get(receiver_root, frozenset()) | absorbed
            )
        self.facts.calls.append(call)
        # Mutation bookkeeping must happen here, while the enclosing
        # `with` contexts are still on the lock stack.
        self.record_method_mutation(call)
        return call

    # -- statement walk ------------------------------------------------------

    def walk(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self.statement(stmt)

    def statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            raised = [
                name
                for node in ast.walk(stmt)
                if isinstance(node, ast.Raise)
                for name in _exception_names(node.exc)
            ]
            self.facts.nested_raises[stmt.name] = raised
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assignment(stmt)
            return
        if isinstance(stmt, ast.Expr):
            self.origins_of(stmt.value)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                origins = self.origins_of(stmt.value)
                roots = [
                    node.id for node in ast.walk(stmt.value)
                    if isinstance(node, ast.Name)
                ]
                self.facts.returns.append(ReturnFact(
                    origins=sorted(origins), roots=sorted(set(roots)),
                    line=stmt.lineno,
                ))
            return
        if isinstance(stmt, ast.Raise):
            for name in _exception_names(stmt.exc):
                if name not in self.facts.raises:
                    self.facts.raises.append(name)
            if stmt.exc is not None:
                self.origins_of(stmt.exc)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._guarded_test(stmt.test, stmt.body)
            self.origins_of(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, ast.Assert):
            self._record_guards(stmt.test, ["AssertionError"],
                                stmt.lineno)
            self.origins_of(stmt.test)
            return
        if isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            origins = self.origins_of(stmt.iter)
            self._bind_target(stmt.target, origins)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                self.origins_of(item.context_expr)
                lock = self._lock_label(item.context_expr)
                if lock is not None:
                    self.lock_stack.append(lock)
                    pushed += 1
                if item.optional_vars is not None:
                    self._bind_target(
                        item.optional_vars,
                        self.origins_of(item.context_expr),
                    )
            self.walk(stmt.body)
            for _ in range(pushed):
                self.lock_stack.pop()
            return
        if isinstance(stmt, ast.Try) or isinstance(
            stmt, getattr(ast, "TryStar", ())
        ):
            handler_names = [
                name
                for handler in stmt.handlers
                for name in _exception_names(handler.type)
            ]
            self.try_stack.append(handler_names)
            self.walk(stmt.body)
            self.try_stack.pop()
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_mutation_target(target, "del")
            return
        # Remaining statements (pass, imports, global, ...) carry no flow.

    def _assignment(self, stmt: ast.stmt) -> None:
        value: Optional[ast.expr]
        targets: List[ast.expr]
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            value, targets = stmt.value, [stmt.target]
        else:  # AugAssign
            assert isinstance(stmt, ast.AugAssign)
            value, targets = stmt.value, [stmt.target]
        origins = self.origins_of(value) if value is not None else frozenset()
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            origins |= self.env.get(stmt.target.id, frozenset())
        if (
            value is not None
            and isinstance(value, ast.Call)
            and self.facts.calls
        ):
            call = self.facts.calls[-1]
            if call.id == f"{value.lineno}:{value.col_offset}":
                self._maybe_unpack(call, targets, value.lineno)
        elif value is not None and isinstance(value, ast.Name):
            # Two-step pattern: `header = S.unpack_from(...)` then
            # `(a, b, c) = header` — still one unpack binding.
            calls_by_id = {c.id: c for c in self.facts.calls}
            held = [
                calls_by_id[origin] for origin in origins
                if origin in calls_by_id
            ]
            if len(held) == 1:
                self._maybe_unpack(held[0], targets, stmt.lineno)
        for target in targets:
            self._bind_target(target, origins)
            self._record_mutation_target(
                target,
                "subscript" if isinstance(target, ast.Subscript)
                else "rebind",
            )

    def _maybe_unpack(self, call: CallNode, targets: List[ast.expr],
                      line: int) -> None:
        """Record a ``Struct.unpack*`` binding with tuple targets."""
        method = call.callee.rsplit(".", 1)[-1]
        if method not in ("unpack", "unpack_from"):
            return
        names: List[str] = []
        for target in targets:
            if isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        names.append(element.id)
                    elif isinstance(element, ast.Starred) and isinstance(
                        element.value, ast.Name
                    ):
                        names.append(element.value.id)
        if names:
            self.facts.unpacks.append(UnpackFact(
                fields=names, callee=call.callee, line=line,
            ))

    def _bind_target(self, target: ast.expr,
                     origins: FrozenSet[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = origins
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, origins)
            return
        if isinstance(target, ast.Starred):
            self._bind_target(target.value, origins)
            return
        if isinstance(target, ast.Subscript):
            dotted = _dotted(target.value) if isinstance(
                target.value, (ast.Name, ast.Attribute)) else None
            if dotted is not None and not dotted[1]:
                root = dotted[0]
                self.env[root] = self.env.get(root, frozenset()) | origins

    # -- guards --------------------------------------------------------------

    def _guarded_test(self, test: ast.expr,
                      body: List[ast.stmt]) -> None:
        # Only raises at the immediate body level count: `if bad:
        # raise X` is a guard on the tested names; a raise nested in a
        # deeper conditional is guarding something else.
        raised = [
            name
            for node in body
            if isinstance(node, ast.Raise)
            for name in _exception_names(node.exc)
        ]
        if raised:
            self._record_guards(test, raised, test.lineno)

    def _record_guards(self, test: ast.expr, raised: List[str],
                       line: int) -> None:
        for node in ast.walk(test):
            if isinstance(node, ast.Name):
                self.facts.guards.append(GuardFact(
                    name=node.id,
                    origins=sorted(self.env.get(node.id, frozenset())),
                    raised=sorted(set(raised)),
                    line=line,
                ))

    # -- ASY002 hooks --------------------------------------------------------

    def _lock_label(self, expr: ast.expr) -> Optional[str]:
        """The ``self``-rooted lock a with-statement holds, if any.

        ``with self._cond:`` labels ``_cond``; ``with
        self._peer_lock(i):`` labels ``_peer_lock()`` (a lock-returning
        accessor, recognized by name).  Non-``self`` contexts are not
        lock evidence for the *class's* shared state.
        """
        call_suffix = ""
        if isinstance(expr, ast.Call):
            expr, call_suffix = expr.func, "()"
        dotted = _dotted(expr)
        if dotted is None:
            return None
        root, chain = dotted
        if root != "self" or len(chain) != 1:
            return None
        return chain[0] + call_suffix

    def _record_mutation_target(self, target: ast.expr, kind: str) -> None:
        if self.class_ctx is None or self.facts.name == "__init__":
            return
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._record_mutation_target(element, kind)
            return
        dotted = _dotted(node) if isinstance(
            node, (ast.Name, ast.Attribute)) else None
        if dotted is None:
            return
        root, chain = dotted
        if root != "self" or len(chain) != 1:
            return
        self.class_ctx.mutations.append(MutationFact(
            attr=chain[0],
            method=self.facts.name,
            line=target.lineno,
            locks=list(self.lock_stack),
            kind=kind,
        ))

    def record_method_mutation(self, call: CallNode) -> None:
        """Register ``self.attr.mutator(...)`` calls for ASY002."""
        if self.class_ctx is None or self.facts.name == "__init__":
            return
        method = call.callee.rsplit(".", 1)[-1]
        if method not in MUTATOR_METHODS:
            return
        if call.receiver_root != "self":
            return
        # callee looks like "self.<attr>.<mutator>"
        parts = call.callee.split(".")
        if len(parts) != 3 or parts[0] != "self":
            return
        self.class_ctx.mutations.append(MutationFact(
            attr=parts[1],
            method=self.facts.name,
            line=call.line,
            locks=list(self.lock_stack),
            kind=f"method:{method}",
        ))


class _ModuleResolver:
    """Per-module name resolution (imports + top-level definitions)."""

    def __init__(self, module: str, imports: Dict[str, str],
                 toplevel: Dict[str, str]) -> None:
        self.module = module
        self.imports = imports
        self.toplevel = toplevel  # name -> "func" | "class" | "const"

    def callee_of(
        self, func: ast.expr, class_ctx: Optional[ClassFacts]
    ) -> Tuple[str, Optional[str]]:
        """(callee string, receiver root) for a call's func expression."""
        dotted = _dotted(func)
        if dotted is None:
            return "<expr>", None
        root, chain = dotted
        if not chain:
            if root in self.toplevel:
                return f"{self.module}.{root}", None
            if root in self.imports:
                return self.imports[root], None
            return root, None
        if root == "self":
            return "self." + ".".join(chain), "self"
        if root in self.imports:
            return self.imports[root] + "." + ".".join(chain), None
        if root in self.toplevel:
            return f"{self.module}.{root}." + ".".join(chain), None
        return root + "." + ".".join(chain), root


def extract_facts(module: ModuleUnit) -> ModuleFacts:
    """Distill one parsed module into its facts."""
    modname = module_name_for(module.rel)
    imports = _import_map(module.tree)
    toplevel: Dict[str, str] = {}
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            toplevel[node.name] = "func"
        elif isinstance(node, ast.ClassDef):
            toplevel[node.name] = "class"
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    toplevel[target.id] = "const"
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            toplevel[node.target.id] = "const"

    facts = ModuleFacts(
        module=modname, rel=module.rel,
        imports=imports,
    )
    resolver = _ModuleResolver(modname, imports, toplevel)

    def extract_function(
        node: ast.stmt, class_ctx: Optional[ClassFacts],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = [arg.arg for arg in (
            list(node.args.posonlyargs) + list(node.args.args)
        )]
        if class_ctx is not None and params and params[0] in (
            "self", "cls",
        ):
            params = params[1:]
        qualname = (
            f"{class_ctx.name}.{node.name}" if class_ctx else node.name
        )
        function = FunctionFacts(
            qualname=qualname,
            name=node.name,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            params=params,
            class_name=class_ctx.name if class_ctx else None,
        )
        extractor = _FunctionExtractor(function, resolver, class_ctx)
        extractor.walk(node.body)
        facts.functions.append(function)

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, None)
        elif isinstance(node, ast.ClassDef):
            klass = ClassFacts(name=node.name, line=node.lineno)
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    klass.methods.append(member.name)
            facts.classes.append(klass)
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    extract_function(member, klass)
            _inventory_class(klass, facts, node)
    return facts


def _inventory_class(klass: ClassFacts, facts: ModuleFacts,
                     node: ast.ClassDef) -> None:
    """Fill the ASY002 inventories from the class's functions."""
    for member in node.body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if member.name == "__init__":
            for stmt in ast.walk(member):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                for target in targets:
                    dotted = _dotted(target) if isinstance(
                        target, ast.Attribute) else None
                    if (
                        dotted is None or dotted[0] != "self"
                        or len(dotted[1]) != 1
                    ):
                        continue
                    attr = dotted[1][0]
                    label = _constructor_label(value, facts)
                    if label in _LOCK_TYPES:
                        if attr not in klass.lock_attrs:
                            klass.lock_attrs.append(attr)
                    elif label in _CONTAINER_TYPES or isinstance(
                        value, (ast.Dict, ast.List, ast.Set)
                    ):
                        if attr not in klass.container_attrs:
                            klass.container_attrs.append(attr)
        for sub in ast.walk(member):
            if isinstance(sub, ast.Call):
                _entry_points(sub, klass, facts)


def _constructor_label(value: Optional[ast.expr],
                       facts: ModuleFacts) -> Optional[str]:
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    if dotted is None:
        return None
    root, chain = dotted
    origin = facts.imports.get(root, root)
    return ".".join([origin] + chain) if chain else origin


def _entry_points(call: ast.Call, klass: ClassFacts,
                  facts: ModuleFacts) -> None:
    """Record ``self.<m>`` handed to threads/executors/task spawners."""
    dotted = _dotted(call.func)
    if dotted is None:
        return
    root, chain = dotted
    origin = facts.imports.get(root, root)
    full = ".".join([origin] + chain) if chain else origin
    tail = chain[-1] if chain else origin

    def self_method(expr: ast.expr) -> Optional[str]:
        d = _dotted(expr)
        if d is not None and d[0] == "self" and len(d[1]) == 1:
            return d[1][0]
        if isinstance(expr, ast.Call):
            return self_method(expr.func)
        return None

    if full in ("threading.Thread",):
        for keyword in call.keywords:
            if keyword.arg == "target":
                method = self_method(keyword.value)
                if method and method not in klass.thread_entries:
                    klass.thread_entries.append(method)
    elif tail in ("submit", "run_in_executor"):
        # submit(fn, *args) / run_in_executor(executor, fn, *args):
        # only the callable position is an entry point.
        position = 0 if tail == "submit" else 1
        if len(call.args) > position:
            method = self_method(call.args[position])
            if method and method not in klass.thread_entries:
                klass.thread_entries.append(method)
    elif tail in ("create_task", "ensure_future"):
        for arg in call.args:
            method = self_method(arg)
            if method and method not in klass.task_entries:
                klass.task_entries.append(method)


# -- the project view ---------------------------------------------------------


class ProjectUnit:
    """Every module's facts plus the cross-module indexes rules query."""

    def __init__(self, facts: Dict[str, ModuleFacts]) -> None:
        self.facts = facts
        self.functions: Dict[str, Tuple[str, FunctionFacts]] = {}
        self.classes: Dict[str, Tuple[str, ClassFacts]] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        for modname, mod in facts.items():
            for function in mod.functions:
                qualified = f"{modname}.{function.qualname}"
                self.functions[qualified] = (modname, function)
                if function.class_name is not None:
                    self.methods_by_name.setdefault(
                        function.name, []
                    ).append(qualified)
            for klass in mod.classes:
                self.classes[f"{modname}.{klass.name}"] = (modname, klass)

    @classmethod
    def from_modules(cls, modules: Iterable[ModuleUnit]) -> "ProjectUnit":
        return cls({
            (extracted := extract_facts(module)).module: extracted
            for module in modules
        })

    def resolve_call(
        self, modname: str, function: FunctionFacts, call: CallNode,
    ) -> Optional[str]:
        """Fully-qualified callee of a call fact, when determinable.

        Handles ``self.m`` on the enclosing class and falls back to
        unique-method-name resolution for calls on untyped locals
        (``message.payload()`` resolves iff exactly one project class
        defines ``payload``).
        """
        callee = call.callee
        if callee.startswith("self."):
            chain = callee.split(".")[1:]
            if len(chain) == 1 and function.class_name is not None:
                return self._resolve_method(
                    f"{modname}.{function.class_name}", chain[0]
                )
            return None
        if callee in self.functions:
            return callee
        if "." in callee:
            # A dotted name may already be fully qualified (imported
            # function/classmethod) or a call on a local object.
            head, tail = callee.rsplit(".", 1)
            if head in self.classes:
                return self._resolve_method(head, tail) or callee
            if call.receiver_root is not None:
                candidates = self.methods_by_name.get(tail, [])
                if len(candidates) == 1:
                    return candidates[0]
            return callee if callee in self.functions else None
        return None

    def _resolve_method(self, owner: str, method: str) -> Optional[str]:
        entry = self.classes.get(owner)
        if entry is not None and method in entry[1].methods:
            return f"{owner}.{method}"
        return None
