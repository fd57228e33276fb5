"""Effect-footprint inference over live Python callables.

effectcheck's substrate: given a callable that model code hangs on an
OSM edge (a guard predicate, a dynamic token identifier, a release
value, a custom primitive ``probe``, an edge action, a state
``on_enter`` or a director rank key), infer a :class:`Footprint` — the
sets of abstract locations it reads and writes, the nondeterminism
sources it touches, and the calls it makes that the analyzer cannot see
through.

The analysis is source-level: ``inspect.getsource`` + ``ast`` over the
*live* function object, with the function's closure cells, globals and
bound ``self`` used as an environment to resolve names to concrete
objects.  When no source is recoverable (C builtins, ``exec``-built
code, unparseable inline-lambda fragments) a coarse bytecode walk
(:mod:`dis`) stands in, and the footprint is flagged imprecise.

Location grammar
----------------
``osm.operation.seq``
    dotted path rooted at a *symbolic* parameter role (``osm``, ``txn``,
    ``token`` …) — per-operation state of the probed OSM.
``shared:FetchUnit.slots``
    attribute of a concrete object reached through the closure or bound
    ``self`` — state shared between OSMs.
``global:repro.models.x.counter``
    module-global binding (or attribute chain hanging off one).
``…[]``
    element of a subscripted/iterated container.
``?.attr``
    attribute of an unresolvable receiver (bytecode fallback, or a
    receiver the resolver lost track of) — treated as shared by the
    rules, conservatively.

Soundness caveats (documented in ``docs/static-analysis.md``): methods
invoked *on symbolic roots* (e.g. ``osm.operation.helper()``) are
assumed read-only unless their name is in the known-mutator table;
callables defined in ``repro.core`` are trusted to honour the probe
protocol rather than re-analyzed; recursion into resolved model-level
callees is depth-bounded.
"""

from __future__ import annotations

import ast
import dis
import functools
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Footprint", "analyze_callable"]


#: modules whose use marks a callable nondeterministic (EFF006) — their
#: values vary across runs, so baking them into fused steppers (or any
#: replay) diverges
NONDET_MODULES = {"random", "time", "secrets", "uuid", "datetime", "os"}

#: builtins that are nondeterministic across interpreter runs or smuggle
#: in ambient state
NONDET_BUILTINS = {"id", "input", "globals", "locals", "vars", "memoryview"}

#: builtins known not to mutate their arguments or ambient state
PURE_BUILTINS = {
    "abs", "all", "any", "bin", "bool", "bytes", "callable", "chr",
    "dict", "divmod", "enumerate", "filter", "float", "format",
    "frozenset", "getattr", "hasattr", "hash", "hex", "int",
    "isinstance", "issubclass", "iter", "len", "list", "map", "max",
    "min", "next", "oct", "ord", "pow", "range", "repr", "reversed",
    "round", "set", "slice", "sorted", "str", "sum", "tuple", "type",
    "zip",
}

#: method names that mutate their receiver (the conservative core of the
#: list/set/dict/deque protocols)
MUTATOR_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "pop", "popleft", "popitem", "remove", "reverse",
    "rotate", "setdefault", "sort", "update", "write", "writelines",
}

#: method names known to only read their receiver
PURE_METHODS = {
    "copy", "count", "decode", "encode", "endswith", "format", "get",
    "index", "isdigit", "items", "join", "keys", "ljust", "lower",
    "lstrip", "most_common", "rjust", "rstrip", "split", "startswith",
    "strip", "upper", "values",
}

#: read-only OperationStateMachine helpers (callable on the ``osm`` root)
OSM_PURE_METHODS = {"holds", "token", "slot_of"}

#: Transaction methods — writes to the transaction are the probe
#: protocol's sanctioned effect channel
TXN_METHODS = {
    "add_grant", "add_inquiry", "add_release", "add_discard",
    "is_tentatively_released", "reset",
}

#: modules whose callables are trusted to honour the documented probe
#: protocol (manager.allocate/inquire/release write only the transaction
#: and blocked_on) instead of being re-analyzed
TRUSTED_MODULE_PREFIX = "repro.core"

#: immutable types treated as constants: resolving a name to one of
#: these records no read, because the value cannot change in flight
_CONST_TYPES = (int, float, complex, str, bytes, bool, type(None), frozenset)


@dataclass
class Footprint:
    """The inferred effect set of one callable (plus bounded callees)."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: nondeterminism sources touched (module.attr or builtin names)
    nondet: Set[str] = field(default_factory=set)
    #: calls the analyzer could not see through or classify
    opaque: Set[str] = field(default_factory=set)
    #: calls that were resolved and classified (for reporting)
    calls: Set[str] = field(default_factory=set)
    #: True when a ``.notify(...)`` call was seen (observable-version bump)
    notifies: bool = False
    #: False when no source/bytecode at all was recoverable
    analyzable: bool = True
    #: True when the coarse bytecode walk stood in for the AST analysis
    via_bytecode: bool = False
    reason: Optional[str] = None

    def merge(self, other: "Footprint") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.nondet |= other.nondet
        self.opaque |= other.opaque
        self.calls |= other.calls
        self.notifies = self.notifies or other.notifies
        self.analyzable = self.analyzable and other.analyzable
        self.via_bytecode = self.via_bytecode or other.via_bytecode
        if self.reason is None:
            self.reason = other.reason

    @property
    def pure(self) -> bool:
        """No writes, no nondeterminism, no notify."""
        return not self.writes and not self.nondet and not self.notifies

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "nondet": sorted(self.nondet),
            "opaque": sorted(self.opaque),
            "notifies": self.notifies,
            "analyzable": self.analyzable,
        }


class _Ref:
    """Resolution of an expression: a symbolic path, a concrete object,
    a module, a callable, a constant, a fresh local, or unknown."""

    __slots__ = ("kind", "path", "obj")

    def __init__(self, kind: str, path: str = "", obj: Any = None):
        self.kind = kind  # sym | obj | objattr | module | func | const | local | unknown
        self.path = path
        self.obj = obj

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Ref({self.kind}, {self.path!r})"


_UNKNOWN = _Ref("unknown")


def analyze_callable(
    fn,
    param_roles: Sequence[str] = ("osm",),
    depth: int = 2,
) -> Footprint:
    """Infer the effect footprint of *fn*.

    ``param_roles`` names the symbolic roots bound to the positional
    parameters (after any bound ``self``), e.g. ``("osm",)`` for guard
    predicates and ``("osm", "txn")`` for primitive probes.  *depth*
    bounds recursion into resolved model-level callees.
    """
    bindings: List[_Ref] = [_Ref("sym", role) for role in param_roles]
    return _analyze(fn, bindings, depth, active=set())


def _analyze(fn, bindings: List[_Ref], depth: int, active: Set[int]) -> Footprint:
    fn = inspect.unwrap(fn)
    self_ref: Optional[_Ref] = None
    if inspect.ismethod(fn):
        self_obj = fn.__self__
        self_ref = _classify_object(self_obj, f"shared:{type(self_obj).__name__}")
        fn = fn.__func__

    code = getattr(fn, "__code__", None)
    if code is None:
        name = getattr(fn, "__name__", repr(fn))
        if name in PURE_BUILTINS:
            return Footprint()
        fp = Footprint(analyzable=False, reason=f"no code object for {name!r}")
        fp.opaque.add(name)
        return fp

    if id(code) in active:
        return Footprint()  # recursive cycle: already being accounted
    active = active | {id(code)}

    node = _function_node(fn)
    if node is None:
        return _bytecode_footprint(fn)

    env_closure: Dict[str, Any] = {}
    for free, cell in zip(code.co_freevars, fn.__closure__ or ()):
        try:
            env_closure[free] = cell.cell_contents
        except ValueError:
            pass
    env_globals = getattr(fn, "__globals__", {})

    params = [a.arg for a in node.args.args]
    param_map: Dict[str, _Ref] = {}
    if self_ref is not None and params:
        param_map[params[0]] = self_ref
        params = params[1:]
    for name, ref in zip(params, bindings):
        param_map[name] = ref
    for name in params[len(bindings):]:
        param_map[name] = _Ref("sym", name)
    for extra in (node.args.kwonlyargs or []):
        param_map[extra.arg] = _Ref("sym", extra.arg)

    visitor = _EffectVisitor(
        fn=fn,
        param_map=param_map,
        closure=env_closure,
        fn_globals=env_globals,
        depth=depth,
        active=active,
    )
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        visitor.visit(stmt)
    return visitor.fp


def _function_node(fn):
    """The ``ast`` node of *fn*'s definition, or None when unparseable.
    Parsed once per code object (the visitors only read it)."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return _parse_function(fn, fn.__name__)
    return _code_node(code, fn.__name__)


@functools.lru_cache(maxsize=4096)
def _code_node(code, name):
    return _parse_function(code, name)


def _parse_function(fn, name):
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError, ValueError):
        return None
    lambdas = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
        if isinstance(node, ast.Lambda):
            lambdas.append(node)
    if name == "<lambda>":
        code = getattr(fn, "__code__", fn)
        want = tuple(code.co_varnames[: code.co_argcount])
        matches = [
            lam for lam in lambdas
            if tuple(a.arg for a in lam.args.args) == want
        ]
        if len(matches) == 1:
            return matches[0]
        # several same-signature lambdas on one source line: match by
        # column offset against the code object when possible
        for lam in matches:
            if lam.lineno == 1 and lam.col_offset == code.co_firstlineno:
                return lam  # pragma: no cover - heuristic
    return None


def _classify_object(obj: Any, path_hint: str) -> _Ref:
    """Classify a concrete environment value."""
    if isinstance(obj, _CONST_TYPES):
        return _Ref("const", path_hint, obj)
    if isinstance(obj, tuple) and all(isinstance(x, _CONST_TYPES) for x in obj):
        return _Ref("const", path_hint, obj)
    if inspect.ismodule(obj):
        return _Ref("module", obj.__name__, obj)
    if callable(obj) and not isinstance(obj, type) and (
        inspect.isfunction(obj) or inspect.ismethod(obj) or inspect.isbuiltin(obj)
    ):
        qual = getattr(obj, "__qualname__", getattr(obj, "__name__", path_hint))
        return _Ref("func", qual, obj)
    if isinstance(obj, type):
        return _Ref("func", getattr(obj, "__qualname__", path_hint), obj)
    return _Ref("obj", path_hint, obj)


class _EffectVisitor(ast.NodeVisitor):
    def __init__(self, fn, param_map, closure, fn_globals, depth, active):
        self.fn = fn
        self.module = getattr(fn, "__module__", "?") or "?"
        self.param_map = param_map
        self.closure = closure
        self.fn_globals = fn_globals
        self.depth = depth
        self.active = active
        self.locals: Dict[str, _Ref] = dict(param_map)
        self.global_decls: Set[str] = set()
        self.fp = Footprint()

    # -- name resolution ---------------------------------------------------

    def _lookup(self, name: str) -> _Ref:
        if name in self.locals:
            return self.locals[name]
        if name in self.closure:
            obj = self.closure[name]
            return _classify_object(obj, f"shared:{type(obj).__name__}")
        if name in self.fn_globals:
            obj = self.fn_globals[name]
            ref = _classify_object(obj, f"global:{self.module}.{name}")
            if ref.kind == "obj":
                # a mutable module-global: attribute traffic through it is
                # global-state traffic, keep the global: root
                ref.path = f"global:{self.module}.{name}"
            return ref
        builtins = self.fn_globals.get("__builtins__", __builtins__)
        if not isinstance(builtins, dict):
            builtins = vars(builtins)
        if name in builtins:
            if name in NONDET_BUILTINS:
                return _Ref("func", f"builtin:{name}", builtins[name])
            return _classify_object(builtins[name], f"builtin:{name}")
        return _UNKNOWN

    def _resolve(self, node: ast.AST) -> _Ref:
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            attr = node.attr
            if base.kind == "sym":
                return _Ref("sym", f"{base.path}.{attr}")
            if base.kind == "objattr":
                return _Ref("objattr", f"{base.path}.{attr}")
            if base.kind == "obj":
                try:
                    raw = inspect.getattr_static(base.obj, attr)
                except AttributeError:
                    return _Ref("objattr", f"{base.path}.{attr}")
                if inspect.isfunction(raw):
                    import types

                    bound = types.MethodType(raw, base.obj)
                    return _Ref("func", f"{base.path}.{attr}", bound)
                if isinstance(raw, (staticmethod, classmethod)):
                    return _Ref("func", f"{base.path}.{attr}", raw.__func__)
                if isinstance(raw, property):
                    return _Ref("objattr", f"{base.path}.{attr}")
                ref = _classify_object(raw, f"{base.path}.{attr}")
                if ref.kind == "obj":
                    ref.path = f"{base.path}.{attr}"
                return ref
            if base.kind == "module":
                obj = getattr(base.obj, attr, None)
                root = base.path.split(".")[0]
                if root in NONDET_MODULES:
                    return _Ref("func", f"{base.path}.{attr}", obj) if callable(obj) \
                        else _Ref("objattr", f"nondet:{base.path}.{attr}")
                if obj is None:
                    return _Ref("objattr", f"global:{base.path}.{attr}")
                ref = _classify_object(obj, f"global:{base.path}.{attr}")
                if ref.kind == "obj":
                    ref.path = f"global:{base.path}.{attr}"
                return ref
            if base.kind == "func":
                return _Ref("unknown", f"{base.path}.{attr}")
            if base.kind == "const":
                return _Ref("const", f"{base.path}.{attr}", None)
            if base.kind == "local":
                return _Ref("local", f"{base.path}.{attr}")
            return _Ref("unknown", f"{base.path}.{attr}" if base.path else "")
        if isinstance(node, ast.Subscript):
            base = self._resolve(node.value)
            if base.kind in ("sym", "obj", "objattr"):
                kind = "sym" if base.kind == "sym" else "objattr"
                return _Ref(kind, f"{base.path}[]")
            return _UNKNOWN
        if isinstance(node, ast.Call):
            return _Ref("local", "<call-result>")
        if isinstance(node, (ast.Constant, ast.JoinedStr)):
            return _Ref("const", "<literal>")
        if isinstance(node, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
            return _Ref("local", "<literal>")
        if isinstance(node, ast.IfExp):
            then = self._resolve(node.body)
            other = self._resolve(node.orelse)
            if then.kind == other.kind == "sym":
                return then  # lossy: either branch, same treatment
            return _UNKNOWN
        if isinstance(node, ast.BoolOp):
            return _UNKNOWN
        return _UNKNOWN

    # -- reads -------------------------------------------------------------

    def _record_read(self, ref: _Ref) -> None:
        if ref.kind in ("sym", "objattr"):
            if ref.path.startswith("nondet:"):
                self.fp.nondet.add(ref.path[len("nondet:"):])
            else:
                self.fp.reads.add(ref.path)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            ref = self._lookup(node.id)
            self._record_read(ref)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            self.generic_visit(node)
            return
        ref = self._resolve(node)
        if ref.kind == "unknown":
            # e.g. foo().bar — resolution lost the receiver; still visit
            # the receiver expression for its own effects
            self.generic_visit(node)
            return
        if ref.kind == "obj" and ref.path.startswith(("shared:", "global:")):
            self.fp.reads.add(ref.path)
        self._record_read(ref)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            ref = self._resolve(node)
            self._record_read(ref)
            self.visit(node.slice)
            # record the container read too (osm.token_buffer[x] reads both)
            base = self._resolve(node.value)
            self._record_read(base)
            if isinstance(node.value, (ast.Call, ast.Subscript)):
                self.visit(node.value)
        else:
            self.generic_visit(node)

    # -- writes ------------------------------------------------------------

    def _record_write(self, target: ast.AST, rhs_ref: Optional[_Ref]) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.global_decls:
                self.fp.writes.add(f"global:{self.module}.{name}")
                return
            if rhs_ref is not None and rhs_ref.kind in (
                "sym", "obj", "objattr", "module", "func", "const"
            ):
                self.locals[name] = rhs_ref
            else:
                self.locals[name] = _Ref("local", name)
            return
        if isinstance(target, ast.Attribute):
            base = self._resolve(target.value)
            attr = target.attr
            if base.kind in ("sym", "objattr"):
                self.fp.writes.add(f"{base.path}.{attr}")
            elif base.kind == "obj":
                self.fp.writes.add(f"{base.path}.{attr}")
            elif base.kind == "module":
                self.fp.writes.add(f"global:{base.path}.{attr}")
            elif base.kind == "local":
                pass  # mutation of a locally-created object: invisible
            else:
                self.fp.writes.add(f"?.{attr}")
            return
        if isinstance(target, ast.Subscript):
            base = self._resolve(target.value)
            if base.kind in ("sym", "objattr", "obj"):
                self.fp.writes.add(f"{base.path}[]")
            elif base.kind == "local":
                pass
            else:
                self.fp.writes.add("?[]")
            self.visit(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write(elt, None)
            return
        if isinstance(target, ast.Starred):
            self._record_write(target.value, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        rhs_ref = None
        if isinstance(node.value, (ast.Name, ast.Attribute, ast.Subscript)):
            rhs_ref = self._resolve(node.value)
        self.visit(node.value)
        for target in node.targets:
            self._record_write(target, rhs_ref)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            rhs_ref = None
            if isinstance(node.value, (ast.Name, ast.Attribute, ast.Subscript)):
                rhs_ref = self._resolve(node.value)
            self.visit(node.value)
            self._record_write(node.target, rhs_ref)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        # an augmented target is both read and written
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            ref = self._resolve(node.target)
            self._record_read(ref)
        self._record_write(node.target, None)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write(target, None)

    def visit_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        for name in node.names:
            self.fp.writes.add(f"shared:nonlocal.{name}")

    # -- loops / comprehensions -------------------------------------------

    def _bind_loop_target(self, target: ast.AST, iter_node: ast.AST) -> None:
        iter_ref = self._resolve(iter_node)
        if iter_ref.kind in ("sym", "objattr", "obj") and iter_ref.path:
            elem_kind = "sym" if iter_ref.kind == "sym" else "objattr"
            elem = _Ref(elem_kind, f"{iter_ref.path}[]")
        else:
            elem = None
        names = []
        stack = [target]
        while stack:
            t = stack.pop()
            if isinstance(t, ast.Name):
                names.append(t.id)
            elif isinstance(t, (ast.Tuple, ast.List)):
                stack.extend(t.elts)
            elif isinstance(t, ast.Starred):
                stack.append(t.value)
        for name in names:
            self.locals[name] = elem if elem is not None else _Ref("local", name)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._record_read(self._resolve(node.iter))
        self._bind_loop_target(node.target, node.iter)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            self.visit(gen.iter)
            self._record_read(self._resolve(gen.iter))
            self._bind_loop_target(gen.target, gen.iter)
            for cond in gen.ifs:
                self.visit(cond)

    def visit_ListComp(self, node) -> None:
        self.visit_comprehension_generators(node.generators)
        self.visit(node.elt)

    def visit_SetComp(self, node) -> None:
        self.visit_comprehension_generators(node.generators)
        self.visit(node.elt)

    def visit_GeneratorExp(self, node) -> None:
        self.visit_comprehension_generators(node.generators)
        self.visit(node.elt)

    def visit_DictComp(self, node) -> None:
        self.visit_comprehension_generators(node.generators)
        self.visit(node.key)
        self.visit(node.value)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # a nested lambda's body executes later in the same environment:
        # analyze it inline with its params as opaque locals
        saved = dict(self.locals)
        for a in node.args.args:
            self.locals[a.arg] = _Ref("local", a.arg)
        self.visit(node.body)
        self.locals = saved

    def visit_FunctionDef(self, node) -> None:
        pass  # nested defs: effects happen only if called (handled there)

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- imports / nondet --------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in NONDET_MODULES:
                self.fp.nondet.add(f"import:{alias.name}")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in NONDET_MODULES:
            self.fp.nondet.add(f"import:{node.module}")

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

        func = node.func
        if isinstance(func, ast.Attribute):
            self._dispatch_method_call(func, node)
            return
        ref = self._resolve(func)
        self._dispatch_resolved_call(ref, node)

    def _dispatch_method_call(self, func: ast.Attribute, node: ast.Call) -> None:
        base = self._resolve(func.value)
        name = func.attr
        if name == "notify":
            self.fp.notifies = True
            self.fp.calls.add(f"{base.path}.notify" if base.path else "notify")
            return
        if base.kind in ("sym", "objattr"):
            receiver = base.path
            self._record_read(base)
            root = receiver.split(".")[0].split("[")[0]
            if name in MUTATOR_METHODS:
                self.fp.writes.add(receiver)
            elif root == "osm" and name == "note_blocked_on":
                self.fp.writes.add("osm.blocked_on")
            elif root == "txn" and name in TXN_METHODS:
                self.fp.writes.add("txn")
            elif root == "osm" and name in OSM_PURE_METHODS:
                pass
            elif name in PURE_METHODS:
                pass
            else:
                # soundness caveat: unresolvable method on a symbolic
                # receiver is assumed read-only (see module docstring)
                self.fp.calls.add(f"{receiver}.{name}")
            return
        if base.kind == "obj":
            # concrete receiver (closure object, module global): classify
            # by method name first — builtin container methods have no
            # code object to recurse into
            if name in MUTATOR_METHODS:
                self.fp.writes.add(base.path)
                return
            if name in PURE_METHODS:
                if base.path.startswith(("shared:", "global:")):
                    self.fp.reads.add(base.path)
                return
        # resolvable receiver: fall through to the resolved-call path
        ref = self._resolve(func)
        self._dispatch_resolved_call(ref, node, receiver=base)

    def _dispatch_resolved_call(
        self, ref: _Ref, node: ast.Call, receiver: Optional[_Ref] = None
    ) -> None:
        if ref.kind == "func":
            obj = ref.obj
            name = getattr(obj, "__name__", ref.path)
            module = getattr(obj, "__module__", "") or ""
            if ref.path.startswith("builtin:") or module == "builtins":
                if name in NONDET_BUILTINS:
                    self.fp.nondet.add(name)
                elif name in PURE_BUILTINS:
                    pass
                elif name in MUTATOR_METHODS and receiver is not None:
                    self.fp.writes.add(receiver.path)
                elif name in PURE_METHODS:
                    pass
                else:
                    self.fp.opaque.add(name)
                return
            # C-implemented module members (random.random, time.time)
            # carry no __module__; the resolved path still names it
            if (module.split(".")[0] in NONDET_MODULES
                    or ref.path.split(".")[0] in NONDET_MODULES):
                self.fp.nondet.add(ref.path if not module else f"{module}.{name}")
                return
            if isinstance(obj, type):
                # class instantiation: assumed to build a fresh object
                self.fp.calls.add(ref.path)
                return
            if module.startswith(TRUSTED_MODULE_PREFIX):
                # trusted to honour the probe protocol; record the call
                self.fp.calls.add(ref.path)
                if name == "notify":
                    self.fp.notifies = True
                return
            target = inspect.unwrap(obj) if not inspect.ismethod(obj) else obj
            if self.depth > 0 and getattr(
                inspect.unwrap(obj), "__code__", None
            ) is not None:
                self.fp.calls.add(ref.path)
                sub = self._analyze_callee(obj, node)
                self.fp.merge(sub)
                return
            if getattr(target, "__code__", None) is None and name in PURE_METHODS:
                return
            self.fp.opaque.add(ref.path)
            return
        if ref.kind == "module":
            return
        if ref.kind in ("obj", "objattr", "unknown", "local"):
            label = ref.path or "<dynamic>"
            self.fp.opaque.add(label)
            return
        if ref.kind == "const":
            return

    def _analyze_callee(self, obj, node: ast.Call) -> Footprint:
        """Recurse into a resolved model-level callee, mapping its
        parameters onto the caller's argument paths."""
        bindings: List[_Ref] = []
        for arg in node.args:
            ref = self._resolve(arg)
            if ref.kind in ("sym", "objattr"):
                bindings.append(ref)
            elif ref.kind == "obj":
                bindings.append(ref)
            else:
                bindings.append(_Ref("local", "<arg>"))
        try:
            return _analyze(obj, bindings, self.depth - 1, self.active)
        except RecursionError:  # pragma: no cover - defensive
            fp = Footprint()
            fp.opaque.add(getattr(obj, "__qualname__", repr(obj)))
            return fp


def _bytecode_footprint(fn) -> Footprint:
    """Coarse :mod:`dis`-based fallback when no AST is recoverable.

    Receivers are unknown at this level, so attribute stores surface as
    ``?.attr`` writes and any mutator-named method load is treated as a
    potential write — imprecise but conservative in the direction the
    rules care about.
    """
    fp = Footprint(via_bytecode=True)
    code = getattr(fn, "__code__", None)
    if code is None:
        fp.analyzable = False
        fp.reason = "no code object"
        return fp
    module = getattr(fn, "__module__", "?") or "?"
    stack = [code]
    while stack:
        c = stack.pop()
        for const in c.co_consts:
            if hasattr(const, "co_code"):
                stack.append(const)
        for ins in dis.get_instructions(c):
            op = ins.opname
            if op == "STORE_ATTR":
                fp.writes.add(f"?.{ins.argval}")
            elif op in ("STORE_GLOBAL", "DELETE_GLOBAL"):
                fp.writes.add(f"global:{module}.{ins.argval}")
            elif op in ("STORE_SUBSCR", "DELETE_SUBSCR"):
                fp.writes.add("?[]")
            elif op in ("LOAD_GLOBAL", "LOAD_NAME"):
                name = ins.argval
                if name in NONDET_MODULES or name in NONDET_BUILTINS:
                    fp.nondet.add(name)
            elif op == "IMPORT_NAME":
                if str(ins.argval).split(".")[0] in NONDET_MODULES:
                    fp.nondet.add(f"import:{ins.argval}")
            elif op in ("LOAD_METHOD", "LOAD_ATTR"):
                name = ins.argval
                if name in MUTATOR_METHODS:
                    fp.writes.add(f"?.{name}")
                elif name == "notify":
                    fp.notifies = True
                else:
                    fp.reads.add(f"?.{name}")
    return fp
