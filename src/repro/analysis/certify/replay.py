"""Symbolic replay of generated OSM code (TRV001).

The replayer validates a fused per-state stepper
(:func:`repro.core.fuse.generate_stepper`) — the only generated OSM
code — against the *reference* transition semantics, without executing
either.  It works in two halves:

1. **Extraction** (:class:`_Extractor`): the stepper's source (captured
   on the function object as ``__fused_source__``) is parsed and
   flattened into a linear sequence of *effect events* —
   guard calls, keyed-guard tests, identifier evaluations (a bound call,
   or the AST dump of a pasted ``__fuse_inline__`` expression), blocking
   refusals, buffer updates, holder flips, counter bumps, manager
   bookkeeping, transition bookkeeping.  Bound constants
   (managers, slots, edge objects, predicates) are resolved through the
   function's ``__defaults__`` so events carry the real objects, and the
   token-buffer alias is tracked through local assignments.  Every
   statement must classify: any write or call the extractor cannot
   place in its vocabulary raises :class:`ExtractionError`, which the
   caller reports as a conservative
   certification failure — unknown effects are treated as wrong, never
   ignored.  The same holds for loops: a ``for`` statement replays once,
   so its iterable must have one of the shapes the generators emit (see
   :meth:`_Extractor._known_iterable`); a loop over anything else — a
   sliced ident list, say, which would silently skip elements — fails
   extraction.

2. **Matching**: an *expected* event sequence is derived independently
   from the edge's ``condition.primitives`` plus the reference ordering
   rules — probe effects in primitive order, then commitment in
   :meth:`Transaction.commit` order (releases, discards, grants), then
   ``try_transition`` bookkeeping (current/last_edge/n_transitions/age,
   action, ``on_enter``, the initial-state buffer check).  Where the
   generator pastes an identifier's or a guard key's ``__fuse_inline__``
   expression, the plan requires the *declared* expression, and a keyed
   test must compare against the guard's own value.  Matching uses
   small regex-like combinators (:class:`_One`, :class:`_Zone`,
   :class:`_Rep`) with backtracking; manager-internal bookkeeping
   (free-counters, writer and order lists, ready bitmaps, the in-order
   queue's release budget, the rename manager's register stamp and
   producer chains) is admitted through bounded zones that still
   *require* the reference counter updates.  A release into a manager
   whose emitter keeps the wake contract must also wake the new queue
   head right after its commit body (``<m>._order[0]._asleep = False``).

The manager emitters whose bodies fill those zones are trusted code:
the zones pin their vocabulary, not their logic, which the differential
emitter test checks against each manager's TMI methods.

Soundness caveat (documented in ``docs/static-analysis.md``): the replay
is *linear* — it checks that every effect the generated code can perform
appears in the reference order with the reference operands, and that
every refusal path escapes the attempt (``break``, or an ok-flag clear
before one),
but it does not model arbitrary branch interleavings.  The generators
only emit straight-line code with single-level refusal branches, so the
linearization is faithful for everything they produce today; code
outside that shape fails extraction rather than passing silently.
"""

from __future__ import annotations

import ast
import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ...core.primitives import (
    Allocate,
    AllocateMany,
    Discard,
    Guard,
    Inquire,
    Release,
    ReleaseMany,
)
from .astnorm import const_value, parse_function

__all__ = [
    "ExtractionError",
    "replay_stepper",
    "replay_wake",
]

#: wildcard for matcher operands
ANY = object()

#: builtins the generators call for bookkeeping, never for effects
_PURE_BUILTINS = frozenset({
    "any", "enumerate", "id", "isinstance", "len", "list", "sorted", "str",
    "type",
})

#: effect-free methods (reads)
_IGNORED_METHODS = frozenset({"get", "items", "startswith"})


class ExtractionError(Exception):
    """Generated code contains a statement the replayer cannot classify."""


# --------------------------------------------------------------------------
# name resolution


def _param_env(node: ast.FunctionDef, fn) -> Dict[str, Tuple]:
    """Bindings for the generated function's parameters.

    Generated artifacts bind every captured constant as a keyword default
    (``def _fused_step(osm, clock, mgr_1=mgr_1, ...)``), so the live
    function's ``__defaults__`` align with the tail of the parameter
    list; the leading positional parameters are the runtime inputs.
    """
    names = [a.arg for a in node.args.args]
    defaults = fn.__defaults__ or ()
    if len(defaults) > len(names):
        raise ExtractionError("more defaults than parameters")
    env: Dict[str, Tuple] = {}
    for name, value in zip(names[len(names) - len(defaults):], defaults):
        env[name] = ("obj", value)
    return env


class _Extractor:
    """Flattens a generated function body into effect events."""

    def __init__(self, env: Dict[str, Tuple]):
        self.env = dict(env)
        self.events: List[Tuple] = []

    def emit(self, *event) -> None:
        self.events.append(tuple(event))

    # -- resolution --------------------------------------------------------

    def _resolve(self, node) -> Optional[Tuple]:
        """Binding for *node*: ("obj", o) | ("osm",) | ("clock",) |
        ("buffer",) | ("ident",) (an evaluated identifier) |
        ("list",) (a local list) | ("local",) | None (unresolvable)."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        return None

    def _is_kind(self, node, kind: str) -> bool:
        binding = self._resolve(node)
        return binding is not None and binding[0] == kind

    def _obj(self, node):
        binding = self._resolve(node)
        if binding is not None and binding[0] == "obj":
            return binding[1]
        return None

    def _slot(self, node):
        """The slot-string operand of a buffer operation, or ANY."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        value = self._obj(node)
        if isinstance(value, str):
            return value
        return ANY

    # -- statements --------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        for index, stmt in enumerate(body):
            before = len(self.events)
            self._stmt(stmt)
            # Refusal structure: a blocking assignment must be followed,
            # in the same suite, by an escape from the attempt — break,
            # or an ok-flag clear.  This is what makes a refused probe
            # actually short-circuit.
            if any(e[0] == "blocked" for e in self.events[before:]) and \
                    self._direct_blocked(stmt):
                if not any(self._is_escape(s) for s in body[index + 1:]):
                    raise ExtractionError(
                        "blocking refusal not followed by an escape")

    @staticmethod
    def _direct_blocked(stmt) -> bool:
        """True when *stmt* itself is the ``osm.blocked_on = (...)``
        assignment (nested refusals are checked at their own level)."""
        return (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and stmt.targets[0].attr == "blocked_on")

    @staticmethod
    def _is_escape(stmt) -> bool:
        if isinstance(stmt, ast.Break):
            return True
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is False):
            return True
        return False

    def _stmt(self, stmt) -> None:
        if isinstance(stmt, ast.Expr):
            self._scan(stmt.value)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._augassign(stmt)
        elif isinstance(stmt, ast.Delete):
            self._delete(stmt)
        elif isinstance(stmt, ast.If):
            if self._keyed_test(stmt):
                return
            before = len(self.events)
            self._scan(stmt.test)
            if len(self.events) > before:
                # a refusing call in the test: the body must escape
                if not any(self._is_escape(s) for s in stmt.body):
                    raise ExtractionError("guarded test without an escape")
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.For):
            if not self._known_iterable(stmt.iter):
                raise ExtractionError(
                    f"loop over an unrecognized iterable {ast.unparse(stmt.iter)}")
            self._scan(stmt.iter)
            if isinstance(stmt.iter, ast.BoolOp):  # <idents> or ()
                self._ident_eval(stmt.iter.values[0])
            self._mark_local(stmt.target)
            self.run(stmt.body)
            if stmt.orelse:
                raise ExtractionError("for-else in generated code")
        elif isinstance(stmt, ast.Raise):
            # the exception expression is message formatting, not effects
            self.emit("raise")
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Pass)):
            pass
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        else:
            raise ExtractionError(
                f"unclassifiable statement {type(stmt).__name__}")

    def _is_ident_expr(self, node) -> bool:
        """A dynamic identifier evaluation: a bound ``fn(osm)`` call or a
        pasted ``__fuse_inline__`` attribute chain rooted at ``osm``."""
        if isinstance(node, ast.Call):
            return (self._is_kind(node.func, "obj") and not node.keywords
                    and len(node.args) == 1 and self._is_kind(node.args[0], "osm"))
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Subscript) and not _is_literal_node(node.slice):
                return False
            node = node.value
        return self._is_kind(node, "osm")

    def _ident_eval(self, node) -> None:
        """Record one evaluation of a dynamic identifier or guard key:
        ``call1`` for a bound ``fn(osm)`` call (emitted by the scan), or
        ``("inline", dump)`` for a pasted ``__fuse_inline__`` expression,
        so the expected plan can require the declared expression."""
        if not isinstance(node, ast.Call):
            self.emit("inline", ast.dump(node))

    def _keyed_test(self, stmt) -> bool:
        """``if (<key>) != <value>: break`` — a keyed guard's inline
        test (:meth:`repro.core.primitives.Guard.equals`).  Emits the key
        evaluation, then ``("key_ne", value)`` with the literal or bound
        value it compares against.  Any other comparison of a key or
        pasted expression fails extraction."""
        test = stmt.test
        if not (isinstance(test, ast.Compare)
                and not isinstance(test.left, ast.Name)
                and self._is_ident_expr(test.left)):
            return False
        if not (len(test.ops) == 1 and isinstance(test.ops[0], ast.NotEq)
                and len(stmt.body) == 1 and isinstance(stmt.body[0], ast.Break)
                and not stmt.orelse):
            raise ExtractionError(
                f"unrecognized keyed test {ast.unparse(test)}")
        comparator = test.comparators[0]
        value = const_value(comparator)
        if value is ...:
            binding = self._resolve(comparator)
            if binding is None or binding[0] != "obj":
                raise ExtractionError(
                    f"keyed test against {ast.unparse(comparator)}")
            value = binding[1]
        self._scan(test.left)
        self._ident_eval(test.left)
        self.emit("key_ne", value)
        return True

    def _is_buffer_snapshot(self, node) -> bool:
        """``list(buffer.items())``."""
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "list" and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and not node.args[0].args
                and isinstance(node.args[0].func, ast.Attribute)
                and node.args[0].func.attr == "items"
                and self._is_kind(node.args[0].func.value, "buffer"))

    def _known_iterable(self, node) -> bool:
        """True for the loop iterables the generator emits: the ident
        local; ``<idents>(osm) or ()``; ``list(buffer.items())``; a
        bound token list, ``upd[ident]`` or a local bound to a token
        list; and a local commit list, optionally under ``enumerate``."""
        enumerated = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "enumerate" and len(node.args) == 1
                      and not node.keywords)
        if enumerated:
            node = node.args[0]
            return isinstance(node, ast.Name) and self._is_kind(node, "list")
        if isinstance(node, ast.BoolOp):
            return (isinstance(node.op, ast.Or) and len(node.values) == 2
                    and self._is_ident_expr(node.values[0])
                    and isinstance(node.values[1], ast.Tuple)
                    and not node.values[1].elts)
        if isinstance(node, ast.Name):
            return (self._is_kind(node, "list") or self._is_kind(node, "ident")
                    or isinstance(self._obj(node), (list, tuple)))
        if isinstance(node, ast.Subscript):
            return (self._is_kind(node.value, "obj")
                    and (isinstance(node.slice, ast.Name)
                         or _is_literal_node(node.slice)))
        return self._is_buffer_snapshot(node)

    def _mark_local(self, target) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = ("local",)
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                self._mark_local(element)
        else:
            raise ExtractionError("unsupported loop target")

    def _return(self, stmt) -> None:
        value = stmt.value
        if value is None or (isinstance(value, ast.Constant)
                             and value.value is None):
            self.emit("return_none")
        else:
            obj = self._obj(value)
            if obj is None:
                raise ExtractionError("return of an unresolvable value")
            self.emit("return_obj", obj)

    def _assign(self, stmt) -> None:
        if len(stmt.targets) != 1:
            raise ExtractionError("chained assignment")
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            self._assign_name(target.id, stmt.value)
        elif isinstance(target, ast.Attribute):
            self._assign_attr(target, stmt.value)
        elif isinstance(target, ast.Subscript):
            self._scan(stmt.value)
            if self._is_kind(target.value, "buffer"):
                self.emit("buf_set", self._slot(target.slice))
            else:
                # manager-internal array bookkeeping (ready bitmaps etc.)
                self.emit("sub_set")
        else:
            raise ExtractionError("unsupported assignment target")

    def _assign_name(self, name: str, value) -> None:
        if (isinstance(value, ast.Attribute) and self._is_kind(value.value, "osm")
                and value.attr == "token_buffer"):
            self.env[name] = ("buffer",)
            return
        if isinstance(value, ast.Name):
            self.env[name] = self._resolve(value) or ("local",)
            return
        self._scan(value)
        if self._is_ident_expr(value):
            self._ident_eval(value)
            self.env[name] = ("ident",)
        elif (isinstance(value, ast.List) and not value.elts) \
                or self._is_buffer_snapshot(value):
            self.env[name] = ("list",)
        else:
            self.env[name] = ("local",)

    def _assign_attr(self, target, value) -> None:
        attr = target.attr
        if attr == "_asleep":
            # the wake contract: a release commit wakes the queue head
            head = target.value
            if not (isinstance(value, ast.Constant) and value.value is False
                    and isinstance(head, ast.Subscript)
                    and _const_int(head.slice) == 0
                    and isinstance(head.value, ast.Attribute)
                    and head.value.attr == "_order"):
                raise ExtractionError(f"unrecognized wake {ast.unparse(target)}")
            self.emit("wake_head")
            return
        if attr == "value" and self._is_kind(target.value, "local"):
            # the rename manager's allocate stamps the free buffer it
            # offers with the register it would rename: the evaluated
            # identifier, or a static register number
            if not (self._is_kind(value, "local") or self._is_kind(value, "ident")
                    or type(const_value(value)) is int):
                raise ExtractionError("token stamped with a non-ident value")
            self.emit("stamp")
            return
        if attr == "holder":
            if isinstance(value, ast.Constant) and value.value is None:
                self.emit("holder_none")
            elif self._is_kind(value, "osm"):
                self.emit("holder_osm")
            else:
                raise ExtractionError("holder assigned a foreign value")
            return
        if self._is_kind(target.value, "osm"):
            if attr == "blocked_on":
                if isinstance(value, ast.Constant) and value.value is None:
                    self.emit("blocked_clear")
                elif isinstance(value, ast.Tuple) and value.elts:
                    self.emit("blocked", self._obj(value.elts[0]))
                else:
                    raise ExtractionError("unrecognized blocked_on value")
            elif attr == "current":
                obj = self._obj(value)
                if obj is None:
                    raise ExtractionError("current assigned unresolvable state")
                self.emit("set_current", obj)
            elif attr == "last_edge":
                obj = self._obj(value)
                if obj is None:
                    raise ExtractionError("last_edge assigned unresolvable edge")
                self.emit("set_last_edge", obj)
            elif attr == "age":
                if self._is_kind(value, "clock"):
                    self.emit("set_age_clock")
                elif _const_int(value) == -1:
                    self.emit("age_reset")
                else:
                    raise ExtractionError("age assigned unrecognized value")
            elif attr == "operation":
                if isinstance(value, ast.Constant) and value.value is None:
                    self.emit("op_none")
                else:
                    raise ExtractionError("operation assigned non-None")
            else:
                raise ExtractionError(f"write to osm.{attr}")
            return
        raise ExtractionError(f"unclassifiable attribute write .{attr}")

    def _augassign(self, stmt) -> None:
        target = stmt.target
        if not isinstance(target, ast.Attribute):
            raise ExtractionError("augmented assignment to non-attribute")
        if isinstance(stmt.op, ast.Add):
            sign = "+"
        elif isinstance(stmt.op, ast.Sub):
            sign = "-"
        else:
            raise ExtractionError("non-additive augmented assignment")
        if not (isinstance(stmt.value, ast.Constant) and stmt.value.value == 1):
            raise ExtractionError("counter bump by a non-1 amount")
        attr = target.attr
        if attr == "n_transitions" and self._is_kind(target.value, "osm"):
            self.emit("n_transitions")
        elif attr == "n_inquiries":
            self.emit("inq_count", self._obj(target.value))
        else:
            self.emit("ctr", attr, sign)

    def _delete(self, stmt) -> None:
        if len(stmt.targets) != 1:
            raise ExtractionError("multi-target delete")
        target = stmt.targets[0]
        if isinstance(target, ast.Subscript) and self._is_kind(target.value, "buffer"):
            self.emit("buf_del", self._slot(target.slice))
        else:
            raise ExtractionError("delete outside the token buffer")

    # -- expressions -------------------------------------------------------

    def _scan(self, node) -> None:
        """Post-order scan emitting events for every classified call."""
        if isinstance(node, ast.Lambda):
            raise ExtractionError("lambda in generated code")
        for child in ast.iter_child_nodes(node):
            self._scan(child)
        if isinstance(node, ast.Call):
            self._call(node)

    def _call(self, call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            binding = self._resolve(func)
            if binding is None:
                if func.id in _PURE_BUILTINS:
                    return
                raise ExtractionError(f"call to unknown name {func.id}")
            if binding[0] != "obj":
                raise ExtractionError(f"call to non-constant {func.id}")
            self._bound_call(binding[1], call)
            return
        if isinstance(func, ast.Attribute):
            self._method_call(func, call)
            return
        raise ExtractionError("call through an unclassifiable callee")

    def _bound_call(self, obj, call) -> None:
        args = call.args
        if len(args) == 1 and self._is_kind(args[0], "osm"):
            self.emit("call1", obj)
        elif len(args) == 2 and self._is_kind(args[0], "osm"):
            self.emit("call2", obj)
        else:
            raise ExtractionError("call with an unrecognized signature")

    def _method_call(self, func, call) -> None:
        method = func.attr
        if method in _IGNORED_METHODS:
            return
        if method in ("append", "remove"):
            if any(self._is_kind(a, "osm") for a in call.args):
                self.emit(f"writers_{method}")  # writer / grant-order lists
                return
            if len(call.args) == 1 and self._is_operation(call.args[0]):
                self.emit(f"producers_{method}")  # rename producer chains
                return
            if (method == "append" and isinstance(func.value, ast.Name)
                    and self._is_kind(func.value, "list")):
                return  # building a local list
            raise ExtractionError(f"{method} of an unclassifiable value")
        if method == "release":
            self.emit("release_call")
            return
        if method == "on_discard":
            self.emit("on_discard")
            return
        if method == "on_release_commit":
            self.emit("on_release_commit")
            return
        if method == "write":
            base = func.value
            if isinstance(base, ast.Attribute) and base.attr == "backing":
                self.emit("backing_write")
                return
            raise ExtractionError("write call outside a register backing")
        raise ExtractionError(f"unclassifiable method call .{method}")

    def _is_operation(self, node) -> bool:
        """``osm.operation``."""
        return (isinstance(node, ast.Attribute) and node.attr == "operation"
                and self._is_kind(node.value, "osm"))


def _is_literal_node(node) -> bool:
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False
    return True


def _const_int(node) -> Optional[int]:
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return value if isinstance(value, int) else None


# --------------------------------------------------------------------------
# matchers


def _event_matches(event: Tuple, kind: str, args: Tuple) -> bool:
    if event[0] != kind:
        return False
    for position, want in enumerate(args, start=1):
        if want is ANY:
            continue
        got = event[position] if len(event) > position else None
        if isinstance(want, (str, tuple)):
            if got != want:
                return False
        elif got is not want:
            return False
    return True


class _One:
    """Exactly one event of the given kind/operands."""

    def __init__(self, kind: str, *args):
        self.kind = kind
        self.args = args

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        if start < len(events) and _event_matches(events[start], self.kind, self.args):
            yield start + 1


class _Zone:
    """A run of events drawn from *allowed* templates; *required* (when
    given) is an any-of set at least one consumed event must satisfy."""

    def __init__(self, allowed, minimum: int = 0, required=None):
        self.allowed = allowed
        self.minimum = minimum
        self.required = required

    def _ok(self, event) -> bool:
        return any(_event_matches(event, k, a) for k, a in self.allowed)

    def _satisfied(self, consumed) -> bool:
        if not self.required:
            return True
        return any(
            _event_matches(event, k, a)
            for event in consumed
            for k, a in self.required
        )

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        end = start
        while True:
            if end - start >= self.minimum and self._satisfied(events[start:end]):
                yield end
            if end < len(events) and self._ok(events[end]):
                end += 1
            else:
                return


class _Rep:
    """*lo* to *hi* repetitions of a sub-sequence."""

    def __init__(self, sequence, lo: int, hi: int):
        self.sequence = sequence
        self.lo = lo
        self.hi = hi

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        seen = set()

        def expand(position: int, count: int) -> Iterator[int]:
            if count >= self.lo and position not in seen:
                seen.add(position)
                yield position
            if count < self.hi:
                for nxt in _seq_ends(self.sequence, events, position):
                    yield from expand(nxt, count + 1)

        yield from expand(start, 0)


def _seq_ends(matchers, events: Sequence[Tuple], start: int) -> Iterator[int]:
    if not matchers:
        yield start
        return
    head, tail = matchers[0], matchers[1:]
    for middle in head.ends(events, start):
        yield from _seq_ends(tail, events, middle)


def _matches(matchers, events: Sequence[Tuple]) -> bool:
    return any(end == len(events) for end in _seq_ends(matchers, events, 0))


# --------------------------------------------------------------------------
# expected sequences


def _ident_expected(fn):
    """One evaluation of *fn* at a probe-time site: its declared
    ``__fuse_inline__`` expression, AST-normalized, when the generator
    pastes it, else a bound ``fn(osm)`` call."""
    from ...core.fuse import safe_inline_expr
    inline = getattr(fn, "__fuse_inline__", None)
    if inline is not None and safe_inline_expr(inline):
        return _One("inline", ast.dump(ast.parse(inline, mode="eval").body))
    return _One("call1", fn)


class _KeyTest:
    """A keyed guard's inline test against exactly the guard's value:
    the same object, or an equal literal of the same type."""

    def __init__(self, value):
        self.value = value

    def ends(self, events: Sequence[Tuple], start: int) -> Iterator[int]:
        if start < len(events) and events[start][0] == "key_ne":
            got = events[start][1]
            if got is self.value or (type(got) is type(self.value)
                                     and got == self.value):
                yield start + 1


def _guard_expected(p) -> List:
    if p.key is None:
        return [_One("call1", p.predicate)]
    return [_ident_expected(p.key), _KeyTest(p.value)]


def _slot_arg(slot) -> Any:
    return slot if isinstance(slot, str) else ANY


#: templates admitted inside a release-commit zone — the reference
#: counter vocabulary of the manager emitters, nothing else
_REL_COMMIT_ALLOWED = (
    ("ctr", ("n_releases", "+")), ("ctr", ("_n_free", "+")),
    ("ctr", ("_outstanding", "-")), ("ctr", ("_released_this_cycle", "+")),
    ("writers_remove", ()), ("producers_remove", ()),
    ("backing_write", ()), ("sub_set", ()), ("on_release_commit", ()),
)
#: any-of evidence the release actually committed
_REL_COMMIT_REQUIRED = (
    ("ctr", ("n_releases", "+")), ("ctr", ("_n_free", "+")),
    ("on_release_commit", ()),
)
#: templates admitted inside a grant-commit zone
_GRANT_ALLOWED = (
    ("ctr", ("n_allocates", "+")), ("ctr", ("_n_free", "-")),
    ("ctr", ("_outstanding", "+")), ("writers_append", ()),
    ("producers_append", ()), ("sub_set", ()),
)
#: any-of evidence the grant was counted
_GRANT_REQUIRED = (
    ("ctr", ("n_allocates", "+")), ("ctr", ("_n_free", "-")),
)


#: what an allocate may do before its refusal test: the rename
#: manager's two ``TokenError`` raises and its register stamp
_ALLOCATE_PROBE = _Zone((("raise", ()), ("stamp", ())))


def _release_probe_zone(p, many: bool) -> _Zone:
    allowed = [("raise", ()), ("release_call", ()), ("blocked", (None,))]
    if p.value is not None:
        allowed.append(("call2" if many else "call1", (p.value,)))
    return _Zone(allowed, minimum=1, required=(("blocked", (None,)),))


def _edge_expected(edge, slot_cands) -> Optional[List]:
    """Matchers for the generated edge attempt, or None when the
    condition contains a primitive the generator cannot express.
    *slot_cands* are the spec's :func:`repro.core.fuse._slot_candidates`,
    which say how the generator dispatches each release."""
    from ...core import fuse

    primitives = edge.condition.primitives if edge.condition is not None else []
    sequence: List = []
    grants: List[Tuple[bool, Any]] = []
    releases: List[Tuple[bool, Any]] = []
    discards: List = []
    for p in primitives:
        kind = type(p)
        if kind is Guard:
            sequence.extend(_guard_expected(p))
        elif kind is Allocate:
            if p._dynamic:
                sequence.append(_ident_expected(p.ident))
            sequence.extend([_ALLOCATE_PROBE, _One("blocked", p.manager)])
            grants.append((False, p))
        elif kind is AllocateMany:
            sequence.append(_ident_expected(p.idents))
            sequence.extend([_ALLOCATE_PROBE, _One("blocked", p.manager)])
            grants.append((True, p))
        elif kind is Inquire:
            group = [_One("blocked", p.manager), _One("inq_count", p.manager)]
            if p._dynamic:
                sequence.append(_ident_expected(p.ident))
                sequence.append(_Rep(group, 2, 2))
            elif isinstance(p.ident, (list, tuple)):
                n = len(p.ident)
                sequence.append(_Rep(group, n, n))
            else:
                sequence.extend(group)
        elif kind is Release:
            sequence.append(_release_probe_zone(p, many=False))
            releases.append((False, p))
        elif kind is ReleaseMany:
            sequence.append(_release_probe_zone(p, many=True))
            releases.append((True, p))
        elif kind is Discard:
            discards.append(p)
        else:
            return None  # custom primitive: its state is never fused
    # commit, in Transaction.commit order: releases, discards, grants
    for many, p in releases:
        slot = ANY if many else _slot_arg(p.slot)
        sequence.append(_One("buf_del", slot))
        sequence.append(_One("holder_none"))
        sequence.append(_Zone(_REL_COMMIT_ALLOWED, minimum=1,
                              required=_REL_COMMIT_REQUIRED))
        dispatch = (fuse._release_many_dispatch(slot_cands, p.prefix) if many
                    else fuse._release_dispatch(slot_cands, p.slot))
        if dispatch is not None and dispatch[1].wakes:
            # the emitter's commit body ends in the head wake; then the
            # generic hook of the dispatch's other branch
            sequence.append(_One("wake_head"))
            sequence.append(_One("on_release_commit"))
    for p in discards:
        sequence.append(_One("buf_del", _slot_arg(p.slot) if p.slot is not None else ANY))
        sequence.append(_One("holder_none"))
        sequence.append(_One("on_discard"))
    for many, p in grants:
        slot = ANY if many else _slot_arg(p.slot)
        sequence.append(_One("holder_osm"))
        sequence.append(_One("buf_set", slot))
        sequence.append(_Zone(_GRANT_ALLOWED, minimum=1,
                              required=_GRANT_REQUIRED))
    sequence.extend(_bookkeeping_expected(edge))
    return sequence


def _bookkeeping_expected(edge) -> List:
    """The ``try_transition`` post-commit tail, in reference order."""
    sequence = [
        _One("set_current", edge.dst),
        _One("set_last_edge", edge),
        _One("n_transitions"),
    ]
    if edge.src.is_initial:
        sequence.append(_One("set_age_clock"))
    if edge.action is not None:
        sequence.append(_One("call1", edge.action))
    if edge.dst.on_enter is not None:
        sequence.append(_One("call1", edge.dst.on_enter))
    if edge.dst.is_initial:
        sequence.extend([_One("raise"), _One("op_none"), _One("age_reset")])
    sequence.append(_One("return_obj", edge))
    return sequence


# --------------------------------------------------------------------------
# drivers


def replay_stepper(state, spec) -> List[str]:
    """Validate *state*'s fused stepper against its out-edge plans.

    Returns a list of problem strings; empty means the stepper replays
    clean (TRV001 passes for this state).
    """
    from ...core import fuse

    fn = state._fused
    if fn is None:
        return []
    source = getattr(fn, "__fused_source__", None)
    if source is None:
        return [f"fused stepper for {state.name} carries no __fused_source__"]
    try:
        node = parse_function(source, "_fused_step")
    except (ValueError, SyntaxError) as exc:
        return [f"{state.name}: unparseable stepper source: {exc}"]

    try:
        env = _param_env(node, fn)
    except ExtractionError as exc:
        return [f"{state.name}: {exc}"]
    names = [a.arg for a in node.args.args]
    if len(names) < 2:
        return [f"{state.name}: stepper signature too short"]
    env[names[0]] = ("osm",)
    env[names[1]] = ("clock",)

    problems: List[str] = []
    body = list(node.body)
    header = _Extractor(env)
    try:
        while body and not isinstance(body[0], ast.While):
            header._stmt(body.pop(0))
    except ExtractionError as exc:
        return [f"{state.name}: unclassifiable stepper header: {exc}"]
    if header.events != [("blocked_clear",)]:
        problems.append(f"{state.name}: stepper header does not clear blocked_on")
    if not body or not isinstance(body[-1], ast.Return):
        problems.append(f"{state.name}: stepper does not end in a return")
        return problems
    tail = _Extractor(header.env)
    try:
        tail._stmt(body.pop())
    except ExtractionError as exc:
        return problems + [f"{state.name}: {exc}"]
    if tail.events != [("return_none",)]:
        problems.append(f"{state.name}: stepper tail is not `return None`")

    edges = state.out_edges
    slot_cands = fuse._slot_candidates(spec)
    if len(body) != len(edges):
        problems.append(
            f"{state.name}: {len(body)} edge attempts generated for "
            f"{len(edges)} out-edges")
        return problems
    for edge, attempt in zip(edges, body):
        if not (isinstance(attempt, ast.While)
                and isinstance(attempt.test, ast.Constant)
                and attempt.test.value is True):
            problems.append(f"{edge.qualname}: edge attempt is not `while True`")
            continue
        extractor = _Extractor(header.env)
        try:
            extractor.run(attempt.body)
        except ExtractionError as exc:
            problems.append(f"{edge.qualname}: {exc}")
            continue
        expected = _edge_expected(edge, slot_cands)
        if expected is not None and _matches(expected, extractor.events):
            continue
        problems.append(
            f"{edge.qualname}: generated effects do not replay against the "
            f"edge plan (events: {[e[0] for e in extractor.events]})")
    return problems


# --------------------------------------------------------------------------
# wake tests


#: a key value equal to no guard value of the key
_NO_VALUE = object()

#: most key-value combinations a wake test's record may depend on: the
#: replay tries every one, and fails a wake test with more
MAX_WAKE_COMBINATIONS = 4096

#: placeholder locals of a check template (the token and its manager)
_PLACEHOLDERS = ("T", "M")


def _wake_edges(state):
    """Per out-edge of *state*: its leading keyed guards and its first
    primitive past them; raises when an edge has no such primitive."""
    edges = []
    for edge in state.out_edges:
        guards = []
        for p in edge.condition.primitives:
            if type(p) is not Guard:
                break
            if p.key is None:
                raise ExtractionError(
                    f"{edge.qualname}: a predicate guard comes before its park point")
            guards.append(p)
        else:
            raise ExtractionError(f"{edge.qualname}: no primitive past the guards")
        edges.append((guards, p))
    return edges


def _same_ast(actual, expected, env, bound, rename) -> bool:
    """Whether *actual* is the *expected* node, where a placeholder name
    binds to a fresh local on first use (recorded in *rename*), a name
    of *bound* must be a parameter bound to that object, ``osm`` the
    OSM, and any other name the same unbound (builtin) name."""
    if isinstance(expected, ast.Name):
        if not isinstance(actual, ast.Name):
            return False
        binding = env.get(actual.id)
        if expected.id in _PLACEHOLDERS:
            if expected.id not in rename and binding is None \
                    and actual.id not in rename.values():
                rename[expected.id] = actual.id
            return rename.get(expected.id) == actual.id
        if expected.id in bound:
            return binding is not None and binding[0] == "obj" \
                and binding[1] is bound[expected.id]
        if expected.id == "osm":
            return binding == ("osm",)
        return actual.id == expected.id and binding is None
    if type(actual) is not type(expected):
        return False
    for field, want in ast.iter_fields(expected):
        if field in ("ctx", "type_comment"):
            continue
        got = getattr(actual, field, None)
        wants, gots = (want, got) if isinstance(want, list) else ([want], [got])
        if not isinstance(gots, list) or len(gots) != len(wants):
            return False
        for g, e in zip(gots, wants):
            if isinstance(e, ast.AST):
                if not (isinstance(g, ast.AST) and _same_ast(g, e, env, bound, rename)):
                    return False
            elif type(g) is not type(e) or g != e:
                return False
    return True


def _check_template(p, fuse, slot_cands):
    """The statements that must check park point *p*: its emitter's
    refusal expression over the placeholder locals, in the shape
    ``if not (<refusal>): return True`` (for a release, after reading
    the slot, waking on an empty one and loading its manager), and the
    objects the template's bound names stand for."""
    g = fuse._Codegen()
    if type(p) is Release:
        dispatch = fuse._release_dispatch(slot_cands, p.slot)
        refusal = dispatch and dispatch[1].release_refusal(g, "M", "T")
        if refusal is None:
            raise ExtractionError(f"Release({p.slot!r}) is no park point")
        text = (f"T = osm.token_buffer.get({p.slot!r})\n"
                "if T is None:\n    return True\n"
                "M = T.manager\n"
                f"if type(M) is not {g.operand('cls', dispatch[0])} or not ({refusal}):\n"
                "    return True\n")
    else:
        em = fuse._EMITTERS.get(type(getattr(p, "manager", None)))
        refusal = None
        if type(p) is Inquire and em is not None and not p._dynamic \
                and not isinstance(p.ident, (list, tuple)):
            refusal = em.inquire_refusal(g, p.manager, fuse._expr(g, "ident", p.ident))
        if refusal is None:
            raise ExtractionError(f"{type(p).__name__} on edge is no park point")
        text = f"if not ({refusal}):\n    return True\n"
    return ast.parse(text).body, g.env


def _key_matches(node, key, env) -> bool:
    """Whether *node* evaluates guard key *key*: its declared inline
    expression when the generator pastes it, else its bound call."""
    from ...core.fuse import safe_inline_expr
    inline = getattr(key, "__fuse_inline__", None)
    if inline is not None and safe_inline_expr(inline):
        return ast.dump(node) == ast.dump(ast.parse(inline, mode="eval").body)
    return (isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords
            and env.get(getattr(node.func, "id", None)) == ("obj", key)
            and env.get(getattr(node.args[0], "id", None)) == ("osm",))


def _value_of(node, env):
    value = const_value(node)
    if value is ...:
        binding = env.get(node.id) if isinstance(node, ast.Name) else None
        if binding is None or binding[0] != "obj":
            raise ExtractionError(f"unresolvable operand {ast.unparse(node)}")
        value = binding[1]
    return value


def _records(body, env, keys, managers, values):
    """The refusal records *body* writes while each key local has its
    value in *values*: None, ``("park", index, slot)`` through a park
    point's manager local, or ``("mgr", manager, ident)``."""
    written = []

    def holds(test):
        if isinstance(test, ast.BoolOp):
            results = [holds(v) for v in test.values]
            return any(results) if isinstance(test.op, ast.Or) else all(results)
        if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
                and test.left.id in keys and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)):
            got = values[keys[test.left.id]]
            return got is not _NO_VALUE and got == _value_of(test.comparators[0], env)
        raise ExtractionError(f"unrecognized record test {ast.unparse(test)}")

    def record(node):
        if isinstance(node, ast.Constant) and node.value is None:
            return None
        if not (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Name)):
            raise ExtractionError(f"unrecognized record {ast.unparse(node)}")
        head, ident = node.elts[0].id, _value_of(node.elts[1], env)
        if head in managers:
            return ("park", managers[head], ident)
        return ("mgr", _value_of(node.elts[0], env), ident)

    def run(stmts):
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                run(stmt.body if holds(stmt.test) else stmt.orelse)
            elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                  and isinstance(stmt.targets[0], ast.Attribute)
                  and stmt.targets[0].attr == "blocked_on"
                  and env.get(getattr(stmt.targets[0].value, "id", None)) == ("osm",)):
                written.append(record(stmt.value))
            else:
                raise ExtractionError(
                    f"unclassifiable statement {ast.unparse(stmt)[:60]}")

    run(body)
    return written


def _puts_to_sleep(stmt, env) -> bool:
    """``osm._asleep = True``."""
    return (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Attribute)
            and stmt.targets[0].attr == "_asleep"
            and env.get(getattr(stmt.targets[0].value, "id", None)) == ("osm",)
            and isinstance(stmt.value, ast.Constant) and stmt.value.value is True)


def _park_emitters(points, fuse, slot_cands):
    """The emitter of each park point in *points*."""
    for p in points:
        if type(p) is Release:
            dispatch = fuse._release_dispatch(slot_cands, p.slot)
            yield dispatch[1] if dispatch is not None else fuse.ManagerEmitter()
        else:
            yield fuse._EMITTERS.get(type(p.manager), fuse.ManagerEmitter())


def _returns(body, value) -> bool:
    """``return <value>`` and nothing else."""
    return (len(body) == 1 and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Constant)
            and body[0].value.value is value)


def _same_record(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return (got[0] == want[0] and (got[1] is want[1] or got[1] == want[1])
            and type(got[2]) is type(want[2]) and got[2] == want[2])


def replay_wake(state, spec) -> List[str]:
    """Validate *state*'s wake test against its out-edges (TRV001).

    The test must check exactly the state's distinct park points, in
    edge order, each with its emitter's refusal expression followed by
    ``return True``; evaluate each distinct guard key once; and, for
    every value of every key (each guard value, and none), write the
    refusal record the stepper would — the park point's of the last
    edge whose keyed guards hold, or the stepper's clear — then return
    False.  It may put the operation to sleep (``osm._asleep = True``)
    just before, but only when every park point's emitter keeps the wake
    contract.  Returns problem strings; empty means it replays clean.
    """
    from ...core import fuse

    fn = getattr(state, "_wake", None)
    if fn is None:
        return []
    source = getattr(fn, "__fused_source__", None)
    if source is None:
        return [f"wake test for {state.name} carries no __fused_source__"]
    try:
        node = parse_function(source, "_wake")
        env = _param_env(node, fn)
        if not node.args.args:
            raise ExtractionError("no osm parameter")
        env[node.args.args[0].arg] = ("osm",)
        return _replay_wake(state, fuse._slot_candidates(spec), fuse,
                            node.body, env)
    except (ValueError, SyntaxError, ExtractionError) as exc:
        return [f"{state.name}: wake test: {exc}"]


def _replay_wake(state, slot_cands, fuse, body, env) -> List[str]:
    edges = _wake_edges(state)
    points: List[Any] = []
    for _guards, p in edges:
        if not any(fuse._same_park_point(p, q) for q in points):
            points.append(p)
    at = 0
    managers: Dict[str, int] = {}  # park point manager local -> point index
    for index, p in enumerate(points):
        template, bound = _check_template(p, fuse, slot_cands)
        rename: Dict[str, str] = {}
        checks = body[at:at + len(template)]
        if len(checks) != len(template) or not all(
                _same_ast(a, e, env, bound, rename) for a, e in zip(checks, template)):
            raise ExtractionError(
                f"check {index + 1} is not the emitter's refusal check of "
                f"park point {type(p).__name__} (edge order)")
        for local in rename.values():
            env[local] = ("local",)
        if "M" in rename:
            managers[rename["M"]] = index
        at += len(template)
    keys_wanted: List[Any] = []
    for guards, _p in edges:
        for guard in guards:
            if not any(guard.key is k for k in keys_wanted):
                keys_wanted.append(guard.key)
    keys: Dict[str, int] = {}  # key local -> index into keys_wanted
    while len(keys) < len(keys_wanted) and at < len(body):
        stmt = body[at]
        k = next((k for k, key in enumerate(keys_wanted)
                  if k not in keys.values() and isinstance(stmt, ast.Assign)
                  and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name)
                  and _key_matches(stmt.value, key, env)), None)
        if k is None:
            break
        keys[stmt.targets[0].id] = k
        at += 1
    if len(keys) != len(keys_wanted):
        raise ExtractionError("each guard key must be evaluated once, after the checks")
    if not _returns(body[-1:], False) or at >= len(body):
        raise ExtractionError("does not end in `return False`")
    end = len(body) - 1
    if _puts_to_sleep(body[-2] if end > at else None, env):
        # sound only when every refusal can flip at a write that wakes
        if not all(em.wakes for em in _park_emitters(points, fuse, slot_cands)):
            raise ExtractionError(
                "puts the operation to sleep at a park point whose emitter "
                "keeps no wake contract")
        end -= 1
    domains = []
    for key in keys_wanted:
        seen: List[Any] = []
        for guards, _p in edges:
            for guard in guards:
                if guard.key is key and not any(v is guard.value or v == guard.value
                                                 for v in seen):
                    seen.append(guard.value)
        domains.append(seen + [_NO_VALUE])
    combinations = 1
    for domain in domains:
        combinations *= len(domain)
    if combinations > MAX_WAKE_COMBINATIONS:
        raise ExtractionError(f"{combinations} key combinations, too many to replay")
    position = {id(key): k for k, key in enumerate(keys_wanted)}
    for values in itertools.product(*domains):
        want = None  # the stepper's clear
        for guards, p in edges:
            if all(values[position[id(g.key)]] is not _NO_VALUE
                   and values[position[id(g.key)]] == g.value for g in guards):
                index = next(i for i, q in enumerate(points)
                             if fuse._same_park_point(p, q))
                want = (("park", index, p.slot) if type(p) is Release
                        else ("mgr", p.manager, p.ident))
        got = _records(body[at:end], env, keys, managers, values)
        if len(got) != 1 or not _same_record(got[0], want):
            shown = {getattr(keys_wanted[k], "__name__", repr(keys_wanted[k])):
                     None if v is _NO_VALUE else v for k, v in enumerate(values)}
            return [f"{state.name}: wake test writes {got} where the edges "
                    f"record {want} (keys {shown})"]
    return []
