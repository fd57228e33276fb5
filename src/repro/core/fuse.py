"""Whole-model specialization: fused per-state step functions.

The only generated OSM code.  :func:`fuse_spec` generates **one Python
function per state** whose body is the concatenation of every outgoing
edge's guard evaluation, commit effects and OSM bookkeeping as
straight-line code with all constants (managers, tokens, slots,
predicates, destination states) pre-bound as parameter defaults.  The
director's fast path dispatches through ``State._fused`` when present
and falls back to :meth:`~repro.core.osm.OperationStateMachine.try_transition`
otherwise — the interpreted reference, which probes each primitive
through its own ``probe`` method — so fused and unfused states
interleave freely within one model.

There is one generated form.  Every manager an edge allocates from or
inquires of has a registered :class:`ManagerEmitter` for its *exact*
class, so the manager probe *and* commit-hook bodies are inlined and the
transaction object is replaced by local tentative-grant/release
tracking.  Release/ReleaseMany never block fusion: tokens carry their
manager, so the generic virtual ``release``/``on_release_commit`` calls
are exact (with an inline fast path when every candidate manager shares
one emitter-backed class).  A state with an edge the emitters cannot
express — a custom primitive, or a manager class without an emitter —
is not fused: it runs the interpreted reference, and the census names
the blocker.

**Soundness.** A fused stepper must be bit-identical to
``try_transition`` over the same edges: every manager call, counter
increment, ``blocked_on`` note, commit-hook effect and error message is
mirrored from :mod:`repro.core.primitives` / :mod:`repro.core.manager` /
:meth:`repro.core.transaction.Transaction.commit`.  Which states may be
fused at all is decided by the effectcheck compilability report
(:mod:`repro.analysis.effects`): :func:`enable_fusion` fuses only the
certified states, then translation-validates every stepper with
transcheck and demotes the ones that fail.  For a spec of package code
both verdicts persist across processes in one store entry per spec
structure, which also holds a digest of the exact text the TRV001
verdict certified.  Everything else — and any
codegen failure — runs the interpreted reference, with the outcome
recorded per state in the spec's :class:`CompileStats`.  The emitter
bodies themselves are trusted code: transcheck replays them only as
vocabulary zones, and a differential property test drives each
registered emitter against its manager's TMI methods.

A fused state may also get a **wake test** (:func:`generate_wake`,
installed on ``State._wake``): a cheap check of the state's *park
points*, the first non-guard primitive of each out-edge.  When it
returns False a probe would refuse every edge, so the director skips the
probe of a parked operation.  When every park point's emitter keeps a
wake contract (:attr:`ManagerEmitter.wakes`), a refusing test also puts
the operation to sleep (``osm._asleep``): the director skips it without
asking until its manager wakes it.  TRV001 replays wake tests as well,
and the gate drops one that fails (:func:`unpark_states`) while the
state stays fused; TRV009 checks the wake contracts' write sites, and
the gate keeps a state awake where one does not wake.

The text of every stepper and wake test is a function of the spec's
structure, not of the build, so a process generates and gates it once
per structure: the gated build records a **build plan** (:class:`_Plan`)
after its gate, holding per state the census outcome and, for each
function that survived, its text, the shared code object and a binding
recipe — per parameter, the position of its object in the spec walk's
visit order (:attr:`_Walk.order`), then any member steps such as
``tokens``.  A later build of that structure looks the positions up in
its own walk and makes each function from the shared code with its own
parameter defaults (:meth:`_Plan.install`).  An emitter names what it
binds (:meth:`_Codegen.bind_field`); a bind nothing names fails that
state's generation, and the state runs the reference.

Steppers bake per-edge constants (actions, ``on_enter`` hooks,
destination states); ``MachineSpec.edge()`` invalidates ``State._fused``
and ``State._wake`` so mutated specs regenerate lazily via
:func:`fuse_spec` — mutating edge callables in place after fusion is
outside the contract.
"""

from __future__ import annotations

import ast
import builtins
import functools
import gc
import math
import os
import sys
from collections import OrderedDict
from contextlib import contextmanager
from types import CodeType, FunctionType, MethodType, ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..codecache import compile_cached
from ..contentstore import (PACKAGE_ROOT, ResultCache, content_key,
                            generator_fingerprint, package_fingerprint,
                            user_cache_dir)
from .errors import TokenError
from .manager import (InOrderPoolManager, PoolManager, RegisterFileManager,
                      ResetManager, SlotManager)
from .primitives import (Allocate, AllocateMany, Discard, Guard, Inquire,
                         Release, ReleaseMany)

#: census reason prefix of a state the transcheck gate demoted
CERTIFY_PREFIX = "certify: "


class CompileStats:
    """Per-spec fusion census: state name -> None (fused) or the reason
    the state runs the interpreted reference instead.

    Recorded by :func:`fuse_spec` and the transcheck gate of
    :func:`enable_fusion`; re-recording a state replaces its entry, so
    rebuilt steppers never double-count.
    """

    def __init__(self):
        self.states: Dict[str, Optional[str]] = {}
        #: state name -> None while its wake test is installed (the
        #: director parks operations there), else why it was dropped;
        #: states that never got a wake test have no entry
        self.parking: Dict[str, Optional[str]] = {}
        #: state name -> None while its installed wake test puts
        #: operations to sleep, else why the gate keeps them awake;
        #: states whose park points keep no wake contract have no entry
        self.sleeping: Dict[str, Optional[str]] = {}

    def record_state(self, state, reason: Optional[str] = None) -> None:
        self.states[state.name] = reason
        self.parking.pop(state.name, None)
        self.sleeping.pop(state.name, None)

    def record_wake(self, state, reason: Optional[str] = None) -> None:
        self.parking[state.name] = reason
        if reason is not None:
            self.sleeping.pop(state.name, None)

    @property
    def fused_states(self) -> int:
        return sum(1 for reason in self.states.values() if reason is None)

    @property
    def fused_fallback_states(self) -> int:
        return sum(1 for reason in self.states.values() if reason is not None)

    @property
    def fallback_states(self) -> List[Tuple[str, str]]:
        """``(state name, reason)`` for every unfused state."""
        return sorted(
            (name, reason)
            for name, reason in self.states.items()
            if reason is not None
        )

    @property
    def demoted_states(self) -> List[Tuple[str, str]]:
        """``(state name, transcheck verdict)`` for every state
        :func:`demote_states` dropped back to the reference."""
        return [
            (name, reason[len(CERTIFY_PREFIX):])
            for name, reason in self.fallback_states
            if reason.startswith(CERTIFY_PREFIX)
        ]

    @property
    def parked_states(self) -> List[str]:
        """States whose wake test is installed."""
        return sorted(name for name, reason in self.parking.items()
                      if reason is None)

    @property
    def unparked_states(self) -> List[Tuple[str, str]]:
        """``(state name, reason)`` for every dropped wake test."""
        return sorted((name, reason) for name, reason in self.parking.items()
                      if reason is not None)

    @property
    def sleeping_states(self) -> List[str]:
        """States whose wake test puts operations to sleep."""
        return sorted(name for name, reason in self.sleeping.items()
                      if reason is None)

    @property
    def awake_states(self) -> List[Tuple[str, str]]:
        """``(state name, reason)`` for every state the gate keeps awake."""
        return sorted((name, reason) for name, reason in self.sleeping.items()
                      if reason is not None)

    def to_dict(self) -> Dict[str, object]:
        return {
            "fused_states": self.fused_states,
            "fused_fallback_states": self.fused_fallback_states,
            "fallback_states": [
                {"state": name, "reason": reason}
                for name, reason in self.fallback_states
            ],
            "parked_states": self.parked_states,
            "unparked_states": [
                {"state": name, "reason": reason}
                for name, reason in self.unparked_states
            ],
            "sleeping_states": self.sleeping_states,
            "awake_states": [
                {"state": name, "reason": reason}
                for name, reason in self.awake_states
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CompileStats(fused={self.fused_states}, "
                f"fallbacks={self.fused_fallback_states})")


# --------------------------------------------------------------------------
# codegen scaffolding


class _Writer:
    """Indentation-tracking line collector for one generated function."""

    def __init__(self):
        self.lines: List[str] = []
        self.indent = 1

    def __call__(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    @contextmanager
    def block(self, header: str):
        self(header)
        self.indent += 1
        try:
            yield
        finally:
            self.indent -= 1


class _Codegen:
    """Constant binding (constants as parameter defaults, so the hot
    path pays local-variable loads) plus a shared counter for fresh
    local names.

    Given *names* — per object of the spec, by id, its position in the
    walk's visit order (:attr:`_Walk.order`) — it records the function's
    binding recipe for a build plan: per parameter, the *path* of its
    object (its position, then any member steps), and every other path a
    later bind reached one of them by.  The generator binds the spec's
    own objects with :meth:`operand`.  An emitter binds the manager it
    was handed with :meth:`bind` and that manager's members with
    :meth:`bind_field`; a bind of anything else has no path, and raises
    while a recipe is being recorded.
    """

    def __init__(self, names: Optional[Dict[int, int]] = None):
        self.env: Dict[str, Any] = {"TokenError": TokenError}
        self.params: List[str] = []
        self._bound: Dict[int, int] = {}  # id -> parameter index
        self._n = 0
        self._names = names
        #: the manager the emitter being called was handed (:meth:`handing`)
        self.handed: Any = None
        #: per parameter, the path of its object
        self.recipe: List[Optional[tuple]] = []
        #: ``(path, parameter index)`` of each bind that reached an
        #: already-bound object by another path
        self.aliases: List[Tuple[tuple, int]] = []

    def operand(self, hint: str, obj: Any) -> str:
        """Bind an object of the spec: an edge, a state, a primitive's
        operand, or a class among them."""
        return self._bind(hint, obj, self._path(obj))

    def bind(self, hint: str, obj: Any) -> str:
        """Bind *obj*: for an emitter, the manager it was handed."""
        return self._bind(hint, obj, self._path(obj) if obj is self.handed else None)

    def bind_field(self, hint: str, owner: Any, attr: str, *keys: Any) -> str:
        """Bind ``owner.<attr>[key]...``, a member of the manager an
        emitter was handed, named so a build plan finds it again on the
        spec of a later build."""
        obj = getattr(owner, attr)
        for key in keys:
            obj = obj[key]
        base = self._path(owner) if owner is self.handed else None
        return self._bind(hint, obj, base and base + (attr,) + tuple((key,) for key in keys))

    @contextmanager
    def handing(self, mgr):
        """Emitter calls in the body are handed the concrete *mgr*."""
        self.handed = mgr
        try:
            yield
        finally:
            self.handed = None

    def _path(self, obj: Any) -> Optional[tuple]:
        position = self._names.get(id(obj)) if self._names is not None else None
        return None if position is None else (position,)

    def _bind(self, hint: str, obj: Any, path) -> str:
        if path is None and self._names is not None:
            raise LookupError(f"binds {hint!r} by no path")
        index = self._bound.get(id(obj))
        if index is not None and self.env[self.params[index]] is obj:
            if path != self.recipe[index]:
                self.aliases.append((path, index))
            return self.params[index]
        self._n += 1
        name = f"{hint}_{self._n}"
        self.env[name] = obj
        self._bound[id(obj)] = len(self.params)
        self.params.append(name)
        self.recipe.append(path)
        return name

    def fresh(self, hint: str) -> str:
        self._n += 1
        return f"{hint}{self._n}"

    def function(self, source: str, filename: str) -> Callable:
        """The function *source* defines, compiled once per process
        (:func:`~repro.codecache.compile_cached`), with the bound objects
        as its parameter defaults."""
        module = compile_cached(source, filename)
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        return _function(code, source, tuple([self.env[name] for name in self.params]))


#: the globals of every generated function, which reads no global name
#: but ``TokenError`` and builtins (its constants are parameters)
_GLOBALS = {"TokenError": TokenError, "__builtins__": builtins}


def _function(code, source: str, defaults: tuple) -> Callable:
    fn = FunctionType(code, _GLOBALS, None, defaults)
    fn.__fused_source__ = source  # TRV001 replays it; debugging too
    return fn


def _is_literal(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, float):  # nan and inf have no literal
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(_is_literal(v) for v in value)
    return False


def _expr(g: _Codegen, hint: str, value: Any) -> str:
    """A source expression for *value*: a literal when repr round-trips,
    else a bound parameter."""
    if _is_literal(value):
        return repr(value)
    return g.operand(hint, value)


#: AST node types an inline ident expression may contain — pure data
#: navigation only; anything that can call, comprehend or assign is out
_INLINE_SAFE_NODES = (
    ast.Expression, ast.Name, ast.Attribute, ast.Subscript, ast.Constant,
    ast.Tuple, ast.List, ast.Index, ast.Slice, ast.Load,
)


def safe_inline_expr(expr: Any) -> bool:
    """True when *expr* is a syntactically side-effect-free expression.

    The ``__fuse_inline__`` contract only admits pure data navigation
    over ``osm`` — names, attribute chains, subscripts and literal
    containers.  Calls, comprehensions, lambdas, boolean operators and
    anything else that could hide effects (or diverge from the tagged
    function's footprint) are rejected; the fuser then demotes the site
    to a dynamic call instead of pasting the expression (and transcheck
    rule TRV002 reports the broken declaration)."""
    return isinstance(expr, str) and _safe_inline_text(expr)


@functools.lru_cache(maxsize=256)
def _safe_inline_text(expr: str) -> bool:
    """:func:`safe_inline_expr` of a string, parsed once per process:
    declarations are literals in source (the bundled models have six
    distinct ones), and every build reads them."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        return False
    return all(isinstance(node, _INLINE_SAFE_NODES) for node in ast.walk(tree))


def _ident_call(g: _Codegen, hint: str, fn: Any) -> str:
    """A source expression for ``fn(osm)``.

    A dynamic-ident callable may declare ``__fuse_inline__`` — a
    side-effect-free source expression over ``osm`` that evaluates to the
    same value as calling it — and the stepper then pays zero call
    overhead for the hazard-identifier hot path.  The declaration is a
    contract: the expression and the function body must stay in lockstep
    (the A/B determinism tests compare the fused and reference paths, and
    transcheck's TRV002 compares the footprints statically).  A tagged
    expression that fails :func:`safe_inline_expr` is not pasted — the
    site demotes to the dynamic call."""
    inline = getattr(fn, "__fuse_inline__", None)
    if inline is not None and safe_inline_expr(inline):
        return f"({inline})"
    return f"{g.operand(hint, fn)}(osm)"


def grantable(tok_expr: str, avoid: Tuple[List[str], List[str]]) -> str:
    """The test that *tok_expr* is free and not tentatively granted
    earlier in the same condition (mirrors ``txn._granted_ids``)."""
    scalars, lists = avoid
    parts = [f"{tok_expr}.holder is None"]
    parts += [f"{tok_expr} is not {s}" for s in scalars]
    parts += [f"{tok_expr} not in {l}" for l in lists]
    return " and ".join(parts)


class _Grant:
    __slots__ = ("mgr", "emitter", "var", "slot", "many", "conditional")

    def __init__(self, mgr, emitter, var, slot, many, conditional):
        self.mgr = mgr
        self.emitter = emitter
        self.var = var          # token var (scalar) or list var (many)
        self.slot = slot        # slot source expression
        self.many = many
        self.conditional = conditional  # dynamic ident: may be vacuous


class _Rel:
    __slots__ = ("many", "var", "mgr_var", "slot", "value_var", "dispatch")

    def __init__(self, many, var, mgr_var, slot, value_var, dispatch):
        self.many = many
        self.var = var          # token var (scalar) or (slot, tok, mgr, val) list var
        self.mgr_var = mgr_var
        self.slot = slot
        self.value_var = value_var  # None -> commit with literal None
        self.dispatch = dispatch    # (class, emitter) fast path or None


class _EdgeCtx:
    """Tentative-effect tracking for one edge (the txn replacement)."""

    def __init__(self):
        self.grants: List[_Grant] = []
        self.releases: List[_Rel] = []
        self.discards: List[Tuple[Optional[str], str]] = []  # (slot expr or None, var)
        self.may_have_releases = False

    def avoid(self, mgr) -> Tuple[List[str], List[str]]:
        scalars = [gr.var for gr in self.grants if gr.mgr is mgr and not gr.many]
        lists = [gr.var for gr in self.grants if gr.mgr is mgr and gr.many]
        return scalars, lists

    def grant_count_expr(self) -> str:
        terms = []
        for gr in self.grants:
            if gr.many:
                terms.append(f"len({gr.var})")
            elif gr.conditional:
                terms.append(f"({gr.var} is not None)")
            else:
                terms.append("1")
        return " + ".join(terms) if terms else "0"


# --------------------------------------------------------------------------
# manager emitters


class ManagerEmitter:
    """Native code emitters for one *exact* token-manager class.

    Each method mirrors the corresponding TMI method or commit hook of
    the manager class exactly — identical checks, counter updates and
    error messages.  Registration is by exact type (no MRO walk): a
    manager subclass gets native code only when it registers its own
    emitter via :func:`register_native_emitter`, otherwise the states
    whose edges allocate from or inquire of it run the interpreted
    reference.

    ``allocate``/``inquire``/``allocate_commit``/``inquire_refusal`` are
    always invoked with the concrete manager instance (the primitive
    names it), so they may bind it (``g.bind``) and its members
    (``g.bind_field(hint, mgr, attr, *keys)``) as constants.  The text
    may depend on the manager's class only, never on its state.
    ``release_check``/``release_commit`` are invoked with a *runtime*
    manager expression (``token.manager``) guarded by an exact-type
    test, so they must use attribute access.
    """

    #: The wake contract.  True declares that every write of a manager
    #: field this emitter's refusal expressions read wakes
    #: (``osm._asleep = False``) each operation whose refusal the write
    #: can flip: in the manager's methods (``__init__`` aside) and in
    #: the commit code this emitter generates.  Only then may a wake
    #: test put an operation to sleep at its park points.  TRV001
    #: requires the generated release-commit wake, and the gate rule
    #: TRV009 checks the manager's methods and the model's code; a state
    #: with a write site that does not wake is kept awake.
    wakes = False

    def allocate(self, g: _Codegen, w: _Writer, mgr, out: str, ident_expr: str,
                 avoid: Tuple[List[str], List[str]]) -> None:
        """Assign the grantable token (or None) to local *out*."""
        raise NotImplementedError

    def allocate_commit(self, g: _Codegen, w: _Writer, mgr, tok: str) -> None:
        """``on_allocate_commit`` body (holder/buffer updates are emitted
        by the caller)."""
        raise NotImplementedError

    def inquire(self, g: _Codegen, w: _Writer, mgr, ident_expr: str,
                ctx: _EdgeCtx, fail: Callable[[], None]) -> None:
        """Emit the availability check; call *fail* on the refusal path."""
        raise NotImplementedError

    def release_check(self, g: _Codegen, w: _Writer, mgr_expr: str, tok: str,
                      fail: Callable[[], None]) -> None:
        raise NotImplementedError

    def release_commit(self, g: _Codegen, w: _Writer, mgr_expr: str, tok: str,
                       value_expr: str) -> None:
        raise NotImplementedError

    # A wake test (:func:`generate_wake`) asks for a park point's refusal
    # as one expression.  None means the manager never refuses cleanly,
    # so the primitive is no park point.

    def release_refusal(self, g: _Codegen, mgr_expr: str, tok: str) -> Optional[str]:
        """An expression that holds exactly when :meth:`release_check`
        refuses *tok* without raising."""
        return None

    def inquire_refusal(self, g: _Codegen, mgr, ident_expr: str) -> Optional[str]:
        """An expression that holds exactly when :meth:`inquire` of the
        static *ident_expr* refuses."""
        return None


class SlotManagerEmitter(ManagerEmitter):
    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        tok = g.bind_field("slot_tok", mgr, "token")
        w(f"{out} = {tok} if {grantable(tok, avoid)} else None")

    def allocate_commit(self, g, w, mgr, tok):
        m = g.bind("mgr", mgr)
        w(f"{m}.n_allocates += 1")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        tok = g.bind_field("slot_tok", mgr, "token")
        with w.block(f"if {tok}.holder is not None:"):
            fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        with w.block(f"if {tok} is not {mgr_expr}.token:"):
            w(f"raise TokenError('%s: release of foreign token %r'"
              f" % ({mgr_expr}.name, {tok}))")
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: %r does not hold %r'"
              f" % ({mgr_expr}.name, osm, {tok}))")
        with w.block(f"if {mgr_expr}.hold_release:"):
            fail()

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        w(f"{mgr_expr}.n_releases += 1")

    def release_refusal(self, g, mgr_expr, tok):
        return (f"{tok} is {mgr_expr}.token and {tok}.holder is osm"
                f" and {mgr_expr}.hold_release")


class PoolManagerEmitter(ManagerEmitter):
    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        m = g.bind("mgr", mgr)
        toks = g.bind_field("pool", mgr, "tokens")
        w(f"{out} = None")
        with w.block(f"if {m}._n_free != 0:"):
            tv = g.fresh("_pt")
            with w.block(f"for {tv} in {toks}:"):
                with w.block(f"if {grantable(tv, avoid)}:"):
                    w(f"{out} = {tv}")
                    w("break")

    def allocate_commit(self, g, w, mgr, tok):
        m = g.bind("mgr", mgr)
        w(f"{m}.n_allocates += 1")
        w(f"{m}._n_free -= 1")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        m = g.bind("mgr", mgr)
        toks = g.bind_field("pool", mgr, "tokens")
        nf = g.fresh("_nf")
        tv = g.fresh("_pt")
        w(f"{nf} = {m}._n_free")
        # none free -> refused; more free than tentative grants in this
        # condition -> available; otherwise scan for a free token not
        # tentatively granted (one refusal site, as TRV001 requires)
        refused = (f"{nf} == 0 or ({nf} <= {ctx.grant_count_expr()}"
                   f" and not any({grantable(tv, ctx.avoid(mgr))}"
                   f" for {tv} in {toks}))")
        with w.block(f"if {refused}:"):
            fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        # token.manager is this manager by dispatch; the interpreted
        # foreign-token check is vacuously satisfied
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: %r does not hold %r'"
              f" % ({mgr_expr}.name, osm, {tok}))")
        with w.block(f"if {mgr_expr}.hold_release:"):
            fail()

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        w(f"{mgr_expr}.n_releases += 1")
        w(f"{mgr_expr}._n_free += 1")

    def release_refusal(self, g, mgr_expr, tok):
        return f"{tok}.holder is osm and {mgr_expr}.hold_release"


class InOrderPoolManagerEmitter(PoolManagerEmitter):
    """:class:`InOrderPoolManager`: the pool bodies plus the grant-order
    list and the per-cycle release budget.  It keeps the wake contract:
    a release commit wakes the new queue head while the budget lasts
    (the grantee of an allocate commit is the committing operation)."""

    wakes = True

    def allocate_commit(self, g, w, mgr, tok):
        super().allocate_commit(g, w, mgr, tok)
        w(f"{g.bind_field('order', mgr, '_order')}.append(osm)")

    @staticmethod
    def _refused(mgr_expr):
        return (f"{mgr_expr}._hold_release"
                f" or {mgr_expr}._released_this_cycle >= {mgr_expr}.width"
                f" or not {mgr_expr}._order or {mgr_expr}._order[0] is not osm")

    def release_check(self, g, w, mgr_expr, tok, fail):
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: %r does not hold %r'"
              f" % ({mgr_expr}.name, osm, {tok}))")
        with w.block(f"if {self._refused(mgr_expr)}:"):
            fail()

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        super().release_commit(g, w, mgr_expr, tok, value_expr)
        w(f"{mgr_expr}._order.remove(osm)")
        w(f"{mgr_expr}._released_this_cycle += 1")
        with w.block(f"if {mgr_expr}._order"
                     f" and {mgr_expr}._released_this_cycle < {mgr_expr}.width:"):
            w(f"{mgr_expr}._order[0]._asleep = False")

    def release_refusal(self, g, mgr_expr, tok):
        return f"{tok}.holder is osm and ({self._refused(mgr_expr)})"


class RegisterFileManagerEmitter(ManagerEmitter):
    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        m = g.bind("mgr", mgr)
        upd = g.bind_field("upd", mgr, "update_tokens")
        wr = g.bind_field("writers", mgr, "_writers")
        mo = g.fresh("_mo")
        w(f"{out} = None")
        w(f"{mo} = {m}.max_outstanding")
        gate = (f"{ident_expr} is not None"
                f" and ({mo} is None or {m}._outstanding < {mo})"
                f" and len({wr}[{ident_expr}]) < {m}.updates_per_reg")
        with w.block(f"if {gate}:"):
            tv = g.fresh("_rt")
            with w.block(f"for {tv} in {upd}[{ident_expr}]:"):
                with w.block(f"if {grantable(tv, avoid)}:"):
                    w(f"{out} = {tv}")
                    w("break")

    def allocate_commit(self, g, w, mgr, tok):
        m = g.bind("mgr", mgr)
        wr = g.bind_field("writers", mgr, "_writers")
        w(f"{m}.n_allocates += 1")
        w(f"{m}._outstanding += 1")
        w(f"{wr}[{tok}.index].append(osm)")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        wr = g.bind_field("writers", mgr, "_writers")
        with w.block(f"if {ident_expr} is not None and {wr}[{ident_expr}]:"):
            fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        # always accepts; the interpreted foreign-manager check is
        # vacuously satisfied under token.manager dispatch
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: invalid release of %r by %r'"
              f" % ({mgr_expr}.name, {tok}, osm))")

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        wv = g.fresh("_wl")
        w(f"{mgr_expr}.n_releases += 1")
        w(f"{mgr_expr}._outstanding -= 1")
        w(f"{wv} = {mgr_expr}._writers[{tok}.index]")
        with w.block(f"if osm in {wv}:"):
            w(f"{wv}.remove(osm)")
        if value_expr != "None":
            with w.block(f"if {value_expr} is not None:"):
                w(f"{mgr_expr}.backing.write({tok}.index, {value_expr})")


class ResetManagerEmitter(ManagerEmitter):
    """:class:`ResetManager`, which keeps the wake contract: its
    generated code writes no doom."""

    wakes = True

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        w(f"{out} = None")  # the reset manager owns no allocatable tokens

    def allocate_commit(self, g, w, mgr, tok):  # pragma: no cover - unreachable
        m = g.bind("mgr", mgr)
        w(f"{m}.n_allocates += 1")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        with w.block(f"if {self.inquire_refusal(g, mgr, ident_expr)}:"):
            fail()

    def inquire_refusal(self, g, mgr, ident_expr):
        return f"id(osm) not in {g.bind_field('doomed', mgr, '_doomed')}"

    def release_check(self, g, w, mgr_expr, tok, fail):
        w(f"raise TokenError('%s manages no releasable tokens'"
          f" % ({mgr_expr}.name,))")

    def release_commit(self, g, w, mgr_expr, tok, value_expr):  # pragma: no cover
        w(f"{mgr_expr}.n_releases += 1")


#: exact manager class -> emitter
_EMITTERS: Dict[type, ManagerEmitter] = {}

#: the process's build plans (:class:`_Plan`) by structure key
#: (:attr:`_Walk.key`), least recently used first; every update is one
#: dict operation, as builds may run on threads
_PLANS: "OrderedDict[str, _Plan]" = OrderedDict()


def register_native_emitter(manager_class: type, emitter: ManagerEmitter) -> None:
    """Register native codegen for *manager_class* (exact type match).

    Model layers with custom manager subclasses call this at import time
    so their specs fuse; a state that allocates from or inquires of an
    unregistered class runs the interpreted reference — never unsound,
    only slower.  Every registered emitter needs a case in the
    differential emitter test (``tests/property/test_emitters.py``).
    A spec's structure says which of its manager classes have an
    emitter, so registering a new class keys its specs apart; replacing
    the emitter of a class may change any plan's text, so it drops them
    all.
    """
    if manager_class in _EMITTERS:
        _PLANS.clear()
    _EMITTERS[manager_class] = emitter


register_native_emitter(SlotManager, SlotManagerEmitter())
register_native_emitter(PoolManager, PoolManagerEmitter())
register_native_emitter(InOrderPoolManager, InOrderPoolManagerEmitter())
register_native_emitter(RegisterFileManager, RegisterFileManagerEmitter())
register_native_emitter(ResetManager, ResetManagerEmitter())


# --------------------------------------------------------------------------
# per-edge emission


def _native_blocker(state) -> Optional[str]:
    """None when every out-edge of *state* can be generated, else the
    census reason naming what keeps the state on the interpreted
    reference: a custom primitive, or a manager class with no
    registered emitter."""
    for edge in state.out_edges:
        for p in edge.condition.primitives:
            t = type(p)
            if t is Guard or t is Discard or t is Release or t is ReleaseMany:
                continue
            if t is Allocate or t is AllocateMany or t is Inquire:
                if type(p.manager) in _EMITTERS:
                    continue
                blocker = f"no native emitter for {type(p.manager).__name__}"
            else:
                blocker = f"custom primitive {type(p).__name__}"
            return f"reference: {blocker} on edge {edge.qualname}"
    return None


def _slot_candidates(spec) -> Tuple[Dict[str, List[Any]], List[Tuple[str, Any]]]:
    """Managers whose grants may fill each buffer slot, spec-wide."""
    exact: Dict[str, List[Any]] = {}
    many: List[Tuple[str, Any]] = []
    for edge in spec.edges:
        for p in edge.condition.primitives:
            t = type(p)
            if t is Allocate:
                mgrs = exact.setdefault(p.slot, [])
                if not any(m is p.manager for m in mgrs):
                    mgrs.append(p.manager)
            elif t is AllocateMany:
                if not any(s == p.slot and m is p.manager for s, m in many):
                    many.append((p.slot, p.manager))
    return exact, many


def _release_dispatch(slot_cands, slot: str):
    """``(class, emitter)`` fast path when every manager that can fill
    *slot* shares one emitter-backed exact class, else None (generic
    virtual dispatch — exact either way)."""
    exact, many = slot_cands
    mgrs = list(exact.get(slot, []))
    mgrs += [m for prefix, m in many if slot.startswith(prefix)]
    return _uniform_dispatch(mgrs)


def _release_many_dispatch(slot_cands, prefix: str):
    exact, many = slot_cands
    mgrs = [m for s, ms in exact.items() if s.startswith(prefix) for m in ms]
    mgrs += [m for s, m in many
             if s.startswith(prefix) or prefix.startswith(s)]
    return _uniform_dispatch(mgrs)


def _uniform_dispatch(mgrs):
    types = {type(m) for m in mgrs}
    if len(types) != 1:
        return None
    cls = types.pop()
    em = _EMITTERS.get(cls)
    return None if em is None else (cls, em)


def _emit_release_check(g, w, dispatch, mv, tok, slot_expr, fail):
    """Probe-phase release acceptance, dispatched on ``token.manager``."""
    def generic():
        with w.block(f"if not {mv}.release(osm, {tok}, osm._txn):"):
            fail()

    if dispatch is None:
        generic()
    else:
        cls, em = dispatch
        cname = g.operand("cls", cls)
        with w.block(f"if type({mv}) is {cname}:"):
            em.release_check(g, w, mv, tok, fail)
        with w.block("else:"):
            generic()


def _emit_release_hook(g, w, dispatch, mv, tok, value_expr):
    """Commit-phase ``on_release_commit``, dispatched on ``token.manager``."""
    if dispatch is None:
        w(f"{mv}.on_release_commit(osm, {tok}, {value_expr})")
    else:
        cls, em = dispatch
        cname = g.operand("cls", cls)
        with w.block(f"if type({mv}) is {cname}:"):
            em.release_commit(g, w, mv, tok, value_expr)
        with w.block("else:"):
            w(f"{mv}.on_release_commit(osm, {tok}, {value_expr})")


def _nat_guard(g, w, p, idx, ctx):
    if p.key is not None:
        # keyed guard (Guard.equals): one inline comparison, evaluated
        # per edge attempt exactly where the reference calls the predicate
        key = _ident_call(g, f"g{idx}key", p.key)
        with w.block(f"if {key} != {_expr(g, f'g{idx}value', p.value)}:"):
            w("break")
        return
    pred = g.operand(f"g{idx}pred", p.predicate)
    with w.block(f"if not {pred}(osm):"):
        w("break")


def _nat_allocate(g, w, p, idx, ctx):
    em = _EMITTERS[type(p.manager)]
    m = g.operand("mgr", p.manager)
    slot = _expr(g, f"a{idx}slot", p.slot)
    out = g.fresh(f"a{idx}t")
    if p._dynamic:
        iv = g.fresh(f"a{idx}i")
        w(f"{iv} = {_ident_call(g, f'a{idx}ident', p.ident)}")
        w(f"{out} = None")
        with w.block(f"if {iv} is not None:"):
            with g.handing(p.manager):
                em.allocate(g, w, p.manager, out, iv, ctx.avoid(p.manager))
            with w.block(f"if {out} is None:"):
                w(f"osm.blocked_on = ({m}, {iv})")
                w("break")
        conditional = True  # None past this point means vacuous, not refused
    else:
        ident = _expr(g, f"a{idx}ident", p.ident)
        with g.handing(p.manager):
            em.allocate(g, w, p.manager, out, ident, ctx.avoid(p.manager))
        with w.block(f"if {out} is None:"):
            w(f"osm.blocked_on = ({m}, {ident})")
            w("break")
        conditional = False
    ctx.grants.append(_Grant(p.manager, em, out, slot, False, conditional))


def _nat_allocate_many(g, w, p, idx, ctx):
    em = _EMITTERS[type(p.manager)]
    m = g.operand("mgr", p.manager)
    slot = _expr(g, f"m{idx}slot", p.slot)
    idents_call = _ident_call(g, f"m{idx}idents", p.idents)
    lst = g.fresh(f"m{idx}l")
    ok = g.fresh(f"m{idx}ok")
    iv = g.fresh(f"m{idx}i")
    tv = g.fresh(f"m{idx}t")
    w(f"{lst} = []")
    w(f"{ok} = True")
    # the in-progress list participates in its own dedup scans
    ctx.grants.append(_Grant(p.manager, em, lst, slot, True, False))
    with w.block(f"for {iv} in {idents_call} or ():"):
        with g.handing(p.manager):
            em.allocate(g, w, p.manager, tv, iv, ctx.avoid(p.manager))
        with w.block(f"if {tv} is None:"):
            w(f"osm.blocked_on = ({m}, {iv})")
            w(f"{ok} = False")
            w("break")
        w(f"{lst}.append({tv})")
    with w.block(f"if not {ok}:"):
        w("break")


def _nat_inquire(g, w, p, idx, ctx):
    em = _EMITTERS[type(p.manager)]
    m = g.operand("mgr", p.manager)

    def check(ident_expr, fail):
        with g.handing(p.manager):
            em.inquire(g, w, p.manager, ident_expr, ctx, fail)
        w(f"{m}.n_inquiries += 1")

    def scalar_fail(ident_expr):
        def fail():
            w(f"osm.blocked_on = ({m}, {ident_expr})")
            w("break")
        return fail

    if p._dynamic:
        iv = g.fresh(f"i{idx}v")
        w(f"{iv} = {_ident_call(g, f'i{idx}ident', p.ident)}")
        with w.block(f"if {iv} is not None:"):
            with w.block(f"if not isinstance({iv}, (list, tuple)):"):
                check(iv, scalar_fail(iv))
            with w.block("else:"):
                ok = g.fresh(f"i{idx}ok")
                sv = g.fresh(f"i{idx}s")

                def loop_fail():
                    w(f"osm.blocked_on = ({m}, {sv})")
                    w(f"{ok} = False")
                    w("break")

                w(f"{ok} = True")
                with w.block(f"for {sv} in {iv}:"):
                    check(sv, loop_fail)
                with w.block(f"if not {ok}:"):
                    w("break")
    elif isinstance(p.ident, (list, tuple)):
        for j, element in enumerate(p.ident):
            expr = _expr(g, f"i{idx}e{j}", element)
            check(expr, scalar_fail(expr))
    else:
        expr = _expr(g, f"i{idx}ident", p.ident)
        check(expr, scalar_fail(expr))


def _nat_release(g, w, p, idx, ctx, slot_cands):
    slot = _expr(g, f"r{idx}slot", p.slot)
    dispatch = _release_dispatch(slot_cands, p.slot)
    tv = g.fresh(f"r{idx}t")
    mv = g.fresh(f"r{idx}m")
    vv = None
    w(f"{tv} = buffer.get({slot})")
    with w.block(f"if {tv} is not None:"):
        if ctx.may_have_releases:
            conds = [f"{tv} is {rel.var}" for rel in ctx.releases if not rel.many]
            conds += [f"any({tv} is _x[1] for _x in {rel.var})"
                      for rel in ctx.releases if rel.many]
            with w.block(f"if {' or '.join(conds)}:"):
                w("raise TokenError("
                  f"'double release of slot %r in one condition' % ({slot},))")
        w(f"{mv} = {tv}.manager")

        def fail():
            w(f"osm.blocked_on = ({mv}, {slot})")
            w("break")

        _emit_release_check(g, w, dispatch, mv, tv, slot, fail)
        if p.value is not None:
            vf = g.operand(f"r{idx}value", p.value)
            vv = g.fresh(f"r{idx}v")
            w(f"{vv} = {vf}(osm)")
    ctx.releases.append(_Rel(False, tv, mv, slot, vv, dispatch))
    ctx.may_have_releases = True


def _nat_release_many(g, w, p, idx, ctx, slot_cands):
    prefix = _expr(g, f"r{idx}prefix", p.prefix)
    dispatch = _release_many_dispatch(slot_cands, p.prefix)
    lst = g.fresh(f"r{idx}l")
    ok = g.fresh(f"r{idx}ok")
    sv = g.fresh(f"r{idx}s")
    tv = g.fresh(f"r{idx}t")
    mv = g.fresh(f"r{idx}m")
    w(f"{lst} = []")
    w(f"{ok} = True")
    with w.block(f"for {sv}, {tv} in list(buffer.items()):"):
        with w.block(f"if not {sv}.startswith({prefix}):"):
            w("continue")
        w(f"{mv} = {tv}.manager")

        def fail():
            w(f"osm.blocked_on = ({mv}, {sv})")
            w(f"{ok} = False")
            w("break")

        _emit_release_check(g, w, dispatch, mv, tv, sv, fail)
        if p.value is not None:
            vf = g.operand(f"r{idx}value", p.value)
            w(f"{lst}.append(({sv}, {tv}, {mv}, {vf}(osm, {tv})))")
        else:
            w(f"{lst}.append(({sv}, {tv}, {mv}, None))")
    with w.block(f"if not {ok}:"):
        w("break")
    ctx.releases.append(_Rel(True, lst, None, None, None, dispatch))
    ctx.may_have_releases = True


def _nat_discard(g, w, p, idx, ctx):
    if p.slot is not None:
        slot = _expr(g, f"d{idx}slot", p.slot)
        dv = g.fresh(f"d{idx}t")
        w(f"{dv} = buffer.get({slot})")
        ctx.discards.append((slot, dv))
    else:
        dv = g.fresh(f"d{idx}l")
        w(f"{dv} = list(buffer.items())")
        ctx.discards.append((None, dv))


def _emit_native_commit(g, w, ctx):
    """Apply tentative effects in :meth:`Transaction.commit` order:
    releases, then discards, then grants."""
    for rel in ctx.releases:
        if rel.many:
            sv = g.fresh("_cs")
            tv = g.fresh("_ct")
            mv = g.fresh("_cm")
            vv = g.fresh("_cv")
            with w.block(f"for {sv}, {tv}, {mv}, {vv} in {rel.var}:"):
                w(f"del buffer[{sv}]")
                w(f"{tv}.holder = None")
                _emit_release_hook(g, w, rel.dispatch, mv, tv, vv)
        else:
            with w.block(f"if {rel.var} is not None:"):
                w(f"del buffer[{rel.slot}]")
                w(f"{rel.var}.holder = None")
                _emit_release_hook(g, w, rel.dispatch, rel.mgr_var, rel.var,
                                   rel.value_var if rel.value_var else "None")
    for slot, var in ctx.discards:
        if slot is not None:
            with w.block(f"if {var} is not None:"):
                w(f"del buffer[{slot}]")
                w(f"{var}.holder = None")
                w(f"{var}.manager.on_discard(osm, {var})")
        else:
            sv = g.fresh("_ds")
            tv = g.fresh("_dt")
            with w.block(f"for {sv}, {tv} in {var}:"):
                w(f"del buffer[{sv}]")
                w(f"{tv}.holder = None")
                w(f"{tv}.manager.on_discard(osm, {tv})")

    def allocate_commit(gr, tok):
        with g.handing(gr.mgr):
            gr.emitter.allocate_commit(g, w, gr.mgr, tok)

    for gr in ctx.grants:
        if gr.many:
            ix = g.fresh("_gi")
            tv = g.fresh("_gt")
            with w.block(f"for {ix}, {tv} in enumerate({gr.var}):"):
                w(f"{tv}.holder = osm")
                w(f"buffer[{gr.slot} + str({ix})] = {tv}")
                allocate_commit(gr, tv)
        elif gr.conditional:
            with w.block(f"if {gr.var} is not None:"):
                w(f"{gr.var}.holder = osm")
                w(f"buffer[{gr.slot}] = {gr.var}")
                allocate_commit(gr, gr.var)
        else:
            w(f"{gr.var}.holder = osm")
            w(f"buffer[{gr.slot}] = {gr.var}")
            allocate_commit(gr, gr.var)


def _emit_native_edge(g, w, edge, slot_cands):
    ctx = _EdgeCtx()
    for idx, p in enumerate(edge.condition.primitives):
        t = type(p)
        if t is Guard:
            _nat_guard(g, w, p, idx, ctx)
        elif t is Allocate:
            _nat_allocate(g, w, p, idx, ctx)
        elif t is AllocateMany:
            _nat_allocate_many(g, w, p, idx, ctx)
        elif t is Inquire:
            _nat_inquire(g, w, p, idx, ctx)
        elif t is Release:
            _nat_release(g, w, p, idx, ctx, slot_cands)
        elif t is ReleaseMany:
            _nat_release_many(g, w, p, idx, ctx, slot_cands)
        elif t is Discard:
            _nat_discard(g, w, p, idx, ctx)
        else:  # unreachable behind _native_blocker
            raise TypeError(f"non-native primitive {type(p).__name__}")
    _emit_native_commit(g, w, ctx)


def _emit_bookkeeping(g, w, edge):
    """Post-commit OSM state update, mirroring ``try_transition``."""
    dst = edge.dst
    ename = g.operand("edge", edge)
    w(f"osm.current = {g.operand('dst', dst)}")
    w(f"osm.last_edge = {ename}")
    w("osm.n_transitions += 1")
    if edge.src.is_initial:
        w("osm.age = clock")
    if edge.action is not None:
        w(f"{g.operand('action', edge.action)}(osm)")
    if dst.on_enter is not None:
        w(f"{g.operand('on_enter', dst.on_enter)}(osm)")
    if dst.is_initial:
        with w.block("if buffer:"):
            w("raise TokenError('%s: returned to initial state still "
              "holding %s' % (osm.name, sorted(buffer)))")
        w("osm.operation = None")
        w("osm.age = -1")
    w(f"return {ename}")


def generate_stepper(state, spec, slot_cands=None, g: Optional[_Codegen] = None) -> Callable:
    """Generate the fused ``step(osm, clock) -> Edge | None`` for *state*.

    A spec-wide build passes *spec*'s :func:`_slot_candidates` and the
    :class:`_Codegen` that records the binding recipe.  Raises on any
    generation problem; callers (:func:`fuse_spec`) catch and leave the
    state on the interpreted reference.
    """
    if slot_cands is None:
        slot_cands = _slot_candidates(spec)
    g = g or _Codegen()
    w = _Writer()
    w("osm.blocked_on = None")
    w("buffer = osm.token_buffer")
    for edge in state.out_edges:
        with w.block("while True:"):
            _emit_native_edge(g, w, edge, slot_cands)
            _emit_bookkeeping(g, w, edge)
    w("return None")
    sig = "".join(f", {n}={n}" for n in g.params)
    src = f"def _fused_step(osm, clock{sig}):\n" + "\n".join(w.lines)
    return g.function(src, f"<fused:{spec.name}.{state.name}>")


# --------------------------------------------------------------------------
# wake tests


def _same_park_point(p, q) -> bool:
    """Whether park points *p* and *q* are one check: releases of one
    slot, or inquiries of one manager with equal identifiers."""
    if type(p) is Release:
        return type(q) is Release and q.slot == p.slot
    return (type(q) is Inquire and q.manager is p.manager
            and type(q.ident) is type(p.ident) and q.ident == p.ident)


def _park_plan(state, slot_cands):
    """The park points of *state*, or None when it gets no wake test.

    An edge's *park point* is its first primitive that is not a guard,
    when only keyed guards come before it and it is either a
    ``Release`` whose slot has one emitter-backed manager class that can
    refuse it, or an ``Inquire`` with a static scalar literal identifier
    of a manager whose emitter can refuse one (the reset inquiry).
    Returns ``(points, edges)``: the distinct park points in edge order,
    each ``(primitive, (class, emitter))``, and per out-edge its keyed
    guards ``[(key, value)]`` and the index of its park point.
    """
    probe = _Codegen()
    points: List[Tuple[Any, Tuple[type, ManagerEmitter]]] = []
    edges: List[Tuple[List[Tuple[Any, Any]], int]] = []
    for edge in state.out_edges:
        guards = []
        for p in edge.condition.primitives:
            if type(p) is not Guard:
                break
            if p.key is None:
                return None
            guards.append((p.key, p.value))
        else:
            return None  # no primitive past the guards
        if type(p) is Release:
            dispatch = _release_dispatch(slot_cands, p.slot)
            if dispatch is None or dispatch[1].release_refusal(probe, "m", "t") is None:
                return None
        elif (type(p) is Inquire and not p._dynamic and _is_literal(p.ident)
              and not isinstance(p.ident, tuple)):
            dispatch = (type(p.manager), _EMITTERS.get(type(p.manager)))
            if dispatch[1] is None or dispatch[1].inquire_refusal(
                    probe, p.manager, repr(p.ident)) is None:
                return None
        else:
            return None
        index = next((j for j, (q, _) in enumerate(points)
                      if _same_park_point(p, q)), len(points))
        if index == len(points):
            points.append((p, dispatch))
        edges.append((guards, index))
    return points, edges


def sleeps(state, slot_cands) -> bool:
    """Whether *state*'s wake test may put operations to sleep: it has
    park points (:func:`_park_plan`) and each one's emitter keeps the
    wake contract (:attr:`ManagerEmitter.wakes`)."""
    park = _park_plan(state, slot_cands)
    return park is not None and all(em.wakes for _, (_, em) in park[0])


def generate_wake(state, spec, slot_cands=None,
                  g: Optional[_Codegen] = None, sleep: bool = True) -> Optional[Callable]:
    """Generate the wake test ``wake(osm) -> bool`` of *state*, or None
    when some out-edge has no park point (:func:`_park_plan`).

    The test checks each distinct park point once, in edge order, with
    its emitter's refusal expression, and returns True as soon as one
    would pass, a release would be vacuous (empty slot) or its probe
    would raise.  When every park point refuses, a probe of the state
    would refuse every edge — at a keyed guard or at its park point —
    and its one effect would be the ``blocked_on`` record.  The test
    writes that record (the park point's of the last edge whose keyed
    guards hold, each distinct key evaluated once; the stepper's clear
    when none hold) and returns False, and the director skips the probe.
    With *sleep* and when every park point's emitter keeps the wake
    contract, it also sets ``osm._asleep`` before returning False: the
    refusal can then flip only at a write that wakes the operation.
    Takes and raises like :func:`generate_stepper`.
    """
    park = _park_plan(state, _slot_candidates(spec) if slot_cands is None else slot_cands)
    if park is None:
        return None
    points, edges = park
    g = g or _Codegen()
    w = _Writer()
    records = []
    for p, (cls, em) in points:
        if type(p) is Release:
            slot = _expr(g, "slot", p.slot)
            tv, mv = g.fresh("_wt"), g.fresh("_wm")
            w(f"{tv} = osm.token_buffer.get({slot})")
            with w.block(f"if {tv} is None:"):
                w("return True")
            w(f"{mv} = {tv}.manager")
            with w.block(f"if type({mv}) is not {g.operand('cls', cls)}"
                         f" or not ({em.release_refusal(g, mv, tv)}):"):
                w("return True")
            records.append(f"({mv}, {slot})")
        else:
            ident = _expr(g, "ident", p.ident)
            with g.handing(p.manager):
                refusal = em.inquire_refusal(g, p.manager, ident)
            with w.block(f"if not ({refusal}):"):
                w("return True")
            records.append(f"({g.operand('mgr', p.manager)}, {ident})")
    keys: Dict[int, str] = {}
    for guards, _ in edges:
        for key, _ in guards:
            if id(key) not in keys:
                keys[id(key)] = kv = g.fresh("_wk")
                w(f"{kv} = {_ident_call(g, 'key', key)}")
    # The record of the last edge whose keyed guards hold: walk the
    # edges backwards, merging neighbours with the same record, down to
    # the first edge without guards, or else to the stepper's clear.
    chain: List[List[Any]] = []  # [disjuncts or None (always), record]
    for guards, j in reversed(edges):
        if not chain or chain[-1][1] != records[j]:
            chain.append([[], records[j]])
        if not guards:
            chain[-1][0] = None
            break
        chain[-1][0].append(" and ".join(
            f"{keys[id(key)]} == {_expr(g, 'value', value)}" for key, value in guards))
    else:
        chain.append([None, "None"])
    for n, (tests, record) in enumerate(chain):
        if tests is None:
            if n == 0:
                w(f"osm.blocked_on = {record}")
            else:
                with w.block("else:"):
                    w(f"osm.blocked_on = {record}")
            break
        tests = list(dict.fromkeys(reversed(tests)))  # in edge order
        test = " or ".join(f"({t})" if " and " in t and len(tests) > 1 else t
                           for t in tests)
        with w.block(f"{'elif' if n else 'if'} {test}:"):
            w(f"osm.blocked_on = {record}")
    if sleep and all(em.wakes for _, (_, em) in points):
        w("osm._asleep = True")
    w("return False")
    sig = "".join(f", {n}={n}" for n in g.params)
    src = "def _wake(osm" + sig + "):\n" + "\n".join(w.lines)
    return g.function(src, f"<fused:{spec.name}.{state.name}.wake>")


# --------------------------------------------------------------------------
# spec-level entry points


def fuse_spec(spec, states=None) -> int:
    """Generate fused steppers for *spec*'s states and install them on
    ``State._fused``.

    *states* restricts fusion to the named states (the certified-fusable
    set from effectcheck); others are recorded as policy fallbacks.  A
    state with an edge no emitter can express (:func:`_native_blocker`)
    and any generation failure are recorded in ``spec.compile_stats``
    and leave that state on the interpreted reference.  Returns the
    number of states fused.
    """
    return _fuse(spec, states)[0]


def _fuse(spec, states=None, names=None, awake=None):
    """:func:`fuse_spec`, returning ``(states fused, codegens)``.

    *codegens* holds, per state, the :class:`_Codegen` of its stepper
    and of its wake test, which record binding recipes when *names* is
    given (:class:`_Codegen`): what a build plan needs besides the
    installed functions and the census.  *awake* maps each state whose
    wake test must not put operations to sleep to the reason (TRV009's
    verdict).
    """
    awake = awake or {}
    slot_cands = _slot_candidates(spec)
    stats = spec.compile_stats
    fused = 0
    codegens = []
    for state in spec.states.values():
        state._fused = state._wake = None
        if states is not None and state.name not in states:
            reason = "policy: not certified fusable"
        else:
            reason = _native_blocker(state)
        gs = _Codegen(names), _Codegen(names)
        codegens.append(gs)
        if reason is None:
            try:
                state._fused = generate_stepper(state, spec, slot_cands, gs[0])
            except Exception as exc:  # degrade, never break model build
                reason = f"codegen: {type(exc).__name__}: {exc}"
        stats.record_state(state, reason)
        if state._fused is not None:
            fused += 1
            try:
                state._wake = generate_wake(state, spec, slot_cands, gs[1],
                                            state.name not in awake)
            except Exception as exc:  # the state stays fused, unparked
                stats.record_wake(state, f"codegen: {type(exc).__name__}: {exc}")
            else:
                if state._wake is not None:
                    stats.record_wake(state)
                    if sleeps(state, slot_cands):
                        stats.sleeping[state.name] = awake.get(state.name)
    return fused, codegens


def defuse_spec(spec) -> None:
    """Remove all fused steppers (A/B testing, post-mutation cleanup).

    Also the stats-reset hook for unfused model builds: clears the
    per-state fusion census and the fuse certificate, so counters from
    an earlier fused build never leak into an unfused one."""
    for state in spec.states.values():
        state._fused = None
        state._wake = None
    spec.compile_stats.states.clear()
    spec.compile_stats.parking.clear()
    spec.compile_stats.sleeping.clear()
    if getattr(spec, "fuse_certificate", None) is not None:
        spec.fuse_certificate = None


def demote_states(spec, failures) -> int:
    """Drop the fused stepper of every ``(state name, reason)`` pair in
    *failures* (transcheck verdicts), recording each in
    ``spec.compile_stats`` with :data:`CERTIFY_PREFIX` so the demotion is
    visible in the bench JSON row.  Returns the number of states demoted.
    """
    demoted = 0
    for name, reason in failures:
        state = spec.states.get(name)
        if state is None:
            continue
        state._fused = None
        state._wake = None
        spec.compile_stats.record_state(state, CERTIFY_PREFIX + reason)
        demoted += 1
    return demoted


def unpark_states(spec, failures) -> int:
    """Drop the wake test of every ``(state name, reason)`` pair in
    *failures* (transcheck verdicts on wake tests).  The state keeps its
    fused stepper and is probed as if it had no wake test; the census
    records the reason with :data:`CERTIFY_PREFIX`.  Returns the number
    of wake tests dropped."""
    dropped = 0
    for name, reason in failures:
        state = spec.states.get(name)
        if state is None or state._wake is None:
            continue
        state._wake = None
        spec.compile_stats.record_wake(state, CERTIFY_PREFIX + reason)
        dropped += 1
    return dropped


# --------------------------------------------------------------------------
# the fusion store


_PACKAGE_PREFIX = os.path.join(PACKAGE_ROOT, "")

#: operand types described by value, with no definition to fingerprint
_ATOMS = frozenset((type(None), bool, int, float, str))

#: ``type.__flags__`` bit of a class created at run time (by a ``class``
#: statement, or a C extension type made by ``PyType_FromSpec``) rather
#: than a static C type
_HEAPTYPE = 1 << 9


@functools.lru_cache(maxsize=None)
def _in_package(path: Optional[str]) -> bool:
    """Whether source file *path* lies inside the ``repro`` package,
    every file of which the structure key covers."""
    return path is not None and os.path.abspath(path).startswith(_PACKAGE_PREFIX)


@functools.lru_cache(maxsize=None)
def _class_in_package(kind: type) -> Optional[bool]:
    """True for a class defined in a package file, False for any other
    run-time class, None for a static C type (whose behaviour the Python
    version fixes and whose code the effect analysis cannot read)."""
    if not kind.__flags__ & _HEAPTYPE:
        return None
    return _in_package(getattr(sys.modules.get(kind.__module__), "__file__", None))


def _outsider(roots) -> Any:
    """The first object reachable from *roots* that is not package code
    (None when all is).

    The walk follows what the effect analysis can follow: closure cells
    of functions, receivers of bound methods and the attributes of
    objects (the analysis resolves attribute chains on live objects, not
    container items).  It stops at a function, class or module defined
    anywhere but a package file, or an object of such a class: a
    test-local or user spec, a helper module, a user subclass handed to
    a bundled model, code built by ``exec``.  Static C types are opaque
    to the analysis and end the walk.
    """
    seen: Dict[int, Any] = {}
    stack = list(roots)
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind in _ATOMS or id(value) in seen:
            continue
        seen[id(value)] = value
        if kind is FunctionType:
            # a stepper this module generated (a fused state's) counts
            # as package code; the analysis never reads it
            if not (_in_package(value.__code__.co_filename)
                    or hasattr(value, "__fused_source__")):
                return value
            for cell in value.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an unfilled cell
                    pass
        elif kind is MethodType:
            stack += (value.__self__, value.__func__)
        elif kind is ModuleType:
            if not _in_package(getattr(value, "__file__", None)):
                return value
        else:
            where = _class_in_package(value if isinstance(value, type) else kind)
            if where is False:
                return value
            if where and not isinstance(value, type):
                # the attribute values, from the collector rather than
                # ``__dict__``: reading that makes CPython build a real
                # dict for the object, and the simulator's hot objects
                # would then pay a slower attribute lookup (about 20%
                # of ppc750's simulation speed)
                for ref in gc.get_referents(value):
                    if type(ref) is dict:  # instance dict or dict attribute
                        stack.extend(ref.values())
                    else:
                        stack.append(ref)
    return None


def _qualified_name(value) -> str:
    """``module.qualname`` of a function, class or module, or of the
    class of any other object."""
    if isinstance(value, ModuleType):
        return value.__name__
    if not isinstance(value, (FunctionType, type)):
        value = type(value)
    return f"{value.__module__}.{value.__qualname__}"


class _Walk:
    """One walk over a spec, behind everything keyed on its structure.

    ``lines`` is the spec's fusion structure: one line per state and per
    edge, with names, priorities, and every primitive's kind and
    operands — literals (slot names, static idents, keyed-guard values)
    by value, functions by module, qualified name and first line, bound
    methods with their receiver's class, other objects (managers) by
    class and name, classes with whether they have a registered
    emitter, each callable with its ``__fuse_inline__``
    declaration, and every distinct object numbered in walk order, so
    which operands are one object shows too.  No line depends on where
    the package is installed.

    ``key`` is the content key of everything the process and the store
    keep per structure.  It covers every ``.py`` file of the package (so
    also this module's entry layout), the Python version, ``lines`` and
    the source description of a synthesized (ADL) spec.  That determines
    the effectcheck verdict, and the text of every stepper and wake
    test, only for a spec whose reachable code is all package code
    (``persistent``); any other spec (test-local and user specs, bundled
    models given user subclasses) is keyed apart and never stored, as
    the files its code lives in are not part of the key.  ``outsider``
    is then the first object the walk met outside the package
    (:func:`_outsider`), else None.

    ``order`` lists what the walk visited: the states, the edges, then
    every distinct value in the order it was first met.  Specs of one
    key visit alike, so a position in ``order`` names the same role in
    each.
    """

    def __init__(self, spec):
        self._seen: Dict[int, str] = {}
        self._values: List[Any] = []
        rank = self._describe(getattr(spec, "analysis_rank_key", None))
        lines = [f"spec {spec.name} {getattr(spec, 'lint_allow', ())!r} {rank}"]
        for state in spec.states.values():
            lines.append(f"state {state.name} {state.is_initial} "
                         f"{self._describe(state.on_enter)}")
        for edge in spec.edges:
            prims = [",".join([self._describe(type(p))]
                              + [self._describe(getattr(p, attr, None))
                                 for attr in getattr(type(p), "__slots__", ())])
                     for p in edge.condition.primitives]
            lines.append(f"edge {edge.qualname} {edge.src.name} {edge.dst.name} "
                         f"{edge.priority} {edge.lint_allow!r} "
                         f"{self._describe(edge.action)} [{';'.join(prims)}]")
        self.lines = lines
        self.order = [*spec.states.values(), *spec.edges, *self._values]
        self.outsider = _outsider(self._values)
        self.persistent = self.outsider is None
        self.key = content_key([
            ("python", sys.version),
            ("package", package_fingerprint("repro")),
            ("structure", "\n".join(lines)),
            ("description", getattr(spec, "source_text", None) or ""),
            ("scope", "store" if self.persistent else "process"),
        ])

    def names(self) -> Dict[int, int]:
        """Per object of the walk, by id, its first position in ``order``."""
        names: Dict[int, int] = {}
        for position, obj in enumerate(self.order):
            names.setdefault(id(obj), position)
        return names

    def _describe(self, value) -> str:
        if type(value) in _ATOMS:
            return repr(value)
        text = self._seen.get(id(value))
        if text is not None:
            return text
        self._values.append(value)
        if isinstance(value, (list, tuple)):
            text = f"{type(value).__name__}({','.join(map(self._describe, value))})"
        elif isinstance(value, type):
            text = f"{value.__module__}.{value.__qualname__}"
            if value in _EMITTERS:
                text += " native"
        elif getattr(value, "__func__", None) is not None:  # bound method
            text = (f"{self._describe(type(value.__self__))}"
                    f">{self._describe(value.__func__)}")
        elif getattr(value, "__code__", None) is not None:  # function
            text = (f"{value.__module__}.{value.__qualname__}"
                    f":{value.__code__.co_firstlineno}")
        else:
            name = getattr(value, "name", None)
            text = (f"{self._describe(type(value))}"
                    f":{name if isinstance(name, str) else ''}")
        inline = getattr(value, "__fuse_inline__", None)
        if isinstance(inline, str):  # pasted in place of a call
            text += f" inline {inline!r}"
        text += f"#{len(self._seen)}"  # which operands are one object
        self._seen[id(value)] = text
        return text


def _text_digest(spec) -> str:
    """Digest of the exact ``__fused_source__`` of every installed
    stepper and wake test: the code a TRV001 verdict certifies."""
    parts = []
    for name, state in spec.states.items():
        for suffix, fn in (("", state._fused), (":wake", state._wake)):
            if fn is not None:
                parts.append((name + suffix, fn.__fused_source__))
    return content_key(parts)


def _store() -> Optional[ResultCache]:
    """The fusion store, ``user_cache_dir()/fusion``: one JSON entry per
    spec structure of package code, holding state names, reasons and a
    digest, never code.  None when the directory cannot be made."""
    try:
        return ResultCache(os.path.join(user_cache_dir(), "fusion"))
    except OSError:
        return None


def _strings_ok(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def _pairs_ok(pairs) -> bool:
    return isinstance(pairs, list) and all(
        isinstance(p, list) and len(p) == 2 and _strings_ok(p) for p in pairs)


# --------------------------------------------------------------------------
# build plans


#: build plans kept.  A plan holds a census, text, code and paths
#: only: ppc750's, the largest, about 75 KB of text and as much code,
#: the same objects the code cache holds.  A process needs one per spec
#: structure it builds: the seven registered specs have seven, and
#: every config of the fleet-bench, E1 and E2 sweeps builds its model's
#: one structure.
MAX_PLANS = 64

#: gated builds of this process by what their plan did
_PLAN_COUNTS = {"reused": 0, "generated": 0}


def plan_stats() -> Dict[str, int]:
    """The process counters: how many gated builds reused a build plan
    and how many generated (and gated) their text."""
    return dict(_PLAN_COUNTS)


class _Unit:
    """One generated function of a build plan: its text, its code and
    its binding recipe — for each parameter the index of its path in the
    plan's path table, and ``(path index, parameter index)`` for each
    other path the generator reached a parameter's object by."""

    __slots__ = ("source", "code", "params", "aliases")

    def __init__(self, fn, g: _Codegen, index: Callable[[Any], int]):
        self.source = fn.__fused_source__
        self.code = fn.__code__
        self.params = tuple(index(path) for path in g.recipe)
        self.aliases = tuple(dict.fromkeys((index(path), j) for path, j in g.aliases))

    def make(self, values: List[Any]) -> Callable:
        """The function over the objects *values* at the plan's paths.
        Raises LookupError when those objects are not shared as they
        were when the text was generated (its binds would dedup
        otherwise)."""
        defaults = tuple([values[i] for i in self.params])
        if len(set(map(id, defaults))) != len(defaults) or any(
                values[i] is not defaults[j] for i, j in self.aliases):
            raise LookupError("objects shared otherwise than in the plan")
        return _function(self.code, self.source, defaults)


class _Plan:
    """What the gated build of one spec structure installed once its
    gate had run, for every later build of that structure in the
    process: per state its census reason and the :class:`_Unit` of its
    stepper and of its wake test when they survived, the parking and
    sleeping census, and the paths (``(walk position, member steps...)``) the units bind.
    It holds strings, numbers and code objects, never an object of a
    build."""

    __slots__ = ("paths", "states", "parking", "sleeping")

    def __init__(self, spec, codegens):
        table: Dict[tuple, int] = {}

        def index(path) -> int:
            return table.setdefault(path, len(table))

        stats = spec.compile_stats
        self.states = tuple(
            (stats.states[state.name],
             *(None if fn is None else _Unit(fn, g, index)
               for fn, g in zip((state._fused, state._wake), gs)))
            for state, gs in zip(spec.states.values(), codegens))
        self.parking = dict(stats.parking)
        self.sleeping = dict(stats.sleeping)
        self.paths = tuple(table)

    def install(self, spec, order: List[Any]) -> Optional[int]:
        """Install the plan's steppers and wake tests on *spec*, bound to
        the objects at its paths in *order* (its walk's), and record
        the census.  Returns the number of states fused, or None, with
        nothing installed, when the paths do not resolve alike."""
        values = []
        try:
            for position, *members in self.paths:
                value = order[position]
                for step in members:
                    value = getattr(value, step) if type(step) is str else value[step[0]]
                values.append(value)
            made = [[unit and unit.make(values) for unit in units]
                    for _, *units in self.states]
        except (LookupError, AttributeError, TypeError):
            return None
        stats = spec.compile_stats
        for state, (reason, _, _), (stepper, wake) in zip(
                spec.states.values(), self.states, made):
            state._fused, state._wake = stepper, wake
            stats.record_state(state, reason)
        stats.parking.update(self.parking)
        stats.sleeping.update(self.sleeping)
        return sum(1 for stepper, _ in made if stepper is not None)


def _gate(spec, walk: _Walk) -> Tuple[_Plan, int, str]:
    """Generate, gate and install *spec*'s steppers and wake tests.

    The verdicts come from the structure's store entry when it holds
    them: the effectcheck verdict (the fusable states) and the TRV009
    verdict (the states kept awake) whenever the entry is sound, the
    TRV001 verdict only when its digest is that of the text just
    generated (:func:`_text_digest`).  Whatever is missing runs its
    analysis, and a persistent spec's entry is rewritten.  Returns the
    build plan, the number of states fused and where the verdicts came
    from: ``"cache"`` or ``"gate"``.
    """
    store = _store() if walk.persistent else None
    entry = store.get(walk.key) if store is not None else None
    if not isinstance(entry, dict) or not _strings_ok(entry.get("fusable")):
        # Imported lazily: repro.analysis imports the model registry,
        # which imports the models, which import repro.core — a
        # module-level import here would be circular.
        from ..analysis.effects import compilability_report, effects_spec
        comp = compilability_report(spec, effects_spec(spec))
        entry = {"fusable": sorted(comp.fusable_states)}
    if not _pairs_ok(entry.get("awake")):
        from ..analysis.certify import awake_states
        entry = {"fusable": entry["fusable"],
                 "awake": [list(pair) for pair in awake_states(spec)]}
    fused, codegens = _fuse(spec, frozenset(entry["fusable"]), walk.names(),
                            dict(entry["awake"]))
    text = _text_digest(spec)
    verdict = "cache"
    if (entry.get("text") != text or not _pairs_ok(entry.get("demoted"))
            or not _pairs_ok(entry.get("unparked"))):
        from ..analysis.certify import certify_fused_states, certify_wake_tests
        entry = {"fusable": entry["fusable"], "awake": entry["awake"], "text": text,
                 "demoted": [list(pair) for pair in certify_fused_states(spec)],
                 "unparked": [list(pair) for pair in certify_wake_tests(spec)]}
        verdict = "gate"
        if store is not None:
            try:
                store.put(walk.key, entry)
            except OSError:
                pass
    fused -= demote_states(spec, entry["demoted"])
    unpark_states(spec, entry["unparked"])
    return _Plan(spec, codegens), fused, verdict


def enable_fusion(spec) -> int:
    """Certify *spec* with effectcheck and fuse the certified states.

    The gated entry point used by model constructors: runs the effect
    analysis and fuses exactly the states the compilability report
    deems fusable.  The generated steppers are then
    translation-validated by transcheck (:mod:`repro.analysis.certify`):
    a state whose stepper fails certification is demoted back to the
    interpreted reference by :func:`demote_states`, and a wake test that
    fails its replay is dropped by :func:`unpark_states`.  Everything is
    keyed on the spec's structure (:class:`_Walk`), and so is the TRV009
    verdict that keeps a state's operations awake: a build of a
    structure this process has built installs the build plan that
    build recorded after its gate (:meth:`_Plan.install`), and runs no
    analysis; any other build generates its text and gates it
    (:func:`_gate`), reading the verdicts from the structure's store
    entry when it holds them — the TRV001 verdict only for
    byte-identical stepper and wake-test text — and no analysis (nor
    ``repro.analysis``) is imported then.  The surviving set and the
    parked and sleeping states are stamped on ``spec.fuse_certificate`` together
    with the generator fingerprint so ``repro certify`` can flag stale
    certificates (TRV008), with where the verdicts came from
    (``"verdict"``: ``"cache"`` or ``"gate"``), with what the build
    plan did (``"plan"``: ``"reused"`` or ``"generated"``) and with
    whether the structure's verdicts live in the fusion store
    (``"stored"``), or else ``"kept_out_by"``: the ``module.qualname``
    of the first object outside the package its walk met.  Analysis
    failures degrade to no fusion and are recorded in
    ``spec.compile_stats``.  Returns the number of states fused.
    """
    try:
        walk = _Walk(spec)
        plan = _PLANS.pop(walk.key, None)
        fused = None if plan is None else plan.install(spec, walk.order)
        if fused is None:
            plan, fused, verdict = _gate(spec, walk)
            note = "generated"
        else:
            verdict, note = "cache", "reused"
        _PLANS[walk.key] = plan  # most recently used
        while len(_PLANS) > MAX_PLANS:
            _PLANS.popitem(last=False)
        _PLAN_COUNTS[note] += 1
        spec.fuse_certificate = {
            "generator": generator_fingerprint(),
            "fused_states": sorted(
                name for name, state in spec.states.items()
                if state._fused is not None),
            "parked_states": spec.compile_stats.parked_states,
            "sleeping_states": spec.compile_stats.sleeping_states,
            "verdict": verdict,
            "plan": note,
            "stored": walk.persistent,
            "kept_out_by": (None if walk.persistent
                            else _qualified_name(walk.outsider)),
        }
        return fused
    except Exception as exc:  # analysis failure: degrade to unfused
        for state in spec.states.values():
            state._fused = None
            state._wake = None
            spec.compile_stats.record_state(
                state, f"analysis: {type(exc).__name__}: {exc}")
        return 0
