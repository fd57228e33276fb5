"""The token-transaction language: Allocate, Inquire, Release, Discard.

Section 3.3 defines the language as four primitive transactions; an edge's
guard condition is *"the conjunction of a set of primitives"*.  Disjunction
is deliberately absent — it is realised through parallel edges between two
states, which the :class:`~repro.core.osm.MachineSpec` supports via static
edge priorities.

Primitives are written against *slots* of the OSM token buffer and
*identifiers* that may be static values or per-operation callables (see
:func:`repro.core.token.resolve_identifier`).  A callable identifier
returning ``None`` makes the primitive vacuously true: this expresses
"inquire about the second source register, if the operation has one".
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from .errors import TokenError
from .manager import TokenManager
from .transaction import Transaction

IdentLike = Union[Any, Callable[[Any], Any]]


class Primitive:
    """Base class of the four transaction primitives."""

    __slots__ = ()

    #: subclasses set this for traces
    kind = "primitive"

    def probe(self, osm, txn: Transaction) -> bool:
        """Probe phase: return True when the transaction would succeed,
        recording tentative effects in *txn*.  Must not mutate any manager
        or OSM state — effectcheck's EFF005 pass statically audits custom
        overrides against this contract.

        These methods are the interpreted reference:
        :meth:`~repro.core.osm.OperationStateMachine.try_transition`
        calls them directly, and the fused steppers of
        :mod:`repro.core.fuse` inline the built-in primitives' bodies.
        A state with a custom primitive is not fused: it keeps running
        the reference, which calls the primitive's own ``probe``."""
        raise NotImplementedError

    def __and__(self, other: "Primitive") -> "Condition":
        return Condition([self, other])


class Allocate(Primitive):
    """Request exclusive ownership of a token.

    Parameters
    ----------
    manager:
        The target token manager.
    ident:
        Token identifier, static or ``callable(osm) -> ident``.  ``None``
        (after resolution) makes the primitive vacuously succeed with no
        grant — the operation simply does not need the resource.
    slot:
        Name of the OSM token-buffer slot that will hold the granted token;
        defaults to the manager name.
    """

    __slots__ = ("manager", "ident", "slot", "_dynamic")

    kind = "allocate"

    def __init__(self, manager: TokenManager, ident: IdentLike = None, slot: Optional[str] = None):
        self.manager = manager
        self.ident = ident
        self.slot = slot or manager.name
        #: resolved once at model-build time: dynamic identifiers are
        #: callables evaluated per probe, static ones are used as-is
        self._dynamic = callable(ident)

    def probe(self, osm, txn: Transaction) -> bool:
        if self._dynamic:
            ident = self.ident(osm)
            if ident is None:
                return True  # operation does not need this resource
        else:
            ident = self.ident
        manager = self.manager
        token = manager.allocate(osm, ident, txn)
        if token is None:
            osm.note_blocked_on(manager, ident)
            return False
        # inlined txn.add_grant (hot path)
        txn.dirty = True
        txn.grants.append((self.slot, token))
        txn._granted_ids.add(id(token))
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"Allocate({self.manager.name}, slot={self.slot!r})"


class AllocateMany(Primitive):
    """Allocate a dynamic *list* of tokens from one manager.

    Used when the number of resources depends on the operation (e.g. one
    rename buffer per destination register).  ``idents`` is a callable
    returning a sequence of identifiers; slots are ``f"{slot}{i}"``.
    """

    __slots__ = ("manager", "idents", "slot")

    kind = "allocate"

    def __init__(self, manager: TokenManager, idents: Callable[[Any], Sequence[Any]], slot: str):
        self.manager = manager
        self.idents = idents
        self.slot = slot

    def probe(self, osm, txn: Transaction) -> bool:
        idents = self.idents(osm) or ()
        for i, ident in enumerate(idents):
            token = self.manager.allocate(osm, ident, txn)
            if token is None:
                osm.note_blocked_on(self.manager, ident)
                return False
            txn.add_grant(f"{self.slot}{i}", token)
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"AllocateMany({self.manager.name}, slot={self.slot!r})"


class Inquire(Primitive):
    """Non-exclusive availability check (e.g. read a register value).

    ``ident`` may resolve to ``None`` (vacuous), a single identifier, or a
    sequence of identifiers all of which must be available.
    """

    __slots__ = ("manager", "ident", "_dynamic")

    kind = "inquire"

    def __init__(self, manager: TokenManager, ident: IdentLike = None):
        self.manager = manager
        self.ident = ident
        self._dynamic = callable(ident)

    def probe(self, osm, txn: Transaction) -> bool:
        if self._dynamic:
            ident = self.ident(osm)
            if ident is None:
                return True  # operation does not use this resource
        else:
            ident = self.ident
        manager = self.manager
        if not isinstance(ident, (list, tuple)):
            # scalar fast path: the overwhelmingly common shape
            if not manager.inquire(osm, ident, txn):
                osm.note_blocked_on(manager, ident)
                return False
            # inlined txn.add_inquiry (hot path)
            txn.dirty = True
            txn.inquiries.append((manager, ident))
            manager.n_inquiries += 1
            return True
        for single in ident:
            if not manager.inquire(osm, single, txn):
                osm.note_blocked_on(manager, single)
                return False
            txn.add_inquiry(manager, single)
            manager.n_inquiries += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"Inquire({self.manager.name})"


class Release(Primitive):
    """Return a held token to its manager, optionally with a value.

    Parameters
    ----------
    slot:
        Token-buffer slot naming the token to release.  If the slot is
        empty the primitive vacuously succeeds (the operation never held
        the optional resource).
    value:
        ``callable(osm) -> value`` handed to the manager on commit (e.g.
        the computed result accompanying a register-update release).
    """

    __slots__ = ("slot", "value")

    kind = "release"

    def __init__(self, slot: str, value: Optional[Callable[[Any], Any]] = None):
        self.slot = slot
        self.value = value

    def probe(self, osm, txn: Transaction) -> bool:
        slot = self.slot
        token = osm.token_buffer.get(slot)
        if token is None:
            return True
        if txn.releases and txn.is_tentatively_released(token):
            raise TokenError(f"double release of slot {slot!r} in one condition")
        if not token.manager.release(osm, token, txn):
            osm.note_blocked_on(token.manager, slot)
            return False
        value = self.value(osm) if self.value is not None else None
        # inlined txn.add_release (hot path)
        txn.dirty = True
        txn.releases.append((token, value, slot))
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"Release({self.slot!r})"


class ReleaseMany(Primitive):
    """Release every buffer slot matching a prefix (dynamic counterpart of
    :class:`AllocateMany`)."""

    __slots__ = ("prefix", "value")

    kind = "release"

    def __init__(self, prefix: str, value: Optional[Callable[[Any, Any], Any]] = None):
        self.prefix = prefix
        self.value = value

    def probe(self, osm, txn: Transaction) -> bool:
        prefix = self.prefix
        for slot, token in list(osm.token_buffer.items()):
            if not slot.startswith(prefix):
                continue
            if not token.manager.release(osm, token, txn):
                osm.note_blocked_on(token.manager, slot)
                return False
            value = self.value(osm, token) if self.value is not None else None
            txn.add_release(token, value, slot)
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"ReleaseMany({self.prefix!r})"


class Discard(Primitive):
    """Unconditionally drop tokens; always succeeds (Section 3.3).

    With no arguments, discards the entire token buffer (the reset case:
    *"Discard can be used when the OSM is reset"*).  With ``slot``,
    discards only that slot if held.
    """

    __slots__ = ("slot",)

    kind = "discard"

    def __init__(self, slot: Optional[str] = None):
        self.slot = slot

    def probe(self, osm, txn: Transaction) -> bool:
        if self.slot is not None:
            token = osm.token_buffer.get(self.slot)
            if token is not None:
                txn.add_discard(token, self.slot)
            return True
        for slot, token in osm.token_buffer.items():
            txn.add_discard(token, slot)
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"Discard({self.slot!r})" if self.slot else "Discard(*)"


class Guard(Primitive):
    """A pure predicate over the OSM (no token traffic).

    Not one of the paper's four primitives: the paper folds such checks
    into manager inquiry decisions ("token managers may check the identity
    of the requesting OSMs").  Exposing the predicate directly keeps model
    code readable without changing expressiveness — a ``Guard`` is exactly
    an ``Inquire`` against an anonymous manager whose policy is the
    predicate.
    """

    __slots__ = ("predicate", "label", "key", "value")

    kind = "guard"

    def __init__(self, predicate: Callable[[Any], bool], label: str = "guard"):
        self.predicate = predicate
        self.label = label
        #: set by :meth:`equals`: the guard holds iff ``key(osm) == value``
        self.key: Optional[Callable[[Any], Any]] = None
        self.value: Any = None

    @classmethod
    def equals(cls, key: Callable[[Any], Any], value: Any,
               label: str = "guard") -> "Guard":
        """A *keyed* guard: holds iff ``key(osm) == value``.

        The way to write parallel edges that route on a field of the
        operation (one edge per unit class, per thread …).  The
        reference probe still calls the predicate; a fused stepper tests
        the key inline, ``if (<key>) != <value>: break``, pasting the
        key's ``__fuse_inline__`` expression when it declares one (the
        same contract as dynamic token identifiers)."""
        def holds(osm):
            return key(osm) == value

        guard = cls(holds, label)
        guard.key = key
        guard.value = value
        return guard

    def probe(self, osm, txn: Transaction) -> bool:
        return bool(self.predicate(osm))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Guard({self.label!r})"


class Condition:
    """Conjunction of primitives guarding one edge.

    Evaluation is all-or-nothing: the OSM probes every primitive against
    its transaction and commits the effects only if all of them succeed,
    per Section 3.3.
    """

    __slots__ = ("primitives",)

    def __init__(self, primitives: Iterable[Primitive] = ()):
        self.primitives: List[Primitive] = list(primitives)

    def __and__(self, other) -> "Condition":
        if isinstance(other, Condition):
            return Condition(self.primitives + other.primitives)
        return Condition(self.primitives + [other])

    def __repr__(self) -> str:  # pragma: no cover
        return " & ".join(repr(p) for p in self.primitives) or "Always()"


#: the trivially-true condition (edges that always may fire)
ALWAYS = Condition(())
