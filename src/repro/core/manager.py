"""Token managers: the hardware layer's interface to operations.

Section 3.2/4 of the paper: a token manager *"manages one or more closely
related tokens.  It can grant a token to, or reclaim a token from an OSM
upon request.  Token managers may check the identity of the requesting OSMs
when making decisions."*  Hardware modules that interact with operations
implement the token manager interface (TMI) whose four methods correspond to
the four primitives of the transaction language; modules that do not
interact with operations (caches, TLBs, the bus) live purely in the
hardware layer and need no TMI.

This module provides the abstract :class:`TokenManager` plus the
reusable concrete managers that cover most structure resources:

* :class:`SlotManager` — a single occupancy token (a pipeline-stage slot);
* :class:`PoolManager` — a pool of interchangeable tokens (reservation-
  station entries, the issue slots of a wide stage);
* :class:`InOrderPoolManager` — a pool whose tokens leave in grant order,
  a bounded number per cycle (a fetch queue, a completion queue).

The paper notes that *"TMIs of the same nature are very much alike and code
reuse can be exploited to a great extent"*; these classes are that reuse,
shared across the pipeline5, StrongARM, PPC-750 and Section-6 models.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .errors import TokenError
from .token import Token
from .transaction import Transaction


class TokenManager:
    """Abstract token manager interface (TMI).

    Subclasses implement the probe-phase methods :meth:`allocate`,
    :meth:`inquire` and :meth:`release`; :meth:`discard` needs no
    permission and always succeeds.  The commit-phase notification hooks
    (:meth:`on_allocate_commit`, :meth:`on_release_commit`,
    :meth:`on_discard`) let the hardware module update its internal state
    when a transaction actually happens.

    Managers never communicate with each other directly (Section 4: "TMIs
    do not communicate with each other directly"); any coupling goes
    through the hardware layer between control steps.
    """

    def __init__(self, name: str):
        self.name = name
        #: transaction counters for :class:`~repro.core.stats.SimulationStats`
        self.n_allocates = 0
        self.n_inquiries = 0
        self.n_releases = 0
        self.n_discards = 0

    @property
    def capacity(self) -> Optional[int]:
        """Static token capacity for one identifier class, or ``None``
        when it is unbounded or per-identifier (read-only introspection
        used by the static analyses; never consulted during simulation)."""
        return None

    # -- probe phase (the four language primitives) -----------------------

    def allocate(self, osm, ident, txn: Transaction) -> Optional[Token]:
        """Map *ident* to a token and return it if grantable, else ``None``.

        Must not mutate manager state: the grant is tentative until
        :meth:`on_allocate_commit`.  Implementations must honour
        ``txn.is_tentatively_granted`` so one condition never receives the
        same token twice.
        """
        raise NotImplementedError

    def inquire(self, osm, ident, txn: Transaction) -> bool:
        """Return True when the resource denoted by *ident* is available to
        *osm* without transferring ownership (non-exclusive access, e.g.
        reading a register value)."""
        raise NotImplementedError

    def release(self, osm, token: Token, txn: Transaction) -> bool:
        """Return True when the manager accepts *token* back.

        A manager may refuse — this is how variable latency is modelled:
        e.g. the fetch stage refuses to take its slot token back until the
        I-cache miss completes, stalling the operation (Section 4,
        "Variable latency").
        """
        raise NotImplementedError

    def discard(self, osm, token: Token) -> None:
        """Unconditional return of a token (used when an OSM is reset)."""
        # Probe phase is trivially successful; actual effect in on_discard.

    # -- commit phase -------------------------------------------------------

    def on_allocate_commit(self, osm, token: Token) -> None:
        self.n_allocates += 1

    def on_release_commit(self, osm, token: Token, value: Any) -> None:
        self.n_releases += 1

    def on_discard(self, osm, token: Token) -> None:
        self.n_discards += 1

    def resync_from_holders(self) -> None:
        """Rebuild any cached occupancy bookkeeping from token holders.

        Normal simulation keeps caches (e.g. the pool free count) in sync
        through the commit hooks above.  Tools that teleport system state by
        assigning ``token.holder`` directly — the explicit-state model
        checker's ``restore`` — must call this afterwards.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class SlotManager(TokenManager):
    """TMI controlling a single occupancy token.

    Section 4: *"a pipeline stage contains a token manager interface
    controlling one occupancy token.  Since the token can be allocated to
    only one operation at a time, at most one operation can occupy the
    pipeline stage at a time.  Structure hazards are therefore resolved."*

    ``hold_release`` can be set (by the owning hardware module) to make the
    manager refuse release requests, stalling the occupant; this is the
    variable-latency mechanism used for cache misses and multi-cycle
    function units.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.token = Token(self, name, 0)
        #: when True, release requests are refused (occupant must stall)
        self.hold_release = False

    @property
    def capacity(self) -> int:
        return 1

    @property
    def occupant(self):
        """The OSM occupying the slot, or ``None``."""
        return self.token.holder

    def allocate(self, osm, ident, txn: Transaction) -> Optional[Token]:
        token = self.token
        # inlined txn.is_tentatively_granted (hot path)
        if token.holder is None and id(token) not in txn._granted_ids:
            return token
        # The slot frees within this control step only if an earlier-ranked
        # OSM already committed its release; sequential director scheduling
        # guarantees we observe that (holder is None above).
        return None

    def inquire(self, osm, ident, txn: Transaction) -> bool:
        return self.token.holder is None

    def release(self, osm, token: Token, txn: Transaction) -> bool:
        if token is not self.token:
            raise TokenError(f"{self.name}: release of foreign token {token!r}")
        if token.holder is not osm:
            raise TokenError(f"{self.name}: {osm!r} does not hold {token!r}")
        return not self.hold_release


class PoolManager(TokenManager):
    """TMI controlling a pool of interchangeable tokens.

    Covers buffer files: reservation stations and the issue slots of a
    wide stage are pools.  ``ident`` is ignored for plain pools;
    subclasses may add a release policy (:class:`InOrderPoolManager`
    refuses out-of-order releases).
    """

    def __init__(self, name: str, size: int):
        super().__init__(name)
        if size <= 0:
            raise ValueError(f"pool {name!r} must have positive size, got {size}")
        self.tokens: List[Token] = [Token(self, f"{name}[{i}]", i) for i in range(size)]
        self.hold_release = False
        #: committed free-token count, maintained by the commit hooks; lets
        #: a probe against a full pool fail in O(1) instead of scanning
        #: (full pools are the common case for stalled cycles)
        self._n_free = size

    @property
    def capacity(self) -> int:
        return len(self.tokens)

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def n_free(self) -> int:
        # Introspection recounts from holders so it stays truthful even for
        # tools that poke token.holder directly; the probe fast path uses
        # the cached _n_free, resynced via resync_from_holders().
        return sum(1 for t in self.tokens if t.holder is None)

    @property
    def occupants(self) -> List[Any]:
        return [t.holder for t in self.tokens if t.holder is not None]

    def allocate(self, osm, ident, txn: Transaction) -> Optional[Token]:
        # Tentative grants only shrink availability, and tentative releases
        # do not free tokens until commit, so an empty committed free count
        # is an exact refusal.  When tokens are free, the scan preserves the
        # deterministic lowest-index selection.
        if self._n_free == 0:
            return None
        granted = txn._granted_ids
        for token in self.tokens:
            if token.holder is None and id(token) not in granted:
                return token
        return None

    def inquire(self, osm, ident, txn: Transaction) -> bool:
        n_free = self._n_free
        if n_free == 0:
            return False
        if n_free > len(txn.grants):
            # More committed-free tokens than tentative grants in the whole
            # transaction: at least one free token cannot be granted yet.
            return True
        return any(
            t.holder is None and not txn.is_tentatively_granted(t) for t in self.tokens
        )

    def release(self, osm, token: Token, txn: Transaction) -> bool:
        if token.manager is not self:
            raise TokenError(f"{self.name}: release of foreign token {token!r}")
        if token.holder is not osm:
            raise TokenError(f"{self.name}: {osm!r} does not hold {token!r}")
        return not self.hold_release

    def on_allocate_commit(self, osm, token: Token) -> None:
        super().on_allocate_commit(osm, token)
        self._n_free -= 1

    def on_release_commit(self, osm, token: Token, value: Any) -> None:
        super().on_release_commit(osm, token, value)
        self._n_free += 1

    def on_discard(self, osm, token: Token) -> None:
        super().on_discard(osm, token)
        self._n_free += 1

    def resync_from_holders(self) -> None:
        self._n_free = sum(1 for t in self.tokens if t.holder is None)


class InOrderPoolManager(PoolManager):
    """TMI for an ordered queue: a pool whose tokens leave in grant order.

    Entries are granted in request order and a release is accepted only
    from the oldest holder, at most ``width`` per cycle; the owning
    hardware module calls :meth:`new_cycle` at each cycle boundary.  The
    PPC-750 fetch queue (in-order dual dispatch) and completion queue
    (in-order retirement, the reorder-buffer discipline expressed as a
    token-release policy) are both this manager.

    **Wake contract.**  A parked operation may sleep on a refused
    release here (``osm._asleep``, see :func:`repro.core.fuse.generate_wake`)
    because every write of a field the refusal reads wakes the one
    operation whose answer can flip, the queue head: when the head
    leaves (release, discard), when :meth:`new_cycle` resets a used
    budget, and when :attr:`hold_release` clears.
    """

    #: backing field of :attr:`hold_release`
    _hold_release = False

    def __init__(self, name: str, size: int, width: int):
        super().__init__(name, size)
        self.width = width
        #: holders in grant order
        self._order: List[Any] = []
        self._released_this_cycle = 0

    @property
    def hold_release(self) -> bool:
        return self._hold_release

    @hold_release.setter
    def hold_release(self, value: bool) -> None:
        if self._hold_release and not value and self._order:
            self._order[0]._asleep = False
        self._hold_release = value

    def new_cycle(self) -> None:
        if self._released_this_cycle:
            self._released_this_cycle = 0
            if self._order:
                self._order[0]._asleep = False

    def budget_was_used(self) -> bool:
        return self._released_this_cycle > 0

    def holders_of(self, ident) -> List[Any]:
        """Wait-for precision for deadlock analysis: a refused release
        only ever waits on the queue head — never on the other queued
        operations."""
        return [self._order[0]] if self._order else []

    def release(self, osm, token: Token, txn: Transaction) -> bool:
        if not super().release(osm, token, txn):
            return False
        if self._released_this_cycle >= self.width:
            return False
        return bool(self._order) and self._order[0] is osm

    def on_allocate_commit(self, osm, token: Token) -> None:
        super().on_allocate_commit(osm, token)
        self._order.append(osm)
        if self._order[0] is osm:
            osm._asleep = False  # the grantee heads the queue

    def on_release_commit(self, osm, token: Token, value: Any) -> None:
        super().on_release_commit(osm, token, value)
        self._order.remove(osm)
        self._released_this_cycle += 1
        if self._order and self._released_this_cycle < self.width:
            self._order[0]._asleep = False

    def on_discard(self, osm, token: Token) -> None:
        super().on_discard(osm, token)
        order = self._order
        if osm in order:
            head = order[0] is osm
            order.remove(osm)
            if head and order:
                order[0]._asleep = False


class RegisterFileManager(TokenManager):
    """TMI for a register file: value tokens plus register-update tokens.

    Section 4: *"The register file contains a TMI m_r, which manages a set
    of value tokens corresponding to the registers, and several
    register-update tokens."*  An operation holding a register-update
    token of register *r* makes inquiries about *r*'s value token fail for
    younger dependents, which therefore stall — this resolves data (RAW)
    hazards.  On releasing the update token the operation hands back the
    computed value, which the manager writes into its backing store.

    Per the paper's plural, each register owns a small *pool* of update
    tokens (``updates_per_reg``, default 3 — the E..W depth of a 5-stage
    pipeline), so WAW sequences do not stall an in-order machine: writes
    retire in program order and the youngest outstanding writer defines
    availability for readers.

    ``ident`` for both allocate and inquire is the register number.  The
    backing store is any object with ``read(reg)``/``write(reg, value)``
    (typically the architectural register file of the ISS).
    """

    def __init__(
        self,
        name: str,
        n_regs: int,
        backing,
        updates_per_reg: int = 3,
        n_update_tokens: Optional[int] = None,
    ):
        super().__init__(name)
        self.n_regs = n_regs
        self.backing = backing
        self.updates_per_reg = updates_per_reg
        self.update_tokens: Dict[int, List[Token]] = {
            r: [Token(self, f"{name}.upd[{r}].{i}", r) for i in range(updates_per_reg)]
            for r in range(n_regs)
        }
        #: outstanding writers per register, in allocation (program) order
        self._writers: Dict[int, List[Any]] = {r: [] for r in range(n_regs)}
        #: optional global cap on outstanding register updates (rename-buffer
        #: style limit); None means unbounded.
        self.max_outstanding = n_update_tokens
        self._outstanding = 0

    def outstanding(self, reg: int) -> int:
        return len(self._writers[reg])

    def pending_writer(self, reg: int):
        """The *youngest* OSM with an outstanding update to *reg*."""
        writers = self._writers[reg]
        return writers[-1] if writers else None

    def allocate(self, osm, ident, txn: Transaction) -> Optional[Token]:
        reg = ident
        if reg is None:
            return None
        if self.max_outstanding is not None and self._outstanding >= self.max_outstanding:
            return None
        # One committed writer holds exactly one update token of its
        # register, so a full writer list means no free token: O(1) refusal
        # without scanning the token pool (the common WAW-stall case).
        if len(self._writers[reg]) >= self.updates_per_reg:
            return None
        granted = txn._granted_ids
        for token in self.update_tokens[reg]:
            if token.holder is None and id(token) not in granted:
                return token
        return None

    def inquire(self, osm, ident, txn: Transaction) -> bool:
        reg = ident
        if reg is None:
            return True
        # The value token of r is available iff no outstanding update to r.
        return not self._writers[reg]

    def release(self, osm, token: Token, txn: Transaction) -> bool:
        if token.manager is not self or token.holder is not osm:
            raise TokenError(f"{self.name}: invalid release of {token!r} by {osm!r}")
        return True

    def holders_of(self, ident) -> List[Any]:
        if isinstance(ident, int):
            return list(self._writers[ident])
        return []

    def read(self, reg: int):
        """Non-exclusive read of the committed register value (the value
        token's payload).  Models call this from an edge action after a
        successful inquire."""
        return self.backing.read(reg)

    def on_allocate_commit(self, osm, token: Token) -> None:
        super().on_allocate_commit(osm, token)
        self._outstanding += 1
        self._writers[token.index].append(osm)

    def _drop_writer(self, token: Token, osm) -> None:
        writers = self._writers[token.index]
        if osm in writers:
            writers.remove(osm)

    def on_release_commit(self, osm, token: Token, value: Any) -> None:
        super().on_release_commit(osm, token, value)
        self._outstanding -= 1
        self._drop_writer(token, osm)
        if value is not None:
            self.backing.write(token.index, value)

    def on_discard(self, osm, token: Token) -> None:
        super().on_discard(osm, token)
        self._outstanding -= 1
        self._drop_writer(token, osm)


class ResetManager(TokenManager):
    """TMI implementing the control-hazard kill mechanism.

    Section 4, "Control hazard": reset edges carry an inquiry to
    ``m_reset``; the manager rejects inquiries from normal OSMs, and
    accepts them from OSMs marked speculative-dead after a branch
    mispredict resolves, causing those OSMs to take their (higher-priority)
    reset edges, discard all tokens and return to state I.

    **Wake contract.**  An operation may sleep on a refused inquiry here
    (see :class:`InOrderPoolManager`): every method that changes whether
    an OSM is doomed wakes that OSM, so a doom taking effect
    (:meth:`doom_now`, :meth:`latch`) frees it.  Pending dooms keep
    their OSMs for that.
    """

    def __init__(self, name: str = "m_reset"):
        super().__init__(name)
        #: ids of the OSMs whose reset inquiry passes
        self._doomed: set = set()
        #: id -> OSM of the dooms that take effect at :meth:`latch`
        self._pending: Dict[int, Any] = {}

    @property
    def capacity(self) -> int:
        return 0  # owns no allocatable tokens

    def doom(self, osm) -> None:
        """Mark *osm* for reset from the next control step onwards.

        The paper: "At the *next* control step, the speculative OSMs will
        execute along their reset edges" — dooming latches at the cycle
        boundary via :meth:`latch` (call it from a hardware module's
        ``end_cycle``).
        """
        self._pending[id(osm)] = osm

    def doom_now(self, osm) -> None:
        """Mark *osm* for reset effective immediately (same control step)."""
        self._doomed.add(id(osm))
        osm._asleep = False

    def latch(self) -> None:
        """Activate pending dooms (cycle-boundary behaviour)."""
        pending = self._pending
        if pending:
            self._doomed.update(pending)
            for osm in pending.values():
                osm._asleep = False
            pending.clear()

    def pardon(self, osm) -> None:
        self._doomed.discard(id(osm))
        self._pending.pop(id(osm), None)
        osm._asleep = False

    def is_doomed(self, osm) -> bool:
        return id(osm) in self._doomed or id(osm) in self._pending

    def allocate(self, osm, ident, txn: Transaction) -> Optional[Token]:
        return None  # the reset manager owns no allocatable tokens

    def inquire(self, osm, ident, txn: Transaction) -> bool:
        return id(osm) in self._doomed

    def release(self, osm, token: Token, txn: Transaction) -> bool:
        raise TokenError(f"{self.name} manages no releasable tokens")

    def acknowledge(self, osm) -> None:
        """Called by the reset edge's action once the OSM has been killed."""
        self._doomed.discard(id(osm))
        osm._asleep = False
