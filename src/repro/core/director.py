"""The director: deterministic scheduling of OSM state transitions.

Section 3.4: at each control step the state machines voluntarily send
token-transaction requests and change state if possible; the director
ranks the OSMs, serves transaction requests in rank order, and guarantees
deterministic behaviour.  The scheduling algorithm implemented by
:meth:`Director.control_step` is the paper's Figure 3, with the
case-study optimisation (Section 5) available as ``restart=False``: when
no senior operation ever depends on a junior one for resources — true of
both the StrongARM and PPC-750 models — the outer-loop restart is
unnecessary and a single rank-ordered pass suffices.
"""

from __future__ import annotations

import functools

from bisect import bisect_left
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .errors import SchedulingDeadlockError
from .osm import Edge, OperationStateMachine
from .stats import SimulationStats


def rank_stable_in_flight(fn):
    """Mark a rank-key function whose value for an OSM can change *only*
    when that OSM leaves or returns to the initial state.

    All built-in rankings qualify: they depend only on ``age``,
    ``operation`` identity/``seq``, ``tag`` and ``serial``, all of which
    are assigned exactly at the I boundaries.  The director exploits the
    mark to keep its cached rank order across control steps, re-sorting
    only after a transition that touches state I (see
    ``Director.control_step``).  Custom rank keys without the mark are
    conservatively re-sorted after every control step that committed any
    transition.

    Plain functions are marked in place and returned unchanged, so their
    metadata is untouched.  Callables that refuse attribute assignment
    (bound methods, some partials) are wrapped instead; the wrapper
    carries the mark and ``functools.wraps`` metadata (``__name__``,
    ``__qualname__``, ``__wrapped__``) so diagnostics, tracebacks and
    the effect analyzer all name — and can introspect — the real
    rank function.

    The honesty of the mark is statically audited by effectcheck's
    EFF002 pass (``repro effects``): a marked function that reads
    anything outside the I-boundary-stable inputs is reported as an
    error, because the director's cached rank order would silently go
    stale.
    """
    try:
        fn.rank_changes_only_at_initial = True
        return fn
    except AttributeError:
        @functools.wraps(fn)
        def wrapper(osm):
            return fn(osm)

        wrapper.rank_changes_only_at_initial = True
        return wrapper


@rank_stable_in_flight
def age_rank(osm: OperationStateMachine) -> Tuple[int, int, int]:
    """Default ranking: by age (order of last leaving state I).

    Operations in flight rank above idle OSMs; among in-flight operations,
    the one that left I earliest (smallest age stamp) ranks first; the OSM
    serial number breaks remaining ties deterministically (several OSMs may
    leave I in the same control step of a superscalar model).
    """
    if osm.age < 0:
        return (1, 0, osm.serial)
    return (0, osm.age, osm.serial)


#: departure-monotone: an OSM leaving the initial state always receives a
#: rank key strictly greater than every in-flight OSM's current key (ages
#: are stamped from the monotone clock; sequence numbers from the monotone
#: fetch counter — within one step, departures happen in scan order).  The
#: director exploits the mark to maintain its cached rank order
#: *incrementally* across I-boundary transitions (append departures,
#: bisect re-inserted idles) instead of re-sorting the pool; a runtime
#: strict-monotonicity check degrades to a full re-sort whenever a
#: particular step violates the property (e.g. restart-mode fetches out of
#: serial order), so the mark is an optimisation hint, never a soundness
#: assumption.
age_rank.rank_departure_monotone = True


@rank_stable_in_flight
def operation_seq_rank(osm: OperationStateMachine) -> Tuple[int, int]:
    """Rank strictly by operation fetch-sequence number.

    Age-based ranking cannot order two OSMs that left state I in the same
    control step (a superscalar model fetches several per cycle; the
    serial tie-break is pool-allocation order, not program order).  When
    the model stamps a monotonically increasing ``seq`` on each operation
    payload, ranking by it restores exact program order.
    """
    operation = osm.operation
    if operation is None:
        return (1, osm.serial)
    return (0, operation.seq)


operation_seq_rank.rank_departure_monotone = True


class Director:
    """Coordinates the OSMs of one model (paper Fig. 3).

    Parameters
    ----------
    rank_key:
        ``callable(osm) -> sortable``; smaller ranks first (higher
        priority).  Defaults to :func:`age_rank`.
    restart:
        When True (the general algorithm of Fig. 3), a committed
        transition restarts the outer loop from the highest-ranked
        remaining OSM, so a senior OSM blocked on a resource freed by a
        junior one still transitions this control step.  When False (the
        case-study optimisation), the director performs a single
        rank-ordered pass.
    deadlock_check:
        When True, a control step in which no OSM transitions triggers a
        cyclic-wait analysis over the managers' holder information; a
        cycle raises :class:`SchedulingDeadlockError` (the paper's
        director "will abort in such cases").  Stalls with acyclic waits
        (e.g. everyone behind one cache miss) are normal and do not abort.
    """

    def __init__(
        self,
        rank_key: Optional[Callable[[OperationStateMachine], Any]] = None,
        restart: bool = True,
        deadlock_check: bool = True,
        stats: Optional[SimulationStats] = None,
    ):
        self.rank_key = rank_key or age_rank
        self.restart = restart
        self.deadlock_check = deadlock_check
        self.osms: List[OperationStateMachine] = []
        self.stats = stats or SimulationStats()
        self.clock = 0
        #: optional trace sink: callable(clock, osm, edge)
        self.trace: Optional[Callable[[int, OperationStateMachine, Edge], None]] = None
        #: observable-state version: bumped on every committed transition
        #: and by hardware modules on condition-relevant changes (hold
        #: expiry, redirect/latch application, budget refresh).  An OSM
        #: whose last probe failed at the current version cannot succeed
        #: now, so the director skips it — this makes stalled cycles cheap
        #: without changing any scheduling decision.
        self.version = 0
        #: when True, run the original reference scheduling loop instead of
        #: the cached-order fast path.  Both produce identical schedules;
        #: the reference loop is kept selectable so tests can assert the
        #: equivalence on full workloads.
        self.reference = False
        # -- fast-path caches (see control_step) --
        #: rank order carried across control steps; rebuilt only when dirty
        self._order: List[OperationStateMachine] = []
        self._rank_dirty = True
        self._order_key: Optional[Callable[[OperationStateMachine], Any]] = None
        self._rank_stable = False
        #: per-step stamp replacing the reference loop's pending.pop():
        #: an OSM stamped with the current step id already transitioned
        #: this control step and is not scheduled again
        self._step_id = 0
        # -- incremental rank-order maintenance (see _rebuild_order) --
        #: the rank key is both in-flight-stable and departure-monotone
        self._inc_eligible = False
        #: the current _order is maintained as _flight + _idle partitions
        self._inc_active = False
        self._flight: List[OperationStateMachine] = []
        self._flight_keys: List[Any] = []
        self._idle: List[OperationStateMachine] = []
        self._idle_keys: List[Any] = []
        #: every OSM shares one (spec, tag) class: the idle pool is
        #: homogeneous, enabling the two-phase specialised scan
        self._uniform_pool = False
        #: _order lags behind _flight/_idle (split scan defers the concat)
        self._order_stale = False
        #: observable version at which the whole idle pool was stamped
        #: blocked; the idle phase is skipped wholesale while it matches
        self._idle_fail_version = -1
        #: observable version already cleared by the cyclic-wait analysis
        self._deadlock_version = -1
        #: the generic scan may have parked OSMs (or put them to sleep)
        #: since the split scan or the reference loop last ran, which
        #: keep no parking state: they clear it first
        self._parking = False

    def add(self, *osms: OperationStateMachine) -> None:
        """Register OSMs with the director."""
        self.osms.extend(osms)
        self._rank_dirty = True
        for osm in osms:
            osm._fail_version = -1
            osm._stepped = -1
            osm._parked = None
            osm._asleep = False
            # Analysis breadcrumb: record which rank key schedules this
            # spec's OSMs so `repro effects` can audit its
            # rank_stable_in_flight mark (EFF002) without a live model.
            osm.spec.analysis_rank_key = self.rank_key

    def notify(self) -> None:
        """Signal an observable hardware-state change (wakes blocked OSMs)."""
        self.version += 1

    # -- the scheduling algorithm (paper Fig. 3) ----------------------------

    def control_step(self) -> int:
        """Run one control step; returns the number of transitions.

        Dispatches to the cached-order fast path, or to the original
        reference loop when :attr:`reference` is set.  The two are
        schedule-equivalent: the fast path replaces the per-step full sort
        with a rank order carried across steps (re-sorted only when a
        transition may have changed a rank — for rank keys marked
        :func:`rank_stable_in_flight`, only transitions leaving or entering
        the initial state qualify), replaces list surgery with per-step
        stamps, and stamps trailing idle peers with the observable version
        so the scan reruns only after something observable changes.  Every
        probe happens against the same OSM in the same order as the
        reference loop would produce, except the probes parking skips: an
        OSM whose probe failed in, or whose commit entered, a state with
        a wake test (:func:`repro.core.fuse.generate_wake`) is *parked*,
        and while it stays parked the scan calls the wake test in place
        of the stepper.  A False answer means the probe would refuse
        every edge with no effect but the refusal record, which the test
        wrote, so the OSM is skipped as if the probe had failed.  A test
        whose park points all keep a wake contract also puts the OSM
        *asleep*, and the scan skips it without calling the test until
        a manager wakes it (``osm._asleep``): only those writes can flip
        its refusal.  A parked OSM of a state that has since lost its
        wake test is probed as unparked.
        """
        if self.reference:
            if self._parking:
                self._forget_parking()
            return self._control_step_reference()
        rank_key = self.rank_key
        if rank_key is not self._order_key:
            self._resolve_order_key(rank_key)
        if self._rank_dirty:
            self._rebuild_order(rank_key)
        if self._inc_active and self._uniform_pool and not self.restart:
            if self._parking:
                self._forget_parking()
            return self._control_step_split(rank_key)
        self._parking = True
        if self._order_stale:
            self._order = self._flight + self._idle
            self._order_stale = False
        order = self._order
        rank_stable = self._rank_stable
        # I-boundary transitions collected for incremental order
        # maintenance; None = this step falls back to dirty + full re-sort
        boundary = [] if self._inc_active else None
        self._step_id += 1
        step_id = self._step_id
        stats = self.stats
        trace = self.trace
        clock = self.clock
        restart = self.restart
        version = self.version  # mirrored to self.version on every change
        transitions = 0
        probed = 0
        parked = 0
        woken = 0
        i = 0
        n = len(order)
        while i < n:
            osm = order[i]
            if osm._stepped == step_id or osm._fail_version == version:
                i += 1
                continue
            current = osm.current
            if osm._parked is not current:
                # Dispatch point: fused whole-state stepper when the
                # current state carries one (see repro.core.fuse), the
                # interpreted reference otherwise.  Both produce the
                # identical Edge-or-None outcome.
                stepper = current._fused
                if stepper is not None:
                    edge = stepper(osm, clock)
                else:
                    edge = osm.try_transition(clock)
                probed += 1
            else:
                wake = current._wake
                if wake is None:
                    # the state lost its wake test (defused, or an edge
                    # was added): probe the OSM as unparked
                    osm._parked = None
                    osm._asleep = False
                    skip = False
                elif osm._asleep:
                    skip = True
                else:
                    woken += 1
                    skip = not wake(osm)
                if skip:
                    # Asleep, or the state's wake test found every edge
                    # refusing at a keyed guard or its park point: the
                    # probe would fail with no effect but the refusal
                    # record, which the test wrote.
                    edge = None
                    parked += 1
                else:
                    stepper = current._fused
                    if stepper is not None:
                        edge = stepper(osm, clock)
                    else:
                        edge = osm.try_transition(clock)
                    probed += 1
            if version != self.version:
                # an edge action called notify(): pick up the new version
                version = self.version
            if edge is not None:
                version += 1
                self.version = version
                transitions += 1
                if trace is not None:
                    trace(clock, osm, edge)
                # Stamped: not scheduled again this control step (the
                # reference loop pops it from the pending list).
                osm._stepped = step_id
                dst = edge.dst
                if dst._wake is not None:
                    # parked on arrival: the next visit asks the wake test
                    osm._parked = dst
                    osm._asleep = False
                else:
                    osm._parked = None
                if not rank_stable or edge.src.is_initial or edge.dst.is_initial:
                    # The committed transition may have changed this OSM's
                    # rank (operation assigned/cleared, age stamped).
                    src_init = edge.src.is_initial
                    if boundary is None or not rank_stable:
                        # re-sort before the next control step
                        self._rank_dirty = True
                    elif src_init != edge.dst.is_initial:
                        # membership change: applied incrementally after
                        # the scan (an I self-loop changes neither
                        # membership nor, for a stable key, the rank)
                        boundary.append((osm, src_init))
                if restart:
                    i = 0
                else:
                    i += 1
            else:
                osm._fail_version = version
                if osm._parked is not current and current._wake is not None:
                    osm._parked = current
                    osm._asleep = False
                if osm.operation is None:
                    # Idle OSMs of the same machine and thread share the
                    # fetch edge: once one fails, its not-yet-transitioned
                    # trailing peers fail identically this step.  The
                    # stamps persist, so the scan reruns only after the
                    # observable version changes.
                    spec = osm.spec
                    tag = osm.tag
                    for j in range(i + 1, n):
                        trailing = order[j]
                        if (
                            trailing._stepped != step_id
                            and trailing.operation is None
                            and trailing.tag == tag
                            and trailing.spec is spec
                        ):
                            trailing._fail_version = version
                i += 1
        if boundary:
            self._apply_boundary(boundary, rank_key)
        stats.control_step_passes += probed
        stats.parked_skips += parked
        stats.wake_calls += woken
        stats.transitions += transitions
        if transitions == 0 and (probed or parked) and self.deadlock_check:
            if self._deadlock_version != version:
                # The wait graph is a pure function of the observable
                # version: holders change only with transitions and
                # blocked_on only with probes, both of which this version
                # has already seen.  One clean analysis clears all
                # subsequent stalled steps at the same version.
                self._abort_on_cyclic_wait()
                self._deadlock_version = version
        self.clock += 1
        return transitions

    def _control_step_split(self, rank_key) -> int:
        """Single-pass scan specialised for the common configuration:
        restart off, incremental rank partition active, homogeneous OSM
        pool (one spec/tag class).  Schedule-identical to the generic
        scan — the partition invariant makes the rank order literally
        ``flight + idle``, so walking the two lists in sequence visits
        the same OSMs in the same order — but the flight phase drops the
        per-item step stamp (single pass: no OSM is visited twice) and
        the idle phase exploits homogeneity: after one idle OSM refuses
        to fetch, the rest are stamped wholesale, and the entire phase
        is skipped while the observable version still matches
        ``_idle_fail_version``."""
        stats = self.stats
        trace = self.trace
        clock = self.clock
        version = self.version
        transitions = 0
        probed = 0
        boundary = None
        for osm in self._flight:
            if osm._fail_version == version:
                continue
            stepper = osm.current._fused
            if stepper is not None:
                edge = stepper(osm, clock)
            else:
                edge = osm.try_transition(clock)
            probed += 1
            # reload: an edge action may have called notify()
            version = self.version
            if edge is not None:
                version += 1
                self.version = version
                transitions += 1
                if trace is not None:
                    trace(clock, osm, edge)
                if edge.dst.is_initial:
                    # flight OSMs are not in I, so only a retirement or a
                    # reset changes membership
                    if boundary is None:
                        boundary = [(osm, False)]
                    else:
                        boundary.append((osm, False))
            else:
                osm._fail_version = version
        idle = self._idle
        if idle and self._idle_fail_version != version:
            phase_version = version
            i = 0
            n = len(idle)
            while i < n:
                osm = idle[i]
                i += 1
                if osm._fail_version == version:
                    continue
                stepper = osm.current._fused
                if stepper is not None:
                    edge = stepper(osm, clock)
                else:
                    edge = osm.try_transition(clock)
                probed += 1
                version = self.version
                if edge is not None:
                    version += 1
                    self.version = version
                    transitions += 1
                    if trace is not None:
                        trace(clock, osm, edge)
                    if not edge.dst.is_initial:
                        # an I self-loop (e.g. a doomed fetch discard)
                        # changes neither membership nor rank
                        if boundary is None:
                            boundary = [(osm, True)]
                        else:
                            boundary.append((osm, True))
                else:
                    # Homogeneous idle pool: every remaining idle OSM
                    # shares this fetch edge and fails identically.
                    osm._fail_version = version
                    for j in range(i, n):
                        idle[j]._fail_version = version
                    break
            if version == phase_version:
                # No idle transition: every idle OSM now carries the
                # current version stamp, so the next steps can skip the
                # phase outright until something observable changes.
                self._idle_fail_version = version
        if boundary is not None:
            self._apply_boundary(boundary, rank_key)
        stats.control_step_passes += probed
        stats.transitions += transitions
        if transitions == 0 and probed and self.deadlock_check:
            if self._deadlock_version != version:
                self._abort_on_cyclic_wait()
                self._deadlock_version = version
        self.clock += 1
        return transitions

    # -- rank-order cache maintenance ---------------------------------------

    def prepare(self) -> None:
        """Prime the scheduling caches before a hot loop.

        Optional — :meth:`control_step` builds everything lazily — but
        calling it once up front keeps the first simulated cycles off the
        rebuild path.  A no-op in reference mode (the reference loop owns
        no caches; tests assert ``_order`` stays empty there).
        """
        if self.reference:
            return
        rank_key = self.rank_key
        if rank_key is not self._order_key:
            self._resolve_order_key(rank_key)
        if self._rank_dirty:
            self._rebuild_order(rank_key)

    def _resolve_order_key(self, rank_key) -> None:
        """Adopt a (possibly replaced) rank function: order invalid."""
        self._order_key = rank_key
        self._rank_stable = getattr(
            rank_key, "rank_changes_only_at_initial", False)
        self._inc_eligible = self._rank_stable and getattr(
            rank_key, "rank_departure_monotone", False)
        self._inc_active = False
        self._rank_dirty = True

    def _rebuild_order(self, rank_key) -> None:
        """Full re-sort — the reference semantics: self.osms in
        registration order under a stable sort, so ties break identically.

        When the rank key is marked in-flight-stable *and*
        departure-monotone, the sorted order is additionally partitioned
        into the in-flight prefix and the idle suffix so subsequent
        I-boundary transitions can maintain it incrementally (append
        departures at the flight tail, bisect returning OSMs into the
        idle suffix) instead of re-sorting.  The partition is verified
        here — in-flight strictly before idle, all keys strictly
        increasing — and any violation simply leaves the incremental
        mode off for this rebuild; scheduling is unaffected either way.
        """
        order = sorted(self.osms, key=rank_key)
        self._order = order
        self._order_stale = False
        self._rank_dirty = False
        self._inc_active = False
        if not self._inc_eligible or not order:
            return
        flight = [osm for osm in order if not osm.in_initial]
        if order[:len(flight)] != flight:
            return  # an idle OSM ranks inside the in-flight prefix
        idle = order[len(flight):]
        keys = [rank_key(osm) for osm in order]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return  # duplicate/unordered keys: bisect maintenance unsound
        self._flight = flight
        self._flight_keys = keys[:len(flight)]
        self._idle = idle
        self._idle_keys = keys[len(flight):]
        self._inc_active = True
        first = order[0]
        self._uniform_pool = all(
            osm.spec is first.spec and osm.tag == first.tag for osm in order
        )

    def _apply_boundary(self, boundary, rank_key) -> None:
        """Incrementally apply this step's I-boundary membership changes
        to the cached rank order.  Any surprise — non-monotone departure
        key, duplicate idle key, an OSM missing from its expected
        partition — degrades to a full re-sort next step."""
        flight = self._flight
        flight_keys = self._flight_keys
        idle = self._idle
        idle_keys = self._idle_keys
        for osm, departed in boundary:
            key = rank_key(osm)
            try:
                if departed:
                    if flight_keys and key <= flight_keys[-1]:
                        self._degrade_inc()
                        return
                    # the departing OSM is almost always the head of the
                    # idle partition (lowest rank fetches first)
                    j = 0 if idle and idle[0] is osm else idle.index(osm)
                    del idle[j]
                    del idle_keys[j]
                    flight.append(osm)
                    flight_keys.append(key)
                else:
                    # retirement in program order: usually the oldest
                    j = 0 if flight and flight[0] is osm else flight.index(osm)
                    del flight[j]
                    del flight_keys[j]
                    pos = bisect_left(idle_keys, key)
                    if pos < len(idle_keys) and idle_keys[pos] == key:
                        self._degrade_inc()
                        return
                    idle.insert(pos, osm)
                    idle_keys.insert(pos, key)
            except ValueError:  # not in the expected partition
                self._degrade_inc()
                return
        # The concatenated order is only needed by the generic scan; the
        # split scan walks the partitions directly, so defer the concat.
        self._order_stale = True

    def _degrade_inc(self) -> None:
        self._inc_active = False
        self._rank_dirty = True

    def _forget_parking(self) -> None:
        """Unpark every OSM: the split scan and the reference loop probe
        without parking, so an OSM they move would otherwise keep a
        stale parked state, or sleep, when it returns to it."""
        for osm in self.osms:
            osm._parked = None
            osm._asleep = False
        self._parking = False

    def _control_step_reference(self) -> int:
        """The original scheduling loop (paper Fig. 3, directly transcribed).

        Kept as the executable specification of the fast path: re-sorts the
        whole OSM pool every step and scans trailing idle peers.  Tests run
        full workloads under both loops and assert identical cycle counts,
        stats and traces.
        """
        # updateOSMList(): rank at the beginning of each control step.
        pending = sorted(self.osms, key=self.rank_key)
        transitions = 0
        probed = 0
        i = 0
        trace = self.trace
        while i < len(pending):
            osm = pending[i]
            if osm._fail_version == self.version:
                # Nothing observable changed since this OSM last failed;
                # the probe outcome is guaranteed identical.
                i += 1
                continue
            edge = osm.try_transition(self.clock)
            probed += 1
            self.stats.control_step_passes += 1
            if edge is not None:
                self.version += 1
                transitions += 1
                if trace is not None:
                    trace(self.clock, osm, edge)
                # "When an OSM changes its state ... it is removed from the
                # list so that it will not be scheduled again in the current
                # control step."
                pending.pop(i)
                if self.restart:
                    # "we restart the outer-loop from the remaining OSM with
                    # the highest rank."
                    i = 0
                # else: continue at the same index, which now addresses the
                # next OSM in rank order (single-pass mode).
            else:
                osm._fail_version = self.version
                if osm.operation is None:
                    # Idle OSMs of the same machine and thread are ranked
                    # last and share the fetch edge: once one fails, its
                    # peers fail identically this step.
                    for trailing in pending[i + 1:]:
                        if (
                            trailing.operation is None
                            and trailing.tag == osm.tag
                            and trailing.spec is osm.spec
                        ):
                            trailing._fail_version = self.version
                i += 1
        self.stats.transitions += transitions
        if transitions == 0 and probed and self.deadlock_check:
            self._abort_on_cyclic_wait()
        self.clock += 1
        return transitions

    # -- deadlock analysis ---------------------------------------------------

    def _abort_on_cyclic_wait(self) -> None:
        """Detect a cyclic resource dependency among blocked OSMs.

        Builds the wait-for graph: OSM -> holder(s) of the resource it is
        blocked on, using each manager's ``holders_of`` knowledge where
        available (falling back to token holders).  A cycle means the model
        is faulty (a cyclic pipeline) and the director aborts.
        """
        waits = {}
        for osm in self.osms:
            if osm.blocked_on is None:
                continue
            manager, ident = osm.blocked_on
            if (
                not hasattr(manager, "holders_of")
                and isinstance(ident, str)
                and ident in osm.token_buffer
            ):
                # A refused release of a token the OSM itself holds is a
                # hardware hold (variable latency), not a wait on another
                # OSM — unless the manager says otherwise via holders_of.
                continue
            holders = _holders(manager, ident)
            targets = {id(h) for h in holders if h is not None and h is not osm}
            if targets:
                waits[id(osm)] = (osm, targets)
        # DFS cycle detection over the wait-for graph.
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {key: WHITE for key in waits}
        for start in list(waits):
            if colour[start] != WHITE:
                continue
            stack = [(start, iter(waits[start][1]))]
            colour[start] = GREY
            path = [start]
            while stack:
                node, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in waits:
                        continue
                    if colour[succ] == GREY:
                        cycle_start = path.index(succ)
                        cycle = [waits[k][0] for k in path[cycle_start:]]
                        raise SchedulingDeadlockError(self.clock, cycle)
                    if colour[succ] == WHITE:
                        colour[succ] = GREY
                        stack.append((succ, iter(waits[succ][1])))
                        path.append(succ)
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
                    path.pop()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Director({len(self.osms)} OSMs, clock={self.clock})"


def _holders(manager, ident) -> Iterable[Any]:
    """Best-effort answer to "who holds the resource *ident* of *manager*"."""
    holders_of = getattr(manager, "holders_of", None)
    if holders_of is not None:
        return holders_of(ident)
    token = getattr(manager, "token", None)
    if token is not None:  # SlotManager-like
        return [token.holder]
    tokens = getattr(manager, "tokens", None)
    if tokens is not None:  # PoolManager-like: waiting for any free entry
        return [t.holder for t in tokens]
    pending_writer = getattr(manager, "pending_writer", None)
    if pending_writer is not None and isinstance(ident, int):
        return [pending_writer(ident)]
    return []
