"""Operation state machines (Section 3.1).

An OSM's *states* represent the execution steps of a machine operation; its
*edges* carry guard conditions (conjunctions of token-transaction
primitives) and static priorities.  Each OSM owns a token buffer of
allocated resources and has a distinguished initial state ``I`` in which
the buffer is empty.  OSMs never talk to each other — their only interface
to the world is token transactions against managers.

Because a simulated processor keeps a pool of identical OSMs (one per
potentially in-flight operation), the state graph is factored into an
immutable :class:`MachineSpec` shared by all instances, and the mutable
per-operation part lives in :class:`OperationStateMachine`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .errors import SpecError, TokenError
from .fuse import CompileStats
from .primitives import ALWAYS, Condition, Primitive
from .token import Token
from .transaction import Transaction

Action = Callable[["OperationStateMachine"], None]


class State:
    """A named state in a machine specification."""

    __slots__ = ("name", "is_initial", "on_enter", "out_edges", "spec",
                 "source_span", "_fused", "_wake")

    def __init__(self, name: str, is_initial: bool = False, on_enter: Optional[Action] = None):
        self.name = name
        self.is_initial = is_initial
        self.on_enter = on_enter
        #: ``(unit, lineno)`` provenance when this state was synthesized
        #: from a source description (ADL); ``None`` for hand-built specs.
        #: The shared diagnostics layer renders it so analysis findings
        #: can point at the describing source line.
        self.source_span: Optional[Tuple[str, int]] = None
        #: owning spec, set by :meth:`MachineSpec.state`
        self.spec: Optional["MachineSpec"] = None
        #: outgoing edges sorted by descending static priority
        self.out_edges: List["Edge"] = []
        #: fused whole-state stepper ``step(osm, clock) -> Edge | None``
        #: installed by :func:`repro.core.fuse.fuse_spec` for states the
        #: effect analysis certifies; ``None`` means "probe through
        #: :meth:`OperationStateMachine.try_transition`" (the interpreted
        #: reference, always available)
        self._fused: Optional[Callable] = None
        #: generated wake test ``wake(osm) -> bool`` of a fused state
        #: (:func:`repro.core.fuse.generate_wake`): False means a probe
        #: would refuse every edge, and the test wrote its refusal record
        self._wake: Optional[Callable] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"State({self.name!r})"


class Edge:
    """A transition between two states.

    Parameters
    ----------
    src, dst:
        Source and destination states.
    condition:
        The guard condition; defaults to always-satisfied.
    priority:
        Static priority.  When several outgoing edges of a state are
        simultaneously satisfied, the highest-priority edge is taken
        (Section 3.1: this models multiple execution paths in superscalar
        processors).  Higher number = higher priority.
    action:
        Optional callback run right after the transaction commits and the
        state updates (e.g. "compute the result" on entering E).
    label:
        Trace label.
    allow:
        Lint-rule codes (e.g. ``"OSM004"``) whose findings on this edge
        are acknowledged false positives; see ``docs/static-analysis.md``.
    """

    __slots__ = ("src", "dst", "condition", "priority", "action", "label",
                 "index", "lint_allow", "source_span")

    def __init__(
        self,
        src: State,
        dst: State,
        condition: Optional[Condition] = None,
        priority: int = 0,
        action: Optional[Action] = None,
        label: str = "",
        allow: Iterable[str] = (),
    ):
        if isinstance(condition, Primitive):
            condition = Condition([condition])
        self.src = src
        self.dst = dst
        self.condition = condition if condition is not None else ALWAYS
        self.priority = priority
        self.action = action
        self.label = label or f"{src.name}->{dst.name}"
        #: declaration index within the owning spec (stable identity even
        #: when labels repeat); assigned by :meth:`MachineSpec.edge`
        self.index: int = -1
        self.lint_allow: Tuple[str, ...] = tuple(allow)
        #: ``(unit, lineno)`` provenance when synthesized from a source
        #: description (see :class:`State.source_span`)
        self.source_span: Optional[Tuple[str, int]] = None

    @property
    def qualname(self) -> str:
        """Stable, unique edge name: ``label@index`` within the spec."""
        return f"{self.label}@{self.index}"

    def allow_lint(self, *codes: str) -> "Edge":
        """Suppress the given lint-rule codes on this edge (chainable)."""
        self.lint_allow = self.lint_allow + tuple(codes)
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"Edge({self.label}, prio={self.priority})"


class MachineSpec:
    """The immutable state graph shared by a family of OSM instances."""

    def __init__(self, name: str):
        self.name = name
        self.states: Dict[str, State] = {}
        self.edges: List[Edge] = []
        self.initial: Optional[State] = None
        #: spec-wide lint suppressions (rule codes); see Edge.lint_allow
        #: for the per-edge variant
        self.lint_allow: Tuple[str, ...] = ()
        #: per-spec fusion census (see :class:`repro.core.fuse.CompileStats`)
        self.compile_stats = CompileStats()
        #: analysis breadcrumb: the rank-key function of the director the
        #: spec's OSMs were last registered with (stamped by
        #: ``Director.add``); the effect analyzer's EFF002 pass audits it
        #: when it carries the ``rank_stable_in_flight`` mark
        self.analysis_rank_key: Optional[Callable] = None
        #: name of the source description this spec was synthesized from
        #: (``None`` for hand-written models); states/edges carry the
        #: per-declaration ``source_span`` counterpart
        self.source_unit: Optional[str] = None
        #: canonical text of that description (``repr`` of its parsed
        #: declaration); the fusion store keys on it
        self.source_text: Optional[str] = None

    def allow_lint(self, *codes: str) -> "MachineSpec":
        """Suppress the given lint-rule codes everywhere in this spec."""
        self.lint_allow = self.lint_allow + tuple(codes)
        return self

    def state(self, name: str, initial: bool = False, on_enter: Optional[Action] = None) -> State:
        """Declare (or fetch) a state.  Exactly one state must be initial."""
        if name in self.states:
            return self.states[name]
        st = State(name, initial, on_enter)
        st.spec = self
        self.states[name] = st
        if initial:
            if self.initial is not None:
                raise SpecError(f"{self.name}: two initial states ({self.initial.name}, {name})")
            self.initial = st
        return st

    def edge(
        self,
        src: str,
        dst: str,
        condition: Optional[Condition] = None,
        priority: int = 0,
        action: Optional[Action] = None,
        label: str = "",
        allow: Iterable[str] = (),
    ) -> Edge:
        """Declare an edge between two already-declared states."""
        for endpoint in (src, dst):
            if endpoint not in self.states:
                raise SpecError(f"{self.name}: edge references unknown state {endpoint!r}")
        e = Edge(self.states[src], self.states[dst], condition, priority, action, label,
                 allow=allow)
        e.index = len(self.edges)
        self.edges.append(e)
        source = self.states[src]
        out = source.out_edges
        out.append(e)
        # keep outgoing edges sorted: highest static priority first, then
        # declaration order (stable sort) for determinism among equals
        out.sort(key=lambda edge: -edge.priority)
        # drop any fused stepper and wake test baked on the old edge set
        source._fused = None
        source._wake = None
        # the fusion census entries described the old edge set; drop them
        # so a later rebuild (or none) never reports a stale fused state
        self.compile_stats.states.pop(source.name, None)
        self.compile_stats.parking.pop(source.name, None)
        self.compile_stats.sleeping.pop(source.name, None)
        return e

    def validate(self) -> None:
        """Check structural invariants; raises :class:`SpecError`."""
        if self.initial is None:
            raise SpecError(f"{self.name}: no initial state declared")
        reachable = {self.initial.name}
        frontier = [self.initial]
        while frontier:
            st = frontier.pop()
            for e in st.out_edges:
                if e.dst.name not in reachable:
                    reachable.add(e.dst.name)
                    frontier.append(e.dst)
        unreachable = set(self.states) - reachable
        if unreachable:
            raise SpecError(
                f"{self.name}: states unreachable from {self.initial.name}: "
                f"{sorted(unreachable)}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"MachineSpec({self.name!r}, {len(self.states)} states, {len(self.edges)} edges)"


class OperationStateMachine:
    """One in-flight operation, executing over a shared :class:`MachineSpec`.

    Attributes
    ----------
    token_buffer:
        slot name -> held :class:`~repro.core.token.Token` (Section 3.1:
        "Each state machine contains a token buffer for allocated
        resources"; the buffer is empty in state I).
    operation:
        Opaque per-operation payload set by model code at fetch/decode time
        (typically a decoded-instruction record); cleared when the OSM
        returns to I.
    age:
        Monotonic stamp assigned when the OSM last left state I, used by
        the default age-based ranking (Section 5: "the director ranks the
        OSMs according to their ages, i.e. the order in which they last
        leave state I").
    tag:
        Free-form grouping tag (Section 6 uses it for the thread id in
        multi-threaded models; it may contribute to ranking and to manager
        decisions).
    """

    __slots__ = ("spec", "name", "serial", "tag", "current", "token_buffer",
                 "operation", "age", "blocked_on", "n_transitions",
                 "last_edge", "_fail_version", "_stepped", "_parked", "_asleep",
                 "_txn")

    _next_serial = 0

    def __init__(self, spec: MachineSpec, name: Optional[str] = None, tag: Any = None):
        if spec.initial is None:
            raise SpecError(f"{spec.name}: cannot instantiate, no initial state")
        self.spec = spec
        serial = OperationStateMachine._next_serial
        OperationStateMachine._next_serial += 1
        self.name = name or f"{spec.name}#{serial}"
        self.serial = serial
        self.tag = tag
        self.current = spec.initial
        self.token_buffer: Dict[str, Token] = {}
        self.operation: Any = None
        self.age: int = -1
        #: (manager, ident) the OSM most recently failed a probe against,
        #: consumed by deadlock analysis and traces
        self.blocked_on: Optional[Tuple[Any, Any]] = None
        #: transition count, for stats
        self.n_transitions = 0
        #: the edge most recently committed by :meth:`try_transition`.
        #: Unlike the return value, this is set *before* the home-invariant
        #: check, so a caller catching the buffer-at-I :class:`TokenError`
        #: can still report which edge fired (model-checker traces).
        self.last_edge: Optional[Edge] = None
        #: director bookkeeping: observable-state version at the last
        #: failed probe (see Director.control_step)
        self._fail_version = -1
        #: director bookkeeping: control-step id of the last committed
        #: transition (an OSM transitions at most once per control step)
        self._stepped = -1
        #: director bookkeeping: the state whose wake test the director
        #: calls before probing this OSM again (set by a failed probe in,
        #: or a commit into, a state with a wake test)
        self._parked: Optional[State] = None
        #: set by a refusing wake test whose park points all keep a wake
        #: contract, cleared by the managers when the refusal can flip:
        #: while set, the director skips the parked OSM without asking
        self._asleep = False
        #: the OSM's private reusable transaction: probe traffic is always
        #: sequential per OSM, so one lazily-reset object serves every
        #: try_transition call without pool traffic
        self._txn = Transaction(self)

    # -- token buffer helpers ---------------------------------------------

    def token(self, slot: str) -> Token:
        """The held token in *slot*; raises if absent."""
        try:
            return self.token_buffer[slot]
        except KeyError:
            raise TokenError(f"{self.name}: no token in slot {slot!r}") from None

    def holds(self, slot: str) -> bool:
        return slot in self.token_buffer

    def slot_of(self, token: Token) -> Optional[str]:
        for slot, held in self.token_buffer.items():
            if held is token:
                return slot
        return None

    # -- state machinery (driven by the director) --------------------------

    @property
    def in_initial(self) -> bool:
        return self.current is self.spec.initial

    def note_blocked_on(self, manager, ident) -> None:
        self.blocked_on = (manager, ident)

    def try_transition(self, clock: int) -> Optional[Edge]:
        """Attempt one transition per the per-OSM scheduling rules.

        Probes outgoing edges in static-priority order; on the first
        satisfied condition, commits the transaction, updates state, runs
        the edge action and the destination's ``on_enter``, and returns the
        edge.  Returns ``None`` when no edge fires.

        This is the interpreted reference (the oracle the fused steppers
        of :mod:`repro.core.fuse` are checked against): every edge is
        probed by calling ``p.probe(osm, txn)`` on its primitives in
        declaration order, and runs no generated code.
        """
        self.blocked_on = None
        current = self.current
        txn = self._txn
        for edge in current.out_edges:
            if txn.dirty:
                txn.reset(self)
            for primitive in edge.condition.primitives:
                if not primitive.probe(self, txn):
                    break
            else:
                txn.commit()
                dst = edge.dst
                self.current = dst
                self.last_edge = edge
                self.n_transitions += 1
                if current.is_initial:
                    self.age = clock
                if edge.action is not None:
                    edge.action(self)
                if dst.on_enter is not None:
                    dst.on_enter(self)
                if dst.is_initial:
                    # Back to I: token buffer must be empty (model invariant).
                    if self.token_buffer:
                        raise TokenError(
                            f"{self.name}: returned to initial state still "
                            f"holding {sorted(self.token_buffer)}"
                        )
                    self.operation = None
                    self.age = -1
                return edge
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"OSM({self.name}@{self.current.name})"
