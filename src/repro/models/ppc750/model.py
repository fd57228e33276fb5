"""The PowerPC-750 out-of-order superscalar model — paper Section 5.2.

The MPC750 is a dual-issue out-of-order processor: a 6-entry fetch queue,
dual in-order dispatch, six function units (IU1, IU2, SRU, LSU, FPU, BPU)
each with an independent reservation station, register renaming buffers,
and a 6-entry completion queue retiring up to two operations per cycle in
program order.

The operation OSM is the paper's Figure 2 shape: from the fetch queue an
operation dispatches *directly into its function unit* when its operands
and the unit are available (the high-priority edge), and *into the unit's
reservation station* otherwise — "such typical superscalar behavior cannot
be modeled by L-chart, but it can be easily modeled by an OSM".

States: I (idle) -> Q (fetch queue) -> {X (executing) | R (reservation
station) -> X} -> W (waiting in completion queue) -> I.

Functional execution uses the in-order oracle
(:class:`~repro.iss.oracle.Oracle`); fetch follows real BHT/BTIC
predictions, creates wrong-path operations on mispredicted paths, and the
reset manager kills them when the branch resolves, exactly as Section 4's
control-hazard scheme prescribes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.director import operation_seq_rank
from ...core import (
    Allocate,
    AllocateMany,
    Condition,
    CycleDrivenKernel,
    Director,
    Discard,
    Guard,
    InOrderPoolManager,
    Inquire,
    MachineSpec,
    OperationStateMachine,
    PoolManager,
    Release,
    ReleaseMany,
    SimulationStats,
    defuse_spec,
    enable_fusion,
)
from ...de.module import HardwareModule
from ...isa.ppc import isa as ppc_isa
from ...isa.program import Program
from ...iss.interpreter import PpcInterpreter
from ...iss.oracle import ExecRecord, Oracle
from ...memory.cache import Cache
from ..common import ResetUnit, StageUnit
from .branch import BranchPredictor
from .managers import RegisterRenameManager

CLOCK_HZ = 300_000_000  # a typical PPC-750 part of the era

UNIT_NAMES = (ppc_isa.UNIT_IU1, ppc_isa.UNIT_IU2, ppc_isa.UNIT_SRU,
              ppc_isa.UNIT_LSU, ppc_isa.UNIT_FPU, ppc_isa.UNIT_BPU)

#: execution latencies by mnemonic (cycles in the function unit)
MULDIV_LATENCY = {"mulli": 3, "mullw": 4, "mulhw": 5, "divw": 19, "divwu": 19}
LSU_BASE_LATENCY = 2


def default_icache() -> Cache:
    return Cache("icache", size=32 * 1024, line_size=32, assoc=8, miss_penalty=30)


def default_dcache() -> Cache:
    return Cache("dcache", size=32 * 1024, line_size=32, assoc=8, miss_penalty=30)


class OooOperation:
    """Per-operation payload for the out-of-order model."""

    __slots__ = ("seq", "pc", "instr", "record", "predicted_next", "done",
                 "src_deps", "rs_unit", "exec_unit")

    def __init__(self, seq: int, pc: int, instr, record: Optional[ExecRecord]):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        #: the oracle record; None marks a wrong-path operation
        self.record = record
        self.predicted_next = (pc + 4) & 0xFFFFFFFF
        #: True once execution has finished (result forwardable)
        self.done = False
        #: producer operations captured at dispatch (RS wakeup set)
        self.src_deps: Tuple["OooOperation", ...] = ()
        #: which reservation station holds the op (unit name), if any
        self.rs_unit: Optional[str] = None
        #: which unit executed the op
        self.exec_unit: Optional[str] = None

    @property
    def wrong_path(self) -> bool:
        return self.record is None

    def __repr__(self) -> str:  # pragma: no cover
        tag = " WP" if self.wrong_path else ""
        return f"OooOperation(#{self.seq} {self.instr.text}{tag})"


def unit_routes(unit: str) -> Tuple[str, ...]:
    """Acceptable function units in preference order for an instruction
    of unit class *unit* (``instr.unit``)."""
    if unit == ppc_isa.UNIT_IU2:
        # Plain integer work runs on either IU; prefer IU2 to keep IU1
        # free for multiply/divide (dispatcher heuristic).
        return (ppc_isa.UNIT_IU2, ppc_isa.UNIT_IU1)
    return (unit,)


# Routing keys of the keyed dispatch and issue guards (Guard.equals):
# the operation's unit class, and the reservation station holding it.
# Single-return bodies, so transcheck (TRV002) can check the
# __fuse_inline__ declarations below against them.
def unit_of(osm) -> str:
    return osm.operation.instr.unit


def station_of(osm) -> Optional[str]:
    return osm.operation.rs_unit


# pasted into fused steppers as keyed-guard tests (must mirror the bodies)
unit_of.__fuse_inline__ = "osm.operation.instr.unit"
station_of.__fuse_inline__ = "osm.operation.rs_unit"


class FetchEngine(HardwareModule):
    """Fetch unit: PC, branch prediction, oracle cursor, I-cache timing."""

    def __init__(self, oracle: Oracle, predictor: BranchPredictor, entry: int,
                 icache: Optional[Cache] = None, fetch_width: int = 4):
        super().__init__("fetch")
        self.oracle = oracle
        self.predictor = predictor
        self.fetch_pc = entry
        self.icache = icache
        self.fetch_width = fetch_width
        self.cursor = 0  # next correct-path oracle index
        self.halted = False
        self._fetched_this_cycle = 0
        self._stall = 0
        self._redirect: Optional[Tuple[int, int]] = None  # (target, cursor)
        self._seq = 0
        self.fetched = 0
        self.wrong_path_fetched = 0

    def can_accept(self) -> bool:
        if self.halted or self._redirect is not None or self._stall > 0:
            return False
        if self._fetched_this_cycle >= self.fetch_width:
            return False
        # Past program exit every further fetch would be junk; stop.
        if self.oracle.record(self.cursor) is None and not self._on_wrong_path():
            return False
        return True

    def _on_wrong_path(self) -> bool:
        expected = self.oracle.record(self.cursor)
        return expected is not None and expected.pc != self.fetch_pc

    def fetch_into(self, osm) -> None:
        pc = self.fetch_pc
        expected = self.oracle.record(self.cursor)
        if expected is not None and expected.pc == pc:
            record: Optional[ExecRecord] = expected
            self.cursor += 1
        else:
            record = None
            self.wrong_path_fetched += 1
        instr = self.oracle.decode_at(pc)
        op = OooOperation(self._seq, pc, instr, record)
        self._seq += 1
        self.fetched += 1
        self._fetched_this_cycle += 1
        if instr.is_branch:
            taken, target = self.predictor.predict(instr)
            if taken and target is not None:
                op.predicted_next = target
        self.fetch_pc = op.predicted_next
        osm.operation = op
        if self.icache is not None:
            extra = self.icache.access(pc) - 1
            if extra > 0:
                self._stall = extra
        return

    def redirect(self, target: int, cursor: int) -> None:
        self._redirect = (target & 0xFFFFFFFF, cursor)

    def halt(self) -> None:
        self.halted = True

    def begin_cycle(self, cycle: int) -> None:
        if self._fetched_this_cycle >= self.fetch_width:
            self.notify()  # the fetch budget refreshed
        self._fetched_this_cycle = 0
        if self._stall > 0:
            self._stall -= 1
            if self._stall == 0:
                self.notify()  # I-cache stall over

    def end_cycle(self, cycle: int) -> None:
        if self._redirect is not None:
            self.fetch_pc, self.cursor = self._redirect
            self._redirect = None
            self._stall = 0
            self.notify()  # fetch resumes at the redirect target


class QueueUnit(HardwareModule):
    """Hardware wrapper resetting a queue manager's per-cycle budget."""

    def __init__(self, manager):
        super().__init__(manager.name)
        self.manager = manager

    def begin_cycle(self, cycle: int) -> None:
        if self.manager.budget_was_used():
            self.notify()  # dispatch/retire budget refreshed
        self.manager.new_cycle()


class Ppc750Model:
    """OSM model of the PowerPC 750."""

    def __init__(
        self,
        program: Program,
        icache: Optional[Cache] = None,
        dcache: Optional[Cache] = None,
        perfect_memory: bool = False,
        n_osms: int = 18,
        restart: bool = True,
        fetch_width: int = 4,
        fq_size: int = 6,
        cq_size: int = 6,
        dispatch_width: int = 2,
        retire_width: int = 2,
        gpr_rename_buffers: int = 6,
        stdin: bytes = b"",
        fused: bool = True,
    ):
        if not perfect_memory:
            icache = icache if icache is not None else default_icache()
            dcache = dcache if dcache is not None else default_dcache()
        self.program = program
        self.oracle = Oracle(PpcInterpreter(program, stdin=stdin))
        self.predictor = BranchPredictor()
        self.fetch = FetchEngine(self.oracle, self.predictor, program.entry,
                                 icache, fetch_width)
        self.dcache = dcache

        # in-order dual dispatch from the fetch queue, in-order
        # retirement from the completion queue
        self.fq = InOrderPoolManager("m_fq", fq_size, dispatch_width)
        self.cq = InOrderPoolManager("m_cq", cq_size, retire_width)
        self.rename = RegisterRenameManager(gpr_buffers=gpr_rename_buffers)
        self.units: Dict[str, StageUnit] = {
            name: StageUnit(f"m_{name}") for name in UNIT_NAMES
        }
        self.stations: Dict[str, PoolManager] = {
            name: PoolManager(f"m_rs_{name}", 1) for name in UNIT_NAMES
        }
        self.reset_unit = ResetUnit()

        self.spec = self._build_spec()
        self.director = Director(rank_key=operation_seq_rank, restart=restart)
        self.osms = [OperationStateMachine(self.spec) for _ in range(n_osms)]
        self.director.add(*self.osms)
        if fused:
            # Fused per-state steppers for every state the effect analysis
            # certifies (repro.core.fuse); scheduling results identical.
            enable_fusion(self.spec)
        else:
            # reset the fusion census too, so counters from an earlier
            # fused build never leak into an unfused one
            defuse_spec(self.spec)

        modules: List[HardwareModule] = [
            self.fetch,
            QueueUnit(self.fq),
            QueueUnit(self.cq),
            *self.units.values(),
            self.reset_unit,
        ]
        self.kernel = CycleDrivenKernel(self.director, modules)
        self.kernel.stop_condition = self._finished
        self.halted = False
        self.retired = 0

    # -- spec ---------------------------------------------------------------

    def _build_spec(self) -> MachineSpec:
        spec = MachineSpec("ppc750")
        for name in "IQRXW":
            spec.state(name, initial=(name == "I"))

        def src_idents(osm):
            return osm.operation.instr.src_regs

        def dst_idents(osm):
            return osm.operation.instr.dst_regs

        def dep_idents(osm):
            return osm.operation.src_deps

        # inlined into fused steppers (must mirror the bodies above)
        src_idents.__fuse_inline__ = "osm.operation.instr.src_regs"
        dst_idents.__fuse_inline__ = "osm.operation.instr.dst_regs"
        dep_idents.__fuse_inline__ = "osm.operation.src_deps"

        # Audited suppression: can_accept() consults the lazily-extended
        # oracle trace, so probing may run the reference ISS forward and
        # append records (effectcheck sees shared writes / opaque calls).
        # The extension is pure memoization — record(i) is idempotent and
        # its value never changes once computed — so probe frequency
        # cannot affect results.  The fetch-queue allocation comes first:
        # a full queue refuses before can_accept() runs the lookahead.
        spec.edge(
            "I", "Q",
            Condition([Allocate(self.fq, slot="fq"),
                       Guard(lambda osm: self.fetch.can_accept(), "fetch-ready")]),
            action=self.fetch.fetch_into,
            label="fetch",
        ).allow_lint("EFF001", "EFF008")

        # Dispatch edges, one per (unit class, acceptable unit) of
        # unit_routes, each keyed on the operation's unit class.  The
        # in-order fetch-queue release comes first: a condition is a
        # conjunction and commits releases before grants, so the order
        # changes only what a refused probe records.  An operation behind
        # the queue head then refuses on the queue it is waiting for,
        # before any operand or allocation check, and parks there (see
        # Director.control_step).
        # Direct-to-unit (Figure 2's e2) outranks dispatch-to-reservation-
        # station (e1); every class's first choice outranks the
        # alternates, in decreasing static priority.
        routes = {cls: unit_routes(cls) for cls in UNIT_NAMES}
        priority = 40
        for choice in range(max(len(units) for units in routes.values())):
            for cls, units in routes.items():
                if choice >= len(units):
                    continue
                unit_name = units[choice]
                name = unit_name if choice == 0 else f"{unit_name}-alt"
                spec.edge(
                    "Q", "X",
                    Condition([
                        Guard.equals(unit_of, cls, f"route-{name}"),
                        Release("fq"),
                        Inquire(self.rename, src_idents),
                        Allocate(self.units[unit_name].manager, slot="unit"),
                        Allocate(self.cq, slot="cq"),
                        AllocateMany(self.rename, dst_idents, slot="ren"),
                    ]),
                    priority=priority,
                    action=self._dispatch_execute,
                    label=f"direct-{name}",
                )
                priority -= 1

        priority = 20
        for cls, units in routes.items():
            unit_name = units[0]
            spec.edge(
                "Q", "R",
                Condition([
                    Guard.equals(unit_of, cls, f"rsroute-{unit_name}"),
                    Release("fq"),
                    Allocate(self.stations[unit_name], slot="rs"),
                    Allocate(self.cq, slot="cq"),
                    AllocateMany(self.rename, dst_idents, slot="ren"),
                ]),
                priority=priority,
                action=self._dispatch_to_station(unit_name),
                label=f"station-{unit_name}",
            )
            priority -= 1

        # Issue from reservation station into the unit.
        for unit_name in UNIT_NAMES:
            spec.edge(
                "R", "X",
                Condition([
                    Guard.equals(station_of, unit_name, f"in-rs-{unit_name}"),
                    Inquire(self.rename, dep_idents),
                    Allocate(self.units[unit_name].manager, slot="unit"),
                    Release("rs"),
                ]),
                action=self._begin_execution,
                label=f"issue-{unit_name}",
            )

        spec.edge(
            "X", "W",
            Condition([Release("unit")]),
            action=self._finish_execution,
            label="finish",
        )
        spec.edge(
            "W", "I",
            Condition([Release("cq"), ReleaseMany("ren")]),
            action=self._retire,
            label="retire",
        )
        for state in "QRXW":
            spec.edge(
                state, "I",
                Condition([Inquire(self.reset_unit.manager), Discard()]),
                priority=90,
                action=self._killed,
                label=f"reset-{state}",
            )
        spec.validate()
        return spec

    # -- edge actions ----------------------------------------------------------

    def _capture_deps(self, op: OooOperation) -> None:
        deps = []
        for reg in op.instr.src_regs:
            # Youngest producer older than this op.  The op's own rename
            # allocation has already committed (it is the chain tail for
            # ops like ``addi r3, r3, 1``), so walk past self to find the
            # true source.
            for producer in reversed(self.rename.producers[reg]):
                if producer is op or producer.seq >= op.seq:
                    continue
                if not producer.done:
                    deps.append(producer)
                break
        op.src_deps = tuple(deps)

    def _dispatch_execute(self, osm) -> None:
        """Q->X direct dispatch: capture (empty) deps, start executing."""
        self._capture_deps(osm.operation)
        self._begin_execution(osm)

    def _dispatch_to_station(self, unit_name: str):
        def action(osm) -> None:
            op: OooOperation = osm.operation
            op.rs_unit = unit_name
            self._capture_deps(op)

        return action

    def _begin_execution(self, osm) -> None:
        op: OooOperation = osm.operation
        unit_manager = osm.token_buffer["unit"].manager
        unit_name = unit_manager.name[2:]  # strip "m_"
        op.exec_unit = unit_name
        unit = self.units[unit_name]
        latency = self.execute_latency(op)
        if latency > 1:
            unit.hold(latency - 1)
        if op.instr.is_branch and op.record is not None:
            self._resolve_branch(op)
        return

    def execute_latency(self, op: OooOperation) -> int:
        """Function-unit occupancy in cycles."""
        instr = op.instr
        if instr.unit == ppc_isa.UNIT_LSU:
            latency = LSU_BASE_LATENCY
            if (
                op.record is not None
                and op.record.mem_addr is not None
                and self.dcache is not None
            ):
                latency += self.dcache.access(op.record.mem_addr, op.record.mem_is_store) - 1
            return latency
        if instr.mnemonic in MULDIV_LATENCY:
            return MULDIV_LATENCY[instr.mnemonic]
        return 1

    def _resolve_branch(self, op: OooOperation) -> None:
        record = op.record
        actual_next = record.next_pc
        taken = record.next_pc != ((op.pc + 4) & 0xFFFFFFFF)
        self.predictor.resolve(op.instr, taken, actual_next)
        if op.predicted_next != actual_next:
            self.predictor.note_mispredict()
            self.fetch.redirect(actual_next, record.index + 1)
            self._kill_younger(op.seq)

    def _kill_younger(self, seq_threshold: int) -> None:
        reset = self.reset_unit
        for osm in self.osms:
            op = osm.operation
            if op is None or osm.in_initial:
                continue
            if op.seq > seq_threshold and not reset.manager.is_doomed(osm):
                reset.manager.doom(osm)

    def _finish_execution(self, osm) -> None:
        osm.operation.done = True

    def _retire(self, osm) -> None:
        op: OooOperation = osm.operation
        self.retired += 1
        if op.record is None:
            raise AssertionError(
                f"wrong-path operation retired: {op!r} — kill machinery broken"
            )
        self.director.stats.instructions += 1
        if self.oracle.length is not None and op.record.index == self.oracle.length - 1:
            self.halted = True
            self.fetch.halt()
            self._kill_younger(op.seq)

    def _killed(self, osm) -> None:
        osm.operation.done = True  # release any captured dependants
        self.reset_unit.acknowledge(osm)

    # -- running -------------------------------------------------------------------

    def _finished(self) -> bool:
        return self.halted and all(osm.in_initial for osm in self.osms)

    def run(self, max_cycles: int = 10_000_000) -> SimulationStats:
        return self.kernel.run(max_cycles)

    @property
    def cycles(self) -> int:
        return self.kernel.stats.cycles

    @property
    def exit_code(self) -> int:
        return self.oracle.exit_code

    @property
    def output_text(self) -> str:
        return self.oracle.interpreter.syscalls.output_text
