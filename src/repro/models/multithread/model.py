"""Multithreaded (MT) processor model (paper Section 6).

"When modeling MT with OSM, each OSM carries a tag indicating the thread
that it belongs to.  The tags are used as part of the identifiers for
token transactions and may contribute to the ranking of the OSMs."

This model implements fine-grained (round-robin) multithreading over the
5-stage ARM-like pipeline:

* every OSM carries its thread id in ``osm.tag``;
* each thread has its own architectural state and its own register-file
  TMI — value/update identifiers are implicitly thread-qualified because
  the per-thread manager instance *is* part of the identifier;
* the shared fetch stage arbitrates by tag: the fetch edge's guard
  prefers the round-robin thread but admits any ready thread whose
  pipeline is not stalled to the fetch slot, which is how MT hides
  memory latency;
* ranking is (age, tag) so interleaved threads stay deterministic.

Long-latency stalls (D-cache misses) in one thread leave the shared
pipeline stages free for the others; the bench/examples show the
throughput gain over running the same programs back-to-back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...core import (
    Allocate,
    AllocateMany,
    Condition,
    CycleDrivenKernel,
    Director,
    Discard,
    Guard,
    Inquire,
    MachineSpec,
    OperationStateMachine,
    Release,
    ReleaseMany,
    SimulationStats,
    SlotManager,
    enable_fusion,
)
from ...de.module import HardwareModule
from ...isa.arm import semantics as arm_semantics
from ...isa.bits import popcount_significant_bytes
from ...isa.program import Program
from ...iss.interpreter import ArmInterpreter
from ...memory.cache import Cache
from ...core.director import rank_stable_in_flight
from ..common import Operation, ResetUnit, StageUnit
from ..strongarm.managers import ForwardingRegisterFileManager


# Routing key of the per-thread edges (Guard.equals): the OSM's thread tag.
def thread_of(osm) -> int:
    return osm.tag


# pasted into fused steppers as a keyed-guard test (must mirror the body)
thread_of.__fuse_inline__ = "osm.tag"


def _has_miss(osm) -> bool:
    """True for operations with an outstanding memory miss."""
    return osm.operation.miss_cycles > 0


@rank_stable_in_flight
def _mt_rank(osm):
    """Age ranking with the thread tag contributing (Section 6).

    Depends only on the operation seq, tag and serial, all fixed while the
    OSM is in flight, so the director may cache the rank order between
    I-boundary transitions.
    """
    operation = osm.operation
    if operation is None:
        return (1, osm.tag, osm.serial)
    return (0, operation.seq, osm.tag)


class ThreadContext:
    """One hardware thread: functional state plus fetch bookkeeping."""

    def __init__(self, tid: int, program: Program, stdin: bytes = b""):
        self.tid = tid
        self.iss = ArmInterpreter(program, stdin=stdin)
        self.fetch_pc = program.entry
        self.redirect_pending: Optional[int] = None
        self.halted = False
        self.retired = 0

    @property
    def state(self):
        return self.iss.state

    def can_fetch(self) -> bool:
        return not self.halted and self.redirect_pending is None


class ThreadedFetchUnit(HardwareModule):
    """Shared fetch stage with per-tag arbitration.

    The fetch edge's guard checks the identity (tag) of the requesting
    OSM — the Section-6 recipe — through :meth:`thread_may_fetch`, which
    admits threads to the plain fetch slot round-robin among those that
    can fetch this cycle.
    """

    def __init__(self, threads: Sequence[ThreadContext]):
        super().__init__("m_f")
        self.threads = list(threads)
        self.manager = SlotManager("m_f")
        self._turn = 0
        self._seq = 0
        self.fetched_per_thread = [0] * len(self.threads)

    def thread_may_fetch(self, tid: int) -> bool:
        thread = self.threads[tid]
        if not thread.can_fetch():
            return False
        # Round-robin preference: the turn-holder fetches; if it cannot,
        # any other ready thread may take the slot (the arbitration that
        # hides stalled threads).
        turn = self._turn % len(self.threads)
        if tid == turn:
            return True
        return not self.threads[turn].can_fetch()

    def fetch_into(self, osm) -> None:
        tid = osm.tag
        thread = self.threads[tid]
        pc = thread.fetch_pc
        instr = thread.iss.fetch_decode(pc)
        operation = Operation(self._seq, pc, instr)
        self._seq += 1
        osm.operation = operation
        thread.fetch_pc = (pc + 4) & 0xFFFFFFFF
        self.fetched_per_thread[tid] += 1
        self._turn = tid + 1

    def end_cycle(self, cycle: int) -> None:
        for thread in self.threads:
            if thread.redirect_pending is not None:
                thread.fetch_pc = thread.redirect_pending
                thread.redirect_pending = None
                self.notify()  # the thread may fetch again


class MultithreadModel:
    """Fine-grained multithreaded 5-stage pipeline over the ARM-like ISA."""

    def __init__(
        self,
        programs: Sequence[Program],
        dcache: Optional[Cache] = None,
        osms_per_thread: int = 3,
        restart: bool = False,
    ):
        if not programs:
            raise ValueError("need at least one thread program")
        self.threads = [ThreadContext(tid, prog) for tid, prog in enumerate(programs)]
        self.fetch = ThreadedFetchUnit(self.threads)
        self.decode_stage = StageUnit("m_d")
        self.execute_stage = StageUnit("m_e")
        self.buffer_stage = StageUnit("m_b")
        self.writeback_stage = StageUnit("m_w")
        self.regfiles: List[ForwardingRegisterFileManager] = [
            ForwardingRegisterFileManager(f"m_r{tid}", 17, _Backing())
            for tid in range(len(self.threads))
        ]
        #: per-thread miss-wait slots: a missing memory operation parks
        #: here so the shared pipeline keeps flowing for other threads
        self.miss_units: List[StageUnit] = [
            StageUnit(f"m_miss{tid}") for tid in range(len(self.threads))
        ]
        self.reset_unit = ResetUnit()
        self.dcache = dcache

        self.spec = self._build_spec()
        self.director = Director(rank_key=_mt_rank, restart=restart)
        self.osms = []
        for tid in range(len(self.threads)):
            for _ in range(osms_per_thread):
                self.osms.append(OperationStateMachine(self.spec, tag=tid))
        self.director.add(*self.osms)
        # After director.add: the gate audits the stamped rank key
        # (repro.core.fuse).
        enable_fusion(self.spec)
        self.kernel = CycleDrivenKernel(
            self.director,
            [self.fetch, self.decode_stage, self.execute_stage,
             self.buffer_stage, self.writeback_stage, self.reset_unit,
             *self.miss_units],
        )
        self.kernel.stop_condition = self._finished

    def _build_spec(self) -> MachineSpec:
        spec = MachineSpec("mt5")
        for name in "IFDEBW":
            spec.state(name, initial=(name == "I"))
        spec.state("M")  # per-thread miss wait (latency hiding)

        def sources(osm):
            return osm.operation.instr.src_regs

        def dests(osm):
            return osm.operation.instr.dst_regs

        # inlined into fused steppers (must mirror the bodies above)
        sources.__fuse_inline__ = "osm.operation.instr.src_regs"
        dests.__fuse_inline__ = "osm.operation.instr.dst_regs"

        spec.edge("I", "F",
                  Condition([Guard(lambda osm: self.fetch.thread_may_fetch(osm.tag),
                                   "fetch-turn"),
                             Allocate(self.fetch.manager, slot="m_f")]),
                  action=self.fetch.fetch_into, label="fetch")
        spec.edge("F", "D",
                  Condition([Allocate(self.decode_stage.manager, slot="m_d"),
                             Release("m_f")]), label="decode")
        # Per-thread register files: the inquiry/allocation is routed to
        # the requesting OSM's thread manager via parallel guarded edges
        # (the tag is part of the effective identifier).
        for tid, regfile in enumerate(self.regfiles):
            spec.edge(
                "D", "E",
                Condition([
                    Guard.equals(thread_of, tid, f"thread-{tid}"),
                    Allocate(self.execute_stage.manager, slot="m_e"),
                    Inquire(regfile, sources),
                    AllocateMany(regfile, dests, slot="rupd"),
                    Release("m_d"),
                ]),
                action=self._execute_op,
                label=f"issue-t{tid}",
            )
        spec.edge("E", "B",
                  Condition([Allocate(self.buffer_stage.manager, slot="m_b"),
                             Release("m_e")]),
                  action=self._enter_buffer, label="mem")
        # A missing memory operation steps aside into its thread's miss
        # slot, freeing the shared buffer stage for the other threads —
        # this is where multithreading hides memory latency.
        for tid, miss_unit in enumerate(self.miss_units):
            spec.edge(
                "B", "M",
                Condition([
                    Guard.equals(thread_of, tid, f"thread-{tid}"),
                    Guard(_has_miss, "miss"),
                    Allocate(miss_unit.manager, slot="m_miss"),
                    Release("m_b"),
                ]),
                priority=5,
                action=self._park_miss,
                label=f"miss-t{tid}",
            )
        spec.edge("M", "W",
                  Condition([Allocate(self.writeback_stage.manager, slot="m_w"),
                             Release("m_miss")]),
                  action=self._enter_writeback, label="miss-done")
        spec.edge("B", "W",
                  Condition([Allocate(self.writeback_stage.manager, slot="m_w"),
                             Release("m_b")]),
                  action=self._enter_writeback, label="writeback")
        spec.edge("W", "I", Condition([Release("m_w"), ReleaseMany("rupd")]),
                  action=self._complete, label="retire")
        for state in ("F", "D"):
            spec.edge(state, "I",
                      Condition([Inquire(self.reset_unit.manager), Discard()]),
                      priority=10, action=self._killed, label=f"reset-{state}")
        spec.validate()
        return spec

    # -- edge actions ----------------------------------------------------------

    def _execute_op(self, osm) -> None:
        thread = self.threads[osm.tag]
        op: Operation = osm.operation
        fn = op.instr.exec_fn
        info = fn(thread.state) if fn is not None \
            else arm_semantics.execute(thread.state, op.instr)
        op.info = info
        thread.state.instret += 1
        if op.instr.unit == "mul" and info.executed:
            extra = popcount_significant_bytes(info.mul_operand or 0)
            if extra > 0:
                self.execute_stage.hold(extra)
        sequential = (op.pc + 4) & 0xFFFFFFFF
        if info.next_pc != sequential or thread.state.halted:
            thread.redirect_pending = info.next_pc
            if thread.state.halted:
                thread.halted = True
            self._kill_thread_younger(osm.tag, op.seq)

    def _kill_thread_younger(self, tid: int, seq: int) -> None:
        for osm in self.osms:
            if osm.tag != tid or osm.operation is None or osm.in_initial:
                continue
            if osm.operation.seq > seq and not self.reset_unit.manager.is_doomed(osm):
                self.reset_unit.manager.doom_now(osm)

    def _memory_access(self, osm) -> None:
        from ..common import memory_latency

        op: Operation = osm.operation
        extra = memory_latency(op.info, self.dcache) - 1
        if extra > 0:
            op.miss_cycles = extra  # consumed by the B->M miss edge

    def _enter_buffer(self, osm) -> None:
        """E->B: charge memory latency; publish forwardable ALU results."""
        self._memory_access(osm)
        op: Operation = osm.operation
        if not op.instr.is_load:
            regfile = self.regfiles[osm.tag]
            for reg in op.instr.dst_regs:
                regfile.mark_ready(reg, osm)

    def _enter_writeback(self, osm) -> None:
        op: Operation = osm.operation
        if op.instr.is_load:
            regfile = self.regfiles[osm.tag]
            for reg in op.instr.dst_regs:
                regfile.mark_ready(reg, osm)

    def _park_miss(self, osm) -> None:
        op: Operation = osm.operation
        self.miss_units[osm.tag].hold(op.miss_cycles)
        op.miss_cycles = 0

    def _complete(self, osm) -> None:
        self.threads[osm.tag].retired += 1
        self.director.stats.instructions += 1

    def _killed(self, osm) -> None:
        self.reset_unit.acknowledge(osm)

    # -- running ------------------------------------------------------------------

    def _finished(self) -> bool:
        return all(t.halted for t in self.threads) and all(
            osm.in_initial for osm in self.osms
        )

    def run(self, max_cycles: int = 10_000_000) -> SimulationStats:
        return self.kernel.run(max_cycles)

    @property
    def cycles(self) -> int:
        return self.kernel.stats.cycles

    def exit_codes(self) -> List[int]:
        return [t.state.exit_code for t in self.threads]


class _Backing:
    def __init__(self):
        self.values = [0] * 17

    def read(self, reg: int) -> int:
        return self.values[reg]

    def write(self, reg: int, value: int) -> None:
        self.values[reg] = value & 0xFFFFFFFF
