"""VLIW processor model (paper Section 6).

"Since Very Long Instruction Word (VLIW) architectures have simpler
pipeline control, they can be easily modeled by OSM as well."

This model demonstrates that: a width-W in-order machine over the
ARM-like ISA in which each pipeline stage's TMI controls a *pool* of W
occupancy tokens (one per issue slot) and there is **no register-file
manager** — a VLIW relies on the compiler for data hazards, so operations
never stall on operands.  The only stalls are structural: a memory or
multiplier hold on a stage refuses all token releases of that stage,
which stalls the whole machine in lockstep — the classic VLIW global
stall.

Functional results remain exact even on unscheduled code because
operations still execute in program order at E (director rank order);
only the *timing* assumes the compiler has scheduled around latencies,
which is precisely the VLIW contract.
"""

from __future__ import annotations

from typing import Optional

from ...core import (
    Allocate,
    Condition,
    CycleDrivenKernel,
    Director,
    Discard,
    Guard,
    Inquire,
    MachineSpec,
    OperationStateMachine,
    PoolManager,
    Release,
    SimulationStats,
    enable_fusion,
)
from ...core.director import operation_seq_rank
from ...de.module import HardwareModule
from ...isa.arm import semantics as arm_semantics
from ...isa.bits import popcount_significant_bytes
from ...isa.program import Program
from ...iss.interpreter import ArmInterpreter
from ...memory.cache import Cache
from ..common import FetchUnit, Operation, ResetUnit


class WideStageUnit(HardwareModule):
    """A pipeline stage with one occupancy token per issue slot."""

    def __init__(self, name: str, width: int):
        super().__init__(name)
        self.manager = PoolManager(name, width)
        self._countdown = 0
        self.stall_cycles = 0

    def hold(self, cycles: int) -> None:
        if cycles > 0:
            self._countdown = max(self._countdown, cycles)
            self.manager.hold_release = True

    def begin_cycle(self, cycle: int) -> None:
        if self._countdown > 0:
            self._countdown -= 1
            self.stall_cycles += 1
            if self._countdown == 0:
                self.manager.hold_release = False
                self.notify()  # the lockstep stall expired


class WideFetchUnit(FetchUnit):
    """Fetch unit issuing up to ``width`` sequential operations per cycle.

    The fetch TMI is a plain pool of ``width`` slot tokens behind the
    fetch edge's ``fetch-ready`` guard (:meth:`can_accept`); the
    per-cycle budget follows from the slot pool itself (an OSM
    transitions once per step, so at most ``width`` fresh operations can
    claim slots each cycle).
    """

    def __init__(self, decode_at, entry: int, width: int,
                 icache: Optional[Cache] = None,
                 cache=None):
        super().__init__(decode_at, entry, icache, None, cache=cache)
        self.manager = PoolManager("m_f", width)


class VliwModel:
    """A width-W VLIW pipeline (F D E B W) over the ARM-like ISA."""

    def __init__(
        self,
        program: Program,
        width: int = 2,
        icache: Optional[Cache] = None,
        dcache: Optional[Cache] = None,
        restart: bool = False,
        stdin: bytes = b"",
    ):
        if width < 1:
            raise ValueError(f"VLIW width must be >= 1, got {width}")
        self.width = width
        self.iss = ArmInterpreter(program, stdin=stdin)
        self.state = self.iss.state

        self.fetch = WideFetchUnit(self.iss.fetch_decode, program.entry, width,
                                   icache, cache=self.iss.decode_cache)
        self.decode_stage = WideStageUnit("m_d", width)
        self.execute_stage = WideStageUnit("m_e", width)
        self.buffer_stage = WideStageUnit("m_b", width)
        self.writeback_stage = WideStageUnit("m_w", width)
        self.reset_unit = ResetUnit()
        self.dcache = dcache

        self.spec = self._build_spec()
        self.director = Director(rank_key=operation_seq_rank, restart=restart)
        self.osms = [
            OperationStateMachine(self.spec) for _ in range(5 * width + width)
        ]
        self.director.add(*self.osms)
        # After director.add: the gate audits the stamped rank key
        # (repro.core.fuse).
        enable_fusion(self.spec)
        self.kernel = CycleDrivenKernel(
            self.director,
            [self.fetch, self.decode_stage, self.execute_stage,
             self.buffer_stage, self.writeback_stage, self.reset_unit],
        )
        self.kernel.stop_condition = self._finished
        self.retired = 0

    def _build_spec(self) -> MachineSpec:
        spec = MachineSpec(f"vliw{self.width}")
        for name in "IFDEBW":
            spec.state(name, initial=(name == "I"))
        spec.edge("I", "F",
                  Condition([Guard(lambda osm: self.fetch.can_accept(), "fetch-ready"),
                             Allocate(self.fetch.manager, slot="m_f")]),
                  action=self.fetch.fetch_into, label="fetch")
        spec.edge("F", "D",
                  Condition([Allocate(self.decode_stage.manager, slot="m_d"),
                             Release("m_f")]),
                  label="decode")
        # No register-file inquiry: the compiler owns data hazards.
        spec.edge("D", "E",
                  Condition([Allocate(self.execute_stage.manager, slot="m_e"),
                             Release("m_d")]),
                  action=self._execute_op, label="issue")
        spec.edge("E", "B",
                  Condition([Allocate(self.buffer_stage.manager, slot="m_b"),
                             Release("m_e")]),
                  action=self._memory_access, label="mem")
        spec.edge("B", "W",
                  Condition([Allocate(self.writeback_stage.manager, slot="m_w"),
                             Release("m_b")]),
                  label="writeback")
        spec.edge("W", "I", Condition([Release("m_w")]),
                  action=self._complete, label="retire")
        for state in ("F", "D"):
            spec.edge(state, "I",
                      Condition([Inquire(self.reset_unit.manager), Discard()]),
                      priority=10, action=self._killed, label=f"reset-{state}")
        spec.validate()
        return spec

    # -- edge actions -----------------------------------------------------------

    def _execute_op(self, osm) -> None:
        op: Operation = osm.operation
        fn = op.instr.exec_fn
        info = fn(self.state) if fn is not None \
            else arm_semantics.execute(self.state, op.instr)
        op.info = info
        self.state.instret += 1
        if op.instr.unit == "mul" and info.executed:
            extra = popcount_significant_bytes(info.mul_operand or 0)
            if extra > 0:
                self.execute_stage.hold(extra)
        sequential = (op.pc + 4) & 0xFFFFFFFF
        if info.next_pc != sequential or self.state.halted:
            self.fetch.redirect(info.next_pc)
            if self.state.halted:
                self.fetch.halt()
            from ..common import kill_younger

            kill_younger(self.osms, op.seq, self.reset_unit, immediate=True)

    def _memory_access(self, osm) -> None:
        from ..common import memory_latency

        op: Operation = osm.operation
        extra = memory_latency(op.info, self.dcache) - 1
        if extra > 0:
            self.buffer_stage.hold(extra)

    def _complete(self, osm) -> None:
        self.retired += 1
        self.director.stats.instructions += 1

    def _killed(self, osm) -> None:
        self.reset_unit.acknowledge(osm)

    # -- running -----------------------------------------------------------------

    def _finished(self) -> bool:
        return self.state.halted and all(osm.in_initial for osm in self.osms)

    def run(self, max_cycles: int = 10_000_000) -> SimulationStats:
        return self.kernel.run(max_cycles)

    @property
    def cycles(self) -> int:
        return self.kernel.stats.cycles

    @property
    def exit_code(self) -> int:
        return self.state.exit_code
