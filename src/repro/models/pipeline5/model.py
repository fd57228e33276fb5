"""The Section-4 tutorial model: a 5-stage pipelined RISC processor.

States F, D, E, B and W correspond to the fetch, decode, execution,
buffer and write-back stages of the paper's Figure 5/6; the initial state
I is the unused OSM.  All four control behaviours of Section 4 are
modelled exactly as described:

* **Structure hazard** — each stage's TMI controls one occupancy token.
* **Data hazard** — the register-file manager ``m_r`` hands out
  register-update tokens at D->E; dependants fail their value inquiries
  and stall at D until the producer releases at W.
* **Variable latency** — stage managers refuse token releases while a
  cache access (or multi-cycle execute) is outstanding.
* **Control hazard** — reset edges from F and D to I, guarded by an
  inquiry to ``m_reset``, kill speculative operations at the control step
  after a taken branch resolves in E.

The model is execution-driven: an operation decodes its instruction when
it holds the fetch token and performs its semantics on entry to E, in
program order (in-order issue guarantees architectural order at E).
"""

from __future__ import annotations

from typing import Optional

from ...core.director import operation_seq_rank
from ...core import (
    AllocateMany,
    Allocate,
    Condition,
    CycleDrivenKernel,
    Director,
    Discard,
    Inquire,
    MachineSpec,
    OperationStateMachine,
    RegisterFileManager,
    Release,
    ReleaseMany,
    SimulationStats,
    defuse_spec,
    enable_fusion,
)
from ...isa.arm import semantics as arm_semantics
from ...isa.bits import popcount_significant_bytes
from ...isa.program import Program
from ...iss.interpreter import ArmInterpreter
from ...memory.cache import Cache
from ...memory.tlb import Tlb
from ..common import (FetchUnit, Operation, ResetUnit, StageUnit,
                      kill_younger, memory_latency)

#: number of OSMs instantiated: pipeline depth + spares so fetch never
#: starves while an OSM finishes its W->I transition
DEFAULT_N_OSMS = 7


class _TimingRegisterBacking:
    """Backing store for the register-file TMI.

    The model is execution-driven (values live in the architectural
    state), so the timing-side register file only needs to accept the
    write-back values handed over on token release; index 16 is the flags
    pseudo-register.
    """

    def __init__(self, n_regs: int):
        self.values = [0] * n_regs

    def read(self, reg: int) -> int:
        return self.values[reg]

    def write(self, reg: int, value: int) -> None:
        self.values[reg] = value & 0xFFFFFFFF


def _source_regs(osm) -> tuple:
    return osm.operation.instr.src_regs


def _dest_regs(osm) -> tuple:
    return osm.operation.instr.dst_regs


# Fused steppers paste these expressions in place of the calls (they must
# mirror the function bodies exactly — see repro.core.fuse._ident_call).
_source_regs.__fuse_inline__ = "osm.operation.instr.src_regs"
_dest_regs.__fuse_inline__ = "osm.operation.instr.dst_regs"


class Pipeline5Model:
    """The tutorial 5-stage OSM processor model over the ARM-like ISA.

    Parameters
    ----------
    program:
        The assembled :class:`~repro.isa.program.Program` to run.
    icache, dcache, itlb, dtlb:
        Optional memory-hierarchy timing models; ``None`` means the
        access completes in one cycle (the perfect-memory tutorial
        configuration).
    n_osms:
        Size of the OSM pool.
    restart:
        Director outer-loop restart (Fig. 3 general algorithm) — the
        case-study optimisation disables it; exposed for ablation A1.
    fused:
        Generate fused per-state step functions for the states the effect
        analysis certifies (see :mod:`repro.core.fuse`); ``False`` runs
        no generated OSM code — every state probes through the
        interpreted reference.  Scheduling results are identical either
        way.
    """

    #: units whose :meth:`execute_latency` can exceed one cycle —
    #: ``_execute_op`` consults the latency hook only for these, so
    #: subclasses stretching other units must extend this set too
    MULTI_CYCLE_UNITS = frozenset({"mul"})

    def __init__(
        self,
        program: Program,
        icache: Optional[Cache] = None,
        dcache: Optional[Cache] = None,
        itlb: Optional[Tlb] = None,
        dtlb: Optional[Tlb] = None,
        n_osms: int = DEFAULT_N_OSMS,
        restart: bool = False,
        stdin: bytes = b"",
        fused: bool = True,
    ):
        self.program = program
        self.iss = ArmInterpreter(program, stdin=stdin)
        self.state = self.iss.state

        # -- hardware layer: modules and their TMIs -------------------------
        self.fetch = FetchUnit(self.iss.fetch_decode, program.entry, icache, itlb,
                               cache=self.iss.decode_cache)
        self.decode_stage = StageUnit("m_d")
        self.execute_stage = StageUnit("m_e")
        self.buffer_stage = StageUnit("m_b")
        self.writeback_stage = StageUnit("m_w")
        self.regfile = RegisterFileManager(
            "m_r", n_regs=17, backing=_TimingRegisterBacking(17)
        )
        self.reset_unit = ResetUnit()
        self.dcache = dcache
        self.dtlb = dtlb

        # -- operation layer: the machine spec of Figure 6 -------------------
        self.spec = self._build_spec()
        self.director = Director(rank_key=operation_seq_rank, restart=restart)
        self.osms = [OperationStateMachine(self.spec) for _ in range(n_osms)]
        self.director.add(*self.osms)
        if fused:
            # After director.add: fusion certification audits the stamped
            # rank key and bakes the per-state steppers (repro.core.fuse).
            enable_fusion(self.spec)
        else:
            # reset the fusion census too, so counters from an earlier
            # fused build never leak into an unfused one
            defuse_spec(self.spec)

        modules = [
            self.fetch,
            self.decode_stage,
            self.execute_stage,
            self.buffer_stage,
            self.writeback_stage,
            self.reset_unit,
        ]
        self.kernel = CycleDrivenKernel(self.director, modules)
        self.kernel.stop_condition = self._finished
        self.retired = 0

    # -- spec construction ------------------------------------------------------

    def _build_spec(self) -> MachineSpec:
        spec = MachineSpec("pipeline5")
        for name in "IFDEBW":
            spec.state(name, initial=(name == "I"))

        m_f = self.fetch.manager
        m_d = self.decode_stage.manager
        m_e = self.execute_stage.manager
        m_b = self.buffer_stage.manager
        m_w = self.writeback_stage.manager
        m_r = self.regfile
        m_reset = self.reset_unit.manager

        spec.edge(
            "I", "F",
            Condition([Allocate(m_f)]),
            action=self.fetch.fetch_into,
            label="fetch",
        )
        spec.edge(
            "F", "D",
            Condition([Allocate(m_d), Release("m_f")]),
            label="decode",
        )
        spec.edge(
            "D", "E",
            Condition([
                Allocate(m_e),
                Inquire(m_r, _source_regs),
                AllocateMany(m_r, _dest_regs, slot="rupd"),
                Release("m_d"),
            ]),
            action=self._execute_op,
            label="issue",
        )
        spec.edge(
            "E", "B",
            Condition([Allocate(m_b), Release("m_e")]),
            action=self._memory_access,
            label="mem",
        )
        spec.edge(
            "B", "W",
            Condition([Allocate(m_w), Release("m_b")]),
            label="writeback",
        )
        spec.edge(
            "W", "I",
            Condition([Release("m_w"), ReleaseMany("rupd")]),
            action=self._complete,
            label="retire",
        )
        # Control-hazard reset edges (higher static priority than normal).
        for state in ("F", "D"):
            spec.edge(
                state, "I",
                Condition([Inquire(m_reset), Discard()]),
                priority=10,
                action=self._killed,
                label=f"reset-{state}",
            )
        spec.validate()
        return spec

    # -- edge actions -------------------------------------------------------------

    def _execute_op(self, osm) -> None:
        """Entry to E: perform the operation's semantics (program order)."""
        op: Operation = osm.operation
        instr = op.instr
        fn = instr.exec_fn
        info = fn(self.state) if fn is not None \
            else arm_semantics.execute(self.state, instr)
        op.info = info
        self.state.instret += 1
        if instr.unit in self.MULTI_CYCLE_UNITS:
            extra = self.execute_latency(op) - 1
            if extra > 0:
                self.execute_stage.hold(extra)
                self._hold_functional_units(op, extra)
        sequential = (op.pc + 4) & 0xFFFFFFFF
        if info.next_pc != sequential:
            self.fetch.redirect(info.next_pc)
            kill_younger(self.osms, op.seq, self.reset_unit)
        if self.state.halted:
            self.fetch.halt()
            kill_younger(self.osms, op.seq, self.reset_unit)

    def _hold_functional_units(self, op: Operation, extra: int) -> None:
        """Multi-cycle hook: occupy functional units beyond the E stage
        itself for *extra* further cycles (override in subclasses)."""

    def execute_latency(self, op: Operation) -> int:
        """Execute-stage occupancy in cycles (override in subclasses)."""
        instr = op.instr
        if instr.unit == "mul" and op.info is not None and op.info.executed:
            operand = op.info.mul_operand or 0
            latency = 1 + popcount_significant_bytes(operand)
            if instr.kind == "mull":
                latency += 1
            return latency
        return 1

    def _memory_access(self, osm) -> None:
        """Entry to B: charge D-cache/TLB latency (block transfers pay one
        beat per word, the Section-4 variable-latency idiom)."""
        info = osm.operation.info
        if info is None or info.mem_addr is None:
            return  # non-memory operation: one cycle, nothing to charge
        latency = memory_latency(info, self.dcache, self.dtlb)
        if latency > 1:
            self.buffer_stage.hold(latency - 1)

    def _complete(self, osm) -> None:
        self.retired += 1
        self.director.stats.instructions += 1

    def _killed(self, osm) -> None:
        self.reset_unit.acknowledge(osm)

    # -- running ---------------------------------------------------------------------

    def _finished(self) -> bool:
        return self.state.halted and all(osm.in_initial for osm in self.osms)

    def run(self, max_cycles: int = 10_000_000) -> SimulationStats:
        """Run to program exit; returns the statistics."""
        return self.kernel.run(max_cycles)

    @property
    def cycles(self) -> int:
        return self.kernel.stats.cycles

    @property
    def exit_code(self) -> int:
        return self.state.exit_code

    @property
    def output_text(self) -> str:
        return self.iss.syscalls.output_text
