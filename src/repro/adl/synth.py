"""Simulator synthesis from an ADL description.

``synthesize`` turns a parsed :class:`~repro.adl.ast.ProcessorDecl` into a
runnable in-order micro-architecture simulator over the ARM-like ISA: it
instantiates the declared token managers, builds the
:class:`~repro.core.MachineSpec` from the declared states and edges, and
binds the declarative description to the functional layer (the ISS) via a
fixed action vocabulary:

=========  ==============================================================
action     bound behaviour
=========  ==============================================================
fetch      decode the instruction at the fetch PC into the operation
execute    perform the operation's semantics; multi-cycle holds; branch
           redirect + kill
memory     charge D-cache latency in the current stage
publish    mark destination registers forwardable (forwarding regfiles)
publish_loads  mark loads' destinations forwardable
retire     count the retired instruction
killed     acknowledge the reset manager
=========  ==============================================================

This is exactly the paper's Table-2 observation made executable: "About
60% of the source code ... is dedicated to instruction decoding and OSM
initialization, which can be automatically synthesized through the use of
an architecture description language."  The synthesised pipeline5 and
StrongARM descriptions are validated cycle-for-cycle against the
hand-written models in ``tests/adl``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core import (
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
    PoolManager,
    RegisterFileManager,
    Release,
    ReleaseMany,
    SimulationStats,
    enable_fusion,
)
from ..core.director import operation_seq_rank
from ..isa.arm import semantics as arm_semantics
from ..isa.bits import popcount_significant_bytes
from ..isa.program import Program
from ..iss.interpreter import ArmInterpreter
from ..memory.cache import Cache
from ..memory.tlb import Tlb
from ..models.common import FetchUnit, Operation, ResetUnit, StageUnit, kill_younger
from ..models.strongarm.managers import ForwardingRegisterFileManager
from .ast import PrimitiveDecl, ProcessorDecl
from .parser import AdlError, parse


#: the fixed action vocabulary edges may bind to (the table above); the
#: description-level analyzer (ADL001) checks action names against this
#: set before synthesis is ever attempted
ACTION_NAMES = frozenset(
    ("fetch", "execute", "memory", "publish", "publish_loads", "retire", "killed")
)


class _Backing:
    def __init__(self, n_regs: int):
        self.values = [0] * n_regs

    def read(self, reg: int) -> int:
        return self.values[reg]

    def write(self, reg: int, value: int) -> None:
        self.values[reg] = value & 0xFFFFFFFF


def _sources(osm):
    return osm.operation.instr.src_regs


def _dests(osm):
    return osm.operation.instr.dst_regs


class SynthesizedModel:
    """An in-order processor model synthesised from an ADL description."""

    def __init__(
        self,
        processor: ProcessorDecl,
        program: Program,
        icache: Optional[Cache] = None,
        dcache: Optional[Cache] = None,
        itlb: Optional[Tlb] = None,
        dtlb: Optional[Tlb] = None,
        stdin: bytes = b"",
    ):
        self.processor = processor
        self.iss = ArmInterpreter(program, stdin=stdin)
        self.state = self.iss.state
        self.dcache = dcache
        self.dtlb = dtlb

        # -- hardware layer from manager declarations -----------------------
        self.fetch: Optional[FetchUnit] = None
        self.reset_unit: Optional[ResetUnit] = None
        self.managers: Dict[str, object] = {}
        self.stage_units: Dict[str, StageUnit] = {}
        self.regfiles: Dict[str, RegisterFileManager] = {}
        modules = []
        for decl in processor.managers:
            if decl.kind == "fetch":
                self.fetch = FetchUnit(self.iss.fetch_decode, program.entry, icache, itlb)
                self.fetch.manager.name = decl.name
                self.managers[decl.name] = self.fetch.manager
                modules.append(self.fetch)
            elif decl.kind == "stage":
                unit = StageUnit(decl.name)
                self.stage_units[decl.name] = unit
                self.managers[decl.name] = unit.manager
                modules.append(unit)
            elif decl.kind == "pool":
                size = decl.params.get("size", 1)
                self.managers[decl.name] = PoolManager(decl.name, size)
            elif decl.kind == "regfile":
                n_regs = decl.params.get("regs", 17)
                cls = ForwardingRegisterFileManager if decl.forwarding else RegisterFileManager
                regfile = cls(decl.name, n_regs, _Backing(n_regs))
                self.regfiles[decl.name] = regfile
                self.managers[decl.name] = regfile
            elif decl.kind == "reset":
                self.reset_unit = ResetUnit()
                self.reset_unit.manager.name = decl.name
                self.managers[decl.name] = self.reset_unit.manager
                modules.append(self.reset_unit)
            else:  # pragma: no cover - parser rejects unknown kinds
                raise AdlError(f"unsupported manager kind {decl.kind!r}")
        if self.fetch is None:
            raise AdlError(f"processor {processor.name!r} declares no fetch manager")
        if self.reset_unit is None:
            raise AdlError(f"processor {processor.name!r} declares no reset manager")

        #: the action vocabulary binding declarative edges to behaviour
        self.actions: Dict[str, Callable] = {
            "fetch": self.fetch.fetch_into,
            "execute": self._execute_op,
            "memory": self._memory_access,
            "publish": self._publish,
            "publish_loads": self._publish_loads,
            "retire": self._retire,
            "killed": self._killed,
        }

        # -- operation layer from the machine declaration ---------------------
        self.spec = self._build_spec()
        self.director = Director(rank_key=operation_seq_rank, restart=False)
        n_osms = processor.params.get("osms", len(processor.machine.states) + 2)
        self.osms = [OperationStateMachine(self.spec) for _ in range(n_osms)]
        self.director.add(*self.osms)
        # The gate fuses every state effectcheck and transcheck certify
        # (repro.core.fuse); a description it cannot certify runs the
        # interpreted reference instead.
        enable_fusion(self.spec)
        self.kernel = CycleDrivenKernel(self.director, modules)
        self.kernel.stop_condition = self._finished
        self.retired = 0
        #: stage manager whose slot an executing operation occupies; used
        #: by the execute action's variable-latency hold
        self._execute_stage = self._find_execute_stage()

    # -- spec construction -------------------------------------------------------

    def _build_spec(self) -> MachineSpec:
        machine = self.processor.machine
        unit = self.processor.name
        spec = MachineSpec(machine.name)
        # provenance: every synthesized state/edge remembers the ADL line
        # it came from, so analysis diagnostics over the generated spec
        # can be remapped onto the description (see repro.analysis.adl)
        spec.source_unit = unit
        spec.source_text = repr(self.processor)
        for state in machine.states:
            declared = spec.state(state.name, initial=state.initial)
            if state.lineno is not None:
                declared.source_span = (unit, state.lineno)
        for edge in machine.edges:
            primitives = [self._synth_primitive(p) for p in edge.primitives]
            if "execute" in edge.actions:
                # Execution-driven synthesis performs semantics at issue,
                # so issue must follow program order even when a pool-sized
                # stage would let a younger operation overtake an older
                # blocked one (which both corrupts architectural state and
                # can livelock the starved elder).
                primitives.insert(0, Guard(self._is_oldest_unexecuted, "in-order"))
            bound = []
            for name in edge.actions:
                if name not in self.actions:
                    raise AdlError(
                        f"unknown action {name!r} on edge {edge.src}->{edge.dst}",
                        edge.lineno,
                    )
                bound.append(self.actions[name])
            action = None
            if len(bound) == 1:
                action = bound[0]
            elif bound:
                def action(osm, _bound=tuple(bound)):
                    for callback in _bound:
                        callback(osm)
            declared = spec.edge(edge.src, edge.dst, Condition(primitives),
                                 priority=edge.priority, action=action)
            if edge.lineno is not None:
                declared.source_span = (unit, edge.lineno)
        spec.validate()
        return spec

    def _synth_primitive(self, decl: PrimitiveDecl):
        ident = {"sources": _sources, "dests": _dests, None: None}.get(decl.ident)
        if decl.op == "allocate":
            manager = self.managers[decl.manager]
            return Allocate(manager, slot=decl.slot or decl.manager)
        if decl.op == "allocate_many":
            manager = self.managers[decl.manager]
            if ident is None:
                raise AdlError(f"allocate_many {decl.manager} needs an identifier")
            return AllocateMany(manager, ident, slot=decl.slot or decl.manager)
        if decl.op == "inquire":
            manager = self.managers[decl.manager]
            return Inquire(manager, ident)
        if decl.op == "release":
            return Release(decl.manager)
        if decl.op == "release_many":
            return ReleaseMany(decl.manager)
        if decl.op == "discard":
            return Discard(decl.manager)
        raise AdlError(f"unknown primitive {decl.op!r}")  # pragma: no cover

    def _find_execute_stage(self) -> Optional[StageUnit]:
        """The stage holding executing operations: the target stage of the
        edge carrying the ``execute`` action."""
        machine = self.processor.machine
        for edge in machine.edges:
            if "execute" in edge.actions:
                for prim in edge.primitives:
                    if prim.op == "allocate" and prim.manager in self.stage_units:
                        return self.stage_units[prim.manager]
        return None

    # -- bound actions --------------------------------------------------------------

    def _is_oldest_unexecuted(self, osm) -> bool:
        """True when no older in-flight operation is still unexecuted."""
        seq = osm.operation.seq
        for other in self.osms:
            operation = other.operation
            if operation is None or other.in_initial or operation.info is not None:
                continue
            if operation.seq < seq:
                return False
        return True

    def _execute_op(self, osm) -> None:
        op: Operation = osm.operation
        info = arm_semantics.execute(self.state, op.instr)
        op.info = info
        self.state.instret += 1
        if op.instr.unit == "mul" and info.executed and self._execute_stage is not None:
            extra = popcount_significant_bytes(info.mul_operand or 0)
            if op.instr.kind == "mull":
                extra += 1
            if extra > 0:
                self._execute_stage.hold(extra)
        sequential = (op.pc + 4) & 0xFFFFFFFF
        if info.next_pc != sequential:
            self.fetch.redirect(info.next_pc)
            kill_younger(self.osms, op.seq, self.reset_unit)
        if self.state.halted:
            self.fetch.halt()
            kill_younger(self.osms, op.seq, self.reset_unit)

    def _memory_access(self, osm) -> None:
        from ..models.common import memory_latency

        op: Operation = osm.operation
        latency = memory_latency(op.info, self.dcache, self.dtlb)
        if latency > 1:
            # the hold applies to the stage the operation just entered
            for slot, token in osm.token_buffer.items():
                unit = self.stage_units.get(token.manager.name)
                if unit is not None and slot == token.manager.name:
                    unit.hold(latency - 1)
                    break

    def _publish(self, osm) -> None:
        op: Operation = osm.operation
        if op.instr.is_load:
            return
        for regfile in self.regfiles.values():
            if hasattr(regfile, "mark_ready"):
                for reg in op.instr.dst_regs:
                    regfile.mark_ready(reg, osm)

    def _publish_loads(self, osm) -> None:
        op: Operation = osm.operation
        if not op.instr.is_load:
            return
        for regfile in self.regfiles.values():
            if hasattr(regfile, "mark_ready"):
                for reg in op.instr.dst_regs:
                    regfile.mark_ready(reg, osm)

    def _retire(self, osm) -> None:
        self.retired += 1
        self.director.stats.instructions += 1

    def _killed(self, osm) -> None:
        self.reset_unit.acknowledge(osm)

    # -- running ------------------------------------------------------------------------

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


def synthesize(description: str, program: Program, **kwargs) -> SynthesizedModel:
    """Parse *description* and synthesise a runnable simulator for
    *program* (ARM-like target)."""
    return SynthesizedModel(parse(description), program, **kwargs)


#: the Section-4 tutorial pipeline, as a description (used by tests and
#: the quickstart example; equivalent to models.pipeline5)
PIPELINE5_ADL = """
processor pipeline5 {
    param osms 7
    manager m_f kind fetch
    manager m_d kind stage
    manager m_e kind stage
    manager m_b kind stage
    manager m_w kind stage
    manager m_r kind regfile regs 17
    manager m_reset kind reset

    machine op {
        state I initial
        state F
        state D
        state E
        state B
        state W

        edge I -> F { allocate m_f } action fetch
        edge F -> D { allocate m_d; release m_f }
        edge D -> E { allocate m_e; inquire m_r sources;
                      allocate_many m_r dests as rupd; release m_d } action execute
        edge E -> B { allocate m_b; release m_e } action memory
        edge B -> W { allocate m_w; release m_b }
        edge W -> I { release m_w; release_many rupd } action retire
        edge F -> I priority 10 { inquire m_reset; discard } action killed
        edge D -> I priority 10 { inquire m_reset; discard } action killed
    }
}
"""

#: the StrongARM core (forwarding register file, multiplier modelled via
#: the execute-stage hold), equivalent to models.strongarm
STRONGARM_ADL = """
processor strongarm {
    param osms 7
    manager m_f kind fetch
    manager m_d kind stage
    manager m_e kind stage
    manager m_b kind stage
    manager m_w kind stage
    manager m_r kind regfile regs 17 forwarding
    manager m_reset kind reset

    machine op {
        state I initial
        state F
        state D
        state E
        state B
        state W

        edge I -> F { allocate m_f } action fetch
        edge F -> D { allocate m_d; release m_f }
        edge D -> E { allocate m_e; inquire m_r sources;
                      allocate_many m_r dests as rupd; release m_d } action execute
        edge E -> B { allocate m_b; release m_e } action memory action publish
        edge B -> W { allocate m_w; release m_b } action publish_loads
        edge W -> I { release m_w; release_many rupd } action retire
        edge F -> I priority 10 { inquire m_reset; discard } action killed
        edge D -> I priority 10 { inquire m_reset; discard } action killed
    }
}
"""
