"""Machinery shared by the in-order OSM micro-architecture models.

The tutorial 5-stage pipeline (Section 4) and the StrongARM case study
(Section 5.1) are *execution-driven*: operations carry out their semantics
when they reach the execute stage, reading and writing one architectural
state in program order — exactly the organisation the paper describes,
where the OSM "can then decode the instruction and initialize all its
allocation and inquiry identifiers" in F and compute results in E.

This module provides the :class:`Operation` payload, the fetch-unit
hardware module (program counter, redirects, I-cache stall via refused
token release), stage modules with variable-latency hold-release
countdowns, and the reset/kill plumbing for control hazards.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core import ResetManager, SlotManager, register_native_emitter
from ..core.fuse import SlotManagerEmitter
from ..de.module import HardwareModule
from ..iss.decode_cache import DecodeCache
from ..memory.cache import Cache
from ..memory.tlb import Tlb


class Operation:
    """Per-operation payload attached to an OSM while it is in flight."""

    __slots__ = ("seq", "instr", "info", "pc", "wrong_path", "kill_count", "miss_cycles")

    def __init__(self, seq: int, pc: int, instr):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        #: the :class:`~repro.isa.arm.semantics.ExecInfo` once executed
        self.info = None
        self.wrong_path = False
        self.kill_count = 0
        #: outstanding memory-miss cycles (used by models with a separate
        #: miss-wait state, e.g. the multithreaded model)
        self.miss_cycles = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Operation(#{self.seq} {self.instr.text})"


class StageUnit(HardwareModule):
    """A pipeline stage: one occupancy token plus a hold-release countdown.

    ``hold(n)`` makes the stage refuse its token release for *n* further
    cycles — the paper's variable-latency idiom ("the fetch manager m_f
    can turn down its token release request until the cache access is
    finished").
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.manager = SlotManager(name)
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
                self.notify()  # the hold expired: blocked OSMs can move

    def reset(self) -> None:
        self._countdown = 0
        self.manager.hold_release = False


class FetchUnit(HardwareModule):
    """The fetch stage: PC management, I-cache timing, redirects.

    The TMI is a :class:`~repro.core.SlotManager`; allocation is refused
    while a redirect is pending (so the cycle after a taken branch fetches
    from the new target, giving the standard squash penalty) and after the
    program has exited.
    """

    def __init__(self, decode_at: Callable[[int], object], entry: int,
                 icache: Optional[Cache] = None, itlb: Optional[Tlb] = None,
                 cache: Optional[DecodeCache] = None):
        super().__init__("m_f")
        self.manager = _FetchSlotManager("m_f", self)
        self.decode_at = decode_at
        #: the shared decode cache, probed inline before falling back to
        #: ``decode_at`` (hot-path shortcut; the block layer is probed
        #: first so re-entering a cached block counts as block reuse —
        #: the same contract as ``BaseInterpreter.fetch_decode``)
        self._cache = cache
        self.fetch_pc = entry
        self.icache = icache
        self.itlb = itlb
        self._redirect_pending: Optional[int] = None
        self._countdown = 0
        self.halted = False
        self._seq = 0
        self.fetched = 0
        self.stall_cycles = 0

    # -- interface used by edge guards/actions ------------------------------

    def can_accept(self) -> bool:
        return not self.halted and self._redirect_pending is None

    def fetch_into(self, osm) -> None:
        """Edge action for I->F: create the operation for this OSM."""
        pc = self.fetch_pc
        cache = self._cache
        if cache is not None:
            block = cache.blocks.get(pc)
            if block is not None:
                cache.block_hits += 1
                instr = block.instrs[0]
            else:
                instr = cache.entries.get(pc)
                if instr is None:
                    instr = self.decode_at(pc)
        else:
            instr = self.decode_at(pc)
        seq = self._seq
        osm.operation = Operation(seq, pc, instr)
        self._seq = seq + 1
        self.fetched += 1
        self.fetch_pc = (pc + 4) & 0xFFFFFFFF
        itlb = self.itlb
        icache = self.icache
        latency = 1
        if itlb is not None:
            latency += itlb.access(pc)
        if icache is not None:
            latency += icache.access(pc) - 1
        if latency > 1:
            self._countdown = latency - 1
            self.manager.hold_release = True

    def redirect(self, target: int) -> None:
        """Called when a control transfer resolves; takes effect at the
        next cycle boundary (end_cycle)."""
        self._redirect_pending = target & 0xFFFFFFFF

    def halt(self) -> None:
        self.halted = True

    # -- hardware behaviour ----------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        if self._countdown > 0:
            self._countdown -= 1
            self.stall_cycles += 1
            if self._countdown == 0:
                self.manager.hold_release = False
                self.notify()

    def end_cycle(self, cycle: int) -> None:
        if self._redirect_pending is not None:
            self.fetch_pc = self._redirect_pending
            self._redirect_pending = None
            # A redirect squashes any in-progress I-cache stall.
            self._countdown = 0
            self.manager.hold_release = False
            self.notify()  # fetch resumes: idle OSMs can claim the slot


class _FetchSlotManager(SlotManager):
    """Fetch-slot TMI that also gates allocation on fetch-unit state."""

    def __init__(self, name: str, unit: FetchUnit):
        super().__init__(name)
        self._unit = unit

    def allocate(self, osm, ident, txn):
        # inlined can_accept() + SlotManager.allocate (hot path: probed by
        # every idle OSM every cycle)
        unit = self._unit
        if unit.halted or unit._redirect_pending is not None:
            return None
        token = self.token
        if token.holder is None and id(token) not in txn._granted_ids:
            return token
        return None


class _FetchSlotEmitter(SlotManagerEmitter):
    """Native fusion codegen mirroring :meth:`_FetchSlotManager.allocate`:
    the plain slot grant gated on the fetch unit accepting.  Inquire,
    release and the commit hooks are inherited SlotManager behaviour."""

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        unit = g.bind_field("fetch_unit", mgr, "_unit")
        w(f"{out} = None")
        gate = f"{unit}.halted or {unit}._redirect_pending is not None"
        with w.block(f"if not ({gate}):"):
            super().allocate(g, w, mgr, out, ident_expr, avoid)


register_native_emitter(_FetchSlotManager, _FetchSlotEmitter())


class ResetUnit(HardwareModule):
    """Hardware half of the control-hazard mechanism: latches dooms at the
    cycle boundary so speculative OSMs die at the *next* control step
    (Section 4, "Control hazard")."""

    def __init__(self):
        super().__init__("m_reset")
        self.manager = ResetManager("m_reset")
        self.kills = 0

    def end_cycle(self, cycle: int) -> None:
        if self.manager._pending:
            self.manager.latch()
            self.notify()  # doomed OSMs' reset edges become enabled

    def acknowledge(self, osm) -> None:
        self.kills += 1
        self.manager.acknowledge(osm)


def memory_latency(info, dcache, dtlb=None) -> int:
    """Cycles spent in the memory stage for one operation.

    Single accesses take 1 cycle plus cache/TLB penalties; block
    transfers (LDM/STM) take one beat per word, each beat passing through
    the cache; the TLB is consulted once (sequential words share a page
    in practice).
    """
    if info is None or info.mem_addr is None:
        return 1
    addresses = info.mem_addrs if info.mem_addrs is not None else (info.mem_addr,)
    latency = 0
    for index, address in enumerate(addresses):
        beat = 1
        if dtlb is not None and index == 0:
            beat += dtlb.access(address)
        if dcache is not None:
            beat += dcache.access(address, info.mem_is_store) - 1
        latency += beat
    return latency


def kill_younger(
    osms: List, victim_seq_threshold: int, reset: ResetUnit, immediate: bool = False
) -> int:
    """Doom every in-flight OSM whose operation is younger than the
    resolving operation (sequence number above the threshold).

    ``immediate`` makes the doom effective in the *current* control step
    instead of the next one.  Execution-driven models whose execute stage
    is wider than one slot need this: a wrong-path operation scheduled
    later in the same control step must be stopped before it performs its
    semantics.  (Oracle-driven models keep the paper's next-step kill.)

    Returns the number of OSMs doomed.  Ops already doomed stay doomed.
    """
    doomed = 0
    for osm in osms:
        operation = osm.operation
        if operation is None or osm.in_initial:
            continue
        if operation.seq > victim_seq_threshold and not reset.manager.is_doomed(osm):
            if immediate:
                reset.manager.doom_now(osm)
            else:
                reset.manager.doom(osm)
            doomed += 1
    return doomed
