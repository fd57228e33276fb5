"""Interpreted instruction-set simulators.

One interpreter class per target ISA, sharing the decode-cache + step()
organisation.  These are the "existing ISSs" of Section 5 that the
micro-architecture models are based on: they own architectural state and
functional execution, while the OSM models own the timing.
"""

from __future__ import annotations

import importlib
from typing import Callable

from ..isa.program import Program
from ..memory.mainmem import MainMemory
from . import translations
from .decode_cache import DecodeCache
from .state import ArchState
from .syscalls import SyscallHandler


class IssError(Exception):
    """Raised when functional execution cannot continue."""


class BaseInterpreter:
    """Shared machinery: decode cache, run loop, instruction budget.

    With ``specialize`` (the default) the decode cache builds whole basic
    blocks, and each path gets the generated code it needs:

    * :meth:`run` executes each block with one compiled function
      (``block.compiled``, looked up on the block's first dispatch),
      ``fn(state, syscalls, limit, block)``;
    * :meth:`step` and the timing models, which need an ``ExecInfo``
      record per instruction, fetch through :meth:`fetch_decode`, whose
      block builds bind a specialised executor closure to every
      supported instruction (``instr.exec_fn``).

    The ISA's :attr:`execgen` module writes both forms, and the
    process's translation cache (:mod:`repro.iss.translations`) makes
    and keeps the decoded instructions, with their executors, and the
    block functions, so each is decoded, written and compiled once per
    process and shared by every interpreter that meets the same code.

    ``specialize=False`` keeps the pure per-instruction interpreter — the
    reference both paths are differentially tested against — which
    decodes fresh instructions and shares nothing with that cache.
    """

    #: subclasses set: ISA hooks
    n_regs = 16
    #: the module name of the ISA's decoder (:mod:`repro.isa.arm.decode`),
    #: whose ``decode(addr, word)`` is a pure function of its arguments
    decoder = ""
    #: the module name of the ISA's code generator
    #: (:mod:`repro.isa.arm.execgen`), imported on first use: its
    #: ``_translate`` writes executors, its ``block_source`` block
    #: functions, both reading its ``GLOBALS``; neither form covers its
    #: ``UNDEFINED_KIND``, which the reference executes (and raises for)
    execgen = ""

    def __init__(self, program: Program, stdin: bytes = b"", stack_top: int = 0x80000,
                 specialize: bool = True):
        self.program = program
        memory = MainMemory()
        program.load_into(memory)
        self.syscalls = self._make_syscalls(stdin)
        self.state = ArchState(self.n_regs, memory, self.syscalls)
        self.state.pc = program.entry
        self._init_state(stack_top)
        self.specialize = specialize
        self._decode = importlib.import_module(self.decoder).decode
        #: shared decoded-operation cache: the timing models fetch through
        #: :meth:`fetch_decode` too, so functional and timing layers see
        #: one consistent, write-invalidated view of the text
        self.decode_cache = DecodeCache(
            memory, self._translation if specialize else self._decode)
        self.steps = 0

    # -- ISA hooks ------------------------------------------------------------

    def _make_syscalls(self, stdin: bytes) -> SyscallHandler:
        raise NotImplementedError

    def _init_state(self, stack_top: int) -> None:
        """Set up the ABI environment (stack pointer etc.)."""

    def _execute(self, instr):
        raise NotImplementedError

    # -- execution --------------------------------------------------------------

    def _translation(self, addr: int, word: int):
        """The process's decode of *word* at *addr*
        (:func:`repro.iss.translations.decoded`)."""
        return translations.decoded(self._decode, addr, word)

    def fetch_decode(self, addr: int):
        """Decode (with caching) the instruction at *addr*.

        The cache is shared with the timing models and invalidated on
        memory writes, so self-modifying code re-decodes (see
        :mod:`repro.iss.decode_cache`).  When specialising, the block
        layer is probed first — a fetch at a block entry counts as block
        reuse (``block_hits``) even though the per-instruction layer
        could also satisfy it, and a miss builds the whole basic block —
        so the timing models' fetch units transparently pick up
        ``exec_fn`` executors *and* are attributed in the block-reuse
        accounting.  Mid-block addresses fall through to the
        per-instruction layer.
        """
        cache = self.decode_cache
        if self.specialize:
            block = cache.blocks.get(addr)
            if block is not None:
                cache.block_hits += 1
                return block.instrs[0]
        instr = cache.entries.get(addr)
        if instr is not None:
            return instr
        if self.specialize:
            instrs = cache.fetch_block(addr).instrs
            translations.bind_block(importlib.import_module(self.execgen), instrs)
            return instrs[0]
        return cache.fetch(addr)

    def step(self):
        """Execute one instruction; returns (instr, exec_info)."""
        if self.state.halted:
            raise IssError("stepping a halted machine")
        pc = self.state.pc
        instr = self.fetch_decode(pc)
        fn = instr.exec_fn
        info = fn(self.state) if fn is not None else self._execute(instr)
        self.state.instret += 1
        self.steps += 1
        return instr, info

    def run(self, max_steps: int = 50_000_000) -> int:
        """Run to the exit syscall; returns the exit code.

        Specialised, whole blocks run as compiled functions until the
        machine halts or the next block could overrun *max_steps* (a
        block that loops in place stops before an iteration that
        could); the reference loop below runs the rest (all of it when
        not specialising), so the budget is met exactly and an
        instruction that raises leaves the reference's state.
        """
        state = self.state
        start = state.instret
        # instret at which the budget is spent
        limit = start + max_steps - self.steps
        try:
            if self.specialize:
                self._run_blocks(limit)
            fetch = self.decode_cache.fetch
            execute = self._execute
            while not state.halted:
                if state.instret >= limit:
                    raise IssError(f"program exceeded {max_steps} instructions")
                execute(fetch(state.pc))
                state.instret += 1
        finally:
            self.steps += state.instret - start
        return state.exit_code

    def _run_blocks(self, limit: int) -> None:
        """Run block functions while the machine runs and each whole
        block fits below *limit*, which every block function is handed
        so that one looping in place stops where the next iteration
        would not fit; each is handed its block too, which its store
        guards test."""
        state = self.state
        syscalls = self.syscalls
        fetch_block = self.decode_cache.fetch_block
        execgen = importlib.import_module(self.execgen)
        block_function = translations.block_function
        while not state.halted:
            block = fetch_block(state.pc)
            fn = block.compiled
            if fn is None:
                fn = block.compiled = (
                    block_function(execgen, tuple(block.instrs))
                    or self._reference_block(block.instrs[0]))
            if state.instret + len(block.instrs) > limit:
                return
            state.pc = fn(state, syscalls, limit, block)

    def _reference_block(self, instr) -> Callable:
        """A block function for an instruction with no block form: the
        reference semantics execute it (and raise for it)."""
        execute = self._execute

        def reference(state, syscalls, limit, _block):
            execute(instr)
            state.instret += 1
            return state.pc
        return reference


class ArmInterpreter(BaseInterpreter):
    """ISS for the ARM-like target."""

    n_regs = 16
    decoder = "repro.isa.arm.decode"
    execgen = "repro.isa.arm.execgen"

    def _make_syscalls(self, stdin: bytes) -> SyscallHandler:
        return SyscallHandler(arg_regs=(0, 1, 2), ret_reg=0, stdin=stdin)

    def _init_state(self, stack_top: int) -> None:
        from ..isa.arm.isa import SP

        self.state.write_reg(SP, stack_top)

    def _execute(self, instr):
        from ..isa.arm.semantics import execute

        return execute(self.state, instr)


class PpcInterpreter(BaseInterpreter):
    """ISS for the PowerPC-like target."""

    n_regs = 32
    decoder = "repro.isa.ppc.decode"
    execgen = "repro.isa.ppc.execgen"

    def _make_syscalls(self, stdin: bytes) -> SyscallHandler:
        return SyscallHandler(arg_regs=(3, 4, 5), ret_reg=3, stdin=stdin)

    def _init_state(self, stack_top: int) -> None:
        self.state.write_reg(1, stack_top)  # r1 is the PPC stack pointer

    def _execute(self, instr):
        from ..isa.ppc.semantics import execute

        return execute(self.state, instr)
