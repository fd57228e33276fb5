"""StrongARM-specific token managers.

Section 5.1: "We implemented TMIs for the pipeline stage modules, the
combined register file and forwarding paths module, and the multiplier
module."  The forwarding register file is the interesting one: the paper's
Section 4 notes that with bypassing, "OSMs can inquire either m_r or the
bypassing manager for source operand availability" — we combine both
policies in one TMI, as the real SA-110 combines the register file with
its forwarding network.
"""

from __future__ import annotations

from typing import Any

from ...core.fuse import RegisterFileManagerEmitter, register_native_emitter
from ...core.manager import RegisterFileManager
from ...core.token import Token
from ...core.transaction import Transaction


class ForwardingRegisterFileManager(RegisterFileManager):
    """Register file + forwarding paths in one TMI.

    A value inquiry succeeds when either no update is outstanding for the
    register, or the outstanding producer has computed its result and the
    forwarding network can supply it (``mark_ready``).  The producing
    operation marks readiness when its result exists: ALU results at
    E->B, load results at B->W, multiplier results when the multiply
    completes — giving the SA-110's 0-cycle ALU-to-ALU and 1-cycle
    load-use forwarding distances.
    """

    def __init__(self, name: str, n_regs: int, backing):
        super().__init__(name, n_regs, backing)
        self._ready = [True] * n_regs

    def inquire(self, osm, ident, txn: Transaction) -> bool:
        reg = ident
        if reg is None:
            return True
        if not self._writers[reg]:
            return True
        # The youngest outstanding writer defines availability: a newer
        # in-flight write clears readiness until its result exists.
        return self._ready[reg]

    def mark_ready(self, reg: int, osm=None) -> None:
        """The in-flight producer of *reg* now has a forwardable result.

        Only the *youngest* writer's publication counts — an older
        writer's late publication must not expose a stale value.  In-order
        publication alone does not guarantee this: a load publishes at
        B->W, two cycles after its allocate, so a younger writer of the
        same register can allocate in between, after which the older
        load's publication must be ignored.  Callers pass the publishing
        *osm* so stale publications can be dropped (``None`` trusts the
        caller unconditionally, for hand-built specs without operations).
        """
        if osm is not None:
            writers = self._writers[reg]
            if not writers or writers[-1] is not osm:
                return
        self._ready[reg] = True

    def on_allocate_commit(self, osm, token: Token) -> None:
        super().on_allocate_commit(osm, token)
        self._ready[token.index] = False

    def on_release_commit(self, osm, token: Token, value: Any) -> None:
        super().on_release_commit(osm, token, value)
        if not self._writers[token.index]:
            self._ready[token.index] = True

    def on_discard(self, osm, token: Token) -> None:
        super().on_discard(osm, token)
        if not self._writers[token.index]:
            self._ready[token.index] = True


class ForwardingRegisterFileEmitter(RegisterFileManagerEmitter):
    """Native fusion codegen for :class:`ForwardingRegisterFileManager`:
    the base register-file bodies plus the forwarding-readiness bit in
    inquire and the commit hooks.  Discards stay on the virtual
    ``on_discard`` path, so only the hook bodies mirrored here matter."""

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        wr = g.bind_field("writers", mgr, "_writers")
        ready = g.bind_field("ready", mgr, "_ready")
        cond = (f"{ident_expr} is not None and {wr}[{ident_expr}]"
                f" and not {ready}[{ident_expr}]")
        with w.block(f"if {cond}:"):
            fail()

    def allocate_commit(self, g, w, mgr, tok):
        super().allocate_commit(g, w, mgr, tok)
        ready = g.bind_field("ready", mgr, "_ready")
        w(f"{ready}[{tok}.index] = False")

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        super().release_commit(g, w, mgr_expr, tok, value_expr)
        with w.block(f"if not {mgr_expr}._writers[{tok}.index]:"):
            w(f"{mgr_expr}._ready[{tok}.index] = True")


register_native_emitter(
    ForwardingRegisterFileManager, ForwardingRegisterFileEmitter()
)
