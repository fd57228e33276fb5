"""PPC-750-specific token managers.

Section 5.2: "a 6-entry fetch queue, 6 function units with 6 independent
reservation stations, 5 register files with renaming buffers, and a
6-entry completion queue".  The TMI-enabled modules of this model:

* 1 fetch-queue manager (6 entries, in-order dual dispatch) and
* 1 completion-queue manager (6 entries, in-order retirement, 2/cycle),
  both a core :class:`~repro.core.manager.InOrderPoolManager`,
* 6 function-unit managers (IU1, IU2, SRU, LSU, FPU, BPU),
* 6 reservation-station managers (one per unit),
* 1 register-rename manager containing the 5 register files with their
  renaming buffers (GPR x6, FPR x6, CR, LR, CTR — FPR present but
  untouched by the integer subset),
* 1 reset manager.

The branch history table, the branch target instruction cache and the
memory subsystem are implemented purely in the hardware layer, per the
paper.  The rename manager registers a native emitter, so every ppc750
state fuses.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ...core.errors import TokenError
from ...core.fuse import ManagerEmitter, grantable, register_native_emitter
from ...core.manager import TokenManager
from ...core.token import Token
from ...core.transaction import Transaction
from ...isa.ppc.isa import CR0_REG, CTR_REG, LR_REG


class RegisterRenameManager(TokenManager):
    """The five register files and their renaming buffers, as one TMI.

    Architectural name space: GPR 0..31, CR0 (32), LR (33), CTR (34);
    the FPR file exists for structural fidelity but the integer subset
    never allocates from it.  Rename-buffer sizes follow the MPC750: six
    GPR buffers, six FPR buffers, one each for CR/LR/CTR.

    Identifier protocol:

    * ``allocate`` with a register number grabs a rename buffer from the
      register's file (dispatch stalls when the file is exhausted — a
      real MPC750 structural hazard);
    * ``inquire`` with a register number asks "is the latest value of
      this register available now" (direct-dispatch operand check);
    * ``inquire`` with a captured producer :class:`Operation` asks "has
      this specific producer finished" (reservation-station wakeup).

    Producer bookkeeping is driven entirely by token traffic: allocation
    appends the producer to the register's in-flight chain, release
    (retirement) and discard (squash) remove it.
    """

    DEFAULT_FILES: Tuple[Tuple[str, int], ...] = (
        ("gpr", 6),
        ("fpr", 6),
        ("cr", 1),
        ("lr", 1),
        ("ctr", 1),
    )

    def __init__(self, name: str = "m_rename", gpr_buffers: int = 6):
        super().__init__(name)
        self.files: Tuple[Tuple[str, int], ...] = tuple(
            (file_name, gpr_buffers if file_name in ("gpr", "fpr") else size)
            for file_name, size in self.DEFAULT_FILES
        )
        self.pools: Dict[str, List[Token]] = {}
        for file_name, size in self.files:
            self.pools[file_name] = [
                Token(self, f"{name}.{file_name}[{i}]", i) for i in range(size)
            ]
        self.producers: Dict[int, List[Any]] = {reg: [] for reg in range(35)}

    @staticmethod
    def file_of(reg: int) -> str:
        if reg < 32:
            return "gpr"
        if reg == CR0_REG:
            return "cr"
        if reg == LR_REG:
            return "lr"
        if reg == CTR_REG:
            return "ctr"
        raise TokenError(f"unknown architectural register {reg}")

    def last_producer(self, reg: int):
        chain = self.producers[reg]
        return chain[-1] if chain else None

    # -- TMI ---------------------------------------------------------------

    def allocate(self, osm, ident, txn: Transaction) -> Optional[Token]:
        if not isinstance(ident, int):
            raise TokenError(f"{self.name}: bad rename identifier {ident!r}")
        for token in self.pools[self.file_of(ident)]:
            if token.holder is None and not txn.is_tentatively_granted(token):
                token.value = ident  # which register this buffer renames
                return token
        return None

    def inquire(self, osm, ident, txn: Transaction) -> bool:
        if isinstance(ident, int):
            producer = self.last_producer(ident)
            return producer is None or producer.done
        # captured producer operation (reservation-station wakeup)
        return bool(ident.done)

    def release(self, osm, token: Token, txn: Transaction) -> bool:
        if token.manager is not self or token.holder is not osm:
            raise TokenError(f"{self.name}: invalid release of {token!r}")
        return True

    def _drop_producer(self, token: Token, osm) -> None:
        chain = self.producers.get(token.value)
        if chain is not None and osm.operation in chain:
            chain.remove(osm.operation)

    def on_allocate_commit(self, osm, token: Token) -> None:
        super().on_allocate_commit(osm, token)
        self.producers[token.value].append(osm.operation)

    def on_release_commit(self, osm, token: Token, value: Any) -> None:
        super().on_release_commit(osm, token, value)
        self._drop_producer(token, osm)

    def on_discard(self, osm, token: Token) -> None:
        super().on_discard(osm, token)
        self._drop_producer(token, osm)


class RegisterRenameEmitter(ManagerEmitter):
    """Native fusion codegen mirroring :class:`RegisterRenameManager`'s
    TMI exactly, including the ``token.value`` stamp its allocate writes
    while probing (a free buffer records the register it would rename,
    whether or not the edge then commits)."""

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        m = g.bind("mgr", mgr)
        with w.block(f"if not isinstance({ident_expr}, int):"):
            w(f"raise TokenError('%s: bad rename identifier %r'"
              f" % ({m}.name, {ident_expr}))")
        pool = g.fresh("_rp")
        # file_of, one branch per register file
        branches = [(f"{ident_expr} < 32", "gpr"),
                    (f"{ident_expr} == {CR0_REG!r}", "cr"),
                    (f"{ident_expr} == {LR_REG!r}", "lr"),
                    (f"{ident_expr} == {CTR_REG!r}", "ctr")]
        for keyword, (test, file_name) in zip(("if", "elif", "elif", "elif"),
                                              branches):
            with w.block(f"{keyword} {test}:"):
                w(f"{pool} = {g.bind_field('pool', mgr, 'pools', file_name)}")
        with w.block("else:"):
            w(f"raise TokenError('unknown architectural register %s'"
              f" % ({ident_expr},))")
        tv = g.fresh("_rt")
        w(f"{out} = None")
        with w.block(f"for {tv} in {pool}:"):
            with w.block(f"if {grantable(tv, avoid)}:"):
                w(f"{tv}.value = {ident_expr}")
                w(f"{out} = {tv}")
                w("break")

    def allocate_commit(self, g, w, mgr, tok):
        m = g.bind("mgr", mgr)
        w(f"{m}.n_allocates += 1")
        w(f"{g.bind_field('producers', mgr, 'producers')}[{tok}.value].append(osm.operation)")

    def inquire(self, g, w, mgr, ident_expr, ctx, fail):
        producers = g.bind_field("producers", mgr, "producers")
        ok = g.fresh("_rok")
        with w.block(f"if isinstance({ident_expr}, int):"):
            chain = g.fresh("_rc")
            w(f"{chain} = {producers}[{ident_expr}]")
            w(f"{ok} = not {chain} or {chain}[-1] is None or {chain}[-1].done")
        with w.block("else:"):
            w(f"{ok} = {ident_expr}.done")
        with w.block(f"if not {ok}:"):
            fail()

    def release_check(self, g, w, mgr_expr, tok, fail):
        # always accepts; the foreign-manager check is vacuously
        # satisfied under token.manager dispatch
        with w.block(f"if {tok}.holder is not osm:"):
            w(f"raise TokenError('%s: invalid release of %r'"
              f" % ({mgr_expr}.name, {tok}))")

    def release_commit(self, g, w, mgr_expr, tok, value_expr):
        chain = g.fresh("_rc")
        w(f"{mgr_expr}.n_releases += 1")
        w(f"{chain} = {mgr_expr}.producers.get({tok}.value)")
        with w.block(f"if {chain} is not None and osm.operation in {chain}:"):
            w(f"{chain}.remove(osm.operation)")


register_native_emitter(RegisterRenameManager, RegisterRenameEmitter())
