"""Atomic token-transaction context.

Section 3.3: *"A condition is satisfied only if all its primitives succeed
simultaneously.  If a condition is satisfied, the OSM can transition to the
next state along the edge and commit all transactions of the condition
simultaneously.  If all primitives do not succeed, the condition is not
satisfied and all transaction requests are abandoned."*

The two-phase probe/commit protocol is realised by a :class:`Transaction`
object each OSM owns and reuses for every edge evaluation (probing is
sequential per OSM).  During the probe phase primitives ask
their managers whether the transaction *would* succeed; grants recorded in
the transaction are tentative.  Managers consult the transaction so that a
condition allocating two tokens from one pool is answered consistently
(the second allocate must not be offered the token tentatively granted to
the first).  Only when every primitive succeeds does the director commit
the transaction, at which point ownership actually changes.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from .token import Token


class Transaction:
    """Records the tentative effects of one edge-condition evaluation."""

    __slots__ = ("osm", "grants", "releases", "discards", "inquiries",
                 "_granted_ids", "dirty")

    def __init__(self, osm):
        self.osm = osm
        #: True once any tentative effect is recorded; a clean transaction
        #: can be reused for the next probe without clearing anything
        self.dirty = False
        #: tokens tentatively granted, with the buffer slot they will occupy
        self.grants: List[Tuple[str, Token]] = []
        #: tokens tentatively released (with the buffer slot they leave and
        #: an optional writeback value); slot ``None`` means "unknown, look
        #: it up at commit" (kept for direct non-primitive users)
        self.releases: List[Tuple[Token, Any, Optional[str]]] = []
        #: tokens to be discarded on commit, with their buffer slot
        self.discards: List[Tuple[Token, Optional[str]]] = []
        #: (manager, ident) pairs successfully inquired, for tracing
        self.inquiries: List[Tuple[Any, Any]] = []
        self._granted_ids: Set[int] = set()

    # -- probe-phase bookkeeping -------------------------------------------

    def add_grant(self, slot: str, token: Token) -> None:
        """Record a tentative allocate grant into buffer slot *slot*."""
        self.dirty = True
        self.grants.append((slot, token))
        self._granted_ids.add(id(token))

    def add_release(self, token: Token, value: Any = None,
                    slot: Optional[str] = None) -> None:
        """Record a tentative release (with optional value handed back).

        Callers that know which buffer slot holds *token* pass it so the
        commit phase avoids a reverse scan of the token buffer.
        """
        self.dirty = True
        self.releases.append((token, value, slot))

    def add_discard(self, token: Token, slot: Optional[str] = None) -> None:
        self.dirty = True
        self.discards.append((token, slot))

    def add_inquiry(self, manager, ident) -> None:
        self.dirty = True
        self.inquiries.append((manager, ident))

    def reset(self, osm) -> None:
        """Clear this transaction for a fresh probe (most probes fail,
        and the OSM reuses its transaction for the next edge)."""
        self.osm = osm
        self.dirty = False
        # guard each clear: a typical transaction touches one or two of
        # the five containers, and list.clear on a list known to be empty
        # still costs a method call
        if self.grants:
            self.grants.clear()
            self._granted_ids.clear()
        if self.releases:
            self.releases.clear()
        if self.discards:
            self.discards.clear()
        if self.inquiries:
            self.inquiries.clear()

    def is_tentatively_granted(self, token: Token) -> bool:
        """True when *token* was already promised earlier in this probe.

        Pool managers call this so that one condition containing two
        ``Allocate`` primitives against the same pool never receives the
        same physical token twice.
        """
        return bool(self._granted_ids) and id(token) in self._granted_ids

    def is_tentatively_released(self, token: Token) -> bool:
        if not self.releases:
            return False
        return any(released is token for released, _, _ in self.releases)

    # -- commit phase --------------------------------------------------------

    def commit(self) -> None:
        """Apply all tentative effects atomically.

        Ordering within the commit is: releases and discards first (so the
        token buffer sheds outgoing tokens), then grants.  Managers receive
        their commit callbacks in the same order.  Note that cross-OSM
        ordering is the director's responsibility; a single transaction only
        ever concerns one OSM.
        """
        osm = self.osm
        buffer = osm.token_buffer
        releases = self.releases
        if releases:
            for token, value, slot in releases:
                if slot is None:
                    slot = osm.slot_of(token)
                if slot is not None:
                    del buffer[slot]
                token.holder = None
                token.manager.on_release_commit(osm, token, value)
            releases.clear()
        discards = self.discards
        if discards:
            for token, slot in discards:
                if slot is None:
                    slot = osm.slot_of(token)
                if slot is not None:
                    del buffer[slot]
                token.holder = None
                token.manager.on_discard(osm, token)
            discards.clear()
        grants = self.grants
        if grants:
            for slot, token in grants:
                token.holder = osm
                buffer[slot] = token
                token.manager.on_allocate_commit(osm, token)
            grants.clear()
            self._granted_ids.clear()
        if self.inquiries:
            self.inquiries.clear()
        # a committed transaction leaves itself clean, ready for the next
        # probe without a reset
        self.dirty = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction(osm={self.osm.name}, grants={len(self.grants)}, "
            f"releases={len(self.releases)}, discards={len(self.discards)})"
        )

