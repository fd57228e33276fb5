"""Simulation statistics collected by the director and kernels.

Besides the raw counters, stats carry a *phase-attributed* timing layer:
coarse named phases (``assemble``, ``build``, ``simulate``, ``verify``
by convention) accumulated in :attr:`SimulationStats.phase_seconds`.
Phases are timed only at harness boundaries — wrapping a whole
assemble/build/run call via :meth:`time_phase` or the ``phase=``
argument of :meth:`stop_timer` — never inside the per-cycle hot loop,
so the attribution is free at simulation time.  ``repro bench`` reports
the per-phase breakdown in its JSON row.

Timer misuse contract (explicit, and tested):

* :meth:`stop_timer` with no timer running is a documented no-op that
  returns ``False`` — harnesses stop defensively in ``finally`` blocks.
* :meth:`start_timer` while a timer is already running raises
  ``RuntimeError`` — the old behaviour silently discarded the first
  interval, under-reporting wall time.
* Nested :meth:`time_phase` blocks attribute **exclusive** (self) time:
  an inner phase's seconds are subtracted from its enclosing phase, so
  ``sum(phase_seconds.values())`` never double-counts a nested interval.
  A :meth:`stop_timer(phase=...)` interval landing inside an open
  ``time_phase`` block is likewise credited to the inner phase only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


class SimulationStats:
    """Counters describing one simulation run.

    The case studies (Section 5) report model efficiency as simulated
    cycles per wall-clock second; :attr:`cycles_per_second` provides that
    figure, alongside transition/transaction counts useful for the
    ablation benches.
    """

    def __init__(self):
        self.cycles = 0
        self.transitions = 0
        #: probes: fused-stepper or ``try_transition`` calls
        self.control_step_passes = 0
        #: probes the director skipped because they would fail: the
        #: OSM was asleep, or its wake test refused (see
        #: ``Director.control_step``)
        self.parked_skips = 0
        #: wake tests the director called
        self.wake_calls = 0
        self.instructions = 0
        #: per-state occupancy histogram: state name -> OSM-cycles spent
        self.state_occupancy: Dict[str, int] = {}
        #: phase name -> accumulated wall seconds (see module docstring)
        self.phase_seconds: Dict[str, float] = {}
        self._wall_start: Optional[float] = None
        self.wall_seconds = 0.0
        #: open ``time_phase`` frames: ``[name, start, child_seconds]``
        self._phase_stack: list = []

    def start_timer(self) -> None:
        """Start the wall timer.

        Raises ``RuntimeError`` if a timer is already running: the old
        behaviour silently dropped the running interval, so overlapping
        ``start_timer`` calls under-reported wall time with no signal.
        """
        if self._wall_start is not None:
            raise RuntimeError(
                "start_timer() while a timer is already running — "
                "the running interval would be silently discarded; "
                "call stop_timer() first"
            )
        self._wall_start = time.perf_counter()

    def stop_timer(self, phase: Optional[str] = None) -> bool:
        """Stop the wall timer; with *phase*, also attribute the elapsed
        interval to that phase (the kernels pass ``"simulate"``).

        Stopping with no timer running is a documented no-op returning
        ``False`` (harnesses stop defensively from ``finally`` blocks);
        returns ``True`` when an interval was actually recorded.
        """
        if self._wall_start is None:
            return False
        now = time.perf_counter()
        elapsed = now - self._wall_start
        self.wall_seconds += elapsed
        self._wall_start = None
        if phase is not None:
            self.record_phase(phase, elapsed)
            if self._phase_stack:
                # the interval also lies inside an open time_phase block:
                # charge it to that frame's child account so the enclosing
                # phase reports exclusive time.  Clamp to the frame's own
                # extent in case the timer predates the frame.
                frame = self._phase_stack[-1]
                frame[2] += min(elapsed, now - frame[1])
        return True

    def record_phase(self, name: str, seconds: float) -> None:
        """Attribute *seconds* of wall time to the named phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @contextmanager
    def time_phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and attribute it to the named phase.

        Intended for harness-level boundaries (assembling, model build,
        verification re-runs) — not for per-cycle code.  Nested blocks
        record **exclusive** time: the inner block's whole duration is
        subtracted from the enclosing phase, so summing
        ``phase_seconds`` across phases counts every wall-clock second
        at most once.  (Previously a nested interval was attributed to
        both phases, double-counting it in the bench breakdown.)
        """
        frame = [name, time.perf_counter(), 0.0]
        self._phase_stack.append(frame)
        try:
            yield
        finally:
            self._phase_stack.pop()
            elapsed = time.perf_counter() - frame[1]
            self.record_phase(name, max(0.0, elapsed - frame[2]))
            if self._phase_stack:
                self._phase_stack[-1][2] += elapsed

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per wall-clock second (0.0 when untimed)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def transitions_per_second(self) -> float:
        """Committed OSM transitions (scheduling events) per wall second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.transitions / self.wall_seconds

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def record_occupancy(self, osms) -> None:
        """Accumulate one cycle of state occupancy for *osms* (optional,
        enabled by kernels only when tracing is requested — it costs time)."""
        occ = self.state_occupancy
        for osm in osms:
            name = osm.current.name
            occ[name] = occ.get(name, 0) + 1

    def summary(self) -> str:
        lines = [
            f"cycles           : {self.cycles}",
            f"instructions     : {self.instructions}",
            f"IPC              : {self.ipc:.3f}",
            f"transitions      : {self.transitions}",
            f"wall seconds     : {self.wall_seconds:.3f}",
            f"cycles/second    : {self.cycles_per_second:,.0f}",
        ]
        for name in sorted(self.phase_seconds):
            lines.append(f"phase {name:<11}: {self.phase_seconds[name]:.3f}s")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimulationStats(cycles={self.cycles}, instructions={self.instructions})"
