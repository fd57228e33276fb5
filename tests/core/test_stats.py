"""Tests for simulation statistics."""

import time

import pytest

from repro.core import SimulationStats


class TestSimulationStats:
    def test_initial_values(self):
        stats = SimulationStats()
        assert stats.cycles == 0
        assert stats.cycles_per_second == 0.0
        assert stats.ipc == 0.0

    def test_ipc(self):
        stats = SimulationStats()
        stats.cycles = 100
        stats.instructions = 50
        assert stats.ipc == 0.5

    def test_timer_accumulates(self):
        stats = SimulationStats()
        stats.start_timer()
        time.sleep(0.01)
        stats.stop_timer()
        first = stats.wall_seconds
        assert first > 0
        stats.start_timer()
        time.sleep(0.01)
        stats.stop_timer()
        assert stats.wall_seconds > first

    def test_stop_without_start_is_harmless(self):
        stats = SimulationStats()
        stats.stop_timer()
        assert stats.wall_seconds == 0.0

    def test_cycles_per_second(self):
        stats = SimulationStats()
        stats.cycles = 1000
        stats.wall_seconds = 2.0
        assert stats.cycles_per_second == 500.0

    def test_occupancy_recording(self):
        class FakeState:
            name = "E"

        class FakeOsm:
            current = FakeState()

        stats = SimulationStats()
        stats.record_occupancy([FakeOsm(), FakeOsm()])
        stats.record_occupancy([FakeOsm()])
        assert stats.state_occupancy == {"E": 3}

    def test_summary_mentions_key_figures(self):
        stats = SimulationStats()
        stats.cycles = 10
        stats.instructions = 5
        text = stats.summary()
        assert "cycles" in text and "IPC" in text


class FakeClock:
    """``perf_counter`` for :mod:`repro.core.stats` that moves only when a
    test sleeps, so timed phases read exact figures on any host."""

    def __init__(self):
        self.now = 1000.0

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr("repro.core.stats.time", fake)
    return fake


class TestPhaseAttribution:
    def test_record_and_accumulate(self):
        stats = SimulationStats()
        stats.record_phase("assemble", 0.5)
        stats.record_phase("assemble", 0.25)
        assert stats.phase_seconds == {"assemble": 0.75}

    def test_time_phase_context_manager(self):
        stats = SimulationStats()
        with stats.time_phase("build"):
            pass
        assert stats.phase_seconds["build"] >= 0.0
        with stats.time_phase("build"):
            pass
        assert set(stats.phase_seconds) == {"build"}

    def test_stop_timer_attributes_phase(self):
        stats = SimulationStats()
        stats.start_timer()
        stats.stop_timer(phase="simulate")
        assert stats.wall_seconds == pytest.approx(
            stats.phase_seconds["simulate"])
        # stopping without a running timer is a no-op
        stats.stop_timer(phase="simulate")
        assert len(stats.phase_seconds) == 1

    def test_stop_timer_reports_whether_it_stopped(self):
        stats = SimulationStats()
        assert stats.stop_timer() is False
        stats.start_timer()
        assert stats.stop_timer() is True
        assert stats.stop_timer() is False

    def test_double_start_raises(self):
        """Overlapping start_timer used to silently drop the running
        interval; it is now an explicit error."""
        stats = SimulationStats()
        stats.start_timer()
        with pytest.raises(RuntimeError):
            stats.start_timer()
        # the original interval is still running and can be stopped
        assert stats.stop_timer() is True
        assert stats.wall_seconds > 0.0
        # and the timer is reusable after the error
        stats.start_timer()
        assert stats.stop_timer() is True

    def test_nested_time_phase_is_exclusive(self, clock):
        """A nested phase's time must not also count toward its parent
        (the bench breakdown used to double-count verify/build)."""
        stats = SimulationStats()
        with stats.time_phase("outer"):
            clock.sleep(2.0)
            with stats.time_phase("inner"):
                clock.sleep(2.0)
        # outer excludes inner: the sum is the elapsed 4.0, where a
        # double-counted inner would read 6.0
        assert stats.phase_seconds == {"outer": 2.0, "inner": 2.0}

    def test_nested_same_name_accumulates_once(self, clock):
        stats = SimulationStats()
        with stats.time_phase("build"):
            clock.sleep(1.0)
            with stats.time_phase("build"):
                clock.sleep(1.0)
        assert stats.phase_seconds == {"build": 2.0}

    def test_stop_timer_inside_time_phase_is_exclusive(self, clock):
        """A stop_timer(phase=...) interval inside an open time_phase
        block counts toward the inner phase only."""
        stats = SimulationStats()
        with stats.time_phase("harness"):
            clock.sleep(0.5)
            stats.start_timer()
            clock.sleep(2.0)
            stats.stop_timer(phase="simulate")
        assert stats.phase_seconds == {"simulate": 2.0, "harness": 0.5}

    def test_timer_started_before_phase_clamps_to_frame(self, clock):
        """Only the part of a stop_timer interval that overlaps the open
        frame is subtracted from it."""
        stats = SimulationStats()
        stats.start_timer()
        clock.sleep(2.0)
        with stats.time_phase("harness"):
            clock.sleep(1.0)
            stats.stop_timer(phase="simulate")
        # harness self-time is exactly 0, never negative
        assert stats.phase_seconds == {"simulate": 3.0, "harness": 0.0}

    def test_transitions_per_second(self):
        stats = SimulationStats()
        stats.transitions = 300
        stats.wall_seconds = 2.0
        assert stats.transitions_per_second == 150.0
        assert SimulationStats().transitions_per_second == 0.0

    def test_summary_includes_phases(self):
        stats = SimulationStats()
        stats.record_phase("simulate", 1.0)
        assert "phase simulate" in stats.summary()
