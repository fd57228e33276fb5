"""FleetRunner: dedupe layers, cache behaviour, record shape.

These tests run with ``workers=0`` (serial in-process execution) so
they exercise the dedupe/cache/streaming logic without paying process
start-up; the multiprocess path is covered by
``tests/fleet/test_cross_process.py`` and the server tests.
"""

import json

import pytest

from repro.fleet import FleetRunner, sweep

FAST_JOB = {
    "model": "strongarm",
    "workload": {"kind": "source", "text": """
    .text
_start:
    mov r0, #7
    swi #0
"""},
    "config": {"perfect_memory": True},
    "seed": 1,
}

OTHER_JOB = {**FAST_JOB, "seed": 2}

BAD_JOB = {**FAST_JOB, "workload": {"kind": "source", "text": "bogus r9"}}


def _runner():
    return FleetRunner(workers=0)


class TestRecords:
    def test_record_shape(self):
        with _runner() as runner:
            records, summary = runner.run_sweep([dict(FAST_JOB)])
        (record,) = records
        assert record["type"] == "result"
        assert record["job"] == 0
        assert len(record["key"]) == 64
        assert record["ok"] and not record["cached"] and not record["dedup"]
        assert record["result"]["metrics"]["exit_code"] == 7
        assert record["seconds"] > 0
        assert summary["jobs"] == 1 and summary["executed"] == 1

    def test_results_in_submission_order(self):
        jobs = [dict(FAST_JOB), dict(OTHER_JOB), dict(FAST_JOB)]
        with _runner() as runner:
            records, _ = runner.run_sweep(jobs)
        assert [r["job"] for r in records] == [0, 1, 2]

    def test_malformed_job_rejected_before_running(self):
        with _runner() as runner:
            with pytest.raises(ValueError):
                list(runner.submit([dict(FAST_JOB), {"model": "strongarm"}]))
            assert runner.executed == 0


class TestDedupe:
    def test_batch_duplicates_execute_once(self):
        with _runner() as runner:
            records, summary = runner.run_sweep(
                [dict(FAST_JOB), dict(FAST_JOB), dict(FAST_JOB)])
        assert runner.executed == 1
        assert summary["dedup_hits"] == 2
        payloads = [r["result"] for r in records]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_cache_hits_across_batches(self):
        with _runner() as runner:
            first, _ = runner.run_sweep([dict(FAST_JOB)])
            second, summary = runner.run_sweep([dict(FAST_JOB)])
        assert runner.executed == 1
        assert summary["cache_hits"] == 1
        assert second[0]["cached"] is True
        assert second[0]["result"] == first[0]["result"]

    def test_resubmitted_sweep_is_at_least_90pct_hits(self):
        jobs = [dict(FAST_JOB), dict(OTHER_JOB),
                {**FAST_JOB, "seed": 3}, {**FAST_JOB, "seed": 4}]
        with _runner() as runner:
            cold_records, cold = runner.run_sweep(jobs)
            warm_records, warm = runner.run_sweep(jobs)
        assert cold["cache_hit_rate"] == 0.0
        assert warm["cache_hit_rate"] >= 0.9
        assert [r["result"] for r in warm_records] == \
               [r["result"] for r in cold_records]


class TestPhases:
    """Executed records carry the worker's per-phase wall seconds in the
    envelope, like ``seconds``; no cached payload carries timing."""

    def test_phases_only_on_executed_records(self, tmp_path):
        with FleetRunner(workers=0, cache_dir=str(tmp_path / "cache")) as runner:
            (fresh, follower), _ = runner.run_sweep([dict(FAST_JOB), dict(FAST_JOB)])
            (cached,), _ = runner.run_sweep([dict(FAST_JOB)])
            stored = runner.cache.get(fresh["key"])
        phases = fresh["phases"]
        assert sorted(phases) == ["assemble", "build", "simulate"]
        assert all(seconds >= 0 for seconds in phases.values())
        assert sum(phases.values()) <= fresh["seconds"]
        assert follower["dedup"] and cached["cached"]
        for record in (follower, cached):
            assert "phases" not in record and "seconds" not in record
        assert "phases" not in fresh["result"]
        payload = json.dumps(fresh["result"], sort_keys=True)
        assert json.dumps(cached["result"], sort_keys=True) == payload
        assert json.dumps(stored, sort_keys=True) == payload
        assert cached["key"] == fresh["key"]


class TestErrors:
    def test_error_reported_not_raised(self):
        with _runner() as runner:
            records, summary = runner.run_sweep([dict(BAD_JOB)])
        (record,) = records
        assert record["ok"] is False
        assert "error" in record and "result" not in record
        assert summary["errors"] == 1
        assert runner.errors == 1

    def test_errors_are_not_cached(self):
        with _runner() as runner:
            runner.run_sweep([dict(BAD_JOB)])
            _, summary = runner.run_sweep([dict(BAD_JOB)])
        assert summary["cache_hits"] == 0
        assert runner.executed == 2

    def test_error_does_not_poison_good_jobs(self):
        with _runner() as runner:
            records, summary = runner.run_sweep([dict(BAD_JOB), dict(FAST_JOB)])
        assert [r["ok"] for r in records] == [False, True]
        assert summary["errors"] == 1


class TestPersistentCache:
    def test_disk_cache_survives_runner_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with FleetRunner(workers=0, cache_dir=cache_dir) as runner:
            first, _ = runner.run_sweep([dict(FAST_JOB)])
        with FleetRunner(workers=0, cache_dir=cache_dir) as runner:
            second, summary = runner.run_sweep([dict(FAST_JOB)])
        assert summary["cache_hits"] == 1
        assert second[0]["result"] == first[0]["result"]


class TestSweepHelper:
    def test_one_shot_sweep(self):
        records, summary = sweep([dict(FAST_JOB), dict(FAST_JOB)])
        assert summary["jobs"] == 2
        assert summary["executed"] == 1
        assert all(r["ok"] for r in records)
