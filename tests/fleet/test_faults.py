"""Faults and races: a dead worker, an abandoned batch or concurrent
batches end in records, never in a hang.

Every wait here is bounded (a daemon thread joined with a timeout), so a
runner that hangs fails its test on the bound instead of stalling the
suite.
"""

import json
import multiprocessing
import os
import random
import signal
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.fleet import FleetRunner, FleetServer

#: seconds a record may take once its fault has happened
BOUND = 10.0
#: seconds a job may take on a pool that spawns a fresh worker
SPAWN_BOUND = 60.0


def _source_job(text, seed=1):
    return {"model": "strongarm", "workload": {"kind": "source", "text": text},
            "config": {"perfect_memory": True}, "seed": seed}


FAST_JOB = _source_job("""
    .text
_start:
    mov r0, #7
    swi #0
""")
OTHER_JOB = {**FAST_JOB, "seed": 2}
#: about 3,000,000 iterations: minutes of simulation, so it is still
#: running when its worker is killed
LONG_JOB = _source_job("""
    .text
_start:
    ldr r1, =3000000
loop:
    subs r1, r1, #1
    bne loop
    mov r0, #0
    swi #0
""")


def _start(function, *args):
    """Call ``function(*args)`` on a daemon thread; the returned callable
    waits at most *timeout* seconds for its value."""
    outcome = {}

    def target():
        try:
            outcome["value"] = function(*args)
        except BaseException as exc:  # re-raised by the waiter
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()

    def result(timeout=BOUND):
        thread.join(timeout)
        assert not thread.is_alive(), f"no result within {timeout} s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return result


def _children():
    return {child.pid for child in multiprocessing.active_children()}


def _kill_workers(before):
    """SIGKILL every child process started since *before* (pids)."""
    workers = _children() - before
    assert workers, "no worker process to kill"
    for pid in workers:
        os.kill(pid, signal.SIGKILL)


class TestWorkerDeath:
    def test_killed_worker_fails_its_jobs_and_the_pool_is_replaced(self):
        before = _children()
        with FleetRunner(workers=1) as runner:
            (warm,), _ = _start(runner.run_sweep, [dict(FAST_JOB)])(SPAWN_BOUND)
            assert warm["ok"]
            leader = _start(runner.run_sweep, [dict(LONG_JOB)])
            time.sleep(1.0)
            follower = _start(runner.run_sweep, [dict(LONG_JOB)])
            time.sleep(0.5)
            _kill_workers(before)
            (record,), summary = leader()
            (followed,), _ = follower()
            assert record["ok"] is False and not record["dedup"]
            assert record["error"]["type"] == "BrokenProcessPool"
            assert summary["errors"] == 1
            assert followed["dedup"] and followed["error"] == record["error"]
            assert runner.cache.get(record["key"]) is None
            (after,), _ = _start(runner.run_sweep, [dict(OTHER_JOB)])(SPAWN_BOUND)
            assert after["ok"] and not after["cached"]
            assert runner.executed == 3 and runner.errors == 1


class TestAbandonedBatch:
    def test_closed_batch_leaves_no_job_in_flight(self):
        with FleetRunner(workers=0) as runner:
            runner.run_sweep([dict(FAST_JOB)])
            batch = runner.submit([dict(FAST_JOB), dict(OTHER_JOB)])
            assert next(batch)["cached"]
            batch.close()
            (record,), _ = _start(runner.run_sweep, [dict(OTHER_JOB)])()
            assert record["ok"] and not record["cached"] and not record["dedup"]
            assert runner.executed == 2


class TestConcurrentBatches:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_each_key_executes_once(self, workers):
        """Batches from more threads than cores share four keys, with a
        short switch interval: every key executes once, every job gets
        its record, and no key is left in flight."""
        jobs = [{**FAST_JOB, "seed": seed} for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with FleetRunner(workers=workers) as runner:
                sweeps = [_start(runner.run_sweep, random.Random(n).choices(jobs, k=6))
                          for n in range(8)]
                for records, _ in (sweep(SPAWN_BOUND) for sweep in sweeps):
                    assert len(records) == 6 and all(record["ok"] for record in records)
                assert runner.executed == 4 and runner.errors == 0
                _, summary = _start(runner.run_sweep, jobs)()
                assert summary["cache_hits"] == 4
        finally:
            sys.setswitchinterval(interval)


class TestServerWorkerDeath:
    def test_submit_exits_1_with_an_error_record(self, tmp_path, capsys):
        before = _children()
        server = FleetServer(host="127.0.0.1", port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        host, port = server.address
        submit = ["submit", "--host", host, "--port", str(port),
                  "--timeout", "60", "--json"]
        try:
            warm = tmp_path / "warm.json"
            warm.write_text(json.dumps(FAST_JOB))
            assert _start(main, submit + [str(warm)])(SPAWN_BOUND) == 0
            capsys.readouterr()
            jobs = tmp_path / "long.json"
            jobs.write_text(json.dumps(LONG_JOB))
            exit_code = _start(main, submit + [str(jobs)])
            time.sleep(1.0)
            _kill_workers(before)
            assert exit_code() == 1
            record, summary = [json.loads(line) for line in
                               capsys.readouterr().out.splitlines() if line]
            assert record["type"] == "result" and record["ok"] is False
            assert record["error"]["type"] == "BrokenProcessPool"
            assert summary["type"] == "summary" and summary["errors"] == 1
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
