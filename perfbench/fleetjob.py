"""The fleet workload: ``repro serve`` in its own process, a client over TCP.

The server runs exactly as a user starts it (``python -m repro serve``,
spawn-started worker pool, in-memory result cache).  The benchmark is
the client and replays ``repro fleet-bench``'s traffic: each round
submits the fleet-bench sweep matrix (with fresh job seeds, see
:func:`inputs.fleet_rounds`), the **cold** pass that the worker pool
executes, then the identical matrix again, the **warm** pass that the
result cache must answer.  Jobs are submitted one at a time, each as a
one-job sweep, so a host-speed calibration sample can be timed next to
every job; a job's time runs from sending it to the server closing the
connection after its summary.  (Whole-matrix batches on two workers
were tried: one calibration per batch cannot follow the host's speed,
and their figures spread about twice as wide over seeds.)

The slices run with the server and its worker stopped (``SIGSTOP`` to
their process group), so no fleet work, whether before or after a
reply, runs alongside them and slows them: fleet work after a reply
overlaps the next job instead, and shows in its time.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from hostspeed import HostSpeed
from inputs import fleet_rounds
from layers import Tracer
from simjobs import assembler_for, interpreter_for

#: one worker: it has built every (model, config) of the matrix during
#: set-up, so no measured job pays a first build in a fresh process
WORKERS = 1
#: every wait on the server is bounded, so a hung server fails the run
#: instead of stalling it
TIMEOUT = 60.0
#: cold-pass jobs re-run in the benchmark's own process and compared
#: with the payload the pool returned (cross-process determinism)
IN_PROCESS_SAMPLES = 3
#: set-up runs one job of each (model, config) of the matrix, so every
#: model has been imported and built before the measured rounds
WARMUP_STRIDE = 6


@dataclass
class Submission:
    job: Dict
    warm: bool
    seconds: float
    record: Dict
    scale: float = 1.0  # host-speed factor from the slices around the job


class FleetWorkload:
    def __init__(self, root: str, seed: int):
        self.root = root
        self.rounds = fleet_rounds(seed)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    # -- server lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start a server and run a warm-up batch through it."""
        from repro.fleet.client import FleetClient

        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        # "repro fleet: serving on HOST:PORT (...)"
        try:
            self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise RuntimeError(f"fleet server did not announce a port: {line!r}")
        warmup = next(self.rounds)[::WARMUP_STRIDE]
        _, summary = FleetClient(port=self.port, timeout=TIMEOUT).run_sweep(warmup)
        if summary["errors"]:
            raise RuntimeError(f"fleet warm-up failed: {summary}")

    def stop(self) -> None:
        """Shut the server down and wait for it and its workers to end."""
        from repro.fleet.client import FleetClient

        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None and self.port:
                FleetClient(port=self.port, timeout=TIMEOUT).shutdown()
            proc.wait(timeout=TIMEOUT)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass
        finally:
            try:  # the pool workers share the server's process group
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            proc.stdout.close()

    @contextlib.contextmanager
    def paused(self):
        """The server and its workers stopped for the ``with`` body."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            yield
            return
        os.killpg(proc.pid, signal.SIGSTOP)
        try:
            yield
        finally:
            os.killpg(proc.pid, signal.SIGCONT)

    # -- measurement -------------------------------------------------------------

    def measure(self, seconds: float, speed: HostSpeed,
                tracer: Optional[Tracer] = None) -> List[Submission]:
        """Whole rounds (cold pass, warm pass) until *seconds* have passed."""
        from repro.fleet.client import FleetClient

        client = FleetClient(port=self.port, timeout=TIMEOUT)
        subs: List[Submission] = []
        marks: List[int] = []
        deadline = time.perf_counter() + seconds
        while not subs or time.perf_counter() < deadline:
            jobs = next(self.rounds)
            for warm in (False, True):
                for job in jobs:
                    marks.append(speed.sample())
                    start = time.perf_counter()
                    try:
                        records, _ = client.run_sweep([job])
                        record = records[0]
                    except Exception as exc:  # counted as a failed job
                        record = {"ok": False, "error": repr(exc)}
                    end = time.perf_counter()
                    subs.append(Submission(job, warm, end - start, record))
                    if tracer:
                        tracer.add("warm" if warm else "cold", start, end)
        speed.sample()
        for sub, mark in zip(subs, marks):
            sub.scale = speed.scale_after(mark)
        return subs

    # -- correctness -------------------------------------------------------------

    def count_failures(self, subs: List[Submission]) -> int:
        """Failed submissions.  A cold one fails if it errored, was not
        executed by the pool, or disagrees with the plain ISS
        (instruction count and exit code) or, for the first few, with an
        in-process re-run; a warm one fails unless the cache answered it
        with the cold payload."""
        from repro.fleet.jobs import Job, resolve_workload
        from repro.fleet.worker import run_job

        failed = 0
        in_process = IN_PROCESS_SAMPLES
        # each round's warm pass replays its cold pass in the same order
        cold = [sub for sub in subs if not sub.warm]
        warm = [sub for sub in subs if sub.warm]
        for first, again in zip(cold, warm):
            payload = first.record.get("result")
            failed += not (again.record.get("ok") and again.record["cached"]
                           and again.record["result"] == payload)
            if (not first.record.get("ok") or first.record["cached"]
                    or first.record["dedup"]):
                failed += 1
                continue
            spec = Job.from_dict(dict(first.job))
            source = resolve_workload(spec.workload, spec.isa, spec.seed)
            # the plain per-instruction interpreter: the models and the
            # specialised ISS share generated code, this shares none
            iss = interpreter_for(spec.isa)(
                assembler_for(spec.isa)(source), specialize=False)
            exit_code = iss.run()
            metrics = payload["metrics"]
            wrong = (metrics["instructions"], metrics["exit_code"]) != (
                iss.steps, exit_code)
            if in_process and not wrong:
                in_process -= 1
                outcome = run_job(dict(first.job))
                wrong = not outcome.get("ok") or outcome["result"] != payload
            failed += wrong
        return failed


# -- metrics -------------------------------------------------------------------

def end_to_end(subs: List[Submission]) -> Dict[str, float]:
    """``sim_kips`` over the time spent waiting for results; ``job_ms``
    is the mean latency of a submission, cold and warm."""
    instructions = sum(sub.record["result"]["metrics"]["instructions"]
                       for sub in subs if not sub.warm and sub.record.get("ok"))
    waited = sum(sub.seconds * sub.scale for sub in subs)
    return {
        "sim_kips": instructions / waited / 1000.0,
        "job_ms": waited / len(subs) * 1000.0,
    }


def per_layer(subs: List[Submission], scale: float) -> Dict[str, float]:
    ok = [sub for sub in subs if sub.record.get("ok")]
    executed = [sub for sub in ok
                if not sub.record["cached"] and not sub.record["dedup"]]
    results = [sub.record["result"]["metrics"] for sub in executed]

    def median_ms(values) -> float:
        return statistics.median(values) * scale * 1000.0

    def total(key: str) -> float:
        return sum(metrics.get(key, 0) for metrics in results)

    instructions = total("instructions")
    accesses = total("dcache_accesses")
    dcache_hits = sum(m.get("dcache_accesses", 0) * m.get("dcache_hit_rate", 0.0)
                      for m in results)
    return {
        "fleet_worker_ms": median_ms(sub.record["seconds"] for sub in executed),
        # client, server, cache miss and pool hand-off around the worker
        "fleet_overhead_ms": median_ms(sub.seconds - sub.record["seconds"]
                                       for sub in executed),
        "fleet_warm_ms": median_ms(sub.seconds for sub in ok
                                   if sub.record["cached"]),
        "fleet_hit_rate": sum(sub.record["cached"] for sub in ok) / len(subs),
        "cpi": total("cycles") / instructions,
        "transitions_per_instr": total("transitions") / instructions,
        "dcache_hit_rate": dcache_hits / accesses if accesses else 0.0,
    }
