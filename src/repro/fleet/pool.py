"""The fleet runner: a deduplicating, caching multiprocess job pool.

:class:`FleetRunner` fans job batches across a pool of worker processes
and streams result records back in completion order.  Three layers keep
redundant work off the pool:

1. **Result cache** — jobs whose content-addressed key is already cached
   are answered immediately (``cached: true``) without touching a
   worker.
2. **In-flight dedupe** — every executing key has exactly one
   :class:`~concurrent.futures.Future` in the runner; further
   submissions of the key from a concurrent batch wait on that future
   instead of launching another execution (``dedup: true``).
3. **Batch dedupe** — duplicates within one batch wait on it too.

One idempotent settle per execution caches a success and counts it.  It
runs before the execution's first record leaves and, as the future's
done-callback, even when no batch is left to read the record.

With ``workers >= 1`` a ``ProcessPoolExecutor`` runs the jobs, on the
``spawn`` start method by default: every worker process imports the
model code fresh, which is the configuration the cross-process
determinism tests pin (a forked worker could silently lean on inherited
module state; a spawned one cannot).  A worker that dies mid-job breaks
the pool: every job in flight on it gets an ``ok: false`` record
(``BrokenProcessPool``), never cached, and the next job starts a fresh
pool.  ``workers=0`` runs each job in-process, in submission order, as
the batch's records are read — same records, same cache, no pool — which
is what the sweep benchmarks use so their numbers measure the simulator,
not process scheduling; a batch closed before its jobs ran leaves none
of them in flight.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .cache import open_cache
from .jobs import Job, job_key, resolve_workload
from .worker import failure, run_job


def summarize(records: List[Dict[str, Any]], wall: float) -> Dict[str, Any]:
    """The ``summary`` of a finished batch: job counts, cache and dedupe
    hits, errors, end-to-end wall seconds and jobs/s."""
    jobs = len(records)
    cache_hits = sum(record["cached"] for record in records)
    dedup_hits = sum(record["dedup"] for record in records)
    return {
        "type": "summary",
        "jobs": jobs,
        "executed": jobs - cache_hits - dedup_hits,
        "cache_hits": cache_hits,
        "dedup_hits": dedup_hits,
        "errors": sum(not record["ok"] for record in records),
        "cache_hit_rate": round(cache_hits / jobs, 4) if jobs else 0.0,
        "wall_seconds": round(wall, 4),
        "jobs_per_second": round(jobs / wall, 2) if wall > 0 else 0.0,
    }


class FleetRunner:
    """Deduplicating, caching job runner over a multiprocess pool.

    The executor is only ever called outside :attr:`_lock`: a future's
    done-callback takes the lock, and the executor runs those callbacks
    on its own manager thread.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_dir: Optional[str] = None,
        cache=None,
        start_method: str = "spawn",
    ):
        self.cache = cache if cache is not None else open_cache(cache_dir)
        self.workers = max(0, int(workers))
        self._start_method = start_method
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        #: key -> the one future of its execution, until it is settled
        self._inflight: Dict[str, Future] = {}
        self.executed = 0
        self.errors = 0

    # -- pool lifecycle -----------------------------------------------------

    def _pool(self, broken: Optional[ProcessPoolExecutor] = None) -> ProcessPoolExecutor:
        """The process pool; a fresh one when there is none yet or the
        current one is *broken*."""
        with self._lock:
            if self._executor is None or self._executor is broken:
                import multiprocessing

                context = multiprocessing.get_context(self._start_method)
                self._executor = ProcessPoolExecutor(self.workers, mp_context=context)
            return self._executor

    def close(self) -> None:
        """End the workers without waiting for running jobs; the jobs
        they drop get error records."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            # the executor has no terminate(); its manager thread sees the
            # workers die and fails their futures
            for process in list(executor._processes.values()):
                process.terminate()
            executor.shutdown()

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def _dispatch(self, job: Job, future: Future) -> None:
        """Run *job* on the pool; its outcome completes *future*."""
        try:
            executor = self._pool()
            try:
                pooled = executor.submit(run_job, job.to_dict())
            except BrokenProcessPool:  # a worker died since the last job
                pooled = self._pool(broken=executor).submit(run_job, job.to_dict())
        except Exception as exc:  # a closed runner, a failed spawn: a record
            future.set_result(failure(exc))
            return

        def transfer(done: Future) -> None:
            try:
                future.set_result(done.result())
            except Exception as exc:  # BrokenProcessPool: a worker died
                future.set_result(failure(exc))

        pooled.add_done_callback(transfer)

    def _settle(self, key: str, future: Future) -> None:
        """Publish a finished execution, once: count it, cache a success."""
        with self._lock:
            if self._inflight.get(key) is not future:
                return  # settled already, or abandoned unrun
            del self._inflight[key]
            outcome = future.result()
            self.executed += 1
            if outcome["ok"]:
                self.cache.put(key, outcome["result"])
            else:
                self.errors += 1

    # -- submission ---------------------------------------------------------

    def submit(self, jobs: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
        """Run *jobs* (dicts); yield one record per job as results land.

        Records carry the submission index (``job``), the cache key,
        ``cached``/``dedup`` provenance flags and either the
        deterministic ``result`` payload or an ``error``.  Cache hits
        stream first, then executions in completion order.  Malformed
        jobs raise ``ValueError`` before anything runs.
        """
        prepared: List[Tuple[int, Job, str]] = []
        for index, job_dict in enumerate(jobs):
            job = Job.from_dict(dict(job_dict))
            source = resolve_workload(job.workload, job.isa, job.seed)
            prepared.append((index, job, job_key(job, source=source)))

        ready: List[Dict[str, Any]] = []
        members: Dict[str, List[int]] = {}  # key -> indices awaiting execution
        waits: Dict[Future, str] = {}  # the futures this batch reads
        followed = set()  # keys running for a concurrent batch
        started: List[Tuple[str, Job, Future]] = []  # executions this batch starts
        with self._lock:
            for index, job, key in prepared:
                if key in members:
                    members[key].append(index)  # batch duplicate
                    continue
                payload = self.cache.get(key)
                if payload is not None:
                    ready.append(self._record(index, key, {"ok": True, "result": payload},
                                              cached=True))
                    continue
                members[key] = [index]
                future = self._inflight.get(key)
                if future is None:
                    future = self._inflight[key] = Future()
                    future.add_done_callback(partial(self._settle, key))
                    started.append((key, job, future))
                else:
                    followed.add(key)
                waits[future] = key
        if self.workers:
            for _key, job, future in started:
                self._dispatch(job, future)
            started = []  # the pool runs them whether or not the batch is read
        local = iter(started)

        def run_next() -> None:  # workers == 0: one job per record read
            for _key, job, future in local:
                future.set_result(run_job(job.to_dict()))
                return

        try:
            yield from ready
            run_next()
            for future in as_completed(waits):
                key = waits[future]
                self._settle(key, future)
                outcome = future.result()
                first, *duplicates = members[key]
                yield self._record(first, key, outcome, dedup=key in followed)
                for index in duplicates:
                    yield self._record(index, key, outcome, dedup=True)
                run_next()
        finally:
            for key, _job, future in started:
                if not future.done():  # an in-process job this batch never ran
                    with self._lock:
                        del self._inflight[key]
                    future.set_result(failure(
                        CancelledError("the batch that was to run this job was closed")))

    @staticmethod
    def _record(index: int, key: str, outcome: Dict[str, Any],
                cached: bool = False, dedup: bool = False) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "type": "result",
            "job": index,
            "key": key,
            "cached": cached,
            "dedup": dedup,
            "ok": bool(outcome.get("ok")),
        }
        if outcome.get("ok"):
            record["result"] = outcome["result"]
        else:
            record["error"] = outcome["error"]
        if "seconds" in outcome and not cached and not dedup:
            record["seconds"] = outcome["seconds"]
            if "phases" in outcome:
                record["phases"] = outcome["phases"]
        return record

    # -- batch convenience --------------------------------------------------

    def run_sweep(self, jobs: Iterable[Dict[str, Any]]):
        """Run a batch to completion.

        Returns ``(records, summary)`` — records in submission order,
        and the batch's :func:`summarize` summary.
        """
        jobs = list(jobs)
        start = time.perf_counter()
        records = sorted(self.submit(jobs), key=lambda r: r["job"])
        return records, summarize(records, time.perf_counter() - start)


def sweep(
    jobs: Iterable[Dict[str, Any]],
    workers: int = 0,
    cache_dir: Optional[str] = None,
    start_method: str = "spawn",
):
    """One-shot batch API: run *jobs* on a fresh runner, return
    ``(records, summary)``.  The sweep benchmarks are thin clients of
    this call; ``workers=0`` (the default) runs in-process."""
    with FleetRunner(workers=workers, cache_dir=cache_dir,
                     start_method=start_method) as runner:
        return runner.run_sweep(jobs)
