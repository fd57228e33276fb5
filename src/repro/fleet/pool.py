"""The fleet runner: a deduplicating, caching multiprocess job pool.

:class:`FleetRunner` fans job batches across a pool of worker processes
and streams result records back in completion order.  Three layers keep
redundant work off the pool:

1. **Result cache** — jobs whose content-addressed key is already cached
   are answered immediately (``cached: true``) without touching a
   worker.
2. **In-flight dedupe** — while a key is executing, further submissions
   of the same key (from this batch or a concurrent one) attach to the
   running execution instead of launching another (``dedup: true``).
3. **Batch dedupe** — duplicates within one batch share one execution.

Workers default to the ``spawn`` start method: every worker process
imports the model code fresh, which is the configuration the
cross-process determinism tests pin (a forked worker could silently
lean on inherited module state; a spawned one cannot).  ``workers=0``
runs jobs serially in-process — same records, same cache, no pool —
which is what the sweep benchmarks use so their numbers measure the
simulator, not process scheduling.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .cache import open_cache
from .jobs import Job, job_key, resolve_workload
from .worker import pool_run, run_job


class _Pending:
    """One in-flight execution; followers wait on :attr:`event`."""

    __slots__ = ("event", "outcome")

    def __init__(self):
        self.event = threading.Event()
        self.outcome: Optional[Dict[str, Any]] = None


class FleetRunner:
    """Deduplicating, caching job runner over a multiprocess pool."""

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
        self._pool = None
        self._lock = threading.Lock()
        #: key -> _Pending for executions currently on the pool
        self._inflight: Dict[str, _Pending] = {}
        self.executed = 0
        self.errors = 0

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context(self._start_method)
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

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
        leaders: List[Tuple[str, Job]] = []
        follower_keys: List[str] = []
        members: Dict[str, List[int]] = {}  # key -> indices awaiting execution
        followed: Dict[str, _Pending] = {}
        with self._lock:
            for index, job, key in prepared:
                if key in members:
                    members[key].append(index)  # batch duplicate
                    continue
                payload = self.cache.get(key)
                if payload is not None:
                    ready.append(self._record(index, key, cached=True,
                                              outcome={"ok": True,
                                                       "result": payload}))
                    continue
                members[key] = [index]
                pending = self._inflight.get(key)
                if pending is not None:  # running for a concurrent batch
                    followed[key] = pending
                    follower_keys.append(key)
                else:
                    self._inflight[key] = _Pending()
                    leaders.append((key, job))

        yield from ready

        if not members:
            return

        done: "queue.Queue[Tuple[str, Dict[str, Any]]]" = queue.Queue()

        def settle(key: str, outcome: Dict[str, Any]) -> None:
            """Publish a finished execution: cache, wake followers."""
            with self._lock:
                pending = self._inflight.pop(key, None)
                self.executed += 1
                if outcome.get("ok"):
                    self.cache.put(key, outcome["result"])
                else:
                    self.errors += 1
            if pending is not None:
                pending.outcome = outcome
                pending.event.set()

        for key in follower_keys:
            threading.Thread(
                target=lambda key=key, pending=followed[key]: (
                    pending.event.wait(),
                    done.put((key, dict(pending.outcome or {}))),
                ),
                daemon=True,
            ).start()

        if self.workers == 0:
            # serial in-process execution, submission order
            for key, job in leaders:
                start = time.perf_counter()
                outcome = run_job(job.to_dict())
                outcome["seconds"] = round(time.perf_counter() - start, 6)
                settle(key, outcome)
                done.put((key, outcome))
        else:
            pool = self._ensure_pool()
            for key, job in leaders:
                def _cb(result, _key=key):
                    finished_key, outcome = result
                    settle(finished_key, outcome)
                    done.put((finished_key, outcome))

                def _err(exc, _key=key):  # pragma: no cover - worker crash
                    outcome = {"ok": False,
                               "error": {"type": type(exc).__name__,
                                         "message": str(exc)}}
                    settle(_key, outcome)
                    done.put((_key, outcome))

                pool.apply_async(pool_run, ((key, job.to_dict()),),
                                 callback=_cb, error_callback=_err)

        for _ in range(len(members)):
            key, outcome = done.get()
            indices = members.pop(key)
            dedup = key in followed
            yield self._record(indices[0], key, cached=False, outcome=outcome,
                               dedup=dedup)
            for index in indices[1:]:
                yield self._record(index, key, cached=False, outcome=outcome,
                                   dedup=True)

    def _record(self, index: int, key: str, cached: bool,
                outcome: Dict[str, Any], dedup: bool = False) -> Dict[str, Any]:
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
            record["error"] = outcome.get("error",
                                          {"type": "UnknownError",
                                           "message": "no outcome"})
        if outcome.get("seconds") is not None and not cached and not dedup:
            record["seconds"] = outcome["seconds"]
            if "phases" in outcome:
                record["phases"] = outcome["phases"]
        return record

    # -- batch convenience --------------------------------------------------

    def run_sweep(self, jobs: Iterable[Dict[str, Any]]):
        """Run a batch to completion.

        Returns ``(records, summary)`` — records in submission order,
        summary with job counts, cache/dedupe hits, errors, end-to-end
        wall seconds and jobs/s.
        """
        jobs = list(jobs)
        start = time.perf_counter()
        records = sorted(self.submit(jobs), key=lambda r: r["job"])
        wall = time.perf_counter() - start
        cache_hits = sum(1 for r in records if r["cached"])
        dedup_hits = sum(1 for r in records if r["dedup"])
        errors = sum(1 for r in records if not r["ok"])
        summary = {
            "type": "summary",
            "jobs": len(records),
            "executed": len(records) - cache_hits - dedup_hits,
            "cache_hits": cache_hits,
            "dedup_hits": dedup_hits,
            "errors": errors,
            "cache_hit_rate": round(cache_hits / len(records), 4) if records else 0.0,
            "wall_seconds": round(wall, 4),
            "jobs_per_second": round(len(records) / wall, 2) if wall > 0 else 0.0,
        }
        return records, summary


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
