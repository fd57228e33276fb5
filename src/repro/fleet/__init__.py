"""Sharded, cached fleet runner: ``repro serve`` / ``repro submit``.

The fleet layer fans (model, workload, config, seed) jobs across a
multiprocess worker pool, dedupes identical jobs through a
content-addressed result cache (sha256 over the model's source-closure
fingerprint, the resolved workload text, the canonical config, the seed
and the cycle budget — see :mod:`repro.fleet.jobs`), and streams JSON
results back as they complete.  Caching is sound because simulation is
deterministic — the property `tests/integration/test_fastpath_determinism.py`
pins; see ``docs/fleet.md`` for the full argument.
"""

from ..contentstore import ResultCache
from .cache import MemoryCache, open_cache
from .jobs import (
    DEFAULT_MAX_CYCLES,
    RESULT_SCHEMA,
    Job,
    canonical_json,
    job_key,
    model_fingerprint,
    resolve_workload,
)
from .pool import FleetRunner, sweep
from .worker import run_job, run_job_with_key
from .server import DEFAULT_PORT, FleetServer, serve
from .client import FleetClient, FleetClientError
from .bench import MIN_WARM_HIT_RATE, bench_jobs, fleet_bench

__all__ = [
    "DEFAULT_MAX_CYCLES",
    "DEFAULT_PORT",
    "MIN_WARM_HIT_RATE",
    "RESULT_SCHEMA",
    "FleetClient",
    "FleetClientError",
    "FleetRunner",
    "FleetServer",
    "Job",
    "MemoryCache",
    "ResultCache",
    "bench_jobs",
    "canonical_json",
    "fleet_bench",
    "job_key",
    "model_fingerprint",
    "open_cache",
    "resolve_workload",
    "run_job",
    "run_job_with_key",
    "serve",
    "sweep",
]
