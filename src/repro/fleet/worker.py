"""Worker-side job execution: build a fresh model, run it, report JSON.

Everything here must behave identically in the submitting process and
in a freshly ``spawn``-ed worker: a job is resolved to assembly text,
assembled, simulated on a model built **from the job's config alone**
(no ambient registries, no inherited module state), and reduced to a
plain-JSON result payload.  The payload deliberately contains only
deterministic fields — cycle counts, instruction counts, transitions,
exit codes, derived rates — never wall-clock times, so a cached payload
is bit-identical to a recomputed one.

Cross-process hazards audited for this contract (and why each is safe):

* ``repro.analysis.registry`` registers the bundled spec builders at
  module import, so a spawned worker sees the same registry — but the
  worker does not consult it at all: models are built from
  :data:`_BUILDERS` below, keyed only by job fields.
* ``repro.core.fuse``'s verdict store hands a build the effectcheck and
  TRV001 verdicts from memory or from disk (``~/.cache/repro/fusion``),
  shared by every worker and process.  Reading it is sound because an
  entry's key covers everything the verdict is a function of: every
  ``.py`` file of the package, the Python version, the spec's
  structure and literal operands (never object identities), and — for
  the TRV001 verdict — the exact text of every stepper it certified;
  and only a spec whose reachable code is all package code is written
  to disk.  So a worker only ever reads the verdict the gate would
  compute for the code it runs.  Entries hold
  state names and demotion reasons, never code, and a corrupt entry
  or an unwritable directory only means the worker runs the gate.
* transactions are per-OSM state (``osm._txn``), created fresh with
  every model build, so no probe state crosses jobs.
* ``repro.iss.decode_cache.DecodeCache`` is per-``MainMemory`` instance
  state, created fresh with every model build.
* ``repro.codecache`` keeps the code objects of generated ISS blocks and
  steppers for the life of the process, so a worker compiles a block
  its earlier jobs compiled only once.  Sharing them across jobs is
  sound because a code object is immutable and a pure function of its
  key (the exact source text and filename): each build still runs it
  with ``exec`` in a namespace of its own, so no block, manager or
  model of one job is reachable from another, and the result is what a
  fresh ``compile()`` would give.  The cache lives in memory only and
  is never shared between processes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .jobs import Job, job_key, resolve_workload


def _materialize_cache(name: str, params: Optional[Dict[str, Any]]):
    """A :class:`~repro.memory.cache.Cache` from its JSON description."""
    if params is None:
        return None
    from ..memory.cache import Cache

    return Cache(name, **params)


def _materialize_tlb(name: str, params: Optional[Dict[str, Any]]):
    if params is None:
        return None
    from ..memory.tlb import Tlb

    return Tlb(name, **params)


#: config keys describing memory structures, materialised into timing
#: model instances before reaching the model constructor
_CACHE_KEYS = ("icache", "dcache")
_TLB_KEYS = ("itlb", "dtlb")


def _split_config(config: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(constructor kwargs, memory-structure kwargs)`` for *config*.

    A memory key that is *absent* keeps the model's default structure; a
    key explicitly set to ``null`` passes ``None`` (perfect one-cycle
    access for that structure).
    """
    kwargs = dict(config)
    memory: Dict[str, Any] = {}
    for key in _CACHE_KEYS:
        if key in kwargs:
            memory[key] = _materialize_cache(key, kwargs.pop(key))
    for key in _TLB_KEYS:
        if key in kwargs:
            memory[key] = _materialize_tlb(key, kwargs.pop(key))
    return kwargs, memory


def _build_strongarm(program, config):
    from ..models.strongarm import StrongArmModel

    kwargs, memory = _split_config(config)
    return StrongArmModel(program, **memory, **kwargs)


def _build_pipeline5(program, config):
    from ..models.pipeline5 import Pipeline5Model

    kwargs, memory = _split_config(config)
    return Pipeline5Model(program, **memory, **kwargs)


def _build_vliw(program, config):
    from ..models.vliw import VliwModel

    kwargs, memory = _split_config(config)
    for key in _TLB_KEYS:  # the VLIW model has no TLBs
        if memory.pop(key, None) is not None:
            raise ValueError("the vliw model takes no TLB config")
    return VliwModel(program, **memory, **kwargs)


def _build_ppc750(program, config):
    from ..models.ppc750 import Ppc750Model

    kwargs, memory = _split_config(config)
    for key in _TLB_KEYS:
        if memory.pop(key, None) is not None:
            raise ValueError("the ppc750 model takes no TLB config")
    return Ppc750Model(program, **memory, **kwargs)


_BUILDERS: Dict[str, Callable] = {
    "strongarm": _build_strongarm,
    "pipeline5": _build_pipeline5,
    "vliw": _build_vliw,
    "ppc750": _build_ppc750,
}


def _assemble(isa: str, source: str):
    if isa == "arm":
        from ..isa.arm import assemble
    else:
        from ..isa.ppc import assemble
    return assemble(source)


def _memory_metrics(model) -> Dict[str, Any]:
    """Deterministic memory-hierarchy figures, where structures exist."""
    metrics: Dict[str, Any] = {}
    for attr in ("icache", "dcache"):
        cache = getattr(model, attr, None)
        stats = getattr(cache, "stats", None)
        if stats is not None:
            metrics[f"{attr}_accesses"] = stats.accesses
            metrics[f"{attr}_hit_rate"] = round(stats.hit_rate, 6)
    return metrics


def run_job(job_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job description; never raises.

    Returns ``{"ok": True, "result": payload}`` or ``{"ok": False,
    "error": {...}}``.  The ``result`` payload is the deterministic,
    cacheable part; timing lives in the envelope the runner adds.
    """
    try:
        job = Job.from_dict(job_dict)
        source = resolve_workload(job.workload, job.isa, job.seed)
        program = _assemble(job.isa, source)
        model = _BUILDERS[job.model](program, job.config)
        stats = model.run(job.max_cycles)
        metrics = {
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "transitions": stats.transitions,
            "exit_code": model.exit_code,
            "ipc": round(stats.ipc, 6),
        }
        metrics.update(_memory_metrics(model))
        return {
            "ok": True,
            "result": {
                "schema": 1,
                "model": job.model,
                "isa": job.isa,
                "seed": job.seed,
                "metrics": metrics,
            },
        }
    except Exception as exc:
        return {
            "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }


def pool_run(item: Tuple[str, Dict[str, Any]]) -> Tuple[str, Dict[str, Any]]:
    """Pool entry point: ``(key, job dict) -> (key, outcome)``.

    Must stay a module-level function so ``spawn`` workers can import it
    by qualified name.
    """
    import time

    key, job_dict = item
    start = time.perf_counter()
    outcome = run_job(job_dict)
    outcome["seconds"] = round(time.perf_counter() - start, 6)
    return key, outcome


def run_job_with_key(job_dict: Dict[str, Any]) -> Dict[str, Any]:
    """``run_job`` plus the job's cache key — the one-shot entry point
    the cross-process determinism tests drive in a spawned process."""
    outcome = run_job(job_dict)
    try:
        outcome["key"] = job_key(Job.from_dict(job_dict))
    except Exception as exc:
        outcome.setdefault("error", {"type": type(exc).__name__,
                                     "message": str(exc)})
    return outcome
