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
* ``repro.core.fuse``'s fusion store hands a build the effectcheck and
  TRV001 verdicts from disk (``~/.cache/repro/fusion``, one entry per
  spec structure), shared by every worker and process; nothing keeps
  them in memory but the build plans below.  Reading it is sound
  because an entry's key covers everything the effectcheck verdict is
  a function of: every ``.py`` file of the package, the Python version,
  the spec's structure, literal operands and inline declarations, and
  which operands are one object (numbered in walk order, never by
  address); the TRV001 verdict is applied only when the entry's digest
  of the text it certified is that of the text the build generated;
  and only a spec whose reachable code is all package code is written
  to disk.  So a worker only ever reads the verdict the gate would
  compute for the code it runs.  Entries hold
  state names, demotion reasons and a digest, never code, and a
  corrupt entry or an unwritable directory only means the worker runs
  the gate.
* transactions are per-OSM state (``osm._txn``), created fresh with
  every model build, so no probe state crosses jobs.
* ``repro.iss.decode_cache.DecodeCache`` is per-``MainMemory`` instance
  state, created fresh with every model build.
* ``repro.core.fuse`` keeps a build plan per spec structure for the
  life of the process, recorded after the gate, so a worker generates
  and gates the text of a model's steppers and wake tests once, and its
  later builds of that structure install from the plan.  Sharing it
  across jobs is sound because a plan holds only the census, text,
  code objects and walk positions (no object of any build), its key
  (the store's) covers everything the text and the verdicts are a
  function of (replacing an emitter drops every plan, and which
  manager members are one object is checked on install), and each
  build looks the positions up in its own spec walk and gets functions
  of its own whose defaults are its own objects, the same ones a fresh
  generation would bind.
* ``repro.iss.translations`` keeps decoded instructions, with the
  executors bound to them, and block functions for the life of the
  process, so a worker decodes, writes and compiles the code of a
  program its earlier jobs ran only once.  Sharing them across jobs is
  sound because a decode is a pure function of the decoder, address and
  word, and an executor or a block function's text a pure function of
  its instructions; a generated function reads only its arguments and
  the execgen's helpers, so the cache holds no block, memory, state or
  model; each job's run loop hands a block function that job's own
  block, which its store guards test; and each job's decode cache keeps
  its own write-invalidation, so a job that stores over its text
  re-fetches the word it wrote.
* ``repro.isa.arm.syntax.parse_mnemonic`` memoises (up to 1,024
  entries) a pure function of the mnemonic text, so a hit returns what
  a fresh parse would.
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


def failure(exc: BaseException) -> Dict[str, Any]:
    """The outcome of a job that raised, or that no worker finished."""
    return {"ok": False, "error": {"type": type(exc).__name__, "message": str(exc)}}


def run_job(job_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job description; never raises.

    Returns ``{"ok": True, "result": payload, "phases": ..., "seconds":
    ...}`` or ``{"ok": False, "error": {...}, "seconds": ...}``.  The
    ``result`` payload is the deterministic, cacheable part; timing
    lives in the envelope: ``seconds``, the whole run, and the wall
    seconds of each phase (``assemble``, resolving the workload too,
    ``build`` and ``simulate``).  This is the pool's entry point, so it
    stays a module-level function that ``spawn`` workers import by
    qualified name.
    """
    import time

    from ..isa import assemble

    start = time.perf_counter()
    try:
        job = Job.from_dict(job_dict)
        began = time.perf_counter()
        source = resolve_workload(job.workload, job.isa, job.seed)
        program = assemble(job.isa, source)
        assembled = time.perf_counter()
        model = _BUILDERS[job.model](program, job.config)
        built = time.perf_counter()
        stats = model.run(job.max_cycles)
        simulated = time.perf_counter()
        metrics = {
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "transitions": stats.transitions,
            "exit_code": model.exit_code,
            "ipc": round(stats.ipc, 6),
        }
        metrics.update(_memory_metrics(model))
        outcome = {
            "ok": True,
            "result": {
                "schema": 1,
                "model": job.model,
                "isa": job.isa,
                "seed": job.seed,
                "metrics": metrics,
            },
            "phases": {
                "assemble": round(assembled - began, 6),
                "build": round(built - assembled, 6),
                "simulate": round(simulated - built, 6),
            },
        }
    except Exception as exc:
        outcome = failure(exc)
    outcome["seconds"] = round(time.perf_counter() - start, 6)
    return outcome


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
