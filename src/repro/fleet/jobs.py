"""Fleet job model: canonical job descriptions and content-addressed keys.

A fleet *job* is one simulation request — ``(model, workload, config,
seed)`` plus a cycle budget — expressed entirely in JSON-serialisable
data so it can cross process and socket boundaries unchanged.  Two jobs
that serialise identically ARE the same job: the determinism pinned by
``tests/integration/test_fastpath_determinism.py`` (and re-pinned
cross-process by ``tests/fleet/test_cross_process.py``) guarantees they
produce bit-identical results, which is what makes the fleet's
content-addressed result cache sound.

The cache key (:func:`job_key`) is the sha256 of:

* the **model implementation fingerprint** — source hashes of every
  package the model's simulation semantics depend on
  (:func:`repro.contentstore.combined_fingerprint`).  Editing any file
  in the closure changes the key, so stale results can never be served
  across a code change;
* the **workload bytes** — the resolved assembly source text, not the
  workload's name, so renaming a workload cannot alias two different
  programs (and two names for the same program share cache entries);
* the **canonical config** — the model-constructor parameters in
  canonical JSON (sorted keys, no whitespace variance);
* the **seed** — threaded into generated workloads
  (:class:`repro.workloads.generator.Mix`), inert but still keyed for
  named workloads;
* the cycle budget and the result schema version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..contentstore import combined_fingerprint

#: bump when the result payload layout changes — old cache entries
#: stop matching instead of being misread
RESULT_SCHEMA = 1

#: default per-job cycle budget (matches ``repro run``/``repro bench``)
DEFAULT_MAX_CYCLES = 10_000_000

#: model name -> ISA it consumes (fleet-runnable OSM models)
MODEL_ISA: Dict[str, str] = {
    "pipeline5": "arm",
    "strongarm": "arm",
    "vliw": "arm",
    "ppc750": "ppc",
}

#: packages every model's results depend on (assembler, ISS, OSM core,
#: memory timing, DE kernels) — hashed into every fingerprint
_BASE_PACKAGES = (
    "repro.core",
    "repro.de",
    "repro.iss",
    "repro.memory",
    "repro.isa.bits",
    "repro.isa.instruction",
    "repro.isa.program",
    "repro.isa.assembler",
)

#: model name -> model-layer modules in its implementation closure
#: (strongarm subclasses pipeline5; everything uses models.common)
_MODEL_PACKAGES = {
    "pipeline5": ("repro.models.pipeline5", "repro.models.common"),
    "strongarm": ("repro.models.strongarm", "repro.models.pipeline5",
                  "repro.models.common"),
    "vliw": ("repro.models.vliw", "repro.models.common"),
    "ppc750": ("repro.models.ppc750", "repro.models.common"),
}


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, minimal separators.

    Raises ``TypeError`` for anything not JSON-serialisable — job specs
    must survive a socket round-trip unchanged, so non-JSON config
    values are rejected at submission time, not in the worker.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Job:
    """One simulation request; everything is plain JSON data."""

    model: str
    workload: Dict[str, Any]
    config: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    max_cycles: int = DEFAULT_MAX_CYCLES

    def __post_init__(self):
        if self.model not in MODEL_ISA:
            raise ValueError(
                f"unknown fleet model {self.model!r}; "
                f"choose one of {', '.join(sorted(MODEL_ISA))}"
            )
        if not isinstance(self.workload, dict) or "kind" not in self.workload:
            raise ValueError("workload must be a dict with a 'kind' field")

    @property
    def isa(self) -> str:
        return MODEL_ISA[self.model]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "workload": self.workload,
            "config": self.config,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        unknown = set(data) - {"model", "workload", "config", "seed", "max_cycles"}
        if unknown:
            raise ValueError(f"unknown job field(s): {sorted(unknown)}")
        try:
            return cls(
                model=data["model"],
                workload=data["workload"],
                config=dict(data.get("config") or {}),
                seed=int(data.get("seed", 0)),
                max_cycles=int(data.get("max_cycles", DEFAULT_MAX_CYCLES)),
            )
        except KeyError as exc:
            raise ValueError(f"job missing required field {exc.args[0]!r}") from None


# -- workload resolution ----------------------------------------------------

def resolve_workload(workload: Dict[str, Any], isa: str, seed: int) -> str:
    """The assembly source text a workload spec denotes for *isa*.

    Resolution is pure: the same (spec, isa, seed) always yields the
    same text, in every process — the text is what gets hashed into the
    job key and what the worker assembles.

    Supported kinds::

        {"kind": "mediabench", "name": "gsm_dec"}     # both ISAs
        {"kind": "kernel", "name": "stride8"}         # ARM diagnostics
        {"kind": "speclike", "name": "sort"}          # PPC kernels
        {"kind": "source", "text": "..."}             # inline assembly
        {"kind": "generated", "mix": {"alu": 6, ...}} # synthetic mix
                                                       # (job seed wins)
    """
    kind = workload.get("kind")
    if kind == "mediabench":
        from ..workloads import mediabench

        name = _workload_name(workload)
        if name not in mediabench.MEDIABENCH_NAMES:
            raise ValueError(f"unknown mediabench workload {name!r}")
        source_of = mediabench.arm_source if isa == "arm" else mediabench.ppc_source
        return source_of(name)
    if kind == "kernel":
        from ..workloads import kernels

        if isa != "arm":
            raise ValueError("diagnostic kernel loops are ARM-only")
        return kernels.arm_source(_workload_name(workload))
    if kind == "speclike":
        from ..workloads import speclike

        if isa != "ppc":
            raise ValueError("SPEC-like kernels are PPC-only")
        return speclike.ppc_source(_workload_name(workload))
    if kind == "source":
        text = workload.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ValueError("source workload needs a non-empty 'text' field")
        return text
    if kind == "generated":
        from ..workloads.generator import Mix, arm_source, ppc_source

        params = dict(workload.get("mix") or {})
        params.pop("seed", None)  # the job seed parameterises generation
        try:
            mix = Mix(seed=seed, **params)
        except TypeError as exc:
            raise ValueError(f"bad generated-workload mix: {exc}") from None
        return arm_source(mix) if isa == "arm" else ppc_source(mix)
    raise ValueError(f"unknown workload kind {kind!r}")


def _workload_name(workload: Dict[str, Any]) -> str:
    name = workload.get("name")
    if not isinstance(name, str):
        raise ValueError(f"workload {workload!r} needs a 'name' field")
    return name


# -- fingerprints and keys --------------------------------------------------

def model_fingerprint(model: str) -> str:
    """sha256 over the source closure of *model*'s implementation.

    Conservative on purpose: the closure covers the model's package, the
    model-layer modules it builds on, the OSM core, the ISS, the memory
    timing models and the ISA infrastructure.  Over-invalidating costs a
    re-simulation; under-invalidating would serve a stale result after a
    semantics change.
    """
    try:
        model_packages = _MODEL_PACKAGES[model]
    except KeyError:
        raise ValueError(
            f"unknown fleet model {model!r}; "
            f"choose one of {', '.join(sorted(MODEL_ISA))}"
        ) from None
    isa_package = f"repro.isa.{MODEL_ISA[model]}"
    return combined_fingerprint(_BASE_PACKAGES + model_packages + (isa_package,))


def job_key(job: Job, source: Optional[str] = None) -> str:
    """Content-addressed cache key for *job* (sha256 hex digest).

    *source* is the resolved workload text; passing it avoids resolving
    twice when the caller already has it.
    """
    if source is None:
        source = resolve_workload(job.workload, job.isa, job.seed)
    digest = hashlib.sha256()
    digest.update(b"repro-fleet-job\x00")
    digest.update(str(RESULT_SCHEMA).encode("ascii"))
    digest.update(b"\x00")
    digest.update(model_fingerprint(job.model).encode("ascii"))
    digest.update(b"\x00")
    digest.update(job.model.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_json(job.config).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(job.seed).encode("ascii"))
    digest.update(b"\x00")
    digest.update(str(job.max_cycles).encode("ascii"))
    return digest.hexdigest()
