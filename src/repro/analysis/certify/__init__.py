"""transcheck: translation validation of generated fast-path code.

The fifth analysis front end (after osmlint, osmcheck, isaaudit and
effectcheck): instead of trusting the code generators that power the
simulation fast path — fused per-state steppers
(:mod:`repro.core.fuse`, the only generated OSM code), and the per-ISA
``exec_fn`` closures and the block functions the ISS run loop executes,
both written by one emitter set per ISA (:mod:`repro.isa.arm.execgen` /
:mod:`repro.isa.ppc.execgen`) — transcheck statically validates each
generated artifact against its *reference* source and emits
certificates through the shared diagnostics schema.

Rules
-----
TRV001  fused stepper ↔ edge primitives equivalence (symbolic replay
        of the one generated edge form; manager emitter bodies are
        admitted as vocabulary zones), and wake test ↔ park points and
        refusal records
TRV002  ``__fuse_inline__`` expression/footprint agreement
TRV004  execgen closure write-set covers the semantics write-set
TRV005  ISS block functions (both ISAs) guard every store
TRV006  no block translation escapes the decode-cache page map
TRV007  fused-fallback consistency with the effectcheck verdict
TRV008  generator-version drift (stale fuse certificates)
TRV009  wake completeness: a wake test may put operations to sleep only
        where every write of a field its refusals read wakes them

TRV001–002 and TRV007–009 are per-spec; TRV004–006 are per-ISA.
TRV003 (the replay of per-edge compiled probes, which no longer exist)
is retired and its number is not reused.  The TRV001 check also gates
fusion at model-build time through :func:`certify_fused_states` and
:func:`certify_wake_tests`, and TRV009 through :func:`awake_states`,
consumed by
:func:`repro.core.fuse.enable_fusion` /
:func:`repro.core.fuse.demote_states` /
:func:`repro.core.fuse.unpark_states`.
"""

from .engine import (  # noqa: F401
    ISA_CODES,
    SPEC_CODES,
    IsaCertifyContext,
    SpecCertifyContext,
    awake_states,
    certify_fused_states,
    certify_isa,
    certify_spec,
    certify_wake_tests,
    default_isa_passes,
    default_spec_passes,
)

__all__ = [
    "ISA_CODES",
    "SPEC_CODES",
    "IsaCertifyContext",
    "SpecCertifyContext",
    "awake_states",
    "certify_fused_states",
    "certify_isa",
    "certify_spec",
    "certify_wake_tests",
    "default_isa_passes",
    "default_spec_passes",
]
