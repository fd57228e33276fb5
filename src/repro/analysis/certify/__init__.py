"""transcheck: translation validation of generated fast-path code.

The fifth analysis front end (after osmlint, osmcheck, isaaudit and
effectcheck): instead of trusting the code generators that power the
simulation fast path — fused per-state steppers
(:mod:`repro.core.fuse`), compiled edge probes
(:mod:`repro.core.edgecompile`), per-ISA ``exec_fn`` closures
(:mod:`repro.isa.arm.execgen` / :mod:`repro.isa.ppc.execgen`) and
whole-block ISS translations (:mod:`repro.iss.compiled`) — transcheck
statically validates each generated artifact against its *reference*
source and emits certificates through the shared diagnostics schema.

Rules
-----
TRV001  fused stepper ↔ per-edge plan equivalence (symbolic replay)
TRV002  ``__fuse_inline__`` expression/footprint agreement
TRV003  compiled edge probe ↔ interpreted plan agreement
TRV004  execgen closure write-set covers the semantics write-set
TRV005  compiled ISS blocks carry store guards at instruction bounds
TRV006  no block translation escapes the decode-cache page map
TRV007  fused-fallback consistency with the effectcheck verdict
TRV008  generator-version drift (stale fuse certificates)

TRV001–003 and TRV007–008 are per-spec; TRV004–006 are per-ISA.  The
same TRV001–003 checks also gate fusion at model-build time through
:func:`certify_fused_states`, consumed by
:func:`repro.core.fuse.enable_fusion` /
:func:`repro.core.edgecompile.apply_compilability`.
"""

from .engine import (  # noqa: F401
    ISA_CODES,
    SPEC_CODES,
    IsaCertifyContext,
    SpecCertifyContext,
    certify_fused_states,
    certify_isa,
    certify_spec,
    default_isa_passes,
    default_spec_passes,
)
from .fingerprint import GENERATOR_MODULES, generator_fingerprint  # noqa: F401

__all__ = [
    "GENERATOR_MODULES",
    "ISA_CODES",
    "SPEC_CODES",
    "IsaCertifyContext",
    "SpecCertifyContext",
    "certify_fused_states",
    "certify_isa",
    "certify_spec",
    "default_isa_passes",
    "default_spec_passes",
    "generator_fingerprint",
]
