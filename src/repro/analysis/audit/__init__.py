"""isaaudit: cross-layer consistency analyzer for ISA encodings, hazard
metadata, and model routing.

The paper's retargetable-simulation claim rests on three contracts that
live in *different* layers of this codebase and can silently drift:

1. the assembler's encoders and the ISS's decoders must agree on the
   bit-level instruction format (encoding-space + round-trip rules,
   ISA001–ISA003, ISA006, ISA007);
2. the decoder's hazard metadata must describe what the execute
   semantics actually do — the pipeline models forward and interlock on
   the metadata, not on the semantics (hazard audit, ISA004/ISA005);
3. every ``unit`` class the decoder can emit must have a resource path
   through every registered model, or the director wedges (routing
   cross-check, ISA008).

``repro audit <target|spec|all>`` runs these rules from the CLI; this
package is the library behind it.  See ``docs/static-analysis.md`` for
the rule table and suppression syntax.
"""

from .engine import (
    AUDIT_ADDR,
    AuditContext,
    audit_target,
    default_passes,
    run_point,
)
from .encoding import (
    EmittableUdfPass,
    EncoderOverflowPass,
    OverlapPass,
    ShadowedArmPass,
)
from .hazards import OverDeclaredPass, UnderDeclaredPass
from .roundtrip import RoundTripPass
from .routing import ROUTING_CODE, audit_model, audit_routing
from .targets import (
    AuditTarget,
    DecoderArm,
    EncodingClass,
    OverflowCase,
    available_targets,
    build_target,
    register_target,
)

__all__ = [
    "AUDIT_ADDR",
    "AuditContext",
    "AuditTarget",
    "DecoderArm",
    "EmittableUdfPass",
    "EncoderOverflowPass",
    "EncodingClass",
    "OverDeclaredPass",
    "OverflowCase",
    "OverlapPass",
    "ROUTING_CODE",
    "RoundTripPass",
    "ShadowedArmPass",
    "UnderDeclaredPass",
    "audit_isa",
    "audit_model",
    "audit_routing",
    "audit_target",
    "available_targets",
    "build_target",
    "default_passes",
    "register_target",
    "run_point",
]


def audit_isa(name: str, codes=None):
    """Audit the registered ISA *name* with the per-ISA rules
    (ISA001–ISA007) and return the :class:`~..diagnostics.Report`."""
    return audit_target(build_target(name), codes=codes)
