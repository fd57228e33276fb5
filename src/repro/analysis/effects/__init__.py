"""effectcheck: static effect/purity analysis of OSM edge code.

The simulator's fast paths rest on behavioural contracts that nothing
else enforces: probe-time code must be pure (the fused steppers bake it
and the director's version gate skips it), ``rank_stable_in_flight``
marks must be honest (the cached rank order is kept on their strength),
and co-enabled edges must not race on writes.  effectcheck infers a
per-callable effect footprint (:mod:`.footprint`), checks the contracts
as rules EFF001–EFF008 (:mod:`.passes`), and distils a per-model
compilability report (:mod:`.compilability`) that
:func:`repro.core.fuse.enable_fusion` consumes to keep uncertified
states on the interpreted reference.

Front end: ``repro effects <model>|all [--json]``.
"""

from .compilability import (
    CompilabilityReport,
    StateVerdict,
    compilability_report,
)
from .engine import (
    CallableSite,
    EffectContext,
    default_passes,
    effects_spec,
    harvest_spec,
)
from .footprint import Footprint, analyze_callable

__all__ = [
    "CallableSite",
    "CompilabilityReport",
    "EffectContext",
    "Footprint",
    "StateVerdict",
    "analyze_callable",
    "compilability_report",
    "default_passes",
    "effects_spec",
    "harvest_spec",
]
