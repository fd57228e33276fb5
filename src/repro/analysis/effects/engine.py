"""effectcheck engine: callable harvest, shared context, pass list, driver.

The rules are :class:`~repro.analysis.diagnostics.AnalysisPass` passes
run by the shared driver.  The facts they share are *effect
footprints*: the harvest walks one :class:`~repro.core.MachineSpec` and
collects every Python callable the spec can execute — guard predicates
and keys, dynamic token identifiers, release values, custom primitive
probes, edge actions, state ``on_enter`` hooks and the director rank key
breadcrumb — each tagged with its *role*, because the invariants differ
by role: code the fused steppers bake (probe-time roles) must be pure,
actions merely must not lie to the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...core.osm import Edge, MachineSpec
from ...core.primitives import (
    Allocate,
    AllocateMany,
    Condition,
    Discard,
    Guard,
    Inquire,
    Release,
    ReleaseMany,
)
from ..diagnostics import AnalysisPass, Report, run_passes, spec_allow
from .footprint import Footprint, analyze_callable

#: primitive types whose probe implementations are part of the trusted
#: core (re-analyzing them would audit the framework, not the model)
CORE_PRIMITIVES = (
    Allocate, AllocateMany, Inquire, Release, ReleaseMany, Discard, Guard,
)

#: roles whose code runs at probe time and is baked by the fused steppers
PROBE_TIME_ROLES = ("guard", "key", "ident", "value", "probe")

#: recursion depth for probe-time callables vs. post-commit actions
#: (actions run identically in compiled and interpreted modes, so only
#: their *direct* effects concern the scheduler-facing rules)
PROBE_DEPTH = 3
ACTION_DEPTH = 0


@dataclass
class CallableSite:
    """One harvested callable with its location and analysis role."""

    role: str                      #: guard|key|ident|value|probe|action|on_enter|rank
    fn: object
    param_roles: Tuple[str, ...]
    name: str                      #: display name for diagnostics
    edge: Optional[Edge] = None
    state: Optional[str] = None
    primitive: Optional[object] = None

    @property
    def probe_time(self) -> bool:
        return self.role in PROBE_TIME_ROLES


def _callable_name(fn) -> str:
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    return name or repr(fn)


def harvest_spec(spec: MachineSpec) -> List[CallableSite]:
    """Collect every analyzable callable hanging off *spec*."""
    sites: List[CallableSite] = []
    for edge in spec.edges:
        condition = edge.condition
        primitives = condition.primitives if isinstance(condition, Condition) else []
        for primitive in primitives:
            if isinstance(primitive, Guard):
                sites.append(CallableSite(
                    role="guard", fn=primitive.predicate, param_roles=("osm",),
                    name=f"guard {primitive.label!r}", edge=edge,
                    primitive=primitive,
                ))
                if primitive.key is not None:
                    # a fused stepper evaluates the key itself (possibly
                    # as its pasted __fuse_inline__ expression)
                    sites.append(CallableSite(
                        role="key", fn=primitive.key, param_roles=("osm",),
                        name=f"guard {primitive.label!r} key "
                             f"{_callable_name(primitive.key)}",
                        edge=edge, primitive=primitive,
                    ))
            elif isinstance(primitive, (Allocate, Inquire)):
                if callable(primitive.ident):
                    sites.append(CallableSite(
                        role="ident", fn=primitive.ident, param_roles=("osm",),
                        name=f"{primitive.kind} identifier "
                             f"{_callable_name(primitive.ident)}",
                        edge=edge, primitive=primitive,
                    ))
            elif isinstance(primitive, AllocateMany):
                sites.append(CallableSite(
                    role="ident", fn=primitive.idents, param_roles=("osm",),
                    name=f"allocate-many identifiers "
                         f"{_callable_name(primitive.idents)}",
                    edge=edge, primitive=primitive,
                ))
            elif isinstance(primitive, Release):
                if primitive.value is not None:
                    sites.append(CallableSite(
                        role="value", fn=primitive.value, param_roles=("osm",),
                        name=f"release value {_callable_name(primitive.value)}",
                        edge=edge, primitive=primitive,
                    ))
            elif isinstance(primitive, ReleaseMany):
                if primitive.value is not None:
                    sites.append(CallableSite(
                        role="value", fn=primitive.value,
                        param_roles=("osm", "token"),
                        name=f"release-many value "
                             f"{_callable_name(primitive.value)}",
                        edge=edge, primitive=primitive,
                    ))
            if not isinstance(primitive, CORE_PRIMITIVES):
                probe = getattr(primitive, "probe", None)
                if callable(probe):
                    sites.append(CallableSite(
                        role="probe", fn=probe, param_roles=("osm", "txn"),
                        name=f"custom probe {type(primitive).__name__}.probe",
                        edge=edge, primitive=primitive,
                    ))
        if edge.action is not None:
            sites.append(CallableSite(
                role="action", fn=edge.action, param_roles=("osm",),
                name=f"action {_callable_name(edge.action)}", edge=edge,
            ))
    for state in spec.states.values():
        if state.on_enter is not None:
            sites.append(CallableSite(
                role="on_enter", fn=state.on_enter, param_roles=("osm",),
                name=f"on_enter {_callable_name(state.on_enter)}",
                state=state.name,
            ))
    rank_key = getattr(spec, "analysis_rank_key", None)
    if rank_key is not None:
        sites.append(CallableSite(
            role="rank", fn=rank_key, param_roles=("osm",),
            name=f"rank key {_callable_name(rank_key)}",
        ))
    return sites


class EffectContext:
    """Per-run shared facts: the harvest and memoized footprints."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.subject = spec.name
        self._sites: Optional[List[CallableSite]] = None
        self._footprints: Dict[Tuple[int, Tuple[str, ...], int], Footprint] = {}

    @property
    def sites(self) -> List[CallableSite]:
        if self._sites is None:
            self._sites = harvest_spec(self.spec)
        return self._sites

    def sites_by_role(self, *roles: str) -> Iterator[CallableSite]:
        for site in self.sites:
            if site.role in roles:
                yield site

    def footprint(self, site: CallableSite) -> Footprint:
        depth = PROBE_DEPTH if site.probe_time or site.role == "rank" else ACTION_DEPTH
        key = (id(site.fn), site.param_roles, depth)
        fp = self._footprints.get(key)
        if fp is None:
            fp = analyze_callable(site.fn, site.param_roles, depth=depth)
            self._footprints[key] = fp
        return fp


def default_passes() -> List[AnalysisPass]:
    """Fresh instances of the bundled effect rules, in code order."""
    from .passes import (
        GlobalWritePass,
        ImpureGuardPass,
        NondetPass,
        OpaqueCodePass,
        ProbeDivergencePass,
        RankInputMutationPass,
        RankStabilityPass,
        WriteRacePass,
    )

    return [
        ImpureGuardPass(),
        RankStabilityPass(),
        RankInputMutationPass(),
        WriteRacePass(),
        ProbeDivergencePass(),
        NondetPass(),
        GlobalWritePass(),
        OpaqueCodePass(),
    ]


def effects_spec(
    spec: MachineSpec,
    passes: Optional[Sequence[AnalysisPass]] = None,
    codes: Optional[Iterable[str]] = None,
) -> Report:
    """Run the effect passes over *spec* and return the report.

    Suppression reuses the lint allow channel: an ``EFF`` code named in
    ``edge.lint_allow`` or ``spec.lint_allow`` marks the finding as an
    audited suppression (kept in the report, excluded from the
    pass/fail verdict and from the compilability blockers).
    """
    if passes is None:
        passes = default_passes()
    return run_passes("effects", EffectContext(spec), passes, codes,
                      spec_allow(spec))
