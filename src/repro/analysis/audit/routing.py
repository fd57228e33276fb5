"""Routing cross-check: ISA008 (rule ``unit-routing``).

The decoders tag every instruction with a function-``unit`` class and the
models route operations by guarding edges on that tag (directly via
``osm.operation.instr.unit``, or indirectly via a precomputed
``rs_unit``).  If a model has no resource path for some unit class, any
program containing such an instruction wedges the director: the
operation's OSM sits in a state with no satisfiable out-edge forever.

This pass checks, statically per registered model spec, that every unit
in the ISA's vocabulary can complete a pipeline traversal: starting from
the spec's initial state, following only edges whose *pure guards* accept
a probe operation of that unit, some reachable edge returns to the
initial state (operations recirculate I -> ... -> I per the paper's OSM
model).

Soundness caveat: only ``kind == "guard"`` primitives are evaluated —
token traffic (allocate/inquire/release) depends on run-time manager
state and is treated as satisfiable, and a guard that inspects machine
state the probe cannot fake (raising on the fake operation) is treated
as non-discriminating.  ISA008 can therefore miss a wedge caused by
token starvation, but never falsely blames a unit the guards admit.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, Iterator, List, Optional, Set

from ..diagnostics import (AnalysisPass, Diagnostic, Report, Severity,
                           run_passes, spec_allow)
from ..registry import build_spec, spec_isa
from .targets import build_target

ROUTING_CODE = "ISA008"
ROUTING_RULE = "unit-routing"


class _ProbeInstr:
    """Minimal instruction-shaped object carrying only the unit tag."""

    def __init__(self, unit: str):
        self.unit = unit
        self.mnemonic = f"<probe:{unit}>"
        self.src_regs = ()
        self.dst_regs = ()
        self.is_load = False
        self.is_store = False
        self.is_branch = False
        self.writes_pc = False


class _ProbeOperation:
    def __init__(self, unit: str):
        self.instr = _ProbeInstr(unit)
        self.rs_unit = unit
        self.src_deps = ()
        self.seq = 0
        self.tag = 0


class _ProbeOsm:
    """Operation-state-machine stand-in handed to pure guards."""

    def __init__(self, unit: str):
        self.operation = _ProbeOperation(unit)
        self.tag = 0
        self.miss_cycles = 0


def _guards_admit(edge, unit: str) -> bool:
    """True when every pure guard on *edge* accepts a probe of *unit*.

    Guards that raise on the probe (they inspect live machine state the
    probe cannot fake) are non-discriminating: treated as satisfied.
    """
    osm = _ProbeOsm(unit)
    for primitive in edge.condition.primitives:
        if getattr(primitive, "kind", None) != "guard":
            continue  # token traffic: satisfiable by assumption
        try:
            if not primitive.probe(osm, None):
                return False
        except Exception:
            continue
    return True


def audit_routing(spec, units: Iterable[str],
                  spec_name: Optional[str] = None) -> Iterator[Diagnostic]:
    """Yield ISA008 diagnostics for *spec* against the unit vocabulary."""
    name = spec_name if spec_name is not None else spec.name
    if spec.initial is None:
        yield Diagnostic(
            code=ROUTING_CODE, rule=ROUTING_RULE, severity=Severity.ERROR,
            spec=name, message="spec has no initial state; no operation "
            "of any unit can be dispatched",
        )
        return
    for unit in sorted(units):
        compatible = [e for e in spec.edges if _guards_admit(e, unit)]
        reachable: Set[str] = {spec.initial.name}
        frontier: List[str] = [spec.initial.name]
        while frontier:
            src = frontier.pop()
            for edge in spec.states[src].out_edges:
                if edge not in compatible:
                    continue
                if edge.dst.name not in reachable:
                    reachable.add(edge.dst.name)
                    frontier.append(edge.dst.name)
        completes = any(
            e.src.name in reachable and e.dst is spec.initial
            for e in compatible
        )
        if not completes:
            stuck = sorted(reachable)
            yield Diagnostic(
                code=ROUTING_CODE, rule=ROUTING_RULE, severity=Severity.ERROR,
                spec=name,
                state=unit,
                message=(
                    f"operations of unit {unit!r} cannot complete a "
                    f"pipeline traversal: no guard-compatible path from "
                    f"{spec.initial.name!r} returns to it (reachable "
                    f"states: {stuck}) — such an instruction wedges the "
                    f"director"
                ),
            )


class RoutingPass(AnalysisPass):
    """ISA008 over one model spec; the context carries the ``spec`` and
    the ISA's ``units`` vocabulary."""

    code = ROUTING_CODE
    rule = ROUTING_RULE

    def run(self, ctx) -> Iterator[Diagnostic]:
        return audit_routing(ctx.spec, ctx.units, spec_name=ctx.subject)


def default_passes() -> List[AnalysisPass]:
    """The per-model audit rules: ISA008 alone."""
    return [RoutingPass()]


def audit_model(name: str,
                codes: Optional[Iterable[str]] = None) -> Report:
    """Run the routing cross-check over the registered model *name*.

    The unit vocabulary comes from the audit target of the ISA the spec
    is registered against (``register_spec(..., isa=...)``).
    """
    spec = build_spec(name)
    ctx = SimpleNamespace(subject=name, spec=spec,
                          units=build_target(spec_isa(name)).units)
    return run_passes("audit", ctx, default_passes(), codes, spec_allow(spec))
