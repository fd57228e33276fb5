"""Lint engine: shared context, pass list, driver.

A lint pass is an :class:`~repro.analysis.diagnostics.AnalysisPass`
with a stable ``code`` (``OSM001``…) over one
:class:`~repro.core.MachineSpec`.  Passes share a :class:`LintContext`
that lazily computes (once) the facts several passes need: the abstract
token-buffer exploration (:func:`.buffer.analyze_buffers`), the
reachability report and the hold-allocate dependency graph.

A diagnostic anchored to an edge whose ``lint_allow`` names the rule
code — or whose spec carries the code in ``spec.lint_allow`` — is kept
in the report but marked ``suppressed`` and excluded from the pass/fail
verdict.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ...core.osm import MachineSpec
from ..diagnostics import AnalysisPass, Report, run_passes, spec_allow


class LintContext:
    """Per-run shared facts, computed lazily and at most once."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.subject = spec.name
        self._buffers = None
        self._reachability = None
        self._deadlock = None

    @property
    def buffers(self):
        if self._buffers is None:
            from .buffer import analyze_buffers

            self._buffers = analyze_buffers(self.spec)
        return self._buffers

    @property
    def reachability(self):
        if self._reachability is None:
            from .graph import analyze_reachability

            self._reachability = analyze_reachability(self.spec)
        return self._reachability

    @property
    def deadlock(self):
        if self._deadlock is None:
            from .graph import analyze_deadlock

            self._deadlock = analyze_deadlock(self.spec)
        return self._deadlock


def default_passes() -> List[AnalysisPass]:
    """Fresh instances of the bundled rules, in code order."""
    from .passes import (
        AmbiguousSiblingsPass,
        CapacityPass,
        DoubleAllocatePass,
        ReachabilityPass,
        ResourceCyclePass,
        ShadowedEdgePass,
        TokenLeakPass,
        VacuousReleasePass,
    )

    return [
        TokenLeakPass(),
        VacuousReleasePass(),
        DoubleAllocatePass(),
        AmbiguousSiblingsPass(),
        ShadowedEdgePass(),
        ReachabilityPass(),
        CapacityPass(),
        ResourceCyclePass(),
    ]


def lint_spec(
    spec: MachineSpec,
    passes: Optional[Sequence[AnalysisPass]] = None,
    codes: Optional[Iterable[str]] = None,
) -> Report:
    """Run the lint passes over *spec* and return the report.

    Parameters
    ----------
    passes:
        Pass instances to run; defaults to the bundled OSM001–OSM008 set.
    codes:
        When given, restrict the default set to these rule codes.
    """
    if passes is None:
        passes = default_passes()
    return run_passes("lint", LintContext(spec), passes, codes, spec_allow(spec))
