"""``osmlint`` — multi-pass static analysis of OSM machine specifications.

Section 6 of the paper claims the OSM model is *analyzable*: every edge
is a guarded conjunction of token transactions, so model properties can
be extracted and checked without running the simulator.  This package is
that claim turned into a lint gate: an abstract interpretation of the
token buffer along all state-graph paths (:mod:`.buffer`), and a set of
rules (:mod:`.passes`, codes ``OSM001``–``OSM008``) run by the shared
analysis driver (:func:`repro.analysis.diagnostics.run_passes`) that
catch model-author mistakes — leaked tokens, double allocations,
shadowed or ambiguous edges, statically infeasible allocations,
unreachable states and cyclic resource dependencies — at model-build
time rather than at cycle 10M of a MediaBench run.

Entry points:

>>> from repro.analysis.lint import lint_spec
>>> report = lint_spec(model.spec)
>>> report.ok          # no unsuppressed error-severity findings
>>> print(report.render_text())

or from the command line: ``python -m repro lint <model> [--json]``.
"""

from ..diagnostics import Diagnostic, Severity
from .buffer import BufferAnalysis, analyze_buffers
from .engine import LintContext, default_passes, lint_spec

__all__ = [
    "BufferAnalysis",
    "Diagnostic",
    "LintContext",
    "Severity",
    "analyze_buffers",
    "default_passes",
    "lint_spec",
]
