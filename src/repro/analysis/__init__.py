"""Formal analysis and compiler-information extraction (Section 6)."""

from . import asm_export, check, compiler_info, effects, lint
from .asm_export import AsmRule, export_asm, render_asm
from .check import (
    CheckReport,
    Finding,
    Trace,
    check_model,
    check_spec,
    check_system,
    default_properties,
    purify,
)
from .compiler_info import canonical_path, operand_latencies, reservation_table
from .diagnostics import Diagnostic, Report, Severity
from .effects import CompilabilityReport, Footprint, compilability_report, effects_spec
from .lint import lint_spec
from .lint.graph import (
    DeadlockReport,
    ReachabilityReport,
    analyze_deadlock,
    analyze_reachability,
)

__all__ = [
    "AsmRule",
    "CheckReport",
    "CompilabilityReport",
    "DeadlockReport",
    "Diagnostic",
    "Finding",
    "Footprint",
    "ReachabilityReport",
    "Report",
    "Severity",
    "Trace",
    "analyze_deadlock",
    "analyze_reachability",
    "asm_export",
    "canonical_path",
    "check",
    "check_model",
    "check_spec",
    "check_system",
    "compilability_report",
    "compiler_info",
    "default_properties",
    "effects",
    "effects_spec",
    "export_asm",
    "lint",
    "lint_spec",
    "operand_latencies",
    "purify",
    "render_asm",
    "reservation_table",
]
