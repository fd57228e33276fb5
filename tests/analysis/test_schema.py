"""Cross-tool JSON schema stability.

Every analysis front end — one row each of :data:`repro.cli.ANALYSIS_TOOLS`
(``repro lint``, ``check``, ``effects``, ``audit``, ``certify``,
``adlcheck``) — emits the shared diagnostics schema of
:mod:`repro.analysis.diagnostics`.  These tests pin the contract
downstream consumers (CI artifact diffing, dashboards) dispatch on: a
``tool`` name, the ``schema_version``, and rule codes of the shape
``ABC123`` under the tool's own prefix.  The tool list and the prefixes
come from the table, so a new front end is covered by adding its row.
"""

import re

import pytest

from repro.analysis.diagnostics import SCHEMA_VERSION
from repro.cli import ANALYSIS_TOOLS, build_parser

RULE_CODE = re.compile(r"^[A-Z]{3}\d{3}$")

#: finding keys shared by every tool (osmcheck findings add "trace")
DIAGNOSTIC_KEYS = {
    "code", "rule", "severity", "spec", "state", "edge", "message",
    "suppressed",
}

#: the subject a tool's report is sampled on, by subject kind
SAMPLE_SUBJECT = {"spec": "pipeline5", "isa": "arm", "adl": "adl-pipeline5"}

TOOLS = {tool.name: tool for tool in ANALYSIS_TOOLS}


def _report(tool):
    """The tool's report on a sample subject of its last subject kind,
    run through the table row with its subcommand's default flags."""
    kind = tool.kinds[-1]
    subject = SAMPLE_SUBJECT[kind]
    args = build_parser().parse_args([tool.name, subject])
    return tool.run(kind, subject, None, args).to_dict()


@pytest.fixture(scope="module")
def payloads():
    return {name: _report(tool) for name, tool in TOOLS.items()}


@pytest.mark.parametrize("tool", sorted(TOOLS))
class TestSchemaStability:
    def test_tool_name_matches(self, payloads, tool):
        assert payloads[tool]["tool"] == tool

    def test_schema_version_is_current(self, payloads, tool):
        payload = payloads[tool]
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_core_envelope_keys(self, payloads, tool):
        payload = payloads[tool]
        assert isinstance(payload["spec"], str)
        assert isinstance(payload["ok"], bool)

    def test_rule_codes_are_well_formed(self, payloads, tool):
        payload = payloads[tool]
        findings = payload.get("diagnostics", payload.get("findings", []))
        rules = payload.get("passes", payload.get("properties", []))
        for code in rules:
            assert RULE_CODE.match(code), code
        for finding in findings:
            assert RULE_CODE.match(finding["code"]), finding["code"]
            assert DIAGNOSTIC_KEYS <= set(finding)
            assert finding["severity"] in {"error", "warning", "info"}


class TestRulePrefixes:
    """Each tool owns one rule-code prefix; overlap would make the
    merged CI artifact ambiguous."""

    def test_prefixes_are_disjoint(self, payloads):
        prefixes = {}
        for tool in ANALYSIS_TOOLS:
            payload = payloads[tool.name]
            codes = set(payload.get("passes", payload.get("properties", [])))
            codes.update(code for kind in tool.kinds for code in tool.rule_codes(kind))
            for code in codes:
                prefixes.setdefault(code[:3], set()).add(tool.name)
        for prefix, owners in prefixes.items():
            assert len(owners) == 1, (prefix, owners)
        assert len({tool.prefix for tool in ANALYSIS_TOOLS}) == len(ANALYSIS_TOOLS)

    def test_expected_prefix_per_tool(self, payloads):
        for tool in ANALYSIS_TOOLS:
            payload = payloads[tool.name]
            rules = payload.get("passes", payload.get("properties", []))
            assert rules, tool.name
            assert all(code.startswith(tool.prefix) for code in rules), tool.name
            for kind in tool.kinds:
                codes = tool.rule_codes(kind)
                assert codes and all(RULE_CODE.match(code) for code in codes)
                assert all(code.startswith(tool.prefix) for code in codes), tool.name
