"""The table-generated analysis subcommands (:data:`repro.cli.ANALYSIS_TOOLS`).

Pins what every front end's CLI shares: the exact flag set of each
subcommand and of the ``analyze`` umbrella, the ``--codes`` alias where
it exists, and the shared rule-filter parsing — a filter that names no
rule code is a usage error instead of a run with zero passes.
"""

import json

import pytest

from repro.cli import ANALYSIS_TOOLS, build_parser, main

#: every option string of each analysis subcommand (besides -h/--help)
FLAGS = {
    "analyze": {"--json", "--show-suppressed"},
    "lint": {"--json", "--rules", "--show-suppressed"},
    "check": {"--json", "--properties", "--n-osms", "--naive", "--max-states"},
    "effects": {"--json", "--rules", "--show-suppressed"},
    "audit": {"--json", "--rules", "--codes", "--show-suppressed"},
    "certify": {"--json", "--rules", "--codes", "--show-suppressed"},
    "adlcheck": {"--json", "--rules", "--codes", "--no-closure",
                 "--show-suppressed"},
}

#: a registered subject per subject kind
SUBJECT = {"spec": "pipeline5", "isa": "arm", "adl": "adl-pipeline5"}


def _subcommands():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a.choices, dict)]
    return action.choices


class TestParser:
    def test_every_tool_has_a_subcommand(self):
        names = {tool.name for tool in ANALYSIS_TOOLS}
        assert names | {"analyze"} == set(FLAGS)
        assert set(FLAGS) <= set(_subcommands())

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_match_the_documented_set(self, command):
        parser = _subcommands()[command]
        flags = {flag for action in parser._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[command]

    @pytest.mark.parametrize("command", ["audit", "certify", "adlcheck"])
    def test_codes_is_an_alias_of_rules(self, command):
        parser = build_parser()
        via_codes = parser.parse_args([command, "all", "--codes", "X"])
        via_rules = parser.parse_args([command, "all", "--rules", "X"])
        assert via_codes.rules == via_rules.rules == "X"


class TestCodesAlias:
    @pytest.mark.parametrize("command,subject,code", [
        ("audit", "arm", "ISA003"),
        ("certify", "pipeline5", "TRV008"),
        ("adlcheck", "adl-pipeline5", "ADL002"),
    ])
    def test_codes_filters_like_rules(self, command, subject, code, capsys):
        assert main([command, subject, "--codes", code, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (report,) = next(value for key, value in payload.items()
                         if isinstance(value, dict)).values()
        assert report["passes"] == [code]


def _filtered_tools():
    return [
        pytest.param(tool, flag, id=f"{tool.name}{flag}")
        for tool in ANALYSIS_TOOLS for flag in tool.filter_flags
    ]


class TestEmptyRuleFilter:
    @pytest.mark.parametrize("text", ["", " ", ",", " , "])
    @pytest.mark.parametrize("tool,flag", _filtered_tools())
    def test_filter_naming_no_code_is_a_usage_error(self, tool, flag, text):
        subject = SUBJECT[tool.kinds[-1]]
        with pytest.raises(SystemExit, match="names no rule code"):
            main([tool.name, subject, flag, text])
