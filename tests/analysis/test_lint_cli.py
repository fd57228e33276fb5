"""Tests for the ``repro lint`` CLI subcommand: exit codes, JSON schema,
rule filtering and error handling."""

import json

import pytest

from repro.analysis.registry import _REGISTRY, register_spec
from repro.cli import main
from repro.core import ALWAYS, Allocate, Condition, MachineSpec, SlotManager


@pytest.fixture()
def broken_spec_registered():
    """Temporarily register a spec with a guaranteed token-leak error."""

    def build():
        a = SlotManager("A")
        spec = MachineSpec("broken")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "I", ALWAYS, label="retire")
        return spec

    register_spec("broken", build)
    yield "broken"
    del _REGISTRY["broken"]


class TestLintCli:
    def test_clean_models_exit_zero(self, capsys):
        assert main(["lint", "strongarm", "ppc750"]) == 0
        out = capsys.readouterr().out
        assert "strongarm: 0 error(s), 0 warning(s)" in out
        assert "ppc750: 0 error(s), 0 warning(s)" in out

    def test_all_alias_lints_every_registered_spec(self, capsys):
        assert main(["lint", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("pipeline5", "strongarm", "vliw", "multithread",
                     "ppc750", "adl-pipeline5", "adl-strongarm"):
            assert f"{name}:" in out

    def test_error_findings_exit_nonzero(self, broken_spec_registered, capsys):
        assert main(["lint", broken_spec_registered]) == 1
        out = capsys.readouterr().out
        assert "OSM001" in out and "error" in out

    def test_json_output_schema(self, broken_spec_registered, capsys):
        assert main(["lint", "pipeline5", broken_spec_registered, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert set(payload["models"]) == {"pipeline5", "broken"}
        assert payload["models"]["pipeline5"]["ok"] is True
        broken = payload["models"]["broken"]
        assert broken["ok"] is False
        assert broken["counts"]["error"] >= 1
        assert broken["passes"][0] == "OSM001"
        diagnostic = broken["diagnostics"][0]
        assert set(diagnostic) == {
            "code", "rule", "severity", "spec", "state", "edge",
            "message", "suppressed", "source_span",
        }
        assert diagnostic["code"] == "OSM001"
        assert diagnostic["edge"] == "retire@1"

    def test_rules_filter(self, broken_spec_registered, capsys):
        # the leak is an OSM001 finding; filtering to OSM006 hides it
        assert main(["lint", broken_spec_registered, "--rules", "OSM006"]) == 0
        out = capsys.readouterr().out
        assert "(1 passes)" in out

    def test_unknown_rule_code_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="OSM999"):
            main(["lint", "pipeline5", "--rules", "OSM999"])

    def test_unknown_model_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="available"):
            main(["lint", "nonesuch"])
