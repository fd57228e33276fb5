"""Tests for the ``repro effects`` CLI subcommand: exit codes, JSON
schema (report + compilability), rule filtering and error handling."""

import json

import pytest

from repro.analysis.registry import _REGISTRY, register_spec
from repro.analysis.diagnostics import SCHEMA_VERSION
from repro.cli import main
from repro.core import Allocate, Condition, Guard, MachineSpec, Release, SlotManager


@pytest.fixture()
def impure_spec_registered():
    """Temporarily register a spec with a guaranteed EFF001 error."""

    def build():
        stage = SlotManager("S")

        def sneaky(osm):
            osm.operation = None
            return True

        spec = MachineSpec("impure")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Guard(sneaky, "sneaky"), Allocate(stage)]),
                  label="grab")
        spec.edge("P", "I", Condition([Release("S")]), label="retire")
        return spec

    register_spec("impure", build)
    yield "impure"
    del _REGISTRY["impure"]


class TestEffectsCli:
    def test_clean_models_exit_zero(self, capsys):
        assert main(["effects", "strongarm", "pipeline5"]) == 0
        out = capsys.readouterr().out
        assert "strongarm: 0 error(s), 0 warning(s)" in out
        assert "strongarm: compilability: fully compilable" in out

    def test_all_alias_covers_every_registered_spec(self, capsys):
        assert main(["effects", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("pipeline5", "strongarm", "vliw", "multithread",
                     "ppc750", "adl-pipeline5", "adl-strongarm"):
            assert f"{name}: compilability:" in out

    def test_error_findings_exit_nonzero(self, impure_spec_registered, capsys):
        assert main(["effects", impure_spec_registered]) == 1
        out = capsys.readouterr().out
        assert "EFF001" in out and "error" in out
        assert "1/2 states fusable" in out

    def test_json_output_schema(self, impure_spec_registered, capsys):
        assert main(["effects", "pipeline5", impure_spec_registered,
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "effects"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["ok"] is False
        assert set(payload["models"]) == {"pipeline5", "impure"}
        assert payload["models"]["pipeline5"]["ok"] is True

        impure = payload["models"]["impure"]
        assert impure["ok"] is False
        assert impure["counts"]["error"] >= 1
        diagnostic = impure["diagnostics"][0]
        assert set(diagnostic) == {
            "code", "rule", "severity", "spec", "state", "edge",
            "message", "suppressed", "source_span",
        }
        assert diagnostic["code"] == "EFF001"
        assert diagnostic["edge"] == "grab@0"

        comp = impure["compilability"]
        assert comp["fully_compilable"] is False
        assert comp["states"]["I"]["fusable"] is False
        assert "EFF001" in comp["states"]["I"]["blockers"]

        clean_comp = payload["models"]["pipeline5"]["compilability"]
        assert clean_comp["fully_compilable"] is True

    def test_rules_filter(self, impure_spec_registered, capsys):
        # the impurity is EFF001; filtering to EFF007 hides it
        assert main(["effects", impure_spec_registered,
                     "--rules", "EFF007"]) == 0
        out = capsys.readouterr().out
        assert "(1 passes)" in out

    def test_unknown_rule_code_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="EFF999"):
            main(["effects", "pipeline5", "--rules", "EFF999"])

    def test_unknown_model_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="available"):
            main(["effects", "nonesuch"])

    def test_show_suppressed_reveals_audited_findings(self, capsys):
        # ppc750 carries audited suppressions on its fetch edge
        assert main(["effects", "ppc750", "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "[suppressed]" in out
