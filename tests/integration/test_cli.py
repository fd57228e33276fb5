"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def arm_file(tmp_path):
    source = tmp_path / "prog.s"
    source.write_text("""
    .text
_start:
    mov r1, #6
    mul r0, r1, r1
    swi #0
""")
    return str(source)


@pytest.fixture()
def ppc_file(tmp_path):
    source = tmp_path / "prog.s"
    source.write_text("""
    .text
_start:
    li r4, 6
    mullw r3, r4, r4
    li r0, 0
    sc
""")
    return str(source)


class TestRun:
    def test_run_strongarm(self, arm_file, capsys):
        assert main(["run", "--model", "strongarm", arm_file]) == 0
        out = capsys.readouterr().out
        assert "exit=36" in out
        assert "cycles=" in out

    def test_run_iss(self, arm_file, capsys):
        assert main(["run", "--model", "iss", arm_file]) == 0
        assert "exit=36" in capsys.readouterr().out

    def test_run_ppc750_with_trace(self, ppc_file, capsys):
        assert main(["run", "--model", "ppc750", ppc_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "exit=36" in out
        assert "mullw" in out  # trace rows present

    def test_run_json(self, arm_file, capsys):
        assert main(["run", "--model", "strongarm", arm_file]) == 0
        text = capsys.readouterr().out
        assert main(["run", "--model", "strongarm", arm_file, "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert text.startswith(f"exit={row['exit_code']} cycles={row['cycles']} "
                               f"instructions={row['instructions']} "
                               f"IPC={row['ipc']:.3f}\n")
        assert row["exit_code"] == 36
        assert row["probes"] >= row["transitions"] > 0
        assert row["failed_probes_per_commit"] == round(
            (row["probes"] - row["transitions"]) / row["transitions"], 4)
        assert row["parked_skips"] >= 0
        fusion = row["fusion"]
        assert fusion["plan"] == "reused"  # the text run built this structure
        assert fusion["verdict"] == "cache"
        # a bundled model is all package code, kept in the fusion store
        assert (fusion["stored"], fusion["kept_out_by"]) == (True, None)
        assert "W" in fusion["fused_states"]
        assert set(fusion["parked_states"]) <= set(fusion["fused_states"])
        assert row["translation_cache"]["misses"] == 0  # the text run translated it all
        assert row["translation_cache"]["hits"] > 0

    def test_run_iss_json(self, ppc_file, capsys):
        assert main(["run", "--model", "iss", "--isa", "ppc", ppc_file, "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert (row["model"], row["exit_code"], row["instructions"]) == ("iss", 36, 4)
        assert set(row["translation_cache"]) == {"hits", "misses"}
        # the block's code, and its four instructions unless an earlier
        # run of the process decoded them
        assert sum(row["translation_cache"].values()) >= 5
        # the four instructions are one block, entered once
        assert row["decode_cache"] == {"blocks_built": 1, "block_reentries": 0,
                                       "block_invalidations": 0}

    def test_json_excludes_trace(self, arm_file):
        with pytest.raises(SystemExit):
            main(["run", arm_file, "--json", "--trace"])

    def test_isa_mismatch_rejected(self, arm_file):
        with pytest.raises(SystemExit):
            main(["run", "--model", "ppc750", "--isa", "arm", arm_file])


class TestAsm:
    def test_listing(self, arm_file, capsys):
        assert main(["asm", "--isa", "arm", arm_file]) == 0
        out = capsys.readouterr().out
        assert "mov r1, #6" in out
        assert "entry: 0x8000" in out

    def test_ppc_listing(self, ppc_file, capsys):
        assert main(["asm", "--isa", "ppc", ppc_file]) == 0
        assert "mullw" in capsys.readouterr().out


class TestAssemblyErrors:
    """An error in the source ends the command with its ``line N:``
    message, the way Python prints a string ``SystemExit``: no traceback."""

    @pytest.fixture()
    def bad_file(self, tmp_path):
        source = tmp_path / "bad.s"
        source.write_text(".text\n_start:\n    b nowhere\n")
        return str(source)

    @pytest.mark.parametrize("argv", [
        ["run"], ["run", "--model", "iss"], ["run", "--model", "ppc750"], ["asm"]])
    def test_exits_with_the_line(self, bad_file, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [bad_file])
        assert excinfo.value.code.startswith("line 3: undefined symbol 'nowhere'")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_printed_without_traceback(self, bad_file):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "asm", bad_file], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": os.path.abspath(src)}, timeout=120)
        assert done.returncode == 1
        assert done.stderr.startswith("line 3: undefined symbol 'nowhere'")
        assert "Traceback" not in done.stderr


class TestAnalyze:
    def test_analyze_umbrella(self, capsys):
        assert main(["analyze", "pipeline5"]) == 0
        out = capsys.readouterr().out
        assert "analyze: all tools clean" in out

    def test_analyze_json(self, capsys):
        import json

        assert main(["analyze", "pipeline5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "analyze"
        assert payload["ok"] is True
        assert set(payload["models"]["pipeline5"]) == {
            "lint", "check", "effects", "audit", "certify"}
        assert "arm" in payload["isas"]

    def test_certify_cli(self, capsys):
        assert main(["certify", "pipeline5"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


class TestWorkload:
    def test_emits_source(self, capsys):
        assert main(["workload", "gsm_dec", "--isa", "ppc"]) == 0
        assert "_start:" in capsys.readouterr().out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["workload", "doom3"])
