"""Job model, workload resolution and content-addressed keys."""

import os
import subprocess
import sys

import pytest

import repro
from repro.fleet import (
    Job,
    canonical_json,
    job_key,
    model_fingerprint,
    resolve_workload,
)


def _job(**overrides):
    base = {
        "model": "strongarm",
        "workload": {"kind": "kernel", "name": "stride8"},
        "config": {"perfect_memory": True},
        "seed": 1,
    }
    base.update(overrides)
    return Job.from_dict(base)


class TestJob:
    def test_round_trips_through_dict(self):
        job = _job()
        assert Job.from_dict(job.to_dict()) == job

    def test_isa_follows_model(self):
        assert _job().isa == "arm"
        assert _job(model="ppc750",
                    workload={"kind": "mediabench", "name": "gsm_dec"}).isa == "ppc"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet model"):
            _job(model="cray1")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job field"):
            Job.from_dict({**_job().to_dict(), "nice_level": 10})

    def test_workload_needs_kind(self):
        with pytest.raises(ValueError, match="kind"):
            _job(workload={"name": "stride8"})


class TestResolveWorkload:
    def test_named_workloads_resolve_to_source(self):
        text = resolve_workload({"kind": "kernel", "name": "stride8"}, "arm", 0)
        assert ".text" in text

    def test_mediabench_resolves_per_isa(self):
        spec = {"kind": "mediabench", "name": "gsm_dec"}
        assert resolve_workload(spec, "arm", 0) != resolve_workload(spec, "ppc", 0)

    def test_kernel_is_arm_only(self):
        with pytest.raises(ValueError, match="ARM-only"):
            resolve_workload({"kind": "kernel", "name": "stride8"}, "ppc", 0)

    def test_speclike_is_ppc_only(self):
        with pytest.raises(ValueError, match="PPC-only"):
            resolve_workload({"kind": "speclike", "name": "parser_loop"}, "arm", 0)

    def test_inline_source_passes_through(self):
        assert resolve_workload({"kind": "source", "text": "nop"}, "arm", 0) == "nop"

    def test_generated_threads_the_job_seed(self):
        spec = {"kind": "generated", "mix": {"alu": 4.0, "mem": 2.0}}
        one = resolve_workload(spec, "arm", 1)
        two = resolve_workload(spec, "arm", 2)
        again = resolve_workload(spec, "arm", 1)
        assert one == again
        assert one != two

    def test_generated_job_seed_beats_mix_seed(self):
        spec = {"kind": "generated", "mix": {"alu": 4.0, "seed": 999}}
        assert (resolve_workload(spec, "arm", 1)
                == resolve_workload({"kind": "generated", "mix": {"alu": 4.0}},
                                    "arm", 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            resolve_workload({"kind": "spec2047"}, "arm", 0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown mediabench"):
            resolve_workload({"kind": "mediabench", "name": "quake"}, "arm", 0)


class TestJobKey:
    def test_stable_across_calls(self):
        assert job_key(_job()) == job_key(_job())

    def test_key_is_sha256_hex(self):
        key = job_key(_job())
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    @pytest.mark.parametrize("field, value", [
        ("model", "pipeline5"),
        ("workload", {"kind": "kernel", "name": "stride32"}),
        ("config", {"perfect_memory": False}),
        ("seed", 2),
        ("max_cycles", 99),
    ])
    def test_every_field_is_keyed(self, field, value):
        assert job_key(_job(**{field: value})) != job_key(_job())

    def test_config_key_order_is_canonical(self):
        a = _job(config={"perfect_memory": True, "fq_size": 6},
                 model="ppc750",
                 workload={"kind": "mediabench", "name": "gsm_dec"})
        b = _job(config={"fq_size": 6, "perfect_memory": True},
                 model="ppc750",
                 workload={"kind": "mediabench", "name": "gsm_dec"})
        assert job_key(a) == job_key(b)

    def test_workload_keyed_by_content_not_name(self):
        from repro.workloads import kernels

        named = _job()
        inline = _job(workload={"kind": "source",
                                "text": kernels.arm_source("stride8")})
        assert job_key(named) == job_key(inline)

    def test_explicit_source_matches_resolution(self):
        job = _job()
        source = resolve_workload(job.workload, job.isa, job.seed)
        assert job_key(job, source=source) == job_key(job)

    def test_non_json_config_rejected(self):
        with pytest.raises(TypeError):
            job_key(_job(config={"hook": object()}))


class TestModelFingerprint:
    def test_stable_and_hex(self):
        fp = model_fingerprint("strongarm")
        assert fp == model_fingerprint("strongarm")
        assert len(fp) == 64

    def test_distinct_per_model(self):
        fps = {model_fingerprint(m)
               for m in ("pipeline5", "strongarm", "vliw", "ppc750")}
        assert len(fps) == 4

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            model_fingerprint("alpha21264")

    def test_keying_a_job_imports_no_analysis_module(self):
        """Job keys hash source files found on disk, so ``repro serve``
        never loads the analysis package just to key a job."""
        code = (
            "import sys\n"
            "from repro.fleet.jobs import Job, job_key\n"
            "job_key(Job.from_dict({'model': 'ppc750', 'workload':"
            " {'kind': 'mediabench', 'name': 'gsm_dec'}}))\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestCanonicalJson:
    def test_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_rejects_non_json(self):
        with pytest.raises(TypeError):
            canonical_json({"x": {1, 2}})
