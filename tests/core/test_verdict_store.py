"""The fusion store: one entry per spec structure (``repro.core.fuse``).

A model build reads the effectcheck and TRV001 verdicts from its
structure's entry and runs neither analysis on a hit.  These tests pin
what makes that sound: a hit in a fresh process changes nothing but
where the verdict came from; any edit to the sources a verdict depends
on misses; a spec with code outside the package is never stored; and a
corrupt entry, an unwritable cache directory or a changed stepper text
runs the full gate.  Each runs against its own ``XDG_CACHE_HOME``, and
in subprocesses or under a fresh plan table where the process's build
plans would mask the result.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import repro
from repro.contentstore import GENERATOR_MODULES, generator_fingerprint
from repro.core import Guard, fuse
from repro.core.fuse import _Walk, enable_fusion
from repro.isa.arm import assemble
from repro.memory import Cache
from repro.models.strongarm import StrongArmModel

from ..conftest import keyed_toy

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: builds the named models (and, with ``--local DIR``, the spec of
#: ``DIR/localspec.py``) and prints one JSON line describing each build
BUILD = r"""
import json, sys

def report(spec):
    return {
        "verdict": spec.fuse_certificate["verdict"],
        "certificate": {k: v for k, v in spec.fuse_certificate.items()
                        if k != "verdict"},
        "census": spec.compile_stats.to_dict(),
        "steppers": {name: state._fused.__fused_source__
                     for name, state in spec.states.items()
                     if state._fused is not None},
    }

out = {}
args = sys.argv[1:]
if "--local" in args:
    where = args.pop(args.index("--local") + 1)
    args.remove("--local")
    sys.path.insert(0, where)
    from repro.core.fuse import enable_fusion
    import localspec
    spec = localspec.build()
    enable_fusion(spec)
    out["local"] = report(spec)
for name in args:
    if name == "ppc750":
        from repro.isa.ppc import assemble
        from repro.models.ppc750 import Ppc750Model as Model
        source = ".text\n_start:\n li r0, 0\n li r3, 0\n sc\n"
    else:
        from repro.isa.arm import assemble
        from repro.models.strongarm import StrongArmModel as Model
        source = ".text\n_start:\n mov r0, #0\n swi #0\n"
    out[name] = report(Model(assemble(source)).spec)
import repro
from repro.contentstore import generator_fingerprint
out["fingerprint"] = generator_fingerprint()
out["repro"] = repro.__file__
out["analysis_modules"] = sorted(m for m in sys.modules
                                 if m.startswith("repro.analysis"))
print(json.dumps(out))
"""


def _build(cache_home, *args, src=SRC):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", BUILD, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _entries(cache_home):
    root = os.path.join(str(cache_home), "repro", "fusion")
    return sorted(os.path.join(d, f) for d, _, names in os.walk(root)
                  for f in names if f.endswith(".json"))


def _same_build(a, b):
    assert a["steppers"] == b["steppers"]  # byte-identical stepper text
    assert a["census"] == b["census"]
    assert a["certificate"] == b["certificate"]


# -- the hit path ---------------------------------------------------------------

def test_warm_build_in_a_fresh_process_skips_the_analyses(tmp_path):
    cold = _build(tmp_path, "ppc750", "strongarm")
    warm = _build(tmp_path, "ppc750", "strongarm")
    assert cold["analysis_modules"], "a cold build runs the gate"
    assert warm["analysis_modules"] == []
    for model in ("ppc750", "strongarm"):
        assert cold[model]["verdict"] == "gate"
        assert warm[model]["verdict"] == "cache"
        _same_build(cold[model], warm[model])
        assert warm[model]["certificate"]["generator"] == warm["fingerprint"]
    assert warm["fingerprint"] == generator_fingerprint()


def test_in_process_rebuild_reuses_the_plan():
    spec = keyed_toy(7, "m")
    enable_fusion(spec)
    again = keyed_toy(7, "m")
    enable_fusion(again)
    assert again.fuse_certificate["plan"] == "reused"
    assert again.fuse_certificate["verdict"] == "cache"
    assert again.compile_stats.to_dict() == spec.compile_stats.to_dict()


def test_one_entry_per_structure_written_once(tmp_path):
    """A cold build writes its structure's one entry; a warm build in a
    fresh process writes nothing and imports no analysis."""
    cold = _build(tmp_path, "strongarm")
    assert cold["strongarm"]["verdict"] == "gate"
    entries = _entries(tmp_path)
    assert len(entries) == 1

    def files():
        return {path: (os.stat(path).st_ino, os.stat(path).st_mtime_ns)
                for d, _, names in os.walk(tmp_path)
                for path in (os.path.join(d, f) for f in names)}

    before = files()
    warm = _build(tmp_path, "strongarm")
    assert warm["strongarm"]["verdict"] == "cache"
    assert warm["analysis_modules"] == []
    assert files() == before
    _same_build(cold["strongarm"], warm["strongarm"])


# -- every edit a verdict depends on misses -------------------------------------

#: a test-local spec whose guard calls a helper in a second module
LOCAL_SPEC = '''
from repro.core import Allocate, Condition, Guard, MachineSpec, Release, SlotManager

import helpers


def lane(osm):
    return helpers.ready(osm)


def build():
    spec = MachineSpec("local")
    spec.state("I", initial=True)
    spec.state("P")
    spec.edge("I", "P", Condition([Guard(lane, "lane"), Allocate(SlotManager("S"))]),
              label="enter")
    spec.edge("P", "I", Condition([Release("S")]), label="leave")
    return spec
'''

HELPERS = '''
def ready(osm):
    return osm.tag == 0
'''


def _local_spec(where):
    where.mkdir()
    (where / "localspec.py").write_text(LOCAL_SPEC)
    (where / "helpers.py").write_text(HELPERS)
    return where


#: package edits, each of which must miss: (relative path, old text,
#: new text), appending the new text when old is None
PACKAGE_EDITS = {
    "model action": ("models/pipeline5/model.py", "self.retired += 1",
                     "self.retired = self.retired + 1"),
    "core manager": ("core/manager.py", None, "\n# edited\n"),
    "generator": ("core/fuse.py", None, "\n# edited\n"),
    "effect analysis": ("analysis/effects/footprint.py", None, "\n# edited\n"),
}


def test_each_source_edit_misses(tmp_path):
    """Run in a copy of the package: editing a model file, the manager
    module, the generator or an effect-analysis module each misses, and
    undoing the edit hits again.  A test-local spec is never stored, so
    it runs the gate in every process."""
    src = tmp_path / "src"
    shutil.copytree(os.path.join(SRC, "repro"), src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    local = _local_spec(tmp_path / "local")
    cache = tmp_path / "cache"
    args = ("strongarm", "--local", local)

    first = _build(cache, *args, src=str(src))
    assert first["repro"].startswith(str(src))
    assert (first["strongarm"]["verdict"], first["local"]["verdict"]) == ("gate", "gate")
    assert len(_entries(cache)) == 1  # strongarm's one entry, nothing local
    warm = _build(cache, *args, src=str(src))
    assert (warm["strongarm"]["verdict"], warm["local"]["verdict"]) == ("cache", "gate")

    for what, (rel, old, new) in PACKAGE_EDITS.items():
        path = src / "repro" / rel
        original = path.read_text()
        if old is None:
            path.write_text(original + new)
        else:
            assert old in original, what
            path.write_text(original.replace(old, new, 1))
        edited = _build(cache, *args, src=str(src))
        assert edited["strongarm"]["verdict"] == "gate", what
        # same steppers and census (a generator edit changes the
        # certificate's fingerprint, so that is not compared)
        for field in ("steppers", "census"):
            assert edited["strongarm"][field] == first["strongarm"][field], what
        path.write_text(original)

    assert _build(cache, *args, src=str(src))["strongarm"]["verdict"] == "cache"


def test_helper_module_edit_reaches_the_gate(tmp_path):
    """A local spec's guard calls a helper in another module; making the
    helper impure must block fusion in the next process, not reuse the
    verdict of the pure helper."""
    local = _local_spec(tmp_path / "local")
    pure = _build(tmp_path / "cache", "--local", local)["local"]
    assert pure["certificate"]["fused_states"] == ["I", "P"]
    (local / "helpers.py").write_text(HELPERS.replace(
        "    return", "    osm.seen = True\n    return"))
    impure = _build(tmp_path / "cache", "--local", local)["local"]
    assert impure["verdict"] == "gate"
    assert impure["certificate"]["fused_states"] == ["P"]
    assert _entries(tmp_path / "cache") == []


def test_key_covers_operands_the_qualnames_miss():
    """Keyed-guard values, slot names and priorities are part of the
    structure."""
    base, again = _Walk(keyed_toy(0, "a")), _Walk(keyed_toy(0, "a"))
    assert (base.key, base.persistent) == (again.key, again.persistent)
    for variant in (keyed_toy(1, "a"), keyed_toy(0, "b"),
                    keyed_toy(0, "a", priority=3)):
        assert _Walk(variant).lines != _Walk(keyed_toy(0, "a")).lines
        assert _Walk(variant).key != base.key


def _toy_program():
    return assemble(".text\n_start:\n mov r0, #0\n swi #0\n")


def test_only_package_code_is_stored():
    """A bundled model is stored; a test-local spec, an ``exec``-built
    callable or a user subclass handed to a bundled model as a component
    keeps its verdicts in the process, keyed apart from the bundled
    build."""
    plain = _Walk(StrongArmModel(_toy_program()).spec)
    assert plain.persistent is True
    assert _Walk(keyed_toy(0, "a")).persistent is False

    namespace = {}
    exec("def lane(osm):\n    return True\n", namespace)
    spec = keyed_toy(0, "a")
    spec.edges[0].condition.primitives[0] = Guard(namespace["lane"], "exec")
    assert _Walk(spec).persistent is False

    class LocalCache(Cache):
        pass

    dcache = LocalCache("dcache", size=8 * 1024, line_size=32, assoc=32,
                        miss_penalty=26)
    custom = StrongArmModel(_toy_program(), dcache=dcache).spec
    walk = _Walk(custom)
    assert walk.persistent is False
    assert walk.key != plain.key
    assert custom.fuse_certificate["verdict"] == "gate"


def test_certificate_names_what_kept_a_spec_out_of_the_store():
    """The certificate (and so ``repro run --json``) says whether a
    structure is stored and, when not, names the first object outside
    the package its walk met: here a test-local lambda."""
    assert StrongArmModel(_toy_program()).spec.fuse_certificate.items() >= {
        "stored": True, "kept_out_by": None}.items()
    spec = keyed_toy(0, "a")
    spec.edges[0].condition.primitives[0] = Guard(lambda osm: True, "local")
    assert _Walk(spec).outsider is spec.edges[0].condition.primitives[0].predicate
    enable_fusion(spec)
    assert spec.fuse_certificate["stored"] is False
    assert spec.fuse_certificate["kept_out_by"] == (
        f"{__name__}.test_certificate_names_what_kept_a_spec_out_of_the_store"
        ".<locals>.<lambda>")


def test_user_spec_writes_nothing_to_the_store(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    spec = keyed_toy(9, "u")
    enable_fusion(spec)
    assert spec.fuse_certificate["verdict"] == "gate"
    assert _entries(tmp_path) == []


def test_package_fingerprint_skips_what_is_not_a_regular_file(tmp_path):
    """An editor's dangling lock symlink ``.#x.py`` in the package must
    neither fail nor change the fingerprint."""
    def fingerprint(root):
        module = importlib.util.spec_from_file_location(
            f"contentstore_{root.name}", root / "contentstore.py")
        loaded = importlib.util.module_from_spec(module)
        module.loader.exec_module(loaded)
        return loaded.package_fingerprint("repro")

    trees = []
    for name in ("clean", "locked"):
        root = tmp_path / name
        (root / "core").mkdir(parents=True)
        shutil.copy(os.path.join(SRC, "repro", "contentstore.py"), root)
        (root / "__init__.py").write_text("")
        (root / "core" / "x.py").write_text("X = 1\n")
        trees.append(root)
    os.symlink(tmp_path / "gone", trees[1] / "core" / ".#x.py")
    assert fingerprint(trees[0]) == fingerprint(trees[1])


# -- failure modes -------------------------------------------------------------

def test_truncated_entry_runs_the_gate_and_is_rewritten(tmp_path):
    first = _build(tmp_path, "strongarm")
    entries = _entries(tmp_path)
    assert len(entries) == 1  # the structure's one entry
    for path in entries:
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
    again = _build(tmp_path, "strongarm")
    assert again["strongarm"]["verdict"] == "gate"
    assert again["analysis_modules"]
    _same_build(again["strongarm"], first["strongarm"])
    for path in _entries(tmp_path):
        with open(path) as handle:
            json.load(handle)  # rewritten whole
    assert _build(tmp_path, "strongarm")["strongarm"]["verdict"] == "cache"


@pytest.mark.parametrize("kind", ["read-only", "not-a-directory"])
def test_unwritable_cache_dir_runs_the_gate(tmp_path, kind):
    reference = _build(tmp_path / "fresh", "strongarm")["strongarm"]
    home = tmp_path / "home"
    home.mkdir()
    if kind == "read-only":
        (home / "repro" / "fusion").mkdir(parents=True)
        for path in (home / "repro" / "fusion", home / "repro", home):
            path.chmod(0o555)
    else:
        (home / "repro").write_text("in the way")
    try:
        built = _build(home, "strongarm")["strongarm"]
    finally:
        for path in (home / "repro" / "fusion", home / "repro", home):
            if path.exists():
                path.chmod(0o755)
    assert built["verdict"] == "gate"
    _same_build(built, reference)


def _strongarm_builds(monkeypatch, tmp_path, fresh_plans, name, mutate):
    """Build strongarm (a spec of package code, so stored) against the
    store under *tmp_path*, each build under a fresh plan table: with
    ``build(True)`` the generator *name* passes its functions through
    *mutate* first."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    real = getattr(fuse, name)

    def miscompiled(state, spec, *args):
        return mutate(state, real(state, spec, *args))

    def build(broken):
        with fresh_plans(**{name: miscompiled if broken else real}):
            return StrongArmModel(_toy_program()).spec

    return build


def test_stored_demotion_is_reused_only_for_its_stepper_text(monkeypatch, tmp_path,
                                                             fresh_plans):
    """The entry's TRV001 verdict is applied only to the exact text it
    certified: a build that generates other stepper text runs the
    replay and rewrites the entry for its own text."""
    def mutate(state, stepper):
        if state.name == "F":
            stepper.__fused_source__ = stepper.__fused_source__.replace(
                "osm.n_transitions += 1", "pass", 1)
        return stepper

    build = _strongarm_builds(monkeypatch, tmp_path, fresh_plans,
                              "generate_stepper", mutate)
    healthy = build(False)
    assert healthy.fuse_certificate["verdict"] == "gate"
    assert healthy.compile_stats.demoted_states == []
    broken = build(True)
    assert broken.fuse_certificate["verdict"] == "gate"
    assert dict(broken.compile_stats.demoted_states).keys() == {"F"}
    again = build(True)
    assert again.fuse_certificate["verdict"] == "cache"
    assert again.compile_stats.demoted_states == broken.compile_stats.demoted_states
    healthy = build(False)
    assert healthy.fuse_certificate["verdict"] == "gate"
    assert healthy.compile_stats.demoted_states == []
    assert "F" in healthy.fuse_certificate["fused_states"]
    assert len(_entries(tmp_path)) == 1


def test_stored_wake_verdict_is_reused_only_for_its_wake_text(monkeypatch, tmp_path,
                                                              fresh_plans):
    """The TRV001 verdict covers the wake tests too: a build whose wake
    test text differs, with the same stepper text, misses the stored
    verdict and runs the replay."""
    def mutate(state, wake):
        if state.name == "W":
            wake.__fused_source__ = wake.__fused_source__.replace(
                "return True", "return False", 1)
        return wake

    build = _strongarm_builds(monkeypatch, tmp_path, fresh_plans,
                              "generate_wake", mutate)
    healthy = build(False)
    assert healthy.fuse_certificate["parked_states"] == ["W"]
    broken = build(True)
    assert broken.fuse_certificate["verdict"] == "gate"
    assert dict(broken.compile_stats.unparked_states).keys() == {"W"}
    assert broken.fuse_certificate["parked_states"] == []
    assert all(healthy.states[n]._fused.__fused_source__
               == broken.states[n]._fused.__fused_source__ for n in healthy.states)
    again = build(True)
    assert again.fuse_certificate["verdict"] == "cache"
    assert again.compile_stats.unparked_states == broken.compile_stats.unparked_states
    healthy = build(False)
    assert healthy.fuse_certificate["verdict"] == "gate"
    assert healthy.fuse_certificate["parked_states"] == ["W"]
    assert healthy.compile_stats.unparked_states == []


# -- one fingerprint module ------------------------------------------------------

def test_old_fingerprint_module_is_gone():
    with pytest.raises(ImportError):
        import repro.analysis.certify.fingerprint  # noqa: F401


def test_generator_modules_exist_without_importing_them():
    for name in GENERATOR_MODULES:
        rel = name.split(".", 1)[1].replace(".", "/") + ".py"
        assert os.path.exists(os.path.join(SRC, "repro", rel)), name
    assert re.fullmatch(r"[0-9a-f]{64}", generator_fingerprint())
