"""The legacy compatibility shims are gone: ``analysis.deadlock`` /
``analysis.reachability`` (:mod:`repro.analysis.lint.graph` is the
single owner of the spec-graph analyses), ``analysis.modelcheck``
(:func:`repro.analysis.check.check_system` replaced it), and the
osmlint-era ``analysis.lint.registry`` / ``analysis.lint.diagnostics``
(:mod:`repro.analysis.registry` and :mod:`repro.analysis.diagnostics`
are the only import paths).

Coverage here pins two things: the old import paths are really removed
(so nothing silently resurrects them), and the graph analyses still
agree with the osmcheck model checker's ground truth on every bundled
spec — the cross-validation the shim tests used to carry.
"""

import importlib

import pytest

from repro.analysis.check import check_model
from repro.analysis.lint.graph import analyze_deadlock, analyze_reachability
from repro.analysis.registry import available_specs, build_spec


class TestShimRemoval:
    def test_deadlock_shim_removed(self):
        with pytest.raises(ImportError):
            import repro.analysis.deadlock  # noqa: F401

    def test_reachability_shim_removed(self):
        with pytest.raises(ImportError):
            import repro.analysis.reachability  # noqa: F401

    @pytest.mark.parametrize("module", [
        "repro.analysis.modelcheck",
        "repro.analysis.lint.registry",
        "repro.analysis.lint.diagnostics",
    ])
    def test_osmlint_era_shims_removed(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_package_no_longer_exposes_shim_modules(self):
        import repro.analysis as analysis

        for name in ("deadlock", "reachability", "modelcheck", "model_check",
                     "ModelCheckReport", "LintReport"):
            assert name not in analysis.__all__
            assert not hasattr(analysis, name)

    @pytest.mark.parametrize("package", ["repro.analysis", "repro.analysis.lint",
                                         "repro.analysis.effects",
                                         "repro.analysis.certify"])
    def test_registry_has_one_import_path(self, package):
        module = importlib.import_module(package)
        for name in ("available_specs", "build_spec", "register_spec"):
            assert not hasattr(module, name), (package, name)

    def test_lint_graph_owns_the_analyses(self):
        import repro.analysis as analysis

        assert analysis.analyze_deadlock is analyze_deadlock
        assert analysis.analyze_reachability is analyze_reachability


@pytest.mark.parametrize("name", available_specs())
def test_graph_analyses_agree_with_osmcheck(name):
    """The static graph analyses and the explicit-state checker must
    tell one story on the bundled specs: every bundled model is
    reachable/live/deadlock-free by both accounts."""
    spec = build_spec(name)
    assert analyze_reachability(spec).clean
    assert analyze_deadlock(spec).deadlock_free
    verdict = check_model(name, n_osms=2)
    assert verdict.ok, verdict.render_text()
