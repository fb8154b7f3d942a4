"""The package namespace: lazily resolved exports (PEP 562)."""
import importlib

import pytest

import birat

# every name `import birat` bound before its exports became lazy, by submodule
EXPORTED = {
    "errors": ["BiratError", "ConstraintViolation", "DegenerateLinearTerm",
               "DenominatorVanishes", "DimensionMismatch", "DomainError", "NotASteadyState",
               "NotBirational", "PoleAtTwoOverH", "PoleError", "SingularImplicitSystem",
               "SingularStepMatrix"],
    "quadvf": ["QuadraticVectorField"],
    "kahan": ["KahanStepConfig", "kahan_inverse_step", "kahan_step", "kahan_step_series",
              "map_multipliers_at_fixed_point", "multiplier_of_eigenvalue",
              "rk_equivalence_residual"],
    "ratpoly": ["MultiPoly", "perfect_square_root"],
    "lvfamily": ["CASE_VI_SCHEME", "KAHAN_SCHEME", "MICKENS_SCHEME", "ClassificationReport",
                 "LVParams", "SymbolicCertificate", "case_iv_blend", "check_sympcon",
                 "classify_birational", "classify_params", "classify_symplectic",
                 "invert_params", "lv_hamiltonian", "lv_inverse_step", "lv_step",
                 "symbolic_certificate", "symplectic_residual"],
    "geomcheck": ["OrbitVerdict", "Trajectory"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_export_resolves_from_its_submodule(module, name):
    namespace = {}
    exec(f"from birat import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"birat.{module}"), name)
    assert name in dir(birat)


@pytest.mark.parametrize("module", list(EXPORTED))
def test_submodules_stay_reachable_as_attributes(module):
    assert getattr(birat, module) is importlib.import_module(f"birat.{module}")
    assert module in dir(birat)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from birat import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)


def test_resolved_names_are_not_cached(monkeypatch):
    # a tracer that patches the defining module must see every later lookup
    # through the package, and its restore must leave no wrapper behind
    import birat.lvfamily as lvf

    original = lvf.lv_step
    assert birat.lv_step is original
    assert "lv_step" not in vars(birat)
    monkeypatch.setattr(lvf, "lv_step", lambda *args: None)
    assert birat.lv_step is lvf.lv_step
    monkeypatch.undo()
    assert birat.lv_step is original


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        birat.no_such_name  # noqa: B018
    assert not hasattr(birat, "cli_main")

