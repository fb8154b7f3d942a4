"""Birational and symplectic discretizations of quadratic vector fields.

The names below resolve on first use (PEP 562), each from its submodule, so
``import birat`` loads no numpy: numpy loads with the first module that
works on arrays (quadvf, kahan, geomcheck, verify).  Resolved names are not
stored in the package namespace; every lookup reads the submodule.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "BiratError", "ConstraintViolation", "DegenerateLinearTerm", "DenominatorVanishes",
        "DimensionMismatch", "DomainError", "NotASteadyState", "NotBirational",
        "PoleAtTwoOverH", "PoleError", "SingularImplicitSystem", "SingularStepMatrix",
    ),
    "quadvf": ("QuadraticVectorField",),
    "kahan": (
        "kahan_inverse_step", "kahan_step", "kahan_step_series", "map_multipliers_at_fixed_point",
        "multiplier_of_eigenvalue", "rk_equivalence_residual",
    ),
    "ratpoly": ("MultiPoly", "perfect_square_root"),
    "lvfamily": (
        "CASE_VI_SCHEME", "KAHAN_SCHEME", "MICKENS_SCHEME", "ClassificationReport", "LVParams",
        "SymbolicCertificate", "case_iv_blend", "check_sympcon", "classify_birational",
        "classify_params", "classify_symplectic", "invert_params", "lv_hamiltonian",
        "lv_inverse_step", "lv_step", "lv_stepper", "symbolic_certificate",
        "symplectic_residual",
    ),
    "geomcheck": ("OrbitVerdict",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # the submodules that import birat used to load
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
