"""The verification suites behind ``birat verify``.

Each suite is a function of ``(seed, tol)`` that returns its checks, each a
dict with ``name``, ``value``, ``threshold`` and ``passed``.  The suites
share no state, so ``birat verify all`` runs them in worker processes; being
module level, they pickle by reference.  This module loads numpy; the CLI
imports it only for ``verify``.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .geomcheck import (
    conservation_drift,
    convergence_order,
    iterate_map,
    multiplier_agreement,
    roundtrip_error,
)
from .kahan import kahan_inverse_step, kahan_step
from .lvfamily import (
    CASE_LABELS,
    CASE_VI_SCHEME,
    KAHAN_SCHEME,
    MICKENS_SCHEME,
    case_iv_blend,
    lv_stepper,
    random_case_params,
    symplectic_residual,
)
from .models import (
    MODELS,
    enzyme_diml_vf,
    enzyme_reduced_vf,
    lv_vf,
    schnakenberg_inverse_step,
    schnakenberg_step,
)


def _check(name: str, value: float, threshold: float, ok: bool | None = None) -> dict:
    passed = bool(value < threshold) if ok is None else bool(ok)
    return {"name": name, "value": value, "threshold": threshold, "passed": passed}


def _suite_conservation(seed: int, tol: float) -> list[dict]:
    checks = []
    for model, h, steps in (("enzyme3", 1e-3, 20000), ("enzyme4", 1e-2, 5000)):
        spec = MODELS[model]
        vf = spec.field(spec.defaults)
        states = iterate_map(lambda x: kahan_step(vf, x, h),
                             spec.default_x0(spec.defaults), steps)
        for label, w in spec.invariants(spec.defaults).items():
            checks.append(_check(f"{model}-{label}-drift",
                                 conservation_drift(states, np.array(w)), tol))
    return checks


def _sample_points(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.2 + 1.8 * rng.random((n, 2))


def _suite_symplectic(seed: int, tol: float) -> list[dict]:
    pts = _sample_points(seed, 100)
    h = 0.1
    checks = []
    for name, scheme in (("kahan", KAHAN_SCHEME), ("mickens", MICKENS_SCHEME),
                         ("oscillator-third-family", CASE_VI_SCHEME)):
        worst = max(abs(symplectic_residual(scheme, x, y, h)) for x, y in pts)
        checks.append(_check(f"{name}-residual", worst, tol))
    blend = case_iv_blend(Fraction(1))
    worst = max(abs(symplectic_residual(blend, x, y, h)) for x, y in pts)
    checks.append(_check("blend-d1-expected-violation", worst, 1e-4,
                         ok=worst > 1e-4))
    return checks


def _suite_roundtrip(seed: int, tol: float) -> list[dict]:
    rng = random.Random(seed)
    pts = _sample_points(seed, 50) * 0.5 + 0.4
    checks = []
    for label in CASE_LABELS:
        scheme = random_case_params(label, rng)
        # the inverse step is the inverted set run with step -h
        err = roundtrip_error(lv_stepper(scheme, 0.01), lv_stepper(scheme.inverse, -0.01), pts)
        checks.append(_check(f"case-{label}-roundtrip", err, tol))

    vf = enzyme_diml_vf(MODELS["enzyme3"].defaults)
    pts3 = np.random.default_rng(seed).random((50, 3))
    err = roundtrip_error(lambda p: kahan_step(vf, p, 1e-3),
                          lambda p: kahan_inverse_step(vf, p, 1e-3), pts3)
    checks.append(_check("enzyme3-kahan-roundtrip", err, min(tol, 1e-10)))

    sp = MODELS["schnakenberg"].defaults
    err = roundtrip_error(
        lambda p: np.array(schnakenberg_step(sp, p[0], p[1], 0.01)),
        lambda p: np.array(schnakenberg_inverse_step(sp, p[0], p[1], 0.01)),
        _sample_points(seed + 1, 50))
    checks.append(_check("schnakenberg-roundtrip", err, min(tol, 1e-10)))
    return checks


def _suite_convergence(seed: int, tol: float) -> list[dict]:
    vf = lv_vf()
    hs = [0.02, 0.01, 0.005, 0.0025]
    slope2 = convergence_order(lambda x, h: kahan_step(vf, x, h), [2.0, 0.5], 1.0, hs)
    slope1 = convergence_order(lambda x, h: x + h * vf.evaluate(x), [2.0, 0.5], 1.0, hs)
    return [
        _check("kahan-order", slope2, 2.2, ok=1.8 <= slope2 <= 2.2),
        _check("euler-order", slope1, 1.2, ok=0.8 <= slope1 <= 1.2),
    ]


def _fd_map_jacobian(vf, xstar, h: float) -> np.ndarray:
    """Central-difference Jacobian of the Kahan map at xstar, one column per coordinate."""
    eps = 1e-7
    base = np.asarray(xstar, dtype=float)
    cols = []
    for j in range(len(base)):
        plus = base.copy()
        plus[j] += eps
        minus = base.copy()
        minus[j] -= eps
        cols.append((kahan_step(vf, plus, h) - kahan_step(vf, minus, h)) / (2 * eps))
    return np.column_stack(cols)


def _suite_multipliers(seed: int, tol: float) -> list[dict]:
    vf = lv_vf()
    checks = []
    for h in (0.01, 0.1):
        dev = multiplier_agreement(_fd_map_jacobian(vf, [1.0, 1.0], h), vf, [1.0, 1.0], h)
        checks.append(_check(f"lv-multiplier-agreement-h{h:g}", dev, 1e-8))

    rvf = enzyme_reduced_vf(MODELS["enzyme3"].defaults)
    jac_r = _fd_map_jacobian(rvf, [0.0, 0.0], 0.01)
    dev = multiplier_agreement(jac_r, rvf, [0.0, 0.0], 0.01)
    mults = np.linalg.eigvals(jac_r)
    stable = bool(np.all(np.abs(mults) < 1.0))
    checks.append(_check("enzyme-reduced-multiplier-agreement", dev, 1e-8))
    checks.append(_check("enzyme-reduced-origin-stable", float(np.abs(mults).max()),
                         1.0, ok=stable))
    return checks


SUITES = {
    "conservation": _suite_conservation,
    "symplectic": _suite_symplectic,
    "roundtrip": _suite_roundtrip,
    "convergence": _suite_convergence,
    "multipliers": _suite_multipliers,
}

