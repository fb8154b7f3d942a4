"""Kahan's discretization of quadratic vector fields.

The update x -> xt is defined implicitly by (xt - x)/h = Q(x, xt), with Q the
polarized right-hand side; solving the linear system gives the one-step map

    xt = x + h (I - (h/2) f'(x))^{-1} f(x)

and its inverse replaces h by -h around the arrival point.  A truncated
geometric series for the resolvent gives an explicit step of any order, with
the explicit Euler step at order zero.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from math import isfinite, isnan

import numpy as np

from .errors import NotASteadyState, PoleAtTwoOverH, SingularStepMatrix
from .quadvf import QuadraticVectorField, _as_state

STEADY_STATE_TOL = 1e-10  # max-norm of f(x*) accepted at a steady state
SINGULAR_TOL = 1e-12  # smallest LU pivot accepted, relative to the step matrix's max-norm


@lru_cache(maxsize=None)
def _dense_lu_routines():
    """LAPACK dgesv/dgetrs, from scipy's ``_flapack`` extension alone, at the first solve.

    The extension stays out of ``sys.modules`` until ``scipy.linalg`` imports
    it.  Any failure of this direct load falls back to ``scipy.linalg``.
    """
    name = "scipy.linalg._flapack"
    try:
        import scipy

        if (flapack := sys.modules.get(name)) is None:
            spec = PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in scipy.__path__])
            flapack = module_from_spec(spec)
            spec.loader.exec_module(flapack)
            sys.modules.pop(name, None)
        return flapack.dgesv, flapack.dgetrs
    except (ImportError, AttributeError, OSError):  # extension missing or unloadable
        import scipy.linalg as sla

        return tuple(sla.get_lapack_funcs(("gesv", "getrs"), dtype=float))


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """Read-only dense identity of size ``dim``, built once per size."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _solve_step_matrix(M, rhs, tol: float, what: str, h: float) -> np.ndarray:
    """Solve M z = rhs by partial-pivot LU, with a pivot-size singularity check.

    M and rhs are float64.  One gesv call factors and solves; it runs the
    getrf and getrs of the two-call form, so z has the same bits.  Errors are
    reported as "<what> at h=<h>: ..."; the text is only built when a solve
    fails.
    """
    gesv, getrs = _dense_lu_routines()
    lu, piv, z, info = gesv(M, rhs)
    if info < 0:
        raise ValueError(f"{what} at h={h}: illegal argument {-info} to gesv")
    # info > 0 flags an exactly zero pivot, which the check below rejects.  Python
    # floats beat numpy reductions here; a NaN passes, as with np.min and np.max.
    entries, pivots = M.ravel().tolist(), lu.diagonal().tolist()
    if (min(map(abs, pivots)) <= tol * max(map(abs, entries))
            and not any(map(isnan, entries + pivots))):
        raise SingularStepMatrix(f"{what} at h={h}: pivot below {tol} of matrix max-norm")
    if info > 0:  # a zero pivot beside a NaN: gesv left z unsolved, so solve as getrs does
        z, info = getrs(lu, piv, rhs)
        if info != 0:
            raise ValueError(f"{what} at h={h}: illegal argument {-info} to getrs")
    return z


def _check_h(h: float) -> None:
    if not isfinite(h) or h == 0.0:
        raise ValueError("step size h must be finite and nonzero")


def _kahan_solve(vf: QuadraticVectorField, x, step_h: float, h: float,
                 what: str) -> np.ndarray:
    """x + k (I - (k/2) f'(x))^{-1} f(x) with k = ``step_h``, the body of both steps.

    The inverse step is this map with k = -h anchored at the arrival point;
    ``what`` names the step matrix in error messages, which quote ``h``.
    """
    _check_h(h)
    x = _as_state(x, vf.dim)
    f, J = vf._evaluate_and_jacobian(x)
    # a 0-d array takes numpy's array path, cheaper than its Python-scalar one
    M = _identity(vf.dim) - np.array(0.5 * step_h) * J
    return x + np.array(step_h) * _solve_step_matrix(M, f, SINGULAR_TOL, what, h)


def kahan_step(vf: QuadraticVectorField, x, h: float) -> np.ndarray:
    """One step of the Kahan map with step size h."""
    return _kahan_solve(vf, x, h, h, "step matrix")


def kahan_inverse_step(vf: QuadraticVectorField, xt, h: float) -> np.ndarray:
    """Exact inverse of :func:`kahan_step` with step size h, anchored at the arrival point xt."""
    return _kahan_solve(vf, xt, -h, h, "inverse step matrix")


def kahan_step_series(vf: QuadraticVectorField, x, h: float, order: int) -> np.ndarray:
    """Kahan step with the resolvent replaced by sum_{m<=K} ((h/2) f'(x))^m f(x), K = ``order``.

    Convergent when the spectral radius of (h/2) f'(x) is below one; K = 0 is
    the explicit Euler step.
    """
    _check_h(h)
    if order < 0:
        raise ValueError("series_order must be nonnegative")
    x = _as_state(x, vf.dim)
    f, J = vf._evaluate_and_jacobian(x)
    acc = term = f
    half_h = 0.5 * h
    for _ in range(order):
        term = half_h * (J @ term)
        acc = acc + term
    return x + h * acc


def rk_equivalence_residual(vf: QuadraticVectorField, x, xt, h: float) -> np.ndarray:
    """(xt - x)/h + f(x)/2 - 2 f((x + xt)/2) + f(xt)/2.

    Vanishes exactly on Kahan pairs of a quadratic field, exposing the map as
    a Runge-Kutta method restricted to this class.
    """
    x = _as_state(x, vf.dim)
    xt = _as_state(xt, vf.dim)
    stage = -0.5 * vf.evaluate(x) + 2.0 * vf.evaluate(0.5 * (x + xt)) - 0.5 * vf.evaluate(xt)
    return (xt - x) / h - stage


def multiplier_of_eigenvalue(lam: complex, h: float) -> complex:
    """mu = (1 + h*lam/2)/(1 - h*lam/2); the Cayley transform of h*lam."""
    den = 1.0 - 0.5 * h * lam
    if den == 0:
        raise PoleAtTwoOverH(f"h*lambda = {h * lam} hits the pole at 2")
    return (1.0 + 0.5 * h * lam) / den


def steady_state_jacobian(vf: QuadraticVectorField, xstar) -> np.ndarray:
    """f'(x*), once f(x*) is checked to vanish within STEADY_STATE_TOL in max-norm."""
    f, J = vf.evaluate_and_jacobian(xstar)
    defect = np.abs(f).max()
    if defect > STEADY_STATE_TOL:
        raise NotASteadyState(f"|f(x*)| = {defect:.3e} exceeds {STEADY_STATE_TOL}")
    return J


def map_multipliers_at_fixed_point(vf: QuadraticVectorField, xstar, h: float) -> np.ndarray:
    """Eigenvalues of the step Jacobian I + h (I - (h/2) f'(x*))^{-1} f'(x*) at a steady x*."""
    J = steady_state_jacobian(vf, xstar)
    M = _identity(vf.dim) - (0.5 * h) * J
    X = _solve_step_matrix(M, J, SINGULAR_TOL, "fixed-point step matrix", h)
    return np.linalg.eigvals(_identity(vf.dim) + h * X)
