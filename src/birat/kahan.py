"""Kahan's discretization of quadratic vector fields.

The update x -> xt is defined implicitly by (xt - x)/h = Q(x, xt), with Q the
polarized right-hand side; solving the linear system gives the one-step map

    xt = x + h (I - (h/2) f'(x))^{-1} f(x)

and its inverse replaces h by -h around the arrival point.  A truncated
geometric series for the resolvent is available for large sparse systems.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotASteadyState, PoleAtTwoOverH, SingularStepMatrix
from .quadvf import QuadraticVectorField, _as_state

STEADY_STATE_TOL = 1e-10


@dataclass(frozen=True)
class KahanStepConfig:
    """Step size and solver policy for the Kahan map.

    ``series_order`` switches the resolvent solve to a truncated geometric
    series of that order (0 recovers the explicit Euler step).
    ``singular_tol`` is relative to the max-norm of the step matrix.
    """

    h: float
    series_order: int | None = None
    singular_tol: float = 1e-12

    def __post_init__(self):
        if not np.isfinite(self.h) or self.h == 0.0:
            raise ValueError("step size h must be finite and nonzero")
        if self.singular_tol <= 0.0:
            raise ValueError("singular_tol must be positive")
        if self.series_order is not None and self.series_order < 0:
            raise ValueError("series_order must be nonnegative")


@lru_cache(maxsize=None)
def _dense_lu_routines(dtype):
    """LAPACK getrf/getrs for ``dtype``, the routines behind ``sla.lu_factor``
    and ``sla.lu_solve``, looked up once instead of on every step."""
    return sla.get_lapack_funcs(("getrf", "getrs"), dtype=dtype)


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """Read-only dense identity of size ``dim``, built once per size."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _solve_step_matrix(M, rhs, tol: float, what: str, h: float) -> np.ndarray:
    """Solve M z = rhs by partial-pivot LU, with a pivot-size singularity check.

    Errors are reported as "<what> at h=<h>: ..."; the text is only built
    when a solve fails.
    """
    if sp.issparse(M):
        Mc = M.tocsc()
        scale = np.abs(Mc).max() if Mc.nnz else 0.0
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lu = spla.splu(Mc)
                pivots = np.abs(lu.U.diagonal())
        except RuntimeError as exc:
            raise SingularStepMatrix(f"{what} at h={h}: {exc}") from exc
        if pivots.size == 0 or pivots.min() <= tol * scale:
            raise SingularStepMatrix(f"{what} at h={h}: pivot below {tol} of matrix max-norm")
        return lu.solve(rhs)
    getrf, getrs = _dense_lu_routines(np.result_type(M, rhs))
    lu, piv, info = getrf(M)
    if info < 0:
        raise ValueError(f"{what} at h={h}: illegal argument {-info} to getrf")
    # info > 0 flags an exactly zero pivot, which the check below rejects
    scale = np.abs(M).max()
    if np.abs(lu.diagonal()).min() <= tol * scale:
        raise SingularStepMatrix(f"{what} at h={h}: pivot below {tol} of matrix max-norm")
    z, info = getrs(lu, piv, rhs)
    if info != 0:
        raise ValueError(f"{what} at h={h}: illegal argument {-info} to getrs")
    return z


def _kahan_solve(vf: QuadraticVectorField, x, h: float, cfg: KahanStepConfig,
                 what: str) -> np.ndarray:
    """x + h (I - (h/2) f'(x))^{-1} f(x), the body of the forward and inverse steps.

    The inverse step is this map with -h anchored at the arrival point;
    ``what`` names the step matrix in error messages, which quote ``cfg.h``.
    """
    f, J = vf.evaluate_and_jacobian(x)  # checks the state's shape
    x = np.asarray(x, dtype=float)
    if vf.is_sparse:
        M = sp.identity(vf.dim, format="csr") - (0.5 * h) * J
    else:
        M = _identity(vf.dim) - (0.5 * h) * J
    return x + h * _solve_step_matrix(M, f, cfg.singular_tol, what, cfg.h)


def kahan_step(vf: QuadraticVectorField, x, cfg: KahanStepConfig) -> np.ndarray:
    """One step of the Kahan map; uses the series solver when configured."""
    if cfg.series_order is not None:
        return kahan_step_series(vf, x, cfg)
    return _kahan_solve(vf, x, cfg.h, cfg, "step matrix")


def kahan_inverse_step(vf: QuadraticVectorField, xt, cfg: KahanStepConfig) -> np.ndarray:
    """Exact inverse of :func:`kahan_step`, anchored at the arrival point xt."""
    return _kahan_solve(vf, xt, -cfg.h, cfg, "inverse step matrix")


def kahan_step_series(vf: QuadraticVectorField, x, cfg: KahanStepConfig) -> np.ndarray:
    """Kahan step with the resolvent replaced by sum_{m<=K} ((h/2) f'(x))^m f(x).

    Convergent when the spectral radius of (h/2) f'(x) is below one; K = 0 is
    the explicit Euler step.
    """
    if cfg.series_order is None:
        raise ValueError("series_order must be set for the series step")
    x = _as_state(x, vf.dim)
    f = vf.evaluate(x)
    acc = f.copy()
    if cfg.series_order > 0:
        J = vf.jacobian(x)
        half_h = 0.5 * cfg.h
        term = f
        for _ in range(cfg.series_order):
            term = half_h * (J @ term)
            acc = acc + term
    return x + cfg.h * acc


def iterate(vf: QuadraticVectorField, x0, cfg: KahanStepConfig, steps: int) -> np.ndarray:
    """Trajectory array of shape (steps + 1, dim) starting at x0."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x = _as_state(x0, vf.dim)
    out = np.empty((steps + 1, vf.dim))
    out[0] = x
    for k in range(steps):
        x = kahan_step(vf, x, cfg)
        out[k + 1] = x
    return out


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


def map_multipliers_at_fixed_point(
    vf: QuadraticVectorField, xstar, h: float, steady_tol: float = STEADY_STATE_TOL,
    singular_tol: float = 1e-12,
) -> np.ndarray:
    """Eigenvalues of the step Jacobian I + h (I - (h/2) f'(x*))^{-1} f'(x*).

    Requires f(x*) to vanish within ``steady_tol`` in max-norm.
    """
    xstar = _as_state(xstar, vf.dim)
    f = vf.evaluate(xstar)
    defect = np.abs(f).max()
    if defect > steady_tol:
        raise NotASteadyState(f"|f(x*)| = {defect:.3e} exceeds {steady_tol}")
    J = vf.jacobian(xstar)
    if sp.issparse(J):
        J = J.toarray()
    M = np.eye(vf.dim) - (0.5 * h) * J
    X = _solve_step_matrix(M, J, singular_tol, "fixed-point step matrix", h)
    return np.linalg.eigvals(np.eye(vf.dim) + h * X)
