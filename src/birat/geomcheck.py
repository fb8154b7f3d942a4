"""Diagnostics along orbits: conserved quantities, round trips, order, verdicts.

The trajectory driver :func:`orbit` lives in :mod:`birat.driver`, which loads
no numpy; it is re-exported here, beside its array form :func:`iterate_map`.

Everything here consumes the state array (n, dim) that :func:`iterate_map`
returns, plus callables and, where time matters, the step h between samples,
so the checks apply uniformly to the Kahan map, the Lotka-Volterra family and
the Schnakenberg map.  Thresholds follow the package-wide conventions
(relative drift for linear integrals, least-squares slopes for secular
trends); the callers' own tolerances are arguments, and the verdict
thresholds are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import orbit
from .kahan import multiplier_of_eigenvalue, steady_state_jacobian

PERIODIC_LIKE = "PERIODIC_LIKE"
DECAYING = "DECAYING"
DIVERGING = "DIVERGING"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class OrbitVerdict:
    kind: str
    amplitude_ratio: float
    secular_slope: float


def iterate_map(step, x0, steps: int) -> np.ndarray:
    """Array form of :func:`orbit`: states (steps + 1, dim), written straight
    into the result."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return np.fromiter(orbit(step, x0, steps), dtype=(float, np.size(x0)), count=steps + 1)


def _trend(values, h: float) -> float:
    """Least-squares slope of values against the sample times 0.0 + h * arange(n)."""
    if len(values) < 2:
        return 0.0
    return float(np.polyfit(0.0 + h * np.arange(len(values)), values, 1)[0])


def conservation_drift(states, w) -> float:
    """max_k |w . x_k - w . x_0| / (1 + |w . x_0|) over the states (n, dim)."""
    w = np.asarray(w, dtype=float)
    vals = states @ w
    return float(np.abs(vals - vals[0]).max() / (1.0 + abs(vals[0])))


def energy_profile(states, h: float, energy) -> tuple[float, float]:
    """(oscillation, secular_slope) of a scalar functional along the orbit.

    Oscillation is max - min; the slope is the least-squares linear trend in
    time, the standard witness separating bounded oscillation from drift.
    """
    vals = np.array([energy(state) for state in states], dtype=float)
    return float(vals.max() - vals.min()), _trend(vals, h)


def roundtrip_error(forward, inverse, points) -> float:
    """max-norm of inverse(forward(p)) - p over the sample points."""
    worst = 0.0
    for pt in points:
        pt = np.atleast_1d(np.asarray(pt, dtype=float))
        back = np.atleast_1d(np.asarray(inverse(forward(pt)), dtype=float))
        worst = max(worst, float(np.abs(back - pt).max()))
    return worst


def convergence_order(step_family, x0, T: float, h_list) -> float:
    """Least-squares slope of log(error at time T) against log h.

    ``step_family(state, h)`` advances one step of size h.  The reference is
    the same family at h_ref = min(h)/64, so the estimate needs no
    exact solution.  Step sizes that end at the same time share one reference
    run, so ``step_family`` must be a pure function of its arguments.  Only
    the end states matter, so the runs are plain loops: through
    :func:`iterate_map` they give the same bits 1.5-2 us per step slower.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    if len(hs) < 2:
        raise ValueError("need at least two step sizes")
    h_ref_base = hs[-1] / 64
    references = {}  # (t_end, m) -> reference state at t_end
    errors = []
    for h in hs:
        n = int(math.floor(T / h + 1e-9))
        if n < 1:
            raise ValueError(f"T = {T} shorter than one step of h = {h}")
        t_end = n * h
        xh = x0
        for _ in range(n):
            xh = step_family(xh, h)
        m = max(1, int(round(t_end / h_ref_base)))
        xr = references.get((t_end, m))
        if xr is None:
            h_ref = t_end / m
            xr = x0
            for _ in range(m):
                xr = step_family(xr, h_ref)
            references[(t_end, m)] = xr
        err = float(np.abs(xh - xr).max())
        if err == 0.0:
            raise ValueError(f"zero error at h = {h}; slope undefined")
        errors.append(err)
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def multiplier_agreement(map_jacobian, vf, xstar, h: float) -> float:
    """Worst distance between map eigenvalues and (1 + h l/2)/(1 - h l/2).

    ``map_jacobian`` is the Jacobian of the one-step map at the steady state
    xstar of the field vf; eigenvalues are paired greedily by distance.
    """
    J = steady_state_jacobian(vf, xstar)
    predicted = [multiplier_of_eigenvalue(lam, h) for lam in np.linalg.eigvals(J)]
    observed = list(np.linalg.eigvals(np.asarray(map_jacobian, dtype=float)))
    worst = 0.0
    remaining = list(predicted)
    for mu in observed:
        dists = [abs(mu - q) for q in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        remaining.pop(j)
    return float(worst)


def orbit_verdict(states, h: float, monitor=None) -> OrbitVerdict:
    """Coarse orbit classification of the first state component.

    amplitude_ratio compares (max - min) over the last and the first quarter
    of the samples; a constant trajectory has ratio 1 by convention.  The
    secular slope is the least-squares trend in time of ``monitor`` (a
    per-state functional, default: the first component itself).
    PERIODIC_LIKE demands the ratio in [0.9, 1.1] and |slope| <= 1e-4;
    DECAYING demands the ratio below 0.5 with the amplitudes of the four
    quarters shrinking toward a constant; DIVERGING is declared on a value
    beyond 1e8 in magnitude, non-finite values or a ratio above 2.
    Everything else is INCONCLUSIVE.
    """
    series = states[:, 0]
    finite = bool(np.isfinite(series).all())
    if finite:
        n = len(series)
        early, late = series[:math.ceil(n / 4)], series[3 * n // 4:]
        amp_early = float(early.max() - early.min())
        amp_late = float(late.max() - late.min())
        if amp_early == 0.0:
            ratio = 1.0 if amp_late == 0.0 else math.inf
        else:
            ratio = amp_late / amp_early
        mon_vals = series if monitor is None else [monitor(s) for s in states]
        slope = _trend(np.asarray(mon_vals, dtype=float), h)
    else:
        ratio, slope = math.inf, math.nan

    if not finite or np.abs(series[np.isfinite(series)]).max(initial=0.0) > 1e8 or ratio > 2.0:
        return OrbitVerdict(kind=DIVERGING, amplitude_ratio=ratio, secular_slope=slope)
    if 0.9 <= ratio <= 1.1 and abs(slope) <= 1e-4:
        return OrbitVerdict(kind=PERIODIC_LIKE, amplitude_ratio=ratio, secular_slope=slope)
    if ratio < 0.5:
        quarters = np.array_split(series, 4)
        amps = [float(q.max() - q.min()) for q in quarters]
        shrinking = all(amps[k + 1] <= 1.05 * amps[k] + 1e-300 for k in range(3))
        if shrinking:
            return OrbitVerdict(kind=DECAYING, amplitude_ratio=ratio, secular_slope=slope)
    return OrbitVerdict(kind=INCONCLUSIVE, amplitude_ratio=ratio, secular_slope=slope)


def transversal_crossings(states, component: int, level: float) -> list[np.ndarray]:
    """Linearly interpolated states where a component crosses a level upward.

    Each returned state lies on the section to interpolation accuracy.
    """
    series = states[:, component]
    crossings = []
    for k in range(len(series) - 1):
        lo, hi = series[k], series[k + 1]
        if not (lo < level <= hi):
            continue
        frac = (level - lo) / (hi - lo)
        crossings.append(states[k] + frac * (states[k + 1] - states[k]))
    return crossings
