"""Trajectory diagnostics: conserved quantities, round trips, order, orbits.

Everything here consumes plain arrays plus callables, so the checks apply
uniformly to the Kahan map, the Lotka-Volterra family and the Schnakenberg
map.  Thresholds follow the package-wide conventions (relative drift for
linear integrals, least-squares slopes for secular trends) and are exposed
as arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PERIODIC_LIKE = "PERIODIC_LIKE"
DECAYING = "DECAYING"
DIVERGING = "DIVERGING"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled orbit: times (n,), states (n, dim)."""

    times: np.ndarray
    states: np.ndarray
    step_size: float
    map_id: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or states.ndim != 2 or len(times) != len(states):
            raise ValueError("times must be (n,), states (n, dim)")
        if len(times) > 1:
            gaps = np.diff(times)
            scale = max(abs(self.step_size), 1e-300)
            if np.abs(gaps - self.step_size).max() > 1e-9 * scale:
                raise ValueError("time stamps are not uniform at step_size")

    @classmethod
    def from_states(cls, states, step_size: float, map_id: str = "", t0: float = 0.0):
        states = np.asarray(states, dtype=float)
        times = t0 + step_size * np.arange(len(states))
        return cls(times=times, states=states, step_size=step_size, map_id=map_id)

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class OrbitVerdict:
    kind: str
    amplitude_ratio: float
    secular_slope: float


def iterate_map(step, x0, steps: int) -> np.ndarray:
    """Generic driver: states (steps + 1, dim) for step: state -> state."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for k in range(steps):
        x = np.atleast_1d(np.asarray(step(x), dtype=float))
        out[k + 1] = x
    return out


def conservation_drift(traj: Trajectory, w) -> float:
    """max_k |w . x_k - w . x_0| / (1 + |w . x_0|); time stamps play no role."""
    w = np.asarray(w, dtype=float)
    vals = traj.states @ w
    return float(np.abs(vals - vals[0]).max() / (1.0 + abs(vals[0])))


def energy_profile(traj: Trajectory, energy) -> tuple[float, float]:
    """(oscillation, secular_slope) of a scalar functional along the orbit.

    Oscillation is max - min; the slope is the least-squares linear trend in
    time, the standard witness separating bounded oscillation from drift.
    """
    vals = np.array([energy(state) for state in traj.states], dtype=float)
    oscillation = float(vals.max() - vals.min())
    slope = float(np.polyfit(traj.times, vals, 1)[0]) if len(vals) > 1 else 0.0
    return oscillation, slope


def roundtrip_error(forward, inverse, points) -> float:
    """max-norm of inverse(forward(p)) - p over the sample points."""
    worst = 0.0
    for pt in points:
        pt = np.atleast_1d(np.asarray(pt, dtype=float))
        try:
            back = np.atleast_1d(np.asarray(inverse(forward(pt)), dtype=float))
        except Exception as exc:
            raise RuntimeError(f"map failed during round trip at {pt.tolist()}: {exc}") from exc
        worst = max(worst, float(np.abs(back - pt).max()))
    return worst


def convergence_order(step_family, x0, T: float, h_list, ref_refine: int = 64) -> float:
    """Least-squares slope of log(error at time T) against log h.

    ``step_family(state, h)`` advances one step of size h.  The reference is
    the same family at h_ref = min(h)/ref_refine, so the estimate needs no
    exact solution.  Step sizes that end at the same time share one reference
    run, so ``step_family`` must be a pure function of its arguments.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    if len(hs) < 2:
        raise ValueError("need at least two step sizes")
    h_ref_base = hs[-1] / ref_refine
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


def multiplier_agreement(map_jacobian, vf, xstar, h: float, steady_tol: float = 1e-10) -> float:
    """Worst distance between map eigenvalues and (1 + h l/2)/(1 - h l/2).

    ``map_jacobian`` is the Jacobian of the one-step map at the fixed point
    xstar of the field vf; eigenvalues are paired greedily by distance.
    """
    from .errors import NotASteadyState
    from .kahan import multiplier_of_eigenvalue

    xstar = np.asarray(xstar, dtype=float)
    f = vf.evaluate(xstar)
    if np.abs(f).max() > steady_tol:
        raise NotASteadyState(f"|f(x*)| = {np.abs(f).max():.3e} exceeds {steady_tol}")
    J = vf.jacobian(xstar)
    if hasattr(J, "toarray"):
        J = J.toarray()
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


def _window(values: np.ndarray, frac_lo: float, frac_hi: float) -> np.ndarray:
    n = len(values)
    lo = int(math.floor(frac_lo * n))
    hi = max(lo + 1, int(math.ceil(frac_hi * n)))
    return values[lo:min(hi, n)]


def orbit_verdict(
    traj: Trajectory,
    component: int = 0,
    early_window: tuple[float, float] = (0.0, 0.25),
    late_window: tuple[float, float] = (0.75, 1.0),
    monitor=None,
    periodic_band: tuple[float, float] = (0.9, 1.1),
    slope_tol: float = 1e-4,
    decay_ratio: float = 0.5,
    diverge_ratio: float = 2.0,
    overflow: float = 1e8,
) -> OrbitVerdict:
    """Coarse orbit classification from windowed amplitudes and a trend.

    amplitude_ratio compares (max - min) over the late and early windows; a
    constant trajectory has ratio 1 by convention.  The secular slope is the
    least-squares trend of ``monitor`` (a per-state functional, default: the
    monitored component itself).  PERIODIC_LIKE demands the ratio inside
    ``periodic_band`` and a slope within ``slope_tol``; DECAYING demands the
    ratio below ``decay_ratio`` with quarter-window amplitudes shrinking
    toward a constant; DIVERGING is declared on overflow, non-finite values
    or a ratio above ``diverge_ratio``.  Everything else is INCONCLUSIVE.
    """
    series = traj.states[:, component]
    finite = bool(np.isfinite(series).all())
    if finite:
        early = _window(series, *early_window)
        late = _window(series, *late_window)
        amp_early = float(early.max() - early.min())
        amp_late = float(late.max() - late.min())
        if amp_early == 0.0:
            ratio = 1.0 if amp_late == 0.0 else math.inf
        else:
            ratio = amp_late / amp_early
        if monitor is None:
            mon_vals = series
        else:
            mon_vals = np.array([monitor(s) for s in traj.states], dtype=float)
        slope = float(np.polyfit(traj.times, mon_vals, 1)[0]) if len(series) > 1 else 0.0
    else:
        ratio, slope = math.inf, math.nan

    if not finite or np.abs(series[np.isfinite(series)]).max(initial=0.0) > overflow \
            or ratio > diverge_ratio:
        return OrbitVerdict(kind=DIVERGING, amplitude_ratio=ratio, secular_slope=slope)
    if periodic_band[0] <= ratio <= periodic_band[1] and abs(slope) <= slope_tol:
        return OrbitVerdict(kind=PERIODIC_LIKE, amplitude_ratio=ratio, secular_slope=slope)
    if ratio < decay_ratio:
        quarters = np.array_split(series, 4)
        amps = [float(q.max() - q.min()) for q in quarters]
        shrinking = all(amps[k + 1] <= 1.05 * amps[k] + 1e-300 for k in range(3))
        if shrinking:
            return OrbitVerdict(kind=DECAYING, amplitude_ratio=ratio, secular_slope=slope)
    return OrbitVerdict(kind=INCONCLUSIVE, amplitude_ratio=ratio, secular_slope=slope)


def transversal_crossings(
    traj: Trajectory, component: int, level: float, increasing: bool = True
) -> list[np.ndarray]:
    """Linearly interpolated states where a component crosses a level.

    Only crossings in the requested direction are kept; each returned state
    lies on the section to interpolation accuracy.
    """
    series = traj.states[:, component]
    crossings = []
    for k in range(len(series) - 1):
        lo, hi = series[k], series[k + 1]
        if increasing and not (lo < level <= hi):
            continue
        if not increasing and not (lo > level >= hi):
            continue
        frac = (level - lo) / (hi - lo)
        crossings.append(traj.states[k] + frac * (traj.states[k + 1] - traj.states[k]))
    return crossings
