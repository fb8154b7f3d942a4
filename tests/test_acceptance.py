"""Top-level acceptance checks, one per numbered criterion.

Each test prints a single "[ACCEPTANCE nn] PASS/FAIL <description> (<detail>)"
line before asserting, so a plain ``pytest -s tests/test_acceptance.py`` gives
the full scoreboard.  Every threshold is stated inline; nothing is loosened to
make a check pass.
"""
import math
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from birat.geomcheck import (
    DECAYING,
    PERIODIC_LIKE,
    conservation_drift,
    convergence_order,
    iterate_map,
    multiplier_agreement,
    orbit_verdict,
    roundtrip_error,
    transversal_crossings,
)
from birat.kahan import kahan_inverse_step, kahan_step, kahan_step_series
from birat.lvfamily import (
    BIRATIONAL,
    CASE_LABELS,
    CASE_VI_SCHEME,
    KAHAN_SCHEME,
    MICKENS_SCHEME,
    NOT_CERTIFIED,
    SYMPLECTIC_LABELS,
    case_iv_blend,
    lv_hamiltonian,
    lv_inverse_step,
    lv_step,
    random_case_params,
    random_noncase_params,
    random_symplectic_params,
    symbolic_certificate,
    symplectic_residual,
)
from birat.models import (
    DimensionlessEnzymeParams,
    SchnakenbergParams,
    enzyme_diml_vf,
    hopf_unstable_b,
    lv_vf,
    schnakenberg_inverse_step,
    schnakenberg_steady_state,
    schnakenberg_step,
)

H_TRANSIENT = 1e-3
N_TRANSIENT = 100_000


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def transient_run():
    """Shared run for criteria 1 and 2: enzyme3 defaults, h=1e-3, 1e5 steps."""
    p = DimensionlessEnzymeParams(mu=0.5, nu=0.6, eps=1e-2)
    vf = enzyme_diml_vf(p)
    states = np.empty((N_TRANSIENT + 1, 3))
    states[0] = (1.0, 0.0, 0.0)
    state = states[0]
    start = time.perf_counter()
    for k in range(N_TRANSIENT):
        state = kahan_step(vf, state, H_TRANSIENT)
        states[k + 1] = state
    elapsed = time.perf_counter() - start
    return p, vf, states, elapsed


def test_acceptance_01_linear_integral(transient_run):
    p, _, states, elapsed = transient_run
    drift = conservation_drift(states, np.array([1.0, p.eps, 1.0]))
    ok = drift < 1e-10 and elapsed < 5.0
    _report(1, "x + eps*y + z preserved over 1e5 polarized steps", ok,
            f"drift={drift:.3e}, {elapsed:.2f} s")


def test_acceptance_02_transient_envelope(transient_run):
    p, vf, states, _ = transient_run
    tau = H_TRANSIENT * np.arange(len(states))
    y = states[:, 1]
    k_peak = int(np.argmax(y))
    peak, tau_peak = float(y[k_peak]), float(tau[k_peak])
    peak_ok = abs(peak - 0.625) <= 0.02 and tau_peak <= 0.1
    mono_ok = bool(np.max(np.diff(y[k_peak:])) <= 1e-15)

    k30 = int(round(30.0 / H_TRANSIENT))
    x30, y30 = float(states[k30, 0]), float(states[k30, 1])
    below_ok = x30 < 0.05

    # Quasi-steady-state prediction (Segel & Slemrod, SIAM Rev. 31 (1989)),
    # from (mu, nu, eps) alone.  The slow variable w = x + eps*y = 1 - z has
    # w' = -(nu - mu) y; on the slow manifold y = x/(nu + x), so w(0) = 1 fixes
    # x_i by x_i + eps*x_i/(nu + x_i) = 1 and separating variables gives
    # (nu + eps) ln(x_i/x) + (x_i - x) - eps ln((nu + x_i)/(nu + x)) = (nu - mu) tau.
    mu, nu, eps = p.mu, p.nu, p.eps
    x_i = brentq(lambda x: x + eps * x / (nu + x) - 1.0, 0.0, 1.0, xtol=1e-15)
    x_pred = brentq(lambda x: (nu + eps) * math.log(x_i / x) + (x_i - x)
                    - eps * math.log((nu + x_i) / (nu + x)) - (nu - mu) * 30.0,
                    1e-12, x_i, xtol=1e-15)
    y_pred = x_pred / (nu + x_pred)
    # The reduction is accurate to O(eps): its first-order correction has
    # relative size at most eps*(nu - mu)/nu**2 (about 0.28 eps here), so the
    # map must land within eps relative of the prediction.
    qss_gap = abs(y30 - y_pred) / y_pred
    qss_ok = qss_gap <= eps

    ref = solve_ivp(lambda t, s: vf.evaluate(s), (0.0, 30.0), [1.0, 0.0, 0.0],
                    method="Radau", rtol=1e-10, atol=1e-12)
    ref_diff = float(np.abs(ref.y[:, -1] - states[k30]).max())
    ref_ok = ref.success and ref_diff < 1e-6

    ok = peak_ok and mono_ok and below_ok and qss_ok and ref_ok
    _report(2, "complex y peaks at 0.625 +/- 0.02 by tau=0.1, then decays with x(30) < 0.05 "
               "and y(30) within eps of the quasi-steady-state prediction",
            ok, f"peak={peak:.6f} at tau={tau_peak:g}, x(30)={x30:.6f}, "
                f"y(30)={y30:.6f} vs prediction {y_pred:.6f} (gap {qss_gap:.2e} "
                f"relative, bound eps={eps:g}), reference gap={ref_diff:.2e}")


def test_acceptance_03_multipliers_on_unit_circle():
    vf = lv_vf()
    xstar = np.array([1.0, 1.0])
    J = vf.jacobian(xstar)
    worst_dev = worst_mod = worst_fd = 0.0
    for h in (0.01, 0.1):
        # Implicit differentiation at the fixed point gives the map Jacobian
        # exactly: both polarization slots contribute J/2.
        phi = np.linalg.solve(np.eye(2) - 0.5 * h * J, np.eye(2) + 0.5 * h * J)
        worst_dev = max(worst_dev, multiplier_agreement(phi, vf, xstar, h))
        mods = np.abs(np.linalg.eigvals(phi))
        worst_mod = max(worst_mod, float(np.abs(mods - 1.0).max()))

        eps = 1e-6
        cols = []
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = eps
            cols.append((kahan_step(vf, xstar + dx, h)
                         - kahan_step(vf, xstar - dx, h)) / (2 * eps))
        worst_fd = max(worst_fd, multiplier_agreement(np.column_stack(cols), vf, xstar, h))
    ok = worst_dev < 1e-8 and worst_fd < 1e-8 and worst_mod < 1e-10
    _report(3, "fixed-point multipliers match (1 + h l/2)/(1 - h l/2), modulus 1", ok,
            f"formula gap={worst_dev:.2e}, fd gap={worst_fd:.2e}, |mod-1|={worst_mod:.2e}")


def test_acceptance_04_symplectic_residuals():
    pts = 0.2 + 1.8 * np.random.default_rng(2025).random((100, 2))
    h = 0.1
    start = time.perf_counter()
    worst_good = max(abs(symplectic_residual(scheme, x, y, h))
                     for scheme in (KAHAN_SCHEME, MICKENS_SCHEME, CASE_VI_SCHEME)
                     for x, y in pts)
    blend = case_iv_blend(Fraction(1))
    worst_blend = max(abs(symplectic_residual(blend, x, y, h)) for x, y in pts)
    elapsed = time.perf_counter() - start
    ok = worst_good < 1e-9 and worst_blend > 1e-4 and elapsed < 1.0
    _report(4, "det residual < 1e-9 for preserving schemes, > 1e-4 for blend d=1", ok,
            f"preserving max={worst_good:.2e}, blend max={worst_blend:.2e}, {elapsed:.2f} s")


def test_acceptance_05_certification():
    start = time.perf_counter()
    rng = Random(42)
    case_ok = all(
        symbolic_certificate(random_case_params(label, rng)).verdict == BIRATIONAL
        for label in CASE_LABELS)
    rng_non = Random(7)
    miss = sum(
        symbolic_certificate(random_noncase_params(rng_non)).verdict != NOT_CERTIFIED
        for _ in range(100))
    elapsed = time.perf_counter() - start
    ok = case_ok and miss == 0 and elapsed < 30.0
    _report(5, "exact certificates: 7 case reps BIRATIONAL, 100 non-case sets refused",
            ok, f"non-case misses={miss}, {elapsed:.2f} s")


def test_acceptance_06_symplectic_templates():
    pts = 0.5 + np.random.default_rng(6).random((4, 2))
    h = 0.1
    rng = Random(2026)
    worst = 0.0
    for label in SYMPLECTIC_LABELS:
        for _ in range(50):
            p = random_symplectic_params(label, rng)
            worst = max(worst, max(abs(symplectic_residual(p, x, y, h))
                                   for x, y in pts))
    rng_i = Random(99)
    weakest = math.inf
    found = 0
    while found < 10:
        p = random_case_params("i", rng_i)
        if p.d == p.D:
            continue
        found += 1
        weakest = min(weakest, max(abs(symplectic_residual(p, x, y, h))
                                   for x, y in pts))
    ok = worst < 1e-9 and weakest > 1e-6
    _report(6, "templates I-III residual < 1e-9; case i with d != D violates > 1e-6",
            ok, f"template max={worst:.2e}, weakest violation={weakest:.2e}")


def test_acceptance_07_roundtrips():
    h = 0.01
    pts = 0.5 + np.random.default_rng(2025).random((50, 2))
    rng = Random(42)
    worst_lv = 0.0
    for label in CASE_LABELS:
        p = random_case_params(label, rng)
        err = roundtrip_error(
            lambda q, p=p: np.array(lv_step(p, q[0], q[1], h)),
            lambda q, p=p: np.array(lv_inverse_step(p, q[0], q[1], h)), pts)
        worst_lv = max(worst_lv, err)

    vf = enzyme_diml_vf(DimensionlessEnzymeParams(0.5, 0.6, 1e-2))
    pts3 = np.random.default_rng(2025).random((50, 3))
    err_enzyme = roundtrip_error(lambda q: kahan_step(vf, q, 1e-3),
                                 lambda q: kahan_inverse_step(vf, q, 1e-3), pts3)

    sp = SchnakenbergParams(0.1, 0.5)
    err_schnak = roundtrip_error(
        lambda q: np.array(schnakenberg_step(sp, q[0], q[1], h)),
        lambda q: np.array(schnakenberg_inverse_step(sp, q[0], q[1], h)), pts)

    ok = worst_lv < 1e-9 and err_enzyme < 1e-10 and err_schnak < 1e-10
    _report(7, "inverse-compose-forward identity at 50 points per map", ok,
            f"family max={worst_lv:.2e}, enzyme={err_enzyme:.2e}, "
            f"schnakenberg={err_schnak:.2e}")


def test_acceptance_08_convergence_orders():
    vf = lv_vf()
    hs = [0.02, 0.01, 0.005, 0.0025]
    slope2 = convergence_order(
        lambda s, h: kahan_step(vf, s, h), [2.0, 0.5], 1.0, hs)
    slope1 = convergence_order(
        lambda s, h: kahan_step_series(vf, s, h, 0), [2.0, 0.5], 1.0, hs)
    ok = 1.8 <= slope2 <= 2.2 and 0.8 <= slope1 <= 1.2
    _report(8, "polarized map slope in [1.8, 2.2], Euler control in [0.8, 1.2]", ok,
            f"slopes {slope2:.3f} / {slope1:.3f}")


def test_acceptance_09_orbit_verdicts():
    h = 0.01
    monitor = lambda s: lv_hamiltonian(s[0], s[1])

    def lv_orbit(scheme, steps):
        return iterate_map(lambda s: lv_step(scheme, s[0], s[1], h), [2.0, 0.5], steps)

    v_vi = orbit_verdict(lv_orbit(CASE_VI_SCHEME, 10_000), h, monitor=monitor)
    vi_ok = v_vi.kind == PERIODIC_LIKE and abs(v_vi.secular_slope) < 1e-4

    v_d0 = orbit_verdict(lv_orbit(case_iv_blend(Fraction(0)), 20_000), h, monitor=monitor)

    states_d1 = lv_orbit(case_iv_blend(Fraction(1)), 20_000)
    v_d1 = orbit_verdict(states_d1, h)
    dist0 = math.hypot(2.0 - 1.0, 0.5 - 1.0)
    dist1 = math.hypot(states_d1[-1, 0] - 1.0, states_d1[-1, 1] - 1.0)
    d1_ok = v_d1.kind == DECAYING and dist1 < 0.5 * dist0

    ok = vi_ok and v_d0.kind == PERIODIC_LIKE and d1_ok
    _report(9, "closed-curve schemes PERIODIC_LIKE; blend d=1 DECAYING toward (1,1)",
            ok, f"vi: {v_vi.kind}, H slope={v_vi.secular_slope:.2e}; d0: {v_d0.kind}; "
                f"d1: {v_d1.kind}, |end-(1,1)|={dist1:.3f} from {dist0:.3f}")


def test_acceptance_10_limit_cycle_returns():
    a = 0.1
    b = hopf_unstable_b(a)
    p = SchnakenbergParams(a, b)
    xs, ys = schnakenberg_steady_state(p)
    h = 0.01
    start = time.perf_counter()
    states = iterate_map(
        lambda s: np.array(schnakenberg_step(p, s[0], s[1], h)),
        [1.1 * xs, ys], 60_000)
    crossings = transversal_crossings(states, 0, xs)
    returns = [float(state[1]) for state in crossings]
    elapsed = time.perf_counter() - start
    rel_changes = [abs(returns[k + 1] - returns[k]) / abs(returns[k])
                   for k in range(len(returns) - 1)]
    ok = len(returns) >= 5 and all(r < 0.01 for r in rel_changes[-3:]) and elapsed < 10.0
    _report(10, "return map onto the section x = x* settles within 1%", ok,
            f"a={a}, b={b:g}, {len(returns)} returns, last changes "
            f"{[f'{r:.2e}' for r in rel_changes[-3:]]}, {elapsed:.2f} s")
