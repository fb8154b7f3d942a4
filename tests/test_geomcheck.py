"""Trajectory diagnostics: drift, verdicts, convergence, crossings."""
import warnings

import numpy as np
import pytest

from birat.errors import NonFiniteState, NotASteadyState
from birat.geomcheck import (
    DECAYING,
    DIVERGING,
    INCONCLUSIVE,
    PERIODIC_LIKE,
    Trajectory,
    conservation_drift,
    convergence_order,
    energy_profile,
    iterate_map,
    multiplier_agreement,
    orbit,
    orbit_verdict,
    roundtrip_error,
    transversal_crossings,
)
from birat.kahan import KahanStepConfig, kahan_step
from birat.lvfamily import KAHAN_SCHEME, lv_hamiltonian, lv_step
from birat.models import lv_vf


def circle_traj(n_periods=100, step=0.1):
    t = np.arange(0.0, n_periods * 2 * np.pi, step)
    return Trajectory(np.column_stack([np.sin(t), np.cos(t)]), step)


class TestTrajectory:
    @pytest.mark.parametrize("step", [0.25, 0.1, -0.01, 1e-3])
    def test_times_are_exact_multiples_of_the_step(self, step):
        traj = Trajectory(np.zeros((1001, 2)), step)
        expected = 0.0 + step * np.arange(1001)
        assert traj.times.tobytes() == expected.tobytes()
        assert not np.signbit(traj.times[0])  # 0.0, not -0.0, for a negative step

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros(3), 0.1)  # 1-D states
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 1, 1)), 0.1)


class TestIterateMap:
    def test_doubling(self):
        out = iterate_map(lambda s: 2 * s, np.array([1.0, -1.0]), 3)
        assert out.shape == (4, 2)
        assert out[-1] == pytest.approx([8.0, -8.0])

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            iterate_map(lambda s: s, [1.0, 2.0], -1)

    def test_zero_steps_is_the_initial_state(self):
        out = iterate_map(lambda s: 2 * s, [1.0, 2.0], 0)
        assert out.tolist() == [[1.0, 2.0]]

    def test_overflow_raises_non_finite_state(self):
        with pytest.raises(NonFiniteState, match="non-finite value in 0$"):
            iterate_map(lambda s: s * 1e300, [1e10, 1.0], 5)


class TestOrbit:
    def test_yields_lists_of_floats(self):
        states = list(orbit(lambda s: (s[0] + s[1], s[1]), (0, 1), 3))
        assert states == [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
        assert all(type(v) is float for state in states for v in state)

    def test_step_gets_its_own_return_value_back(self):
        received, returned = [], []

        def step(s):
            received.append(s)
            returned.append((s[0] + s[1], s[1]))
            return returned[-1]

        states = list(orbit(step, [0.0, 1.0], 3))
        assert states == [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
        assert isinstance(received[0], np.ndarray) and received[0].dtype == float
        assert len(received) == 3
        assert all(got is sent for got, sent in zip(received[1:], returned))

    def test_non_finite_tuple_component_is_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                list(orbit(lambda s: (s[0], s[1] * 1e300), [1.0, 1e10], 5, names=("x", "y")))
        assert str(info.value) == "non-finite value in y"

    def test_overflow_names_indices_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                list(orbit(lambda s: s * 1e300, [1e10, 1.0], 5))
        assert str(info.value) == "non-finite value in 0"

    def test_invalid_value_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match="non-finite value in 1$"):
                list(orbit(lambda s: s * np.array([1.0, np.inf]) - s, [1.0, 1.0], 2))

    def test_names_label_the_bad_components(self):
        with pytest.raises(NonFiniteState) as info:
            list(orbit(lambda s: s * 1e300, [1e10, 1e10], 5, names=("x", "y")))
        assert str(info.value) == "non-finite value in x, y"

    def test_yields_k_plus_one_states_before_failing_at_step_k_plus_one(self):
        # 1, 1e100, 1e200, 1e300 are finite; step 4 overflows
        seen = []
        with pytest.raises(NonFiniteState):
            for state in orbit(lambda s: s * 1e100, [1.0, -1.0], 10):
                seen.append(state)
        assert len(seen) == 4
        assert seen[-1] == [1e300, -1e300]


class TestConservationDrift:
    def test_exact_conservation(self):
        a = np.linspace(0.0, 1.0, 50)
        traj = Trajectory(np.column_stack([a, -a]), 0.1)
        assert conservation_drift(traj, np.array([1.0, 1.0])) == 0.0

    def test_detects_drift(self):
        states = np.column_stack([np.linspace(1.0, 2.0, 50), np.zeros(50)])
        traj = Trajectory(states, 0.1)
        # max |v - v0| = 1 against the relative scale 1 + |v0| = 2.
        assert conservation_drift(traj, np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_invariant_under_time_shift(self):
        states = np.random.default_rng(1).normal(size=(40, 3))
        w = np.array([1.0, -2.0, 0.5])
        d0 = conservation_drift(Trajectory(states, 0.1), w)
        d1 = conservation_drift(Trajectory(states, 0.7), w)
        assert d0 == d1


class TestEnergyProfile:
    def test_constant_energy(self):
        traj = Trajectory(np.ones((30, 2)), 0.1)
        osc, slope = energy_profile(traj, lambda s: s[0] + s[1])
        assert osc == 0.0
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_linear_energy_slope(self):
        states = np.column_stack([np.linspace(0.0, 1.0, 101), np.zeros(101)])
        traj = Trajectory(states, 0.01)
        osc, slope = energy_profile(traj, lambda s: 3.0 * s[0])
        assert osc == pytest.approx(3.0)
        assert slope == pytest.approx(3.0, rel=1e-9)

    def test_polarized_lv_keeps_energy_tight(self):
        states = iterate_map(lambda s: lv_step(KAHAN_SCHEME, s[0], s[1], 0.01),
                             [2.0, 0.5], 5000)
        traj = Trajectory(states, 0.01)
        osc, slope = energy_profile(traj, lambda s: lv_hamiltonian(s[0], s[1]))
        assert osc < 1e-4
        assert abs(slope) < 1e-6


class TestRoundtripError:
    def test_identity_pair(self):
        pts = np.random.default_rng(2).normal(size=(10, 2))
        assert roundtrip_error(lambda p: p, lambda p: p, pts) == 0.0

    def test_shift_pair(self):
        v = np.array([0.3, -0.7])
        pts = np.random.default_rng(3).normal(size=(10, 2))
        err = roundtrip_error(lambda p: p + v, lambda p: p - v, pts)
        assert err < 1e-15

    def test_measures_mismatch(self):
        pts = np.zeros((4, 2))
        err = roundtrip_error(lambda p: p, lambda p: p + 0.25, pts)
        assert err == pytest.approx(0.25)

    def test_kahan_pair(self):
        vf = lv_vf()
        cfg = KahanStepConfig(h=0.05)
        pts = 0.2 + np.random.default_rng(4).random((20, 2))
        err = roundtrip_error(
            lambda p: kahan_step(vf, p, cfg),
            lambda p: kahan_step(vf, p, KahanStepConfig(h=-0.05)), pts)
        assert err < 1e-11

    def test_failure_reports_point(self):
        def boom(p):
            raise ZeroDivisionError("denominator vanished")

        with pytest.raises(RuntimeError, match="round trip at"):
            roundtrip_error(boom, lambda p: p, np.array([[1.0, 2.0]]))


class TestConvergenceOrder:
    def test_synthetic_orders(self):
        # One step of a family with O(h^(k+1)) local defect for ẋ = 1 has
        # global order k against the refined reference.
        def first_order(state, h):
            return state + h + 0.5 * h ** 2

        def second_order(state, h):
            return state + h + 0.25 * h ** 3

        hs = [0.02, 0.01, 0.005]
        s1 = convergence_order(first_order, [0.0], 1.0, hs)
        s2 = convergence_order(second_order, [0.0], 1.0, hs)
        assert 0.9 < s1 < 1.1
        assert 1.9 < s2 < 2.1

    def test_shared_reference_is_built_once(self):
        # All four step sizes end at t = 1, so they share one reference run
        # of m = 1 / (0.0025 / 64) = 25600 steps.
        vf = lv_vf()
        hs = [0.02, 0.01, 0.005, 0.0025]
        calls = []

        def family(state, h):
            calls.append(h)
            return kahan_step(vf, state, KahanStepConfig(h=h))

        slope = convergence_order(family, [2.0, 0.5], 1.0, hs)
        assert len(calls) == (50 + 100 + 200 + 400) + 25600

        def run(h, n):
            x = np.array([2.0, 0.5])
            for _ in range(n):
                x = kahan_step(vf, x, KahanStepConfig(h=h))
            return x

        ref = run(1.0 / 25600, 25600)
        errors = [float(np.abs(run(h, round(1.0 / h)) - ref).max()) for h in hs]
        assert slope == float(np.polyfit(np.log(hs), np.log(errors), 1)[0])

    def test_zero_error_raises(self):
        with pytest.raises(ValueError):
            convergence_order(lambda s, h: np.asarray(s), [1.0], 1.0, [0.2, 0.1])


class TestMultiplierAgreement:
    def test_exact_map_jacobian(self):
        vf = lv_vf()
        h = 0.05
        J = vf.jacobian([1.0, 1.0])
        M = np.eye(2) - 0.5 * h * J
        phi_prime = np.eye(2) + h * np.linalg.solve(M, J)
        assert multiplier_agreement(phi_prime, vf, [1.0, 1.0], h) < 1e-14

    def test_detects_perturbation(self):
        vf = lv_vf()
        h = 0.05
        J = vf.jacobian([1.0, 1.0])
        M = np.eye(2) - 0.5 * h * J
        phi_prime = np.eye(2) + h * np.linalg.solve(M, J) + np.diag([1e-3, 0.0])
        assert multiplier_agreement(phi_prime, vf, [1.0, 1.0], h) > 1e-4

    def test_requires_steady_state(self):
        with pytest.raises(NotASteadyState):
            multiplier_agreement(np.eye(2), lv_vf(), [2.0, 0.5], 0.05)

    def test_h_zero_degenerates_to_identity(self):
        assert multiplier_agreement(np.eye(2), lv_vf(), [1.0, 1.0], 0.0) < 1e-15


class TestOrbitVerdict:
    def test_periodic_circle(self):
        verdict = orbit_verdict(circle_traj())
        assert verdict.kind == PERIODIC_LIKE
        assert verdict.amplitude_ratio == pytest.approx(1.0, abs=1e-3)

    def test_monitor_flattens_secular_artifact(self):
        # A radius monitor removes the window-phase artifact entirely.
        verdict = orbit_verdict(circle_traj(), monitor=lambda s: s[0] ** 2 + s[1] ** 2)
        assert verdict.kind == PERIODIC_LIKE
        assert abs(verdict.secular_slope) < 1e-12

    def test_few_periods_inconclusive(self):
        # Ten periods leave a least-squares trend of order amplitude/periods^2,
        # above the slope gate, so the verdict must stay inconclusive rather
        # than claim periodicity.
        verdict = orbit_verdict(circle_traj(n_periods=10, step=0.05))
        assert verdict.kind == INCONCLUSIVE

    def test_decaying(self):
        t = np.arange(0, 20 * np.pi, 0.05)
        states = np.column_stack([np.exp(-0.1 * t) * np.sin(t), np.cos(t)])
        verdict = orbit_verdict(Trajectory(states, 0.05))
        assert verdict.kind == DECAYING
        assert verdict.amplitude_ratio < 0.5

    def test_diverging_growth(self):
        t = np.arange(0, 20 * np.pi, 0.05)
        states = np.column_stack([np.exp(0.05 * t) * np.sin(t), np.cos(t)])
        assert orbit_verdict(Trajectory(states, 0.05)).kind == DIVERGING

    def test_diverging_on_nonfinite(self):
        states = np.ones((40, 1))
        states[35] = np.nan
        assert orbit_verdict(Trajectory(states, 0.1)).kind == DIVERGING

    def test_diverging_on_overflow(self):
        states = np.linspace(1.0, 5e8, 60).reshape(-1, 1)
        assert orbit_verdict(Trajectory(states, 0.1)).kind == DIVERGING

    def test_constant_is_periodic_with_unit_ratio(self):
        verdict = orbit_verdict(Trajectory(np.full((50, 1), 2.5), 0.1))
        assert verdict.kind == PERIODIC_LIKE
        assert verdict.amplitude_ratio == 1.0

    def test_deterministic(self):
        traj = circle_traj(20, 0.1)
        assert orbit_verdict(traj) == orbit_verdict(traj)


class TestTransversalCrossings:
    def test_counts_and_interpolates(self):
        # Start just past 0 and stop past 10*pi so all five upward zeros of
        # sin (at 2*pi*k) and five downward zeros (at odd multiples of pi)
        # fall strictly inside the sampled range.
        t = np.arange(0.005, 32.0, 0.01)
        states = np.column_stack([np.sin(t), np.cos(t)])
        traj = Trajectory(states, 0.01)
        ups = transversal_crossings(traj, 0, 0.0, increasing=True)
        downs = transversal_crossings(traj, 0, 0.0, increasing=False)
        assert len(ups) == 5
        assert len(downs) == 5
        for state in ups:
            assert abs(state[0]) < 1e-12  # the section coordinate is solved exactly
            assert state[1] > 0.99  # sin rises through 0 where cos is near 1

    def test_direction_filter(self):
        states = np.array([[0.0], [1.0], [0.0], [1.0]])
        traj = Trajectory(states, 1.0)
        assert len(transversal_crossings(traj, 0, 0.5, increasing=True)) == 2
        assert len(transversal_crossings(traj, 0, 0.5, increasing=False)) == 1
