"""Orbit diagnostics: drift, verdicts, convergence, crossings."""
import contextlib
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birat import driver
from birat.errors import NonFiniteState, NotASteadyState, SingularStepMatrix
from birat.geomcheck import (
    DECAYING,
    DIVERGING,
    INCONCLUSIVE,
    PERIODIC_LIKE,
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
from birat.kahan import kahan_step
from birat.lvfamily import KAHAN_SCHEME, lv_hamiltonian, lv_step
from birat.models import lv_vf


def circle_states(n_periods=100, step=0.1):
    t = np.arange(0.0, n_periods * 2 * np.pi, step)
    return np.column_stack([np.sin(t), np.cos(t)])


class TestTimeAxis:
    """Both secular slopes fit against the sample times 0.0 + h * arange(n)."""

    @staticmethod
    def _reference_slope(values, h):
        return np.polyfit(0.0 + h * np.arange(len(values)), values, 1)[0]

    @pytest.mark.parametrize("step", [0.25, 0.1, -0.01, 1e-3])
    def test_verdict_slope(self, step):
        states = circle_states(2, 0.01)
        monitor = lambda s: s[0] + 0.5 * s[1] ** 2
        values = np.array([monitor(s) for s in states])
        slope = orbit_verdict(states, step, monitor).secular_slope
        assert np.float64(slope).tobytes() == self._reference_slope(values, step).tobytes()
        plain = orbit_verdict(states, step).secular_slope
        assert np.float64(plain).tobytes() == \
            self._reference_slope(states[:, 0], step).tobytes()

    @pytest.mark.parametrize("step", [0.25, 0.1, -0.01, 1e-3])
    def test_energy_slope(self, step):
        states = circle_states(2, 0.01)
        f = lambda s: s[0] * s[1] - s[1]
        values = np.array([f(s) for s in states])
        slope = energy_profile(states, step, f)[1]
        assert np.float64(slope).tobytes() == self._reference_slope(values, step).tobytes()

    def test_one_sample_has_zero_slope(self):
        states = np.array([[1.0, 2.0]])
        assert energy_profile(states, 0.1, lambda s: s[0]) == (0.0, 0.0)
        assert orbit_verdict(states, 0.1).secular_slope == 0.0


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


def reference_orbit(step, x0, steps, names=None):
    """The driver as it stepped one state at a time, each state checked and yielded
    alone: the oracle of :func:`orbit`'s blocks."""
    np_ = sys.modules.get("numpy")
    if np_ is None:
        x, arrays, quiet = [float(v) for v in x0], (), contextlib.nullcontext()
    else:
        x, arrays = np_.asarray(x0, dtype=float), np_.ndarray
        quiet = np_.errstate(over="ignore", invalid="ignore")
    with quiet:
        for k in range(steps + 1):
            if k:
                x = step(x)
            values = x.tolist() if isinstance(x, arrays) else [float(v) for v in x]
            if not all(map(math.isfinite, values)):
                bad = [str(i if names is None else names[i])
                       for i, v in enumerate(values) if not math.isfinite(v)]
                raise NonFiniteState(f"non-finite value in {', '.join(bad)}")
            yield values


def _run_to_end(generator):
    """(the lists it yielded, the exception that ended it or None)."""
    out = []
    try:
        for values in generator:
            out.append(values)
    except Exception as exc:
        return out, exc
    return out, None


# what a drawn step returns at step k: the type of its state, drawn per run
STATE_TYPES = {
    "list": lambda k, values: list(values),
    "tuple": lambda k, values: tuple(values),
    "array": lambda k, values: np.array(values),
    # arrays and tuples in turn, so a block holds both and may end on either
    "mixed": lambda k, values: np.array(values) if k % 2 else tuple(values),
}


@st.composite
def drawn_runs(draw):
    """(block, x0, steps, make_step, names): a step that returns drawn states of a drawn
    type, with a non-finite state and a BiratError each at a drawn step or never."""
    dim = draw(st.integers(1, 3))
    steps = draw(st.integers(0, 30))
    values = st.floats(-1e6, 1e6, allow_nan=False)
    states = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                           min_size=steps + 1, max_size=steps + 1))
    at = st.one_of(st.none(), st.integers(1, max(steps, 1)))
    bad_at, raise_at = draw(at), draw(at)
    if bad_at is not None:
        bad = draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True))
        for i in bad:
            states[bad_at % len(states)][i] = draw(st.sampled_from([math.inf, -math.inf,
                                                                    math.nan]))
        if draw(st.booleans()):  # and the state after it non-finite in every component
            states[(bad_at + 1) % len(states)] = [math.nan] * dim
    if bad_at is not None and raise_at is None and draw(st.booleans()):
        raise_at = bad_at + 1  # a non-finite state, then a step that raises
    make = STATE_TYPES[draw(st.sampled_from(sorted(STATE_TYPES)))]
    x0 = draw(st.sampled_from([list, tuple, np.array]))(states[0])
    names = draw(st.sampled_from([None, ("x", "y", "z")[:dim]]))

    def make_step():
        k = 0

        def step(state):
            nonlocal k
            k += 1
            if k == raise_at:
                raise SingularStepMatrix(f"drawn failure at step {k}")
            return make(k, states[k % len(states)])
        return step

    return draw(st.integers(1, 7)), x0, steps, make_step, names


class TestOrbit:
    @staticmethod
    def _blocks_lazily(block, *args, **kwargs):
        with mock.patch.object(driver, "BLOCK", block):
            yield from orbit(*args, **kwargs)

    def _blocks(self, block, *args, **kwargs):
        return list(self._blocks_lazily(block, *args, **kwargs))

    def test_yields_lists_of_floats(self):
        step = lambda s: (s[0] + s[1], s[1])
        assert self._blocks(4096, step, (0, 1), 3) == [[0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0]]
        blocks = self._blocks(3, step, (0, 1), 3)
        assert blocks == [[0.0, 1.0, 1.0, 1.0, 2.0, 1.0], [3.0, 1.0]]
        assert all(type(v) is float for block in blocks for v in block)

    def test_step_gets_its_own_return_value_back(self):
        for block in (1, 2, 4096):
            received, returned = [], []

            def step(s):
                received.append(s)
                returned.append((s[0] + s[1], s[1]))
                return returned[-1]

            blocks = self._blocks(block, step, [0.0, 1.0], 3)
            assert sum(blocks, []) == [0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0]
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
        # 1, 1e100, 1e200, 1e300 are finite; step 4 overflows, in the first block or
        # as the first state of the second
        for block, sizes in ((4096, [8]), (3, [6, 2]), (4, [8])):
            seen, exc = _run_to_end(self._blocks_lazily(block, lambda s: s * 1e100,
                                                        [1.0, -1.0], 10))
            assert type(exc) is NonFiniteState
            assert [len(values) for values in seen] == sizes
            assert sum(seen, [])[-2:] == [1e300, -1e300]

    def test_steps_past_a_non_finite_state_are_not_reported(self):
        # step 2 leaves the finite range; in the same block step 3 runs on its state and
        # raises, and that error gives way to the non-finite state before it
        calls = []

        def step(s):
            calls.append(s)
            if not all(map(math.isfinite, s)):
                raise SingularStepMatrix("stepped from a non-finite state")
            return (s[0] * 1e200,)

        blocks, exc = _run_to_end(self._blocks_lazily(6, step, [1.0], 10, names=("x",)))
        assert blocks == [[1.0, 1e200]]
        assert type(exc) is NonFiniteState and str(exc) == "non-finite value in x"
        assert len(calls) == 3

    @settings(max_examples=300, deadline=None)
    @given(drawn_runs())
    def test_blocks_match_per_state_reference(self, run):
        block, x0, steps, make_step, names = run
        with mock.patch.object(driver, "BLOCK", block):
            blocks, exc = _run_to_end(orbit(make_step(), x0, steps, names))
        states, expected_exc = _run_to_end(reference_orbit(make_step(), x0, steps, names))
        assert sum(blocks, []) == sum(states, [])
        assert all(type(v) is float for values in blocks for v in values)
        assert (type(exc), str(exc)) == (type(expected_exc), str(expected_exc))
        # every block but the last holds BLOCK states
        dim = len(x0)
        assert all(len(values) == block * dim for values in blocks[:-1])
        assert all(0 < len(values) <= block * dim for values in blocks)


class TestConservationDrift:
    def test_exact_conservation(self):
        a = np.linspace(0.0, 1.0, 50)
        states = np.column_stack([a, -a])
        assert conservation_drift(states, np.array([1.0, 1.0])) == 0.0

    def test_detects_drift(self):
        states = np.column_stack([np.linspace(1.0, 2.0, 50), np.zeros(50)])
        # max |v - v0| = 1 against the relative scale 1 + |v0| = 2.
        assert conservation_drift(states, np.array([1.0, 0.0])) == pytest.approx(0.5)


class TestEnergyProfile:
    def test_constant_energy(self):
        osc, slope = energy_profile(np.ones((30, 2)), 0.1, lambda s: s[0] + s[1])
        assert osc == 0.0
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_linear_energy_slope(self):
        states = np.column_stack([np.linspace(0.0, 1.0, 101), np.zeros(101)])
        osc, slope = energy_profile(states, 0.01, lambda s: 3.0 * s[0])
        assert osc == pytest.approx(3.0)
        assert slope == pytest.approx(3.0, rel=1e-9)

    def test_polarized_lv_keeps_energy_tight(self):
        states = iterate_map(lambda s: lv_step(KAHAN_SCHEME, s[0], s[1], 0.01),
                             [2.0, 0.5], 5000)
        osc, slope = energy_profile(states, 0.01, lambda s: lv_hamiltonian(s[0], s[1]))
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
        pts = 0.2 + np.random.default_rng(4).random((20, 2))
        err = roundtrip_error(
            lambda p: kahan_step(vf, p, 0.05),
            lambda p: kahan_step(vf, p, -0.05), pts)
        assert err < 1e-11

    def test_map_failure_propagates_unchanged(self):
        error = SingularStepMatrix("step matrix singular")

        def boom(p):
            raise error

        with pytest.raises(SingularStepMatrix) as caught:
            roundtrip_error(boom, lambda p: p, np.array([[1.0, 2.0]]))
        assert caught.value is error


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
            return kahan_step(vf, state, h)

        slope = convergence_order(family, [2.0, 0.5], 1.0, hs)
        assert len(calls) == (50 + 100 + 200 + 400) + 25600

        def run(h, n):
            x = np.array([2.0, 0.5])
            for _ in range(n):
                x = kahan_step(vf, x, h)
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
        verdict = orbit_verdict(circle_states(), 0.1)
        assert verdict.kind == PERIODIC_LIKE
        assert verdict.amplitude_ratio == pytest.approx(1.0, abs=1e-3)

    def test_monitor_flattens_secular_artifact(self):
        # A radius monitor removes the window-phase artifact entirely.
        verdict = orbit_verdict(circle_states(), 0.1, monitor=lambda s: s[0] ** 2 + s[1] ** 2)
        assert verdict.kind == PERIODIC_LIKE
        assert abs(verdict.secular_slope) < 1e-12

    def test_few_periods_inconclusive(self):
        # Ten periods leave a least-squares trend of order amplitude/periods^2,
        # above the slope gate, so the verdict must stay inconclusive rather
        # than claim periodicity.
        verdict = orbit_verdict(circle_states(n_periods=10, step=0.05), 0.05)
        assert verdict.kind == INCONCLUSIVE

    def test_decaying(self):
        t = np.arange(0, 20 * np.pi, 0.05)
        states = np.column_stack([np.exp(-0.1 * t) * np.sin(t), np.cos(t)])
        verdict = orbit_verdict(states, 0.05)
        assert verdict.kind == DECAYING
        assert verdict.amplitude_ratio < 0.5

    def test_diverging_growth(self):
        t = np.arange(0, 20 * np.pi, 0.05)
        states = np.column_stack([np.exp(0.05 * t) * np.sin(t), np.cos(t)])
        assert orbit_verdict(states, 0.05).kind == DIVERGING

    def test_diverging_on_nonfinite(self):
        states = np.ones((40, 1))
        states[35] = np.nan
        assert orbit_verdict(states, 0.1).kind == DIVERGING

    def test_diverging_on_overflow(self):
        states = np.linspace(1.0, 5e8, 60).reshape(-1, 1)
        assert orbit_verdict(states, 0.1).kind == DIVERGING

    def test_constant_is_periodic_with_unit_ratio(self):
        verdict = orbit_verdict(np.full((50, 1), 2.5), 0.1)
        assert verdict.kind == PERIODIC_LIKE
        assert verdict.amplitude_ratio == 1.0

    def test_deterministic(self):
        states = circle_states(20, 0.1)
        assert orbit_verdict(states, 0.1) == orbit_verdict(states, 0.1)


class TestTransversalCrossings:
    def test_counts_and_interpolates(self):
        # Start just past 0 and stop past 10*pi so all five upward zeros of
        # sin (at 2*pi*k) fall strictly inside the sampled range.
        t = np.arange(0.005, 32.0, 0.01)
        states = np.column_stack([np.sin(t), np.cos(t)])
        ups = transversal_crossings(states, 0, 0.0)
        assert len(ups) == 5
        for state in ups:
            assert abs(state[0]) < 1e-12  # the section coordinate is solved exactly
            assert state[1] > 0.99  # sin rises through 0 where cos is near 1

    def test_direction_filter(self):
        # three crossings of 0.5, of which the middle one is downward
        states = np.array([[0.0], [1.0], [0.0], [1.0]])
        assert len(transversal_crossings(states, 0, 0.5)) == 2
