"""Polarized one-step map: explicit solve, inverse, series, multipliers."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from birat.errors import (
    DimensionMismatch,
    NotASteadyState,
    PoleAtTwoOverH,
    SingularStepMatrix,
)
from birat.kahan import (
    KahanStepConfig,
    iterate,
    kahan_inverse_step,
    kahan_step,
    kahan_step_series,
    map_multipliers_at_fixed_point,
    multiplier_of_eigenvalue,
    rk_equivalence_residual,
)
from birat.models import (
    DimensionlessEnzymeParams,
    EnzymeParams,
    enzyme_diml_vf,
    enzyme_vf,
    lv_vf,
)
from birat.quadvf import QuadraticVectorField


def logistic_vf():
    # f(x) = x(1 - x)
    return QuadraticVectorField.from_triplets(
        1, lin_triplets=[(0, 0, 1.0)], quad_triplets=[(0, 0, 0, -1.0)]
    )


def pure_linear_vf():
    # f(x) = x; the step matrix 1 - h/2 is singular at h = 2
    return QuadraticVectorField.from_triplets(1, lin_triplets=[(0, 0, 1.0)])


ENZ3 = DimensionlessEnzymeParams(mu=0.5, nu=0.6, eps=1e-2)


@st.composite
def dense_fields_states_steps(draw, max_dim=4):
    # Coefficients and states in [-1, 1] and |h| <= 0.02 keep (h/2)|f'| below
    # 0.61 in the row-sum norm at both ends of a step, so both step matrices
    # are well conditioned and a round trip loses only rounding.
    dim = draw(st.integers(1, max_dim))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    vf = QuadraticVectorField(draw(arrays(float, dim, elements=unit)),
                              draw(arrays(float, (dim, dim), elements=unit)),
                              draw(arrays(float, (dim, dim, dim), elements=unit)))
    h = draw(st.floats(1e-3, 0.02)) * draw(st.sampled_from([1.0, -1.0]))
    return vf, draw(arrays(float, dim, elements=unit)), h


class TestConfig:
    def test_rejects_zero_h(self):
        with pytest.raises(ValueError):
            KahanStepConfig(h=0.0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            KahanStepConfig(h=0.1, singular_tol=0.0)

    def test_rejects_negative_series_order(self):
        with pytest.raises(ValueError):
            KahanStepConfig(h=0.1, series_order=-1)


class TestStep:
    def test_logistic_hand_value(self):
        # At x = 1/2 the Jacobian vanishes, so the update is x + h f(x).
        out = kahan_step(logistic_vf(), [0.5], KahanStepConfig(h=0.1))
        assert out == pytest.approx([0.525], abs=1e-15)

    def test_logistic_inverse_recovers(self):
        out = kahan_inverse_step(logistic_vf(), [0.525], KahanStepConfig(h=0.1))
        assert out == pytest.approx([0.5], abs=1e-12)

    def test_implicit_polarized_relation(self):
        # The defining relation: (xt - x)/h equals the polarized field at (x, xt).
        rng = np.random.default_rng(2)
        for vf in (lv_vf(), enzyme_diml_vf(ENZ3)):
            cfg = KahanStepConfig(h=0.05)
            for _ in range(10):
                x = rng.uniform(0.1, 1.5, vf.dim)
                xt = kahan_step(vf, x, cfg)
                residual = (xt - x) / cfg.h - vf.polarized_rhs(x, xt)
                assert np.abs(residual).max() < 1e-12

    def test_forward_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        for vf in (lv_vf(), enzyme_diml_vf(ENZ3)):
            for h in (1e-3, 0.05, -0.05):
                cfg = KahanStepConfig(h=h)
                for _ in range(10):
                    x = rng.uniform(0.1, 1.5, vf.dim)
                    back = kahan_inverse_step(vf, kahan_step(vf, x, cfg), cfg)
                    assert np.abs(back - x).max() < 1e-11

    @given(dense_fields_states_steps())
    def test_roundtrip_random_dense_fields(self, case):
        vf, x, h = case
        cfg = KahanStepConfig(h=h)
        back = kahan_inverse_step(vf, kahan_step(vf, x, cfg), cfg)
        assert np.abs(back - x).max() <= 1e-14

    def test_inverse_is_backward_step(self):
        # Inverting equals stepping with -h.
        vf = lv_vf()
        x = np.array([1.3, 0.7])
        inv = kahan_inverse_step(vf, x, KahanStepConfig(h=0.1))
        neg = kahan_step(vf, x, KahanStepConfig(h=-0.1))
        assert inv == pytest.approx(neg, abs=1e-14)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_step_matrix(self):
        with pytest.raises(SingularStepMatrix):
            kahan_step(pure_linear_vf(), [1.0], KahanStepConfig(h=2.0))

    def test_singular_messages_name_the_step(self):
        with pytest.raises(SingularStepMatrix, match=r"^step matrix at h=2\.0: pivot"):
            kahan_step(pure_linear_vf(), [1.0], KahanStepConfig(h=2.0))
        with pytest.raises(SingularStepMatrix,
                           match=r"^inverse step matrix at h=-2\.0: pivot"):
            kahan_inverse_step(pure_linear_vf(), [1.0], KahanStepConfig(h=-2.0))

    def test_singular_step_matrix_sparse(self):
        dim = 40
        vf = QuadraticVectorField.from_triplets(
            dim, lin_triplets=[(i, i, 1.0) for i in range(dim)], sparse=True
        )
        with pytest.raises(SingularStepMatrix):
            kahan_step(vf, np.ones(dim), KahanStepConfig(h=2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kahan_step(lv_vf(), [1.0, 2.0, 3.0], KahanStepConfig(h=0.1))


class TestIterate:
    def test_shape_and_initial_row(self):
        out = iterate(lv_vf(), [2.0, 0.5], KahanStepConfig(h=0.01), 7)
        assert out.shape == (8, 2)
        assert out[0] == pytest.approx([2.0, 0.5])

    def test_matches_repeated_steps(self):
        cfg = KahanStepConfig(h=0.02)
        out = iterate(lv_vf(), [2.0, 0.5], cfg, 3)
        x = np.array([2.0, 0.5])
        for k in range(3):
            x = kahan_step(lv_vf(), x, cfg)
            assert out[k + 1] == pytest.approx(x, rel=0, abs=0)

    def test_linear_first_integrals_exact(self):
        # w f = 0 implies w x is preserved to rounding along the orbit.
        vf = enzyme_vf(EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01))
        states = iterate(vf, [1.0, 0.01, 0.0, 0.0], KahanStepConfig(h=0.01), 1000)
        for w in (np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0, 1.0])):
            vals = states @ w
            assert np.abs(vals - vals[0]).max() < 1e-13


class TestSeries:
    def test_order_zero_is_euler(self):
        vf = lv_vf()
        x = np.array([2.0, 0.5])
        out = kahan_step_series(vf, x, KahanStepConfig(h=0.1, series_order=0))
        assert out == pytest.approx(x + 0.1 * vf.evaluate(x), abs=1e-15)

    def test_step_dispatches_on_series_order(self):
        vf = lv_vf()
        x = np.array([2.0, 0.5])
        cfg = KahanStepConfig(h=0.1, series_order=2)
        assert kahan_step(vf, x, cfg) == pytest.approx(
            kahan_step_series(vf, x, cfg), rel=0, abs=0)

    def test_monotone_convergence_diagonal_linear(self):
        vf = QuadraticVectorField.from_triplets(
            2, lin_triplets=[(0, 0, -1.0), (1, 1, -1.0)]
        )
        x = np.array([1.0, 2.0])
        exact = kahan_step(vf, x, KahanStepConfig(h=0.5))
        errs = [
            np.abs(kahan_step_series(vf, x, KahanStepConfig(h=0.5, series_order=k))
                   - exact).max()
            for k in range(8)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_stiff_reduced_system_truncation_error(self):
        # With eps = 1e-2 and h = 1e-3 the iteration matrix has spectral
        # radius near h/(2 eps) ~ 0.08, so each extra order gains roughly
        # a factor 12 and K = 3 still sits a few orders of magnitude above
        # solver accuracy.  Frozen from a direct comparison.
        vf = enzyme_diml_vf(ENZ3)
        x = [1.0, 0.0, 0.0]
        exact = kahan_step(vf, x, KahanStepConfig(h=1e-3))
        err3 = np.abs(
            kahan_step_series(vf, x, KahanStepConfig(h=1e-3, series_order=3)) - exact
        ).max()
        assert 1e-6 < err3 < 1e-5
        err4 = np.abs(
            kahan_step_series(vf, x, KahanStepConfig(h=1e-3, series_order=4)) - exact
        ).max()
        assert 0.05 < err4 / err3 < 0.12
        err7 = np.abs(
            kahan_step_series(vf, x, KahanStepConfig(h=1e-3, series_order=7)) - exact
        ).max()
        assert err7 < 1e-9

    def test_mass_action_truncation_below_1e9(self):
        # The four-species mass-action system with e0/s0 = 1e-2 is not stiff,
        # so K = 3 already reproduces the exact solve far below 1e-9.
        vf = enzyme_vf(EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01))
        x = [1.0, 0.01, 0.0, 0.0]
        exact = kahan_step(vf, x, KahanStepConfig(h=1e-3))
        ser = kahan_step_series(vf, x, KahanStepConfig(h=1e-3, series_order=3))
        assert np.abs(ser - exact).max() < 1e-9


class TestRkEquivalence:
    def test_residual_vanishes_on_step(self):
        rng = np.random.default_rng(4)
        vf = lv_vf()
        for _ in range(10):
            x = rng.uniform(0.2, 2.0, 2)
            xt = kahan_step(vf, x, KahanStepConfig(h=0.1))
            assert np.abs(rk_equivalence_residual(vf, x, xt, 0.1)).max() < 1e-12

    def test_residual_detects_other_maps(self):
        vf = lv_vf()
        x = np.array([2.0, 0.5])
        euler = x + 0.1 * vf.evaluate(x)
        assert np.abs(rk_equivalence_residual(vf, x, euler, 0.1)).max() > 1e-4


class TestMultipliers:
    def test_moebius_hand_value(self):
        assert multiplier_of_eigenvalue(-1.0, 0.1) == pytest.approx(19 / 21)
        assert multiplier_of_eigenvalue(3.0, 0.0) == pytest.approx(1.0)

    def test_pole_at_two_over_h(self):
        with pytest.raises(PoleAtTwoOverH):
            multiplier_of_eigenvalue(20.0, 0.1)

    def test_stability_transfer(self):
        # Left half plane maps inside the unit circle, imaginary axis onto it.
        h = 0.3
        assert abs(multiplier_of_eigenvalue(-1.0, h)) < 1.0
        assert abs(multiplier_of_eigenvalue(1.0, h)) > 1.0
        assert abs(multiplier_of_eigenvalue(1j, h)) == pytest.approx(1.0, abs=1e-15)

    def test_lv_center_multipliers(self):
        for h in (0.01, 0.1):
            mults = map_multipliers_at_fixed_point(lv_vf(), [1.0, 1.0], h)
            expected = {(1 + 0.5j * h) / (1 - 0.5j * h), (1 - 0.5j * h) / (1 + 0.5j * h)}
            for m in mults:
                assert min(abs(m - e) for e in expected) < 1e-12
                assert abs(abs(m) - 1.0) < 1e-12

    def test_logistic_fixed_point(self):
        h = 0.2
        mults = map_multipliers_at_fixed_point(logistic_vf(), [1.0], h)
        assert mults[0] == pytest.approx((1 - h / 2) / (1 + h / 2))

    def test_rejects_non_steady_point(self):
        with pytest.raises(NotASteadyState):
            map_multipliers_at_fixed_point(lv_vf(), [2.0, 0.5], 0.1)


class TestLocalOrder:
    def test_one_step_error_is_third_order(self):
        vf = lv_vf()

        def local_err(h):
            ref = solve_ivp(
                lambda t, s: vf.evaluate(s), [0, h], [2.0, 0.5],
                method="DOP853", rtol=1e-13, atol=1e-15,
            ).y[:, -1]
            step = kahan_step(vf, [2.0, 0.5], KahanStepConfig(h=h))
            return np.abs(step - ref).max()

        ratio = np.log2(local_err(0.02) / local_err(0.01))
        assert ratio > 2.8
