"""Polarized one-step map: explicit solve, inverse, series, multipliers."""
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from birat.errors import (
    DimensionMismatch,
    NotASteadyState,
    PoleAtTwoOverH,
    SingularStepMatrix,
)
from birat import kahan
from birat.geomcheck import iterate_map
from birat.kahan import (
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
        series = lambda vf, x, h: kahan_step_series(vf, x, h, 1)  # noqa: E731
        for step in (kahan_step, kahan_inverse_step, series):
            for h in (0.0, -0.0, float("inf"), float("nan")):
                with pytest.raises(ValueError, match="^step size h must be finite and nonzero$"):
                    step(logistic_vf(), [0.5], h)

    def test_rejects_negative_series_order(self):
        with pytest.raises(ValueError, match="^series_order must be nonnegative$"):
            kahan_step_series(logistic_vf(), [0.5], 0.1, -1)


class TestStep:
    def test_logistic_hand_value(self):
        # At x = 1/2 the Jacobian vanishes, so the update is x + h f(x).
        out = kahan_step(logistic_vf(), [0.5], 0.1)
        assert out == pytest.approx([0.525], abs=1e-15)

    def test_logistic_inverse_recovers(self):
        out = kahan_inverse_step(logistic_vf(), [0.525], 0.1)
        assert out == pytest.approx([0.5], abs=1e-12)

    def test_implicit_polarized_relation(self):
        # The defining relation: (xt - x)/h equals the polarized field at (x, xt).
        rng = np.random.default_rng(2)
        for vf in (lv_vf(), enzyme_diml_vf(ENZ3)):
            for _ in range(10):
                x = rng.uniform(0.1, 1.5, vf.dim)
                xt = kahan_step(vf, x, 0.05)
                residual = (xt - x) / 0.05 - vf.polarized_rhs(x, xt)
                assert np.abs(residual).max() < 1e-12

    def test_forward_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        for vf in (lv_vf(), enzyme_diml_vf(ENZ3)):
            for h in (1e-3, 0.05, -0.05):
                for _ in range(10):
                    x = rng.uniform(0.1, 1.5, vf.dim)
                    back = kahan_inverse_step(vf, kahan_step(vf, x, h), h)
                    assert np.abs(back - x).max() < 1e-11

    @given(dense_fields_states_steps())
    def test_roundtrip_random_dense_fields(self, case):
        vf, x, h = case
        back = kahan_inverse_step(vf, kahan_step(vf, x, h), h)
        assert np.abs(back - x).max() <= 1e-14

    def test_inverse_is_backward_step(self):
        # Inverting equals stepping with -h.
        vf = lv_vf()
        x = np.array([1.3, 0.7])
        inv = kahan_inverse_step(vf, x, 0.1)
        neg = kahan_step(vf, x, -0.1)
        assert inv == pytest.approx(neg, abs=1e-14)

    def test_singular_step_matrix(self):
        with pytest.raises(SingularStepMatrix):
            kahan_step(pure_linear_vf(), [1.0], 2.0)

    def test_singular_messages_name_the_step(self):
        with pytest.raises(SingularStepMatrix, match=r"^step matrix at h=2\.0: pivot"):
            kahan_step(pure_linear_vf(), [1.0], 2.0)
        with pytest.raises(SingularStepMatrix,
                           match=r"^inverse step matrix at h=-2\.0: pivot"):
            kahan_inverse_step(pure_linear_vf(), [1.0], -2.0)
        # the text quotes the h passed, not the -h the inverse step solves with
        decay = QuadraticVectorField.from_triplets(1, lin_triplets=[(0, 0, -1.0)])
        with pytest.raises(SingularStepMatrix,
                           match=r"^inverse step matrix at h=2\.0: pivot"):
            kahan_inverse_step(decay, [1.0], 2.0)

    def test_singular_step_matrix_dim40(self):
        dim = 40
        vf = QuadraticVectorField.from_triplets(
            dim, lin_triplets=[(i, i, 1.0) for i in range(dim)]
        )
        with pytest.raises(SingularStepMatrix):
            kahan_step(vf, np.ones(dim), 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kahan_step(lv_vf(), [1.0, 2.0, 3.0], 0.1)


class TestIterate:
    def test_shape_and_initial_row(self):
        vf = lv_vf()
        out = iterate_map(lambda s: kahan_step(vf, s, 0.01), [2.0, 0.5], 7)
        assert out.shape == (8, 2)
        assert out[0] == pytest.approx([2.0, 0.5])

    def test_matches_repeated_steps(self):
        vf = lv_vf()
        out = iterate_map(lambda s: kahan_step(vf, s, 0.02), [2.0, 0.5], 3)
        x = np.array([2.0, 0.5])
        for k in range(3):
            x = kahan_step(lv_vf(), x, 0.02)
            assert out[k + 1] == pytest.approx(x, rel=0, abs=0)

    def test_linear_first_integrals_exact(self):
        # w f = 0 implies w x is preserved to rounding along the orbit.
        vf = enzyme_vf(EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01))
        states = iterate_map(lambda s: kahan_step(vf, s, 0.01), [1.0, 0.01, 0.0, 0.0], 1000)
        for w in (np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0, 1.0])):
            vals = states @ w
            assert np.abs(vals - vals[0]).max() < 1e-13


class TestSeries:
    def test_order_zero_is_euler(self):
        vf = lv_vf()
        x = np.array([2.0, 0.5])
        out = kahan_step_series(vf, x, 0.1, 0)
        assert out == pytest.approx(x + 0.1 * vf.evaluate(x), abs=1e-15)

    def test_monotone_convergence_diagonal_linear(self):
        vf = QuadraticVectorField.from_triplets(
            2, lin_triplets=[(0, 0, -1.0), (1, 1, -1.0)]
        )
        x = np.array([1.0, 2.0])
        exact = kahan_step(vf, x, 0.5)
        errs = [
            np.abs(kahan_step_series(vf, x, 0.5, k)
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
        exact = kahan_step(vf, x, 1e-3)
        err3 = np.abs(
            kahan_step_series(vf, x, 1e-3, 3) - exact
        ).max()
        assert 1e-6 < err3 < 1e-5
        err4 = np.abs(
            kahan_step_series(vf, x, 1e-3, 4) - exact
        ).max()
        assert 0.05 < err4 / err3 < 0.12
        err7 = np.abs(
            kahan_step_series(vf, x, 1e-3, 7) - exact
        ).max()
        assert err7 < 1e-9

    def test_mass_action_truncation_below_1e9(self):
        # The four-species mass-action system with e0/s0 = 1e-2 is not stiff,
        # so K = 3 already reproduces the exact solve far below 1e-9.
        vf = enzyme_vf(EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01))
        x = [1.0, 0.01, 0.0, 0.0]
        exact = kahan_step(vf, x, 1e-3)
        ser = kahan_step_series(vf, x, 1e-3, 3)
        assert np.abs(ser - exact).max() < 1e-9


class TestRkEquivalence:
    def test_residual_vanishes_on_step(self):
        rng = np.random.default_rng(4)
        vf = lv_vf()
        for _ in range(10):
            x = rng.uniform(0.2, 2.0, 2)
            xt = kahan_step(vf, x, 0.1)
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
            step = kahan_step(vf, [2.0, 0.5], h)
            return np.abs(step - ref).max()

        ratio = np.log2(local_err(0.02) / local_err(0.01))
        assert ratio > 2.8


SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 1e-300, 1e308])


class TestPivotCheck:
    """The singularity check on Python floats keeps numpy's verdict, NaN included."""

    @given(st.integers(2, 4).flatmap(lambda n: arrays(
        float, (n, n), elements=st.one_of(SPECIAL, st.floats(width=64)))),
        st.sampled_from([1e-12, 1e-3, 0.5]))
    # dgetrf leaves pivots (-inf, nan, nan): Python's min alone would drop the NaNs
    @example(np.array([[5e307, -5e307, 0.0], [-np.inf, np.inf, 0.0], [0.0, -0.05, 1.0]]),
             1e-12)
    def test_verdict_matches_numpy_reductions(self, M, tol):
        getrf, _ = kahan._dense_lu_routines()
        lu, _, _ = getrf(M)
        expected = np.abs(lu.diagonal()).min() <= tol * np.abs(M).max()
        try:
            kahan._solve_step_matrix(M, np.ones(len(M)), tol, "step matrix", 0.1)
        except SingularStepMatrix:
            assert expected
        else:
            assert not expected


class TestLapackRoutines:
    """The direct ``_flapack`` load and the ``scipy.linalg`` fallback agree."""

    def test_direct_load_is_scipy_linalg_lookup(self):
        code = ("import sys\n"
                "from birat import kahan\n"
                "routines = kahan._dense_lu_routines()\n"
                "assert not any(m.startswith('scipy.linalg') for m in sys.modules)\n"
                "import scipy.linalg as sla\n"
                "expected = sla.get_lapack_funcs(('getrf', 'getrs'), dtype=float)\n"
                "print([a is b for a, b in zip(routines, expected)])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[True, True]\n"

    def test_fallback_gives_same_step_bits(self, monkeypatch):
        import scipy.linalg as sla

        vf = enzyme_diml_vf(ENZ3)
        x0 = [1.0, 0.2, 0.05]
        direct = iterate_map(lambda s: kahan_step(vf, s, 0.1), x0, 50)

        failed = []

        def fail(spec):
            failed.append(spec.name)
            raise ImportError("direct load disabled")

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        monkeypatch.setattr(kahan, "module_from_spec", fail)
        kahan._dense_lu_routines.cache_clear()
        try:
            routines = kahan._dense_lu_routines()
            fallback = iterate_map(lambda s: kahan_step(vf, s, 0.1), x0, 50)
        finally:
            kahan._dense_lu_routines.cache_clear()
        expected = sla.get_lapack_funcs(("getrf", "getrs"), dtype=float)
        assert failed == ["scipy.linalg._flapack"]
        assert all(a is b for a, b in zip(routines, expected))
        assert direct.tobytes() == fallback.tobytes()
