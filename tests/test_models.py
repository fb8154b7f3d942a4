"""Built-in reaction and predator-prey models."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from birat.errors import DenominatorVanishes, PoleError
from birat.geomcheck import iterate_map
from birat.kahan import KahanStepConfig, kahan_step
from birat.models import (
    MODELS,
    DimensionlessEnzymeParams,
    EnzymeParams,
    SchnakenbergParams,
    enzyme_diml_vf,
    enzyme_reduced_vf,
    enzyme_vf,
    hopf_unstable_b,
    lv_vf,
    michaelis_menten,
    model_vector_field,
    nondimensionalize,
    product_accumulate,
    schnakenberg_inverse_step,
    schnakenberg_steady_state,
    schnakenberg_step,
    schnakenberg_trace,
    schnakenberg_vf,
)

ENZ4 = EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01)
ENZ3 = DimensionlessEnzymeParams(mu=0.5, nu=0.6, eps=1e-2)
SCHNAK = SchnakenbergParams(0.1, 0.5)


class TestParamValidation:
    def test_enzyme_rates_positive(self):
        with pytest.raises(ValueError):
            EnzymeParams(-1.0, 0.5, 0.1)

    def test_dimensionless_ordering(self):
        with pytest.raises(ValueError):
            DimensionlessEnzymeParams(mu=0.7, nu=0.6, eps=0.1)
        with pytest.raises(ValueError):
            DimensionlessEnzymeParams(mu=0.5, nu=0.6, eps=0.0)

    def test_schnakenberg_positive(self):
        with pytest.raises(ValueError):
            SchnakenbergParams(-0.1, 0.5)


class TestEnzymeFourSpecies:
    def test_hand_values(self):
        vf = enzyme_vf(EnzymeParams(1.0, 0.5, 0.1, 1.0, 1.0))
        # s = e = 1, c = p = 0: binding at rate 1, nothing to unbind.
        assert vf.evaluate([1.0, 1.0, 0.0, 0.0]) == pytest.approx([-1.0, -1.0, 1.0, 0.0])

    def test_conserved_rows(self):
        vf = enzyme_vf(ENZ4)
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = rng.uniform(0.0, 2.0, 4)
            f = vf.evaluate(state)
            assert f[1] + f[2] == pytest.approx(0.0, abs=1e-15)       # e + c
            assert f[0] + f[2] + f[3] == pytest.approx(0.0, abs=1e-15)  # s + c + p


class TestNondimensionalize:
    def test_parameter_map(self):
        p = EnzymeParams(k1=2.0, km1=3.0, k2=1.8, s0=4.0, e0=0.05)
        diml, time_scale, scales = nondimensionalize(p)
        assert diml.mu == pytest.approx(3.0 / 8.0)
        assert diml.nu == pytest.approx(4.8 / 8.0)
        assert diml.eps == pytest.approx(0.0125)
        assert time_scale == pytest.approx(1.0 / (2.0 * 0.05))
        assert scales == pytest.approx([4.0, 0.05, 4.0])

    def test_reduction_consistent_with_mass_action(self):
        # On the invariant slice e = e0 - c the scaled 4-species field must
        # equal the reduced (x, y, z) field after the time rescaling.
        p = EnzymeParams(k1=2.0, km1=3.0, k2=1.8, s0=4.0, e0=0.05)
        diml, time_scale, scales = nondimensionalize(p)
        vf4 = enzyme_vf(p)
        vf3 = enzyme_diml_vf(diml)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, y, z = rng.uniform(0.05, 1.0, 3)
            state4 = [p.s0 * x, p.e0 * (1 - y), p.e0 * y, p.s0 * z]
            f4 = vf4.evaluate(state4)
            scaled = np.array([f4[0] / p.s0, f4[2] / p.e0, f4[3] / p.s0]) * time_scale
            assert scaled == pytest.approx(vf3.evaluate([x, y, z]), rel=1e-12, abs=1e-12)


class TestProductAccumulate:
    def test_starts_at_zero(self):
        z = product_accumulate(np.array([0.3, 0.4]), 0.1, ENZ3)
        assert z[0] == 0.0

    @given(st.floats(0.01, 1.0), st.integers(2, 30))
    def test_constant_y(self, y, n):
        z = product_accumulate(np.full(n, y), 0.5, ENZ3)
        expected = (ENZ3.nu - ENZ3.mu) * 0.5 * y * np.arange(n)
        assert z == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_matches_map_z_component(self):
        # The z update is exactly the trapezoid rule on the y samples, so the
        # quadrature route and the map route must agree to rounding.
        vf, cfg = enzyme_diml_vf(ENZ3), KahanStepConfig(h=1e-3)
        states = iterate_map(lambda s: kahan_step(vf, s, cfg), [1.0, 0.0, 0.0], 2000)
        z = product_accumulate(states[:, 1], 1e-3, ENZ3)
        assert np.abs(z - states[:, 2]).max() < 1e-12


class TestMichaelisMenten:
    def test_reference_value(self):
        assert michaelis_menten(1.0, 0.6) == pytest.approx(0.625)

    def test_zero_and_monotone(self):
        assert michaelis_menten(0.0, 0.6) == 0.0
        xs = np.linspace(0.0, 3.0, 50)
        vals = [michaelis_menten(float(x), 0.6) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)

    def test_pole(self):
        with pytest.raises(PoleError):
            michaelis_menten(-0.6, 0.6)


class TestReducedPlane:
    def test_origin_is_steady_and_attracting(self):
        vf = enzyme_reduced_vf(ENZ3)
        assert vf.evaluate([0.0, 0.0]) == pytest.approx([0.0, 0.0])
        eigs = np.linalg.eigvals(vf.jacobian([0.0, 0.0]))
        assert np.all(eigs.real < 0)


class TestLV:
    def test_center_and_signs(self):
        vf = lv_vf()
        assert vf.evaluate([1.0, 1.0]) == pytest.approx([0.0, 0.0])
        fx, fy = vf.evaluate([2.0, 0.5])
        assert fx > 0 and fy > 0


class TestSchnakenberg:
    def test_closed_form_step(self):
        xt, yt = schnakenberg_step(SCHNAK, 1.0, 1.0, 0.1)
        assert yt == pytest.approx(1.05 / 1.1, abs=1e-15)
        assert xt == pytest.approx((1.0 + 0.1 * (0.1 - 0.5)) / (1.05 - 0.1 * yt),
                                   abs=1e-15)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x, y = rng.uniform(0.2, 2.0, 2)
            xt, yt = schnakenberg_step(SCHNAK, x, y, 0.05)
            xb, yb = schnakenberg_inverse_step(SCHNAK, xt, yt, 0.05)
            assert (xb, yb) == pytest.approx((x, y), abs=1e-12)

    def test_steady_state(self):
        xs, ys = schnakenberg_steady_state(SCHNAK)
        assert (xs, ys) == pytest.approx((0.6, 0.5 / 0.36))
        f = schnakenberg_vf(SCHNAK)
        assert f([xs, ys]) == pytest.approx([0.0, 0.0], abs=1e-15)
        # The steady state is fixed by the map at any step size.
        xt, yt = schnakenberg_step(SCHNAK, xs, ys, 0.3)
        assert (xt, yt) == pytest.approx((xs, ys), abs=1e-14)

    def test_trace_formula(self):
        p = SchnakenbergParams(0.1, 0.4)
        assert schnakenberg_trace(p) == pytest.approx(-1 + 2 * 0.4 / 0.5 - 0.25)
        f = schnakenberg_vf(p)
        xs, ys = schnakenberg_steady_state(p)
        eps = 1e-6
        j00 = (f([xs + eps, ys])[0] - f([xs - eps, ys])[0]) / (2 * eps)
        j11 = (f([xs, ys + eps])[1] - f([xs, ys - eps])[1]) / (2 * eps)
        assert schnakenberg_trace(p) == pytest.approx(j00 + j11, abs=1e-8)

    def test_hopf_unstable_b(self):
        b = hopf_unstable_b(0.1)
        assert schnakenberg_trace(SchnakenbergParams(0.1, b)) >= 0.25

    def test_step_consistency_order(self):
        # The closed-form update is first order: one-step error scales as h^2.
        f = schnakenberg_vf(SCHNAK)

        def local_err(h):
            ref = solve_ivp(lambda t, s: f(s), [0, h], [1.0, 1.0],
                            method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
            return np.abs(np.array(schnakenberg_step(SCHNAK, 1.0, 1.0, h)) - ref).max()

        ratio = np.log2(local_err(0.02) / local_err(0.01))
        assert 1.8 < ratio < 2.3

    def test_denominator_vanishes(self):
        with pytest.raises(DenominatorVanishes):
            schnakenberg_step(SCHNAK, 1.0, 2.0, 2.0)
        with pytest.raises(DenominatorVanishes):
            schnakenberg_inverse_step(SCHNAK, 1.0, 0.0, 2.0)


class TestRegistry:
    def test_state_names(self):
        assert MODELS["enzyme4"].state_names == ("s", "e", "c", "p")
        assert MODELS["enzyme3"].state_names == ("x", "y", "z")
        assert MODELS["lv"].state_names == ("x", "y")
        assert MODELS["schnakenberg"].state_names == ("x", "y")

    def test_params_and_fast_scale(self):
        assert MODELS["enzyme4"].param_keys == ("k1", "km1", "k2", "s0", "e0")
        assert MODELS["enzyme3"].param_keys == ("mu", "nu", "eps")
        assert MODELS["lv"].param_keys == ()
        assert MODELS["schnakenberg"].param_keys == ("a", "b")
        assert (MODELS["enzyme4"].defaults, MODELS["enzyme3"].defaults,
                MODELS["lv"].defaults, MODELS["schnakenberg"].defaults) == \
            (ENZ4, ENZ3, None, SCHNAK)
        assert MODELS["enzyme4"].fast_scale(EnzymeParams(1.0, 0.5, 0.1, 2.0, 0.05)) == 0.025
        assert MODELS["enzyme3"].fast_scale(ENZ3) == 0.01
        assert MODELS["lv"].fast_scale is None and MODELS["schnakenberg"].fast_scale is None

    def test_vector_field_lookup(self):
        assert MODELS["enzyme3"].field(ENZ3).dim == 3
        assert MODELS["enzyme4"].field(ENZ4).dim == 4
        assert MODELS["lv"].field(None).dim == 2
        assert MODELS["schnakenberg"].field is None
        assert model_vector_field("enzyme3", ENZ3).dim == 3
        with pytest.raises(KeyError):
            model_vector_field("schnakenberg", SCHNAK)
        with pytest.raises(KeyError):
            model_vector_field("brusselator")

    def test_default_x0(self):
        assert MODELS["enzyme3"].default_x0(ENZ3) == [1.0, 0.0, 0.0]
        assert MODELS["enzyme4"].default_x0(ENZ4) == [1.0, 0.01, 0.0, 0.0]
        assert MODELS["lv"].default_x0(None) == [2.0, 0.5]
        x0 = MODELS["schnakenberg"].default_x0(SCHNAK)
        xs, ys = schnakenberg_steady_state(SCHNAK)
        assert x0 == pytest.approx([1.1 * xs, ys])

    @pytest.mark.parametrize("name, nullity", [("enzyme4", 2), ("enzyme3", 1), ("lv", 0)])
    def test_declared_invariants_span_derived_ones(self, name, nullity):
        # w . f == 0 for every x iff w annihilates each monomial's coefficient
        # column, so the linear first integrals are the left null space of
        # [c0 | lin | quad], one row per component.
        spec = MODELS[name]
        vf = spec.field(spec.defaults)
        d = vf.dim
        coeffs = np.hstack([vf.c0[:, None], vf.lin, vf.quad.reshape(d, -1)])
        u, s, _ = np.linalg.svd(coeffs)
        rank = int((s > s[0] * max(coeffs.shape) * np.finfo(float).eps).sum())
        null = u[:, rank:]
        assert null.shape[1] == nullity
        declared = np.array(list(spec.invariants(spec.defaults).values()),
                            dtype=float).reshape(-1, d)
        assert declared.shape[0] == nullity
        if nullity:
            assert np.linalg.matrix_rank(declared) == nullity
            # each declared w lies in the derived space: its part outside is rounding
            outside = declared - (declared @ null) @ null.T
            assert np.abs(outside).max() <= 1e-12 * np.abs(declared).max()
