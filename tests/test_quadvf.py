"""Quadratic vector field container: evaluation, polarization, storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from birat.errors import DimensionMismatch
from birat.models import enzyme_vf, lv_vf, EnzymeParams
from birat.quadvf import QuadraticVectorField

states2 = st.lists(
    st.floats(-3, 3, allow_nan=False, allow_infinity=False), min_size=2, max_size=2
).map(np.array)


@st.composite
def dense_fields_and_states(draw, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    coeffs = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    vf = QuadraticVectorField(draw(arrays(float, dim, elements=coeffs)),
                              draw(arrays(float, (dim, dim), elements=coeffs)),
                              draw(arrays(float, (dim, dim, dim), elements=coeffs)))
    return vf, draw(arrays(float, dim, elements=coeffs))


def hand_field():
    # f1 = x0^2, f2 = x0 x1
    return QuadraticVectorField.from_triplets(
        2, quad_triplets=[(0, 0, 0, 1.0), (1, 0, 1, 1.0)]
    )


def fd_jacobian(vf, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[j] += eps
        dn[j] -= eps
        cols.append((vf.evaluate(up) - vf.evaluate(dn)) / (2 * eps))
    return np.column_stack(cols)


class TestEvaluate:
    def test_hand_values(self):
        vf = hand_field()
        assert vf.evaluate([2.0, 3.0]) == pytest.approx([4.0, 6.0])
        np.testing.assert_allclose(vf.jacobian([2.0, 3.0]), [[4.0, 0.0], [3.0, 2.0]])

    def test_lv_field(self):
        vf = lv_vf()
        assert vf.evaluate([2.0, 0.5]) == pytest.approx([1.0, 0.5])
        assert vf.evaluate([1.0, 1.0]) == pytest.approx([0.0, 0.0])

    def test_zero_field(self):
        vf = QuadraticVectorField.from_triplets(3)
        assert vf.evaluate([1.0, 2.0, 3.0]) == pytest.approx([0.0, 0.0, 0.0])
        assert vf.jacobian([1.0, 2.0, 3.0]) == pytest.approx(np.zeros((3, 3)))

    def test_dimension_mismatch(self):
        vf = hand_field()
        with pytest.raises(DimensionMismatch):
            vf.evaluate([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            vf.jacobian([1.0])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for vf in (lv_vf(), enzyme_vf(EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01))):
            for _ in range(5):
                x = rng.uniform(0.1, 2.0, vf.dim)
                assert vf.jacobian(x) == pytest.approx(fd_jacobian(vf, x), abs=1e-7)

    @given(dense_fields_and_states())
    def test_fused_matches_evaluate_and_jacobian_bitwise(self, field_and_state):
        vf, x = field_and_state
        f, J = vf.evaluate_and_jacobian(x)
        assert f.tobytes() == vf.evaluate(x).tobytes()
        assert J.tobytes() == vf.jacobian(x).tobytes()

    def test_fused_checks_dimension(self):
        with pytest.raises(DimensionMismatch):
            hand_field().evaluate_and_jacobian([1.0, 2.0, 3.0])

    def test_nonsymmetric_input_is_symmetrized(self):
        # v x0 x1 supplied once must equal v/2 x0 x1 + v/2 x1 x0.
        once = QuadraticVectorField.from_triplets(2, quad_triplets=[(0, 0, 1, 3.0)])
        split = QuadraticVectorField.from_triplets(
            2, quad_triplets=[(0, 0, 1, 1.5), (0, 1, 0, 1.5)]
        )
        x = np.array([1.7, -0.3])
        assert once.evaluate(x) == pytest.approx(split.evaluate(x))


class TestPolarization:
    @given(states2, states2)
    def test_symmetric(self, x, xt):
        vf = lv_vf()
        assert vf.polarized_rhs(x, xt) == pytest.approx(vf.polarized_rhs(xt, x), abs=1e-12)

    @given(states2)
    def test_diagonal_recovers_field(self, x):
        vf = lv_vf()
        assert vf.polarized_rhs(x, x) == pytest.approx(vf.evaluate(x), abs=1e-12)

    @given(states2, states2, states2)
    def test_affine_in_second_argument(self, x, u, v):
        vf = lv_vf()
        alpha = 0.375
        mixed = vf.polarized_rhs(x, alpha * u + (1 - alpha) * v)
        split = alpha * vf.polarized_rhs(x, u) + (1 - alpha) * vf.polarized_rhs(x, v)
        assert mixed == pytest.approx(split, abs=1e-9)

