"""Vector fields whose components are polynomials of degree at most two.

A field is stored as f(x)_i = c0_i + sum_j lin_ij x_j + sum_jk quad_ijk x_j x_k
with quad symmetric in its last two indices, held as dense arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def _as_state(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (dim,):
        raise DimensionMismatch(f"state of shape {arr.shape}, field dimension {dim}")
    return arr


class QuadraticVectorField:
    """Autonomous quadratic vector field on R^N."""

    def __init__(self, c0, lin, quad):
        c0 = np.asarray(c0, dtype=float)
        lin = np.asarray(lin, dtype=float)
        quad = np.asarray(quad, dtype=float)
        dim = c0.shape[0]
        if c0.shape != (dim,) or lin.shape != (dim, dim) or quad.shape != (dim, dim, dim):
            raise DimensionMismatch(
                f"inconsistent shapes c0 {c0.shape}, lin {lin.shape}, quad {quad.shape}"
            )
        if not (np.isfinite(c0).all() and np.isfinite(lin).all() and np.isfinite(quad).all()):
            raise ValueError("field tensors must be finite")
        self.dim = dim
        self.c0 = c0
        self.lin = lin
        # only the symmetric part of quad contributes to f
        self.quad = 0.5 * (quad + quad.transpose(0, 2, 1))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_triplets(cls, dim, c0=None, lin_triplets=(), quad_triplets=()):
        """Build a field from monomial contributions.

        ``lin_triplets`` holds (i, j, value) meaning value*x_j added to f_i;
        ``quad_triplets`` holds (i, j, k, value) meaning value*x_j*x_k added
        to f_i.
        """
        c0_arr = np.zeros(dim) if c0 is None else np.asarray(c0, dtype=float)
        if c0_arr.shape != (dim,):
            raise DimensionMismatch(f"c0 shape {c0_arr.shape} for dimension {dim}")

        lin = np.zeros((dim, dim))
        for i, j, v in lin_triplets:
            lin[i, j] += v
        quad = np.zeros((dim, dim, dim))
        for i, j, k, v in quad_triplets:
            if j == k:
                quad[i, j, k] += v
            else:
                quad[i, j, k] += 0.5 * v
                quad[i, k, j] += 0.5 * v
        return cls(c0_arr, lin, quad)

    # -- core operations -----------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """f(x)."""
        x = _as_state(x, self.dim)
        qx = self.quad @ x
        return self.c0 + np.dot(self.lin, x) + np.dot(qx, x)

    def jacobian(self, x) -> np.ndarray:
        """f'(x) with entries lin_im + 2 sum_k quad_imk x_k."""
        x = _as_state(x, self.dim)
        return self.lin + 2.0 * (self.quad @ x)

    def evaluate_and_jacobian(self, x):
        """(f(x), f'(x)), bit-identical to :meth:`evaluate` and :meth:`jacobian`.

        The two share the one contraction quad @ x.  np.dot (on 2-D operands
        only) and qx + qx give the bits of @ and 2.0 * qx, at less cost.
        """
        x = _as_state(x, self.dim)
        qx = self.quad @ x
        return self.c0 + np.dot(self.lin, x) + np.dot(qx, x), self.lin + (qx + qx)

    def polarized_rhs(self, x, xt) -> np.ndarray:
        """Symmetric bilinear extension Q(x, xt) with Q(x, x) = f(x).

        Quadratic monomials x_j x_k are replaced by (x_j xt_k + xt_j x_k)/2,
        linear ones by the midpoint, constants kept.
        """
        x = _as_state(x, self.dim)
        xt = _as_state(xt, self.dim)
        mid = 0.5 * (x + xt)
        cross = 0.5 * ((self.quad @ xt) @ x + (self.quad @ x) @ xt)
        return self.c0 + self.lin @ mid + cross

    def __repr__(self):
        return f"QuadraticVectorField(dim={self.dim})"
