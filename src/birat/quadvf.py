"""Vector fields whose components are polynomials of degree at most two.

A field is stored as f(x)_i = c0_i + sum_j lin_ij x_j + sum_jk quad_ijk x_j x_k
with quad symmetric in its last two indices.  Small systems use dense arrays;
above ``DENSE_DIM_LIMIT`` the quadratic tensor is kept as a triplet list and
the linear part as a sparse matrix, behind the same interface.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch

DENSE_DIM_LIMIT = 32


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
        self.is_sparse = False

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "QuadraticVectorField":
        return cls(np.zeros(dim), np.zeros((dim, dim)), np.zeros((dim, dim, dim)))

    @classmethod
    def from_triplets(cls, dim, c0=None, lin_triplets=(), quad_triplets=(), sparse=None):
        """Build a field from monomial contributions.

        ``lin_triplets`` holds (i, j, value) meaning value*x_j added to f_i;
        ``quad_triplets`` holds (i, j, k, value) meaning value*x_j*x_k added
        to f_i.  Storage is sparse when dim exceeds ``DENSE_DIM_LIMIT`` unless
        overridden.
        """
        if sparse is None:
            sparse = dim > DENSE_DIM_LIMIT
        c0_arr = np.zeros(dim) if c0 is None else np.asarray(c0, dtype=float)
        if c0_arr.shape != (dim,):
            raise DimensionMismatch(f"c0 shape {c0_arr.shape} for dimension {dim}")

        if not sparse:
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

        self = cls.__new__(cls)
        self.dim = dim
        self.c0 = c0_arr
        self.is_sparse = True
        rows, cols, vals = [], [], []
        for i, j, v in lin_triplets:
            rows.append(i), cols.append(j), vals.append(v)
        self.lin = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        # full symmetric enumeration: each (j, k) with the tensor entry value
        entries: dict[tuple[int, int, int], float] = {}
        for i, j, k, v in quad_triplets:
            if j == k:
                entries[(i, j, k)] = entries.get((i, j, k), 0.0) + v
            else:
                entries[(i, j, k)] = entries.get((i, j, k), 0.0) + 0.5 * v
                entries[(i, k, j)] = entries.get((i, k, j), 0.0) + 0.5 * v
        keys = sorted(entries)
        self._qi = np.array([k[0] for k in keys], dtype=np.intp)
        self._qj = np.array([k[1] for k in keys], dtype=np.intp)
        self._qk = np.array([k[2] for k in keys], dtype=np.intp)
        self._qv = np.array([entries[k] for k in keys], dtype=float)
        return self

    # -- core operations -----------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """f(x)."""
        x = _as_state(x, self.dim)
        if not self.is_sparse:
            qx = self.quad @ x
            return self.c0 + self.lin @ x + qx @ x
        out = self.c0 + self.lin.dot(x)
        if self._qv.size:
            np.add.at(out, self._qi, self._qv * x[self._qj] * x[self._qk])
        return out

    def jacobian(self, x):
        """f'(x) with entries lin_im + 2 sum_k quad_imk x_k.

        Dense fields return an ndarray, sparse fields a CSR matrix.
        """
        x = _as_state(x, self.dim)
        if not self.is_sparse:
            return self.lin + 2.0 * (self.quad @ x)
        contrib = sp.csr_matrix(
            (2.0 * self._qv * x[self._qk], (self._qi, self._qj)), shape=(self.dim, self.dim)
        )
        return self.lin + contrib

    def evaluate_and_jacobian(self, x):
        """(f(x), f'(x)), bit-identical to :meth:`evaluate` and :meth:`jacobian`.

        Dense fields share the one contraction quad @ x between the two.
        """
        x = _as_state(x, self.dim)
        if self.is_sparse:
            return self.evaluate(x), self.jacobian(x)
        qx = self.quad @ x
        return self.c0 + self.lin @ x + qx @ x, self.lin + 2.0 * qx

    def polarized_rhs(self, x, xt) -> np.ndarray:
        """Symmetric bilinear extension Q(x, xt) with Q(x, x) = f(x).

        Quadratic monomials x_j x_k are replaced by (x_j xt_k + xt_j x_k)/2,
        linear ones by the midpoint, constants kept.
        """
        x = _as_state(x, self.dim)
        xt = _as_state(xt, self.dim)
        mid = 0.5 * (x + xt)
        if not self.is_sparse:
            cross = 0.5 * ((self.quad @ xt) @ x + (self.quad @ x) @ xt)
            return self.c0 + self.lin @ mid + cross
        out = self.c0 + self.lin.dot(mid)
        if self._qv.size:
            vals = 0.5 * self._qv * (x[self._qj] * xt[self._qk] + xt[self._qj] * x[self._qk])
            np.add.at(out, self._qi, vals)
        return out

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: dim, c0 list, lin dense rows, quad as [i, j, k, value] with j <= k."""
        if self.is_sparse:
            lin_dense = self.lin.toarray()
            entries: dict[tuple[int, int, int], float] = {}
            for i, j, k, v in zip(self._qi, self._qj, self._qk, self._qv):
                key = (int(i), int(j), int(k)) if j <= k else (int(i), int(k), int(j))
                entries[key] = float(v)  # symmetric duplicates carry equal values
        else:
            lin_dense = self.lin
            entries = {}
            ii, jj, kk = np.nonzero(self.quad)
            for i, j, k in zip(ii, jj, kk):
                if j <= k:
                    entries[(int(i), int(j), int(k))] = float(self.quad[i, j, k])
        quad_list = [[i, j, k, v] for (i, j, k), v in sorted(entries.items())]
        return {
            "dim": self.dim,
            "c0": [float(v) for v in self.c0],
            "lin": [[float(v) for v in row] for row in lin_dense],
            "quad": quad_list,
        }

    @classmethod
    def from_json_dict(cls, data: dict, sparse=None) -> "QuadraticVectorField":
        dim = int(data["dim"])
        lin_triplets = []
        for i, row in enumerate(data["lin"]):
            if len(row) != dim:
                raise DimensionMismatch(f"lin row {i} has length {len(row)}")
            for j, v in enumerate(row):
                if v:
                    lin_triplets.append((i, j, float(v)))
        quad_triplets = []
        for i, j, k, v in data["quad"]:
            if j > k:
                raise ValueError(f"quad entry ({i},{j},{k}) violates j <= k")
            # stored value is the symmetric tensor entry; off-diagonal pairs
            # contribute twice to the monomial coefficient
            quad_triplets.append((i, j, k, float(v) * (1.0 if j == k else 2.0)))
        return cls.from_triplets(
            dim, c0=data["c0"], lin_triplets=lin_triplets, quad_triplets=quad_triplets,
            sparse=sparse,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str, sparse=None) -> "QuadraticVectorField":
        return cls.from_json_dict(json.loads(text), sparse=sparse)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"QuadraticVectorField(dim={self.dim}, {kind})"
