"""A ten-parameter family of linearly implicit Lotka-Volterra discretizations.

For the normalized system x' = x(1 - y), y' = y(x - 1) the family is

    (xt - x)/h =  a x + (1-a) xt - (b x y + c xt yt + d x yt + e xt y)
    (yt - y)/h = -A y - (1-A) yt + (B x y + C xt yt + D x yt + E xt y)

subject to b + c + d + e = 1 and B + C + D + E = 1.  Both relations are
affine in each of xt and yt, so eliminating one unknown leaves a quadratic
in the other; the map is birational exactly when that quadratic factors
rationally, which happens on seven parameter subfamilies (labels i..vii).
Three subfamilies (I..III) preserve the symplectic form dx ^ dy / (x y).

Classification is template membership with exact rational arithmetic; the
symbolic certificate independently re-derives the elimination quadratics
over Q[x, y, h] and checks their discriminants for perfect squares, with h
carried as an indeterminate so the verdict covers every step size at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random

from .errors import (
    ConstraintViolation,
    DegenerateLinearTerm,
    DomainError,
    NotBirational,
    SingularImplicitSystem,
)
from .ratpoly import MultiPoly, _as_fraction, perfect_square_root, sum_of_products

# Birational templates by the four weights they set to zero.  The paper's
# other conditions (d + e = 1 in i, d = 1 in ii, E = 1 in iv, ...) follow
# from b + c + d + e = 1 and B + C + D + E = 1, which LVParams enforces.
_CASE_TEMPLATES = {
    "i": "bcBC", "ii": "bceC", "iii": "bcdB", "iv": "cBCD",
    "v": "bBCE", "vi": "beCE", "vii": "cdBD",
}
# Symplectic templates as a birational template plus ties {weight: partner};
# in II, D = d forces E = e through the same two sums.
_SYMPLECTIC_TEMPLATES = {"I": ("vii", {}), "II": ("i", {"D": "d"}), "III": ("vi", {})}

CASE_LABELS = tuple(_CASE_TEMPLATES)
SYMPLECTIC_LABELS = tuple(_SYMPLECTIC_TEMPLATES)

BIRATIONAL = "BIRATIONAL"
NOT_CERTIFIED = "NOT_CERTIFIED"

DEFAULT_STEP_TOL = 1e-9


@dataclass(frozen=True)
class LVParams:
    """Exact scheme parameters (a, b, c, d, e, A, B, C, D, E).

    Floats are rejected; feed strings like "1/2" or "0.1" for exact values.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    E: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e", "A", "B", "C", "D", "E"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
        lower = self.b + self.c + self.d + self.e
        if lower != 1:
            raise ConstraintViolation(f"b + c + d + e = {lower}, expected 1")
        upper = self.B + self.C + self.D + self.E
        if upper != 1:
            raise ConstraintViolation(f"B + C + D + E = {upper}, expected 1")

    @classmethod
    def from_list(cls, values) -> "LVParams":
        vals = list(values)
        if len(vals) != 10:
            raise ConstraintViolation(f"expected 10 parameters, got {len(vals)}")
        return cls(*[_as_fraction(v) for v in vals])

    def to_list(self) -> list[Fraction]:
        return [self.a, self.b, self.c, self.d, self.e, self.A, self.B, self.C, self.D, self.E]

    @cached_property
    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.to_list())

    @cached_property
    def elimination_order(self) -> str | None:
        """The unknown :func:`lv_step` solves for first, read from the exact quadratics.

        "yt" when eliminating xt leaves an equation in yt whose quadratic
        coefficient p2 = c h + c (1 - A) h^2 + (C d - c D) x h^2 vanishes
        identically (tested first), else "xt" when eliminating yt leaves
        q2 = C h + C (a - 1) h^2 + (C e - c E) y h^2 = 0 likewise.  None for a
        set with neither, which lv_step refuses.
        """
        if self.c == 0 and self.C * self.d == 0:
            return "yt"
        if self.C == 0 and self.c * self.E == 0:
            return "xt"
        return None

    @cached_property
    def inverse(self) -> "LVParams":
        """:func:`invert_params` of this set, built once."""
        return invert_params(self)


# -- named schemes ---------------------------------------------------------------

KAHAN_SCHEME = LVParams.from_list(["1/2", 0, 0, "1/2", "1/2", "1/2", 0, 0, "1/2", "1/2"])
MICKENS_SCHEME = LVParams.from_list([2, 0, 0, 0, 1, 0, 0, -1, 0, 2])
# an oscillation-preserving member of case (vi) / symplectic case (III)
CASE_VI_SCHEME = LVParams.from_list(["1/2", 0, "3/2", "-1/2", 0, "1/2", "4/5", 0, "1/5", 0])


def case_iv_blend(d) -> LVParams:
    """Case-(iv) family {1/2, 3/2, 0, d, -d-1/2, 1/2, 0, 0, 0, 1}.

    Symplectic (case I) exactly at d = 0; for d != 0 orbits lose the
    conserved form and drift toward the interior fixed point.
    """
    d = _as_fraction(d)
    return LVParams.from_list(
        [Fraction(1, 2), Fraction(3, 2), 0, d, -d - Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 1]
    )


# -- classification ----------------------------------------------------------------


def _zero_weights(p: LVParams) -> frozenset[str]:
    """Names of p's weights (b..e, B..E) that are zero."""
    return frozenset(w for w in "bcdeBCDE" if not getattr(p, w))


def classify_birational(p: LVParams) -> tuple[str, ...]:
    """Labels of the birational case templates containing p (possibly several)."""
    zero = _zero_weights(p)
    return tuple(label for label, zeros in _CASE_TEMPLATES.items() if zero.issuperset(zeros))


def classify_symplectic(p: LVParams) -> tuple[str, ...]:
    """Labels of the symplectic case templates containing p."""
    zero = _zero_weights(p)
    return tuple(label for label, (case, ties) in _SYMPLECTIC_TEMPLATES.items()
                 if zero.issuperset(_CASE_TEMPLATES[case])
                 and all(getattr(p, w) == getattr(p, t) for w, t in ties.items()))


def check_sympcon(p: LVParams) -> bool:
    """Product conditions equivalent to preservation of dx ^ dy / (x y):

    d E - D e = c C = d C = c E = b B = b D = e B = 0.  Each two-weight
    product vanishes when one of its weights is zero.
    """
    zero = _zero_weights(p)
    return (all(zero.intersection(pair) for pair in ("cC", "dC", "cE", "bB", "bD", "eB"))
            and p.d * p.E == p.D * p.e)


def invert_params(p: LVParams) -> LVParams:
    """Parameters of the inverse scheme (used with step -h); an involution.

    Swaps b with c, d with e, B with C, D with E and reflects a, A about 1/2.
    """
    return LVParams(
        a=1 - p.a, b=p.c, c=p.b, d=p.e, e=p.d,
        A=1 - p.A, B=p.C, C=p.B, D=p.E, E=p.D,
    )


# -- the step relations -------------------------------------------------------------


def _relation_coeffs(vals, x, y, h, one):
    """Coefficients of the two step relations in the basis {1, xt, yt, xt*yt}.

    Returns (c1, u1, v1, uv1, c2, u2, v2, uv2) for h-scaled residuals E1, E2
    that vanish on step pairs.  This is the float body of step_residuals;
    :func:`lv_stepper` forms the same coefficients in the same operation
    order, so its bits match.  The tests also run it over Fraction and
    MultiPoly as the oracle of the closed forms in
    :func:`_elimination_quadratics`.
    """
    a, b, c, d, e, A, B, C, D, E = vals
    e1c = h * b * x * y - x - h * a * x
    e1u = one - (1 - a) * h + e * h * y
    e1v = d * h * x
    e1uv = c * h
    e2c = h * A * y - y - h * B * x * y
    e2u = -(E * h * y)
    e2v = one + (1 - A) * h - D * h * x
    e2uv = -(C * h)
    return e1c, e1u, e1v, e1uv, e2c, e2u, e2v, e2uv


def step_residuals(p: LVParams, x, y, xt, yt, h):
    """h-scaled residuals of the two defining relations at a candidate pair."""
    c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(p.as_floats, x, y, h, 1.0)
    r1 = c1 + u1 * xt + v1 * yt + uv1 * xt * yt
    r2 = c2 + u2 * xt + v2 * yt + uv2 * xt * yt
    return r1, r2


def lv_stepper(p: LVParams, h: float, tol: float = DEFAULT_STEP_TOL):
    """The step (x, y) -> (xt, yt) of the scheme p at step size h, bound once.

    Returns ``step(state)``, which takes a pair of reals, such as a tuple
    or a float array, and returns the pair of floats (xt, yt).  Eliminating
    one unknown from the two relations leaves an equation that is linear in
    the other, in the order ``p.elimination_order`` fixes exactly for every
    birational template: the linear root comes first, then the eliminated
    unknown from whichever relation has a denominator clear of zero.  A set
    with no such order raises NotBirational here, before any step.

    The products of h and the weights are formed once.  Every product in
    :func:`_relation_coeffs` is left-associated and starts with h and a
    weight (``h*b*x*y`` is ``((h*b)*x)*y``), so each step performs the same
    IEEE operations in the same order and gives the same bits.
    """
    order = p.elimination_order
    if order is None:
        raise NotBirational("no elimination is linear for this parameter set")
    swap = order == "xt"  # exchange the roles of xt and yt
    h = float(h)
    a, b, c, d, e, A, B, C, D, E = p.as_floats
    hb, ha, u1_0, eh, dh, uv1 = h * b, h * a, 1.0 - (1 - a) * h, e * h, d * h, c * h
    hA, hB, Eh, v2_0, Dh, uv2 = h * A, h * B, E * h, 1.0 + (1 - A) * h, D * h, -(C * h)

    def step(state):
        x, y = state
        x, y = float(x), float(y)
        c1 = hb * x * y - x - ha * x
        u1 = u1_0 + eh * y
        v1 = dh * x
        c2 = hA * y - y - hB * x * y
        u2 = -(Eh * y)
        v2 = v2_0 - Dh * x
        if swap:
            u1, v1, u2, v2 = v1, u1, v2, u2
        # the resultant in r of E_i = (u_i + uv_i s) r + (c_i + v_i s) is s1 s + s0
        # in the solved unknown s: the order makes its s^2 term vanish
        s1 = u1 * v2 + uv1 * c2 - u2 * v1 - uv2 * c1
        s0 = u1 * c2 - u2 * c1
        if abs(s1) <= tol * (abs(s0) + 1.0):
            raise DegenerateLinearTerm(f"linear coefficient {s1} too small, map undefined here")
        s = -s0 / s1
        num, den = c1 + v1 * s, u1 + uv1 * s
        if not abs(den) > tol * (abs(num) + 1.0):
            num, den = c2 + v2 * s, u2 + uv2 * s
            if not abs(den) > tol * (abs(num) + 1.0):
                raise DegenerateLinearTerm("both recovery denominators vanish")
        r = -num / den
        return (s, r) if swap else (r, s)

    return step


def lv_step(p: LVParams, x: float, y: float, h: float, tol: float = DEFAULT_STEP_TOL):
    """One step (x, y) -> (xt, yt) of the scheme p: :func:`lv_stepper` bound for one call.

    A caller that steps one scheme at one h many times binds the step once
    with :func:`lv_stepper` instead.
    """
    return lv_stepper(p, h, tol)((x, y))


def lv_inverse_step(p: LVParams, xt: float, yt: float, h: float):
    """Inverse step: the inverted parameter set run with step -h."""
    return lv_step(p.inverse, xt, yt, -h)


# -- symbolic certification -----------------------------------------------------------


@dataclass(frozen=True)
class SymbolicCertificate:
    """Exact elimination quadratics and their discriminant square roots.

    The forward quadratic (in yt) has coefficients in the departure point
    (x, y); the backward quadratic (in y) has coefficients in the arrival
    point, represented here by the same two variable slots.
    """

    verdict: str
    forward: tuple[MultiPoly, MultiPoly, MultiPoly]
    backward: tuple[MultiPoly, MultiPoly, MultiPoly]
    forward_discriminant: MultiPoly
    backward_discriminant: MultiPoly
    forward_root: MultiPoly | None
    backward_root: MultiPoly | None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "forward_quadratic": [q.render() for q in self.forward],
            "backward_quadratic": [q.render() for q in self.backward],
            "forward_discriminant": self.forward_discriminant.render(),
            "backward_discriminant": self.backward_discriminant.render(),
            "forward_root": None if self.forward_root is None else self.forward_root.render(),
            "backward_root": None if self.backward_root is None else self.backward_root.render(),
        }


def _elimination_quadratics(p: LVParams, inverse: bool = False):
    """The resultant in xt of p's relations over Q[x, y, h], in closed form.

    Its coefficients (p2, p1, p0) of the quadratic in yt are those of
    alpha1*beta2 - alpha2*beta1 for E_i = alpha_i xt + beta_i.

    With the parameters as integers over the lcm ``L`` of their denominators,
    every coefficient is an integer over ``L**2``; terms are keyed by
    exponents (x, y, h).  The terms odd in h carry the factor ``s = L``.
    ``inverse=True`` gives the backward quadratics, those of
    ``invert_params(p)`` with h negated: the same swap of the integers, and
    ``s = -L``.
    """
    vals = p.to_list()
    L = math.lcm(*(v.denominator for v in vals))
    a, b, c, d, e, A, B, C, D, E = (v.numerator * (L // v.denominator) for v in vals)
    s = L
    if inverse:
        a, b, c, d, e, A, B, C, D, E = L - a, c, b, e, d, L - A, C, B, E, D
        s = -L
    raw, LL = MultiPoly._raw, L * L
    p2 = raw({(0, 0, 1): s * c, (0, 0, 2): c * (L - A), (1, 0, 2): C * d - c * D}, LL)
    p1 = raw({(0, 0, 0): LL, (0, 0, 1): s * (a - A), (0, 0, 2): (L - A) * (a - L),
              (0, 1, 1): s * (e - c), (0, 1, 2): A * c - A * e + L * e,
              (1, 0, 1): -s * (C + D), (1, 0, 2): D * L - D * a - C * a,
              (1, 1, 2): C * b - B * c + E * d - D * e}, LL)
    p0 = raw({(0, 1, 0): -LL, (0, 1, 1): s * (A + L - a), (0, 1, 2): A * (a - L),
              (0, 2, 1): -s * e, (0, 2, 2): A * e, (1, 1, 1): -s * (B + E),
              (1, 1, 2): B * L - B * a - E * a, (1, 2, 2): E * b - B * e}, LL)
    return p2, p1, p0


def _discriminant(p2, p1, p0) -> MultiPoly:
    return sum_of_products(((1, p1, p1), (-4, p2, p0)))


def symbolic_certificate(p: LVParams) -> SymbolicCertificate:
    """Exact birationality certificate over Q[x, y, h].

    Forward direction: eliminate xt, leaving a quadratic in yt.  Backward
    direction: the inverse scheme with h negated, whose elimination yields
    the quadratic satisfied by the departure y as a function of the arrival
    point.  Both come from :func:`_elimination_quadratics` in closed form,
    so the only polynomial arithmetic left is the discriminants and their
    square roots.  Each direction is solvable in radicals-free form
    precisely when its leading coefficient vanishes identically or its
    discriminant is a polynomial square.
    """
    forward = _elimination_quadratics(p)
    backward = _elimination_quadratics(p, inverse=True)

    disc_f = _discriminant(*forward)
    disc_b = _discriminant(*backward)
    root_f = perfect_square_root(disc_f)
    root_b = perfect_square_root(disc_b)
    forward_ok = forward[0].is_zero or root_f is not None
    backward_ok = backward[0].is_zero or root_b is not None
    verdict = BIRATIONAL if (forward_ok and backward_ok) else NOT_CERTIFIED
    return SymbolicCertificate(
        verdict=verdict,
        forward=forward,
        backward=backward,
        forward_discriminant=disc_f,
        backward_discriminant=disc_b,
        forward_root=root_f,
        backward_root=root_b,
    )


@dataclass(frozen=True)
class ClassificationReport:
    birational_cases: tuple[str, ...]
    symplectic_cases: tuple[str, ...]
    sympcon: bool
    certificate: SymbolicCertificate | None = None

    def to_json_dict(self) -> dict:
        out = {
            "birational_cases": list(self.birational_cases),
            "symplectic_cases": list(self.symplectic_cases),
            "sympcon": self.sympcon,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        return out


def classify_params(p: LVParams, certify: bool = False) -> ClassificationReport:
    return ClassificationReport(
        birational_cases=classify_birational(p),
        symplectic_cases=classify_symplectic(p),
        sympcon=check_sympcon(p),
        certificate=symbolic_certificate(p) if certify else None,
    )


# -- geometry ---------------------------------------------------------------------------


def lv_hamiltonian(x: float, y: float) -> float:
    """Conserved quantity H = log(x y) - x - y of the continuous flow."""
    if x <= 0 or y <= 0:
        raise DomainError(f"H is defined on the open positive quadrant, got ({x}, {y})")
    return math.log(x * y) - x - y


def symplectic_residual(p: LVParams, x: float, y: float, h: float) -> float:
    """det(d(xt, yt)/d(x, y)) - (xt yt)/(x y) by implicit differentiation.

    Zero (to rounding) exactly for schemes preserving dx ^ dy / (x y).
    """
    if x == 0 or y == 0:
        raise DomainError("residual needs x y != 0")
    xt, yt = lv_step(p, x, y, h)
    vals = p.as_floats
    a, b, c, d, e, A, B, C, D, E = vals

    m11 = 1.0 - h * (1.0 - a) + h * (c * yt + e * y)      # dE1/dxt
    m12 = h * (c * xt + d * x)                             # dE1/dyt
    m21 = -h * (C * yt + E * y)                            # dE2/dxt
    m22 = 1.0 + h * (1.0 - A) - h * (C * xt + D * x)       # dE2/dyt
    r11 = -1.0 - h * a + h * (b * y + d * yt)              # dE1/dx
    r12 = h * (b * x + e * xt)                             # dE1/dy
    r21 = -h * (B * y + D * yt)                            # dE2/dx
    r22 = -1.0 + h * A - h * (B * x + E * xt)              # dE2/dy

    det_m = m11 * m22 - m12 * m21
    if abs(det_m) <= 1e-15 * (abs(m11 * m22) + abs(m12 * m21)):
        raise SingularImplicitSystem(f"implicit system singular at ({x}, {y}), h={h}")
    det_r = r11 * r22 - r12 * r21
    # J solves M J = -R, so det J = det R / det M
    return det_r / det_m - (xt * yt) / (x * y)


# -- random representatives (seeded) ------------------------------------------------------


def _rand_fraction(rng: Random, nonzero: bool = False) -> Fraction:
    """p/q with p drawn from -3..3 and q from 1..4."""
    while True:
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if q != 0 or not nonzero:
            return q


def _random_member(zeros: str, ties: dict[str, str], rng: Random) -> LVParams:
    """Draw a, A, then per group the free weights in order; the last closes the sum."""
    vals = dict.fromkeys(zeros, 0)
    vals["a"] = _rand_fraction(rng)
    vals["A"] = _rand_fraction(rng)
    for group in ("bcde", "BCDE"):
        *drawn, last = (w for w in group if w not in zeros)
        for w in drawn:
            vals[w] = vals[ties[w]] if w in ties else _rand_fraction(rng, nonzero=True)
        vals[last] = 1 - sum(vals[w] for w in drawn)
    return LVParams(**vals)


def random_case_params(label: str, rng: Random) -> LVParams:
    """A random exact-rational member of a birational case template."""
    if label not in _CASE_TEMPLATES:
        raise KeyError(f"unknown case label {label!r}")
    return _random_member(_CASE_TEMPLATES[label], {}, rng)


def random_symplectic_params(label: str, rng: Random) -> LVParams:
    """A random exact-rational member of a symplectic case template."""
    if label not in _SYMPLECTIC_TEMPLATES:
        raise KeyError(f"unknown symplectic label {label!r}")
    case, ties = _SYMPLECTIC_TEMPLATES[label]
    return _random_member(_CASE_TEMPLATES[case], ties, rng)


def random_noncase_params(rng: Random) -> LVParams:
    """A constraint-satisfying set outside every birational case template, in 200 draws."""
    for _ in range(200):
        b = _rand_fraction(rng, nonzero=True)
        c = _rand_fraction(rng, nonzero=True)
        d = _rand_fraction(rng, nonzero=True)
        B = _rand_fraction(rng, nonzero=True)
        C = _rand_fraction(rng, nonzero=True)
        D = _rand_fraction(rng, nonzero=True)
        p = LVParams.from_list(
            [_rand_fraction(rng), b, c, d, 1 - b - c - d,
             _rand_fraction(rng), B, C, D, 1 - B - C - D]
        )
        if not classify_birational(p):
            return p
    raise RuntimeError("failed to sample a non-case parameter set")
