"""Exact sparse polynomials in the variables x, y, h with rational coefficients.

A polynomial is stored as integer numerators over one positive common
denominator in lowest terms, so every operation here is exact and runs on
Python integers; ``terms`` gives the coefficients as ``fractions.Fraction``.
Monomials are keyed by exponent triples (ex, ey, eh) and compared
lexicographically in that order, which is the term order used by the perfect
square test.
"""

from __future__ import annotations

import math
from fractions import Fraction

VARIABLES = ("x", "y", "h")

_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}


# Fraction("1e3000000") builds 10**3000000, which takes seconds; CPython already
# caps the digit count, so the decimal exponent is the one unbounded part.
MAX_DECIMAL_EXPONENT = 10_000


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact Fraction.

    A decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in size is a ValueError.
    """
    text = text.strip()
    _, e, exponent = text.lower().rpartition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:  # not an exponent; Fraction reports the text
            too_large = False
        if too_large:
            raise ValueError(f"exponent of {text!r} exceeds {MAX_DECIMAL_EXPONENT} in size")
    return Fraction(text)


def _as_fraction(value) -> Fraction:
    """Coerce to Fraction, rejecting floats: exactness is the point here."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational (Fraction, int or string),"
                    f" got {type(value).__name__}")


class MultiPoly:
    """Sparse polynomial over Q in x, y, h, stored as ``num / den``.

    ``num`` maps exponent triples to nonzero integers and ``den`` is a positive
    integer with ``gcd(den, *num.values()) == 1``; zero is ``({}, 1)``.  Every
    polynomial has exactly one such form, so ``==`` and ``hash`` compare it.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        clean: dict[tuple[int, int, int], Fraction] = {}
        for key, coeff in (terms or {}).items():
            ex, ey, eh = (int(e) for e in key)
            if ex < 0 or ey < 0 or eh < 0:
                raise ValueError(f"negative exponent in {key}")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                clean[(ex, ey, eh)] = coeff
        # the lcm of reduced denominators is already coprime to the numerators
        self.den = math.lcm(*(c.denominator for c in clean.values()))
        self.num = {key: c.numerator * (self.den // c.denominator) for key, c in clean.items()}

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, num: dict, den: int) -> "MultiPoly":
        """Trusted constructor for ring results: integer numerators over ``den > 0``;
        zero numerators are dropped and the common gcd divided out."""
        poly = object.__new__(cls)
        if 0 in num.values():
            num = {key: n for key, n in num.items() if n}
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {key: n // g for key, n in num.items()}
        poly.num, poly.den = num, den // g
        return poly

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        value = _as_fraction(value)
        return cls._raw({(0, 0, 0): value.numerator}, value.denominator)

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        exps = [0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls._raw({tuple(exps): 1}, 1)

    @property
    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        """A fresh ``{exponents: Fraction}`` dict of the nonzero coefficients."""
        return {key: Fraction(n, self.den) for key, n in self.num.items()}

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(other)

    def _combine(self, other, sign: int) -> "MultiPoly":
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        scale_a, scale_b = den // self.den, sign * (den // other.den)
        out = {key: n * scale_a for key, n in self.num.items()}
        for key, n in other.num.items():
            out[key] = out.get(key, 0) + n * scale_b
        return MultiPoly._raw(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw({key: -n for key, n in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = _as_fraction(other)
            return MultiPoly._raw({key: n * scalar.numerator for key, n in self.num.items()},
                                  self.den * scalar.denominator)
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = MultiPoly.constant(other)
            except TypeError:
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        if not self.num.keys() - {(0, 0, 0)}:  # a constant hashes like the Fraction it equals
            return hash(Fraction(self.num.get((0, 0, 0), 0), self.den))
        return hash((self.den, frozenset(self.num.items())))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Plain-text form such as ``3/2*x^2*h - y``; zero renders as ``0``."""
        terms = self.terms
        if not terms:
            return "0"
        chunks = []
        for key in sorted(terms, reverse=True):
            coeff = terms[key]
            factors = []
            for name, exp in zip(VARIABLES, key):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            magnitude = abs(coeff)
            if not factors or magnitude != 1:
                factors.insert(0, str(magnitude))
            term = "*".join(factors)
            if not chunks:
                chunks.append(term if coeff > 0 else f"-{term}")
            else:
                chunks.append(f"{'+' if coeff > 0 else '-'} {term}")
        return " ".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self.render()})"


def sum_of_products(products) -> MultiPoly:
    """``Σ k·a·b`` over ``(k, a, b)`` triples: integer ``k``, MultiPoly ``a`` and ``b``.

    Every product is accumulated into one dict of integer numerators over the
    lcm of the products' denominators and normalised once at the end.  A square
    (``a is b``) takes each unordered pair of its terms once.
    """
    products = [(k, a, b) for k, a, b in products if k and a.num and b.num]
    den = math.lcm(*(a.den * b.den for _, a, b in products))
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for k, a, b in products:
        scale = k * (den // (a.den * b.den))
        if a is b:
            terms = list(a.num.items())
            for i, ((ax, ay, ah), an) in enumerate(terms):
                key = (2 * ax, 2 * ay, 2 * ah)
                acc[key] = get(key, 0) + scale * an * an
                twice = 2 * scale * an
                for (bx, by, bh), bn in terms[i + 1:]:
                    key = (ax + bx, ay + by, ah + bh)
                    acc[key] = get(key, 0) + twice * bn
        else:
            b_terms = b.num.items()
            for (ax, ay, ah), an in a.num.items():
                an *= scale
                for (bx, by, bh), bn in b_terms:
                    key = (ax + bx, ay + by, ah + bh)
                    acc[key] = get(key, 0) + an * bn
    return MultiPoly._raw(acc, den)


def perfect_square_root(p: MultiPoly) -> MultiPoly | None:
    """Exact square root of p, or None when p is not a polynomial square.

    With ``p = P/d`` (integer numerators ``P``), p is a square in Q[x, y, h]
    exactly when ``P*d`` is, and a root R of ``P*d`` gives the root ``R/d``.
    R has integer coefficients: it is a root of ``T^2 - P*d``, and Z[x, y, h]
    is integrally closed (Gauss's lemma).  R is peeled one term at a time in
    lexicographic order: the leading term must be a square, and each further
    root coefficient is forced as ``divmod`` of the running remainder's leading
    coefficient by twice the root's leading coefficient.  A nonzero division
    remainder or a failed monomial division certifies p is not a square.  The
    returned root has a positive leading coefficient and is verified by exact
    multiplication before being returned.
    """
    if p.is_zero:
        return MultiPoly.zero()
    remainder = {key: n * p.den for key, n in p.num.items()}
    lead_key = max(remainder)
    lead_coeff = remainder.pop(lead_key)
    root_lead_coeff = math.isqrt(max(lead_coeff, 0))
    if any(e % 2 for e in lead_key) or root_lead_coeff * root_lead_coeff != lead_coeff:
        return None
    half_key = tuple(e // 2 for e in lead_key)
    twice_lead = 2 * root_lead_coeff
    root = {half_key: root_lead_coeff}
    previous = None
    while remainder:
        mono = max(remainder)
        if previous is not None and mono >= previous:
            return None  # no lexicographic progress, cannot be a square
        previous = mono
        exps = tuple(m - hk for m, hk in zip(mono, half_key))
        if any(e < 0 for e in exps):
            return None
        quotient, rest = divmod(remainder[mono], twice_lead)
        if rest:
            return None
        # remainder -= term * (2 * root + term), in place; root += term
        ex, ey, eh = exps
        updates = [((ex + rx, ey + ry, eh + rh), 2 * quotient * r)
                   for (rx, ry, rh), r in root.items()]
        updates.append(((2 * ex, 2 * ey, 2 * eh), quotient * quotient))
        for key, n in updates:
            n = remainder.get(key, 0) - n
            if n:
                remainder[key] = n
            else:
                del remainder[key]
        root[exps] = quotient

    root = MultiPoly._raw(root, p.den)
    # exact verification of the reconstruction
    return root if sum_of_products(((1, root, root),)) == p else None
