"""Exact sparse polynomials in the variables x, y, h with rational coefficients.

Coefficients are ``fractions.Fraction`` throughout, so every operation here is
exact.  Monomials are keyed by exponent triples (ex, ey, eh) and compared
lexicographically in that order, which is the term order used by the perfect
square test.
"""

from __future__ import annotations

import math
from fractions import Fraction

VARIABLES = ("x", "y", "h")

_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}


def _as_fraction(value) -> Fraction:
    """Coerce to Fraction, rejecting floats: exactness is the point here."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (Fraction, int or string), got {type(value).__name__}"
    )


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def _integer_numerators(terms) -> tuple[int, list[tuple[tuple[int, int, int], int]]]:
    """(d, [(key, coeff * d)]) with d the lcm of the coefficient denominators."""
    d = 1
    for coeff in terms.values():
        d = math.lcm(d, coeff.denominator)
    return d, [(key, coeff.numerator * (d // coeff.denominator)) for key, coeff in terms.items()]


class MultiPoly:
    """Sparse polynomial over Q in x, y, h."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int, int], Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                ex, ey, eh = (int(e) for e in key)
                if ex < 0 or ey < 0 or eh < 0:
                    raise ValueError(f"negative exponent in {key}")
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[(ex, ey, eh)] = coeff
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "MultiPoly":
        """Trusted constructor for ring results: keys are already exponent
        triples and values already Fractions, so only zero terms are dropped."""
        poly = object.__new__(cls)
        poly.terms = {key: coeff for key, coeff in terms.items() if coeff}
        return poly

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        return cls({(0, 0, 0): _as_fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        exps = [0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls({tuple(exps): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) - coeff
        return MultiPoly._raw(out)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = _as_fraction(other)
            if scalar == 0:
                return MultiPoly.zero()
            return MultiPoly._raw({key: coeff * scalar for key, coeff in self.terms.items()})
        # Multiply integer numerators over each side's common denominator and
        # divide once per output term: one Fraction normalisation per term
        # instead of one per product and per partial sum.
        da, a_terms = _integer_numerators(self.terms)
        db, b_terms = _integer_numerators(other.terms)
        acc: dict[tuple[int, int, int], int] = {}
        for (ax, ay, ah), an in a_terms:
            for (bx, by, bh), bn in b_terms:
                key = (ax + bx, ay + by, ah + bh)
                acc[key] = acc.get(key, 0) + an * bn
        den = da * db
        return MultiPoly._raw({key: Fraction(n, den) for key, n in acc.items() if n})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                other = MultiPoly.constant(other)
            except TypeError:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        """Largest exponent of the named variable; -1 for the zero polynomial."""
        idx = _VAR_INDEX[name]
        if not self.terms:
            return -1
        return max(key[idx] for key in self.terms)

    def leading_term(self) -> tuple[tuple[int, int, int], Fraction]:
        """Term with the lexicographically largest exponent triple."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return key, self.terms[key]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x, y, h) -> Fraction:
        """Exact evaluation at rational arguments."""
        x, y, h = _as_fraction(x), _as_fraction(y), _as_fraction(h)
        total = Fraction(0)
        for (ex, ey, eh), coeff in self.terms.items():
            total += coeff * x**ex * y**ey * h**eh
        return total

    def evaluate_float(self, x: float, y: float, h: float) -> float:
        total = 0.0
        for (ex, ey, eh), coeff in self.terms.items():
            total += float(coeff) * x**ex * y**ey * h**eh
        return total

    def negate_h(self) -> "MultiPoly":
        """Substitute h -> -h."""
        return MultiPoly._raw(
            {key: -coeff if key[2] % 2 else coeff for key, coeff in self.terms.items()}
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Plain-text form such as ``3/2*x^2*h - y``; zero renders as ``0``."""
        if not self.terms:
            return "0"
        chunks = []
        for key in sorted(self.terms, reverse=True):
            coeff = self.terms[key]
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


def parse_poly(text: str) -> MultiPoly:
    """Inverse of :meth:`MultiPoly.render`.

    Accepts sums of terms ``coeff*x^i*y^j*h^k`` with any factor omitted,
    rational coefficients like ``3/2``, and either ASCII ``-`` or a unicode
    minus sign.
    """
    cleaned = text.replace("−", "-").replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial string")
    # Split into signed terms.  Exponents and rationals never contain signs,
    # so every + or - past position 0 starts a new term.
    pieces: list[str] = []
    start = 0
    for i in range(1, len(cleaned)):
        if cleaned[i] in "+-":
            pieces.append(cleaned[start:i])
            start = i
    pieces.append(cleaned[start:])

    total = MultiPoly.zero()
    for piece in pieces:
        sign = Fraction(1)
        if piece and piece[0] in "+-":
            sign = Fraction(-1) if piece[0] == "-" else Fraction(1)
            piece = piece[1:]
        if not piece:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0, 0, 0]
        for factor in piece.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0] in _VAR_INDEX:
                name, caret, power = factor.partition("^")
                if name not in _VAR_INDEX or (caret and not power.isdigit()):
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                exps[_VAR_INDEX[name]] += int(power) if caret else 1
            else:
                coeff *= Fraction(factor)
        total = total + MultiPoly({tuple(exps): coeff})
    return total


def perfect_square_root(p: MultiPoly) -> MultiPoly | None:
    """Exact square root of p, or None when p is not a polynomial square.

    Works by peeling the root one term at a time in lexicographic order: the
    leading term of p must be a square, and each further root term is forced
    by the leading term of the running remainder divided by twice the root's
    leading term.  The reconstruction either terminates with remainder zero
    or fails a monomial division, which certifies p is not a square.  The
    returned root has a positive leading coefficient and is verified by exact
    multiplication before being returned.
    """
    if p.is_zero:
        return MultiPoly.zero()
    lead_key, lead_coeff = p.leading_term()
    if any(e % 2 for e in lead_key):
        return None
    root_lead_coeff = _sqrt_fraction(lead_coeff)
    if root_lead_coeff is None:
        return None
    half_key = tuple(e // 2 for e in lead_key)
    twice_lead = 2 * root_lead_coeff

    root = MultiPoly({half_key: root_lead_coeff})
    remainder = p - root * root
    previous = None
    while not remainder.is_zero:
        mono, coeff = remainder.leading_term()
        if previous is not None and mono >= previous:
            return None  # no lexicographic progress, cannot be a square
        previous = mono
        exps = tuple(m - hk for m, hk in zip(mono, half_key))
        if any(e < 0 for e in exps):
            return None
        term = MultiPoly({exps: coeff / twice_lead})
        remainder = remainder - term * (2 * root + term)
        root = root + term

    if root * root == p:  # exact verification of the reconstruction
        return root
    return None
