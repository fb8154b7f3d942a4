"""Exact polynomial arithmetic and the perfect-square certificate."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birat.ratpoly import (
    VARIABLES,
    MultiPoly,
    parse_rational,
    perfect_square_root,
    sum_of_products,
)

X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
H = MultiPoly.variable("h")
ONE = MultiPoly.constant(1)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(MultiPoly)

# Mixed denominators up to 12 and a small exponent box, so that products and
# sums often land on the same monomial.
wide_coeffs = st.fractions(min_value=-7, max_value=7, max_denominator=12)
wide_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
wide_polys = st.dictionaries(wide_exponents, wide_coeffs, max_size=8).map(MultiPoly)


@st.composite
def cancelling_pairs(draw):
    """(p, q) where q carries the negatives of some of p's terms."""
    p = draw(wide_polys)
    keys = draw(st.lists(st.sampled_from(sorted(p.terms)), unique=True)) if p.terms else []
    extra = draw(st.dictionaries(wide_exponents, wide_coeffs, max_size=4))
    extra.update({key: -p.terms[key] for key in keys})
    return p, MultiPoly(extra)


@st.composite
def product_lists(draw):
    """(k, a, b) triples over a small pool of polynomials: some with ``a is b``,
    zero polynomials, k = 0 and negative k, and mixed denominators."""
    pool = draw(st.lists(st.one_of(polys, wide_polys, st.just(MultiPoly.zero())),
                         min_size=1, max_size=4))
    triples = []
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(-6, 6))
        a = draw(st.sampled_from(pool))
        b = a if draw(st.booleans()) else draw(st.sampled_from(pool))
        triples.append((k, a, b))
    return triples


def schoolbook(op, a, b):
    """Reference +, - and * on plain {exponents: Fraction} dicts, one term at a time."""
    out = {}
    if op == "*":
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                out[key] = out.get(key, Fraction(0)) + ca * cb
    else:
        out = dict(a)
        for key, cb in b.items():
            out[key] = out.get(key, Fraction(0)) + (cb if op == "+" else -cb)
    return {key: c for key, c in out.items() if c != 0}


def reference_square_root(terms):
    """Fraction peeling on {exponents: Fraction} dicts: the root with a positive
    leading coefficient, or None.  Each root term is the running remainder's
    leading coefficient over twice the root's leading coefficient."""
    if not terms:
        return {}
    lead_key = max(terms)
    lead = terms[lead_key]
    rn, rd = math.isqrt(max(lead.numerator, 0)), math.isqrt(lead.denominator)
    if any(e % 2 for e in lead_key) or rn * rn != lead.numerator or rd * rd != lead.denominator:
        return None
    half_key = tuple(e // 2 for e in lead_key)
    root = {half_key: Fraction(rn, rd)}
    remainder = schoolbook("-", terms, schoolbook("*", root, root))
    previous = None
    while remainder:
        mono = max(remainder)
        if previous is not None and mono >= previous:
            return None
        previous = mono
        exps = tuple(m - hk for m, hk in zip(mono, half_key))
        if any(e < 0 for e in exps):
            return None
        term = {exps: remainder[mono] / (2 * root[half_key])}
        twice_root_plus_term = schoolbook("+", schoolbook("+", root, root), term)
        remainder = schoolbook("-", remainder, schoolbook("*", term, twice_root_plus_term))
        root = schoolbook("+", root, term)
    return root if schoolbook("*", root, root) == terms else None


def assert_canonical(p):
    for key, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(key) is tuple and len(key) == 3
        assert all(type(e) is int and e >= 0 for e in key)
    # integer numerators over one positive denominator, in lowest terms
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert p.num or p.den == 1
    assert MultiPoly(p.terms) == p


def evaluate(p, x, y, h):
    """Exact value of p at rational (x, y, h), one Fraction term at a time."""
    return sum((c * x**ex * y**ey * h**eh for (ex, ey, eh), c in p.terms.items()),
               Fraction(0))


def parse_poly(text):
    """Inverse of :meth:`MultiPoly.render`: sums of ``coeff*x^i*y^j*h^k`` terms with
    any factor omitted and rational coefficients like ``3/2``; ``−`` is a minus."""
    cleaned = text.replace("−", "-").replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial string")
    # every + or - past position 0 starts a new term
    starts = [0] + [i for i in range(1, len(cleaned)) if cleaned[i] in "+-"]
    terms = {}
    for piece in (cleaned[i:j] for i, j in zip(starts, starts[1:] + [len(cleaned)])):
        coeff = Fraction(-1 if piece[0] == "-" else 1)
        piece = piece.lstrip("+-")
        if not piece:
            raise ValueError(f"dangling sign in {text!r}")
        exps = [0, 0, 0]
        for factor in piece.split("*"):
            name, caret, power = factor.partition("^")
            if name in VARIABLES and (not caret or power.isdigit()):
                exps[VARIABLES.index(name)] += int(power) if caret else 1
            else:
                coeff *= parse_rational(factor)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return MultiPoly(terms)


class TestRing:
    @given(polys, polys, polys)
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(polys, polys)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero
        assert p + (-p) == MultiPoly.zero()

    @given(polys)
    def test_units(self, p):
        assert p * ONE == p
        assert p + MultiPoly.zero() == p
        assert (p * MultiPoly.zero()).is_zero

    @given(polys, polys)
    def test_evaluate_is_ring_homomorphism(self, p, q):
        pt = (Fraction(3, 2), Fraction(-2, 3), Fraction(1, 7))
        assert evaluate(p + q, *pt) == evaluate(p, *pt) + evaluate(q, *pt)
        assert evaluate(p * q, *pt) == evaluate(p, *pt) * evaluate(q, *pt)

    def test_scalar_coercion(self):
        assert 2 * X == X + X
        assert X - 1 == X - ONE
        assert (Fraction(1, 2) * (X + X)) == X

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly({(-1, 0, 0): Fraction(1)})

    def test_huge_exponent_rejected(self):
        # Fraction("1e2000000") would build 10**2000000, which takes about a second
        with pytest.raises(ValueError, match="exponent of '1e2000000' exceeds"):
            MultiPoly({(1, 0, 0): "1e2000000"})
        with pytest.raises(ValueError, match="exponent of"):
            MultiPoly.constant("2.5e-2000000")

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            MultiPoly({(1, 0, 0): 0.5})
        with pytest.raises(TypeError):
            MultiPoly({(1, 0, 0): 1 + 0j})


class TestRingKernel:
    """The ring operations against a schoolbook Fraction reference."""

    OPS = {"+": lambda p, q: p + q, "-": lambda p, q: p - q, "*": lambda p, q: p * q}

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(OPS)), st.one_of(st.tuples(polys, polys),
                                                   st.tuples(wide_polys, wide_polys),
                                                   cancelling_pairs()))
    def test_matches_schoolbook(self, op, pair):
        p, q = pair
        result = self.OPS[op](p, q)
        assert result.terms == schoolbook(op, p.terms, q.terms)
        assert_canonical(result)

    @given(st.one_of(polys, wide_polys), st.one_of(wide_coeffs, st.integers(-5, 5)))
    def test_scalar_product(self, p, scalar):
        expected = {key: c * scalar for key, c in p.terms.items() if c * scalar != 0}
        for result in (p * scalar, scalar * p):
            assert result.terms == expected
            assert_canonical(result)

    @given(st.one_of(polys, wide_polys))
    def test_unary_results_canonical(self, p):
        for result in (-p, p - p, p + p, p * p):
            assert_canonical(result)
        assert (-p).terms == {key: -c for key, c in p.terms.items()}

    @given(wide_polys)
    def test_self_difference_and_square_root(self, p):
        assert (p - p).is_zero
        root = perfect_square_root(p * p)
        assert root == p or root == -p
        assert_canonical(root)

    def test_public_constructor_coerces(self):
        p = MultiPoly({(1, 0, 0): "3/2", (0, 1, 0): 2, (0, 0, 1): 0})
        assert p.terms == {(1, 0, 0): Fraction(3, 2), (0, 1, 0): Fraction(2)}
        assert (p.num, p.den) == ({(1, 0, 0): 3, (0, 1, 0): 4}, 2)
        assert_canonical(p)

    @given(wide_polys, wide_polys, wide_polys, wide_coeffs)
    def test_results_in_lowest_terms_and_hash_agrees(self, p, q, r, scalar):
        """Equal results reached by different routes share one form and one hash."""
        pairs = [((p + q) + r, p + (q + r)), (p * q, q * p), (p * (q + r), p * q + p * r),
                 (p - q, -(q - p)), (p * scalar, scalar * p),
                 ((p + q) - q, p)]
        for left, right in pairs:
            assert_canonical(left)
            assert_canonical(right)
            assert left == right
            assert hash(left) == hash(right)

    @given(st.one_of(wide_coeffs, st.integers(-5, 5), st.just(0)))
    def test_constant_hashes_like_its_value(self, value):
        """A constant polynomial equals its value, so it hashes like it too."""
        const = MultiPoly.constant(value)
        assert const == value and hash(const) == hash(value)
        assert const in {value} and value in {const}
        assert (const * X - X * value).is_zero and hash(const - value) == hash(0)

    @settings(max_examples=300)
    @given(product_lists())
    def test_sum_of_products_matches_schoolbook(self, triples):
        expected = {}
        for k, a, b in triples:
            scaled = {key: k * c for key, c in schoolbook("*", a.terms, b.terms).items()}
            expected = schoolbook("+", expected, scaled)
        result = sum_of_products(triples)
        assert result.terms == expected
        assert_canonical(result)
        assert result == MultiPoly(expected) and hash(result) == hash(MultiPoly(expected))

    def test_sum_of_products_edge_cases(self):
        zero = MultiPoly.zero()
        assert sum_of_products([]) == zero
        assert sum_of_products([(0, X, Y), (3, zero, X), (2, X, zero), (5, zero, zero)]) == zero
        assert sum_of_products([(1, X, Y), (-1, Y, X)]) == zero
        half = Fraction(1, 2) * X + Fraction(1, 3)
        assert sum_of_products([(1, half, half), (-4, X, Fraction(1, 12) * ONE)]) \
            == Fraction(1, 4) * X * X + Fraction(1, 9)


class TestEvaluation:
    def test_hand_value(self):
        p = Fraction(3, 2) * X * X * H - Y
        assert evaluate(p, 2, 3, 1) == Fraction(3)


class TestRender:
    def test_render_examples(self):
        assert (Fraction(3, 2) * X * X * H - Y).render() == "3/2*x^2*h - y"
        assert MultiPoly.zero().render() == "0"
        assert ONE.render() == "1"

    @given(polys)
    def test_parse_render_roundtrip(self, p):
        assert parse_poly(p.render()) == p

    def test_parse_unicode_minus(self):
        assert parse_poly("x − y") == X - Y

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("")
        with pytest.raises(ValueError):
            parse_poly("x^")


class TestPerfectSquare:
    @settings(max_examples=200)
    @given(polys)
    def test_square_is_recognized(self, p):
        sq = p * p
        root = perfect_square_root(sq)
        assert root is not None
        assert root * root == sq

    def test_root_has_positive_leading_coefficient(self):
        root = perfect_square_root((X - Y) * (X - Y))
        assert root is not None
        assert root.num[max(root.num)] > 0

    def test_known_roots(self):
        assert perfect_square_root(MultiPoly.zero()) == MultiPoly.zero()
        assert perfect_square_root(4 * X * X) == 2 * X
        assert perfect_square_root(Fraction(9, 4) * X * X * H * H * H * H) \
            == Fraction(3, 2) * X * H * H

    def test_integer_peeling(self):
        # p = x^2 + x + 1/4 is (x + 1/2)^2; x^2 + x is not a square in Q[x, y, h]
        assert perfect_square_root(X * X + X + Fraction(1, 4)) == X + Fraction(1, 2)
        assert perfect_square_root(X * X + X) is None
        assert perfect_square_root(Fraction(1, 12) * X * X) is None

    def test_non_squares_rejected(self):
        assert perfect_square_root(X) is None
        assert perfect_square_root(X * X + Y * Y) is None
        assert perfect_square_root((X + Y) * (X + Y) + ONE) is None
        assert perfect_square_root(-(X * X)) is None
        assert perfect_square_root(2 * X * X) is None
        assert perfect_square_root(X * X + X * Y) is None


class TestSquareRootOracle:
    """perfect_square_root against the Fraction peeling in ``reference_square_root``."""

    @settings(max_examples=200)
    @given(wide_polys)
    def test_root_of_square_has_positive_leading_coefficient(self, q):
        root = perfect_square_root(q * q)
        assert root == (q if q.is_zero or q.num[max(q.num)] > 0 else -q)
        assert root.terms == reference_square_root((q * q).terms)

    @settings(max_examples=200)
    @given(wide_polys)
    def test_agrees_with_reference(self, p):
        root, expected = perfect_square_root(p), reference_square_root(p.terms)
        assert (root is None) == (expected is None)
        assert root is None or root.terms == expected

    @settings(max_examples=200)
    @given(wide_polys, wide_coeffs.filter(bool), wide_exponents)
    def test_agrees_with_reference_on_perturbed_squares(self, q, c, m):
        p = q * q + MultiPoly({m: c})
        root, expected = perfect_square_root(p), reference_square_root(p.terms)
        assert (root is None) == (expected is None)
        assert root is None or root.terms == expected
