"""Ten-parameter bilinear predator-prey family: steps, cases, certificates."""
import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from birat.errors import (
    BiratError,
    ConstraintViolation,
    DegenerateLinearTerm,
    DomainError,
    NotBirational,
)
from birat.geomcheck import iterate_map
from birat.kahan import kahan_step
from birat.lvfamily import (
    BIRATIONAL,
    CASE_LABELS,
    CASE_VI_SCHEME,
    KAHAN_SCHEME,
    MICKENS_SCHEME,
    NOT_CERTIFIED,
    SYMPLECTIC_LABELS,
    DEFAULT_STEP_TOL,
    ClassificationReport,
    LVParams,
    _CASE_TEMPLATES,
    _SYMPLECTIC_TEMPLATES,
    _elimination_quadratics,
    _relation_coeffs,
    case_iv_blend,
    check_sympcon,
    classify_birational,
    classify_params,
    classify_symplectic,
    invert_params,
    lv_hamiltonian,
    lv_inverse_step,
    lv_step,
    lv_stepper,
    random_case_params,
    random_noncase_params,
    random_symplectic_params,
    step_residuals,
    symbolic_certificate,
    symplectic_residual,
)
from birat.models import lv_vf
from birat.ratpoly import MultiPoly, perfect_square_root

X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
H = MultiPoly.variable("h")
ONE = MultiPoly.constant(1)

QUARTERS = LVParams.from_list(["1/4"] * 10)

small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=5)


def _group(weight):
    """Three weights of b..e or B..E, and the index (0-3) of the fourth, which closes the sum."""
    return st.tuples(weight, weight, weight, st.integers(0, 3))


def _close(w1, w2, w3, k):
    weights = [w1, w2, w3]
    return [*weights[:k], 1 - sum(weights), *weights[k:]]


def constrained_params(a, A, lower, upper):
    return LVParams(a, *_close(*lower), A, *_close(*upper))


constrained = st.builds(constrained_params, small_fractions, small_fractions,
                        _group(small_fractions), _group(small_fractions))
zero_heavy = st.one_of(st.just(Fraction(0)), small_fractions)


@st.composite
def _sparse_constrained(draw):
    # The upper group is often a copy of the lower one, which draws the tie
    # D = d of symplectic II.
    lower = draw(_group(zero_heavy))
    upper = draw(st.one_of(st.just(lower), _group(zero_heavy)))
    return constrained_params(draw(zero_heavy), draw(zero_heavy), lower, upper)


# constrained sets whose weights are often zero, so that every template is reached
sparse_constrained = _sparse_constrained()


class TestParams:
    def test_constraint_violation_names_sum(self):
        with pytest.raises(ConstraintViolation, match="b \\+ c \\+ d \\+ e"):
            LVParams.from_list([1, 1, 0, 0, 1, 1, 0, 0, 0, 1])
        with pytest.raises(ConstraintViolation, match="B \\+ C \\+ D \\+ E"):
            LVParams.from_list([1, 0, 0, 0, 1, 1, 1, 0, 0, 1])

    def test_from_list_length(self):
        with pytest.raises(ValueError):
            LVParams.from_list([1, 0, 0, 0, 1])

    def test_huge_exponent_rejected(self):
        # Fraction("1e2000000") would build 10**2000000, which takes about a second
        with pytest.raises(ValueError, match="exponent of '1e2000000' exceeds"):
            LVParams.from_list(["1e2000000", 1, 0, 0, 0, "1/2", 0, 0, "1/2", "1/2"])
        with pytest.raises(ValueError, match="exponent of"):
            case_iv_blend("-1E-2000000")

    def test_exact_storage(self):
        p = LVParams.from_list(["1/3", "1/3", "1/3", "1/3", 0, 0, 1, 0, 0, 0])
        assert p.a == Fraction(1, 3)
        assert isinstance(p.b, Fraction)
        assert p.to_list()[4] == Fraction(0)


class TestNamedSchemes:
    def test_kahan_scheme_classification(self):
        assert classify_birational(KAHAN_SCHEME) == ("i",)
        assert classify_symplectic(KAHAN_SCHEME) == ("II",)
        assert check_sympcon(KAHAN_SCHEME)

    def test_mickens_scheme_classification(self):
        assert classify_birational(MICKENS_SCHEME) == ("iii", "vii")
        assert classify_symplectic(MICKENS_SCHEME) == ("I",)
        assert check_sympcon(MICKENS_SCHEME)

    def test_oscillating_scheme_classification(self):
        assert classify_birational(CASE_VI_SCHEME) == ("vi",)
        assert classify_symplectic(CASE_VI_SCHEME) == ("III",)

    def test_blend_endpoints(self):
        d0 = case_iv_blend(Fraction(0))
        d1 = case_iv_blend(Fraction(1))
        assert classify_birational(d0) == ("iv", "vii")
        assert classify_symplectic(d0) == ("I",)
        assert classify_birational(d1) == ("iv",)
        assert classify_symplectic(d1) == ()
        assert not check_sympcon(d1)

    def test_quarters_outside_all_cases(self):
        assert classify_birational(QUARTERS) == ()


def member(p, zeros, ties):
    """Template membership read one Fraction comparison at a time."""
    return (all(getattr(p, w) == 0 for w in zeros)
            and all(getattr(p, w) == getattr(p, t) for w, t in ties.items()))


def weight_grid():
    """Every weight group (b, c, d, e) with three weights from {0, 1/2, 1} and the
    fourth closing the sum to 1, so any weight can be zero or match another."""
    groups = set()
    for free in itertools.product((Fraction(0), Fraction(1, 2), Fraction(1)), repeat=3):
        for slot in range(4):
            groups.add(tuple(_close(*free, slot)))
    return sorted(groups)


class TestTemplateMembership:
    def test_zero_heavy_draws_reach_every_template(self):
        seen = set()

        @seed(0)
        @settings(max_examples=250, database=None, deadline=None)
        @given(sparse_constrained)
        def collect(p):
            seen.update(classify_birational(p), classify_symplectic(p))

        collect()
        assert seen == set(CASE_LABELS) | set(SYMPLECTIC_LABELS)

    def test_matches_fraction_comparisons(self):
        groups = weight_grid()
        for (b, c, d, e), (B, C, D, E) in itertools.product(groups, groups):
            p = LVParams(Fraction(1, 2), b, c, d, e, Fraction(1, 2), B, C, D, E)
            assert classify_birational(p) == tuple(
                label for label, zeros in _CASE_TEMPLATES.items() if member(p, zeros, {}))
            assert classify_symplectic(p) == tuple(
                label for label, (case, ties) in _SYMPLECTIC_TEMPLATES.items()
                if member(p, _CASE_TEMPLATES[case], ties))
            assert check_sympcon(p) == (p.d * p.E - p.D * p.e == 0 and p.c * p.C == 0
                                        and p.d * p.C == 0 and p.c * p.E == 0
                                        and p.b * p.B == 0 and p.b * p.D == 0
                                        and p.e * p.B == 0), p


class TestInversion:
    @given(constrained)
    def test_involution(self, p):
        assert invert_params(invert_params(p)) == p

    def test_case_pairing(self):
        # Inverting the parameters swaps the map direction, exchanging the
        # case memberships pairwise: i<->i, ii<->iii, iv<->v, vi<->vii.
        pairing = {"i": "i", "ii": "iii", "iii": "ii", "iv": "v",
                   "v": "iv", "vi": "vii", "vii": "vi"}
        rng = random.Random(17)
        for label, partner in pairing.items():
            for _ in range(3):
                rep = random_case_params(label, rng)
                assert partner in classify_birational(invert_params(rep))

    def test_mickens_inverse_cases(self):
        assert set(classify_birational(invert_params(MICKENS_SCHEME))) == {"ii", "vi"}


class TestStep:
    def test_kahan_scheme_matches_polarized_map(self):
        vf = lv_vf()
        rng = np.random.default_rng(12)
        for _ in range(20):
            x, y = rng.uniform(0.2, 2.0, 2)
            xt, yt = lv_step(KAHAN_SCHEME, x, y, 0.1)
            ref = kahan_step(vf, [x, y], 0.1)
            assert (xt, yt) == pytest.approx(tuple(ref), abs=1e-12)

    def test_mickens_frozen_value(self):
        assert lv_step(MICKENS_SCHEME, 1.5, 0.75, 0.1) == pytest.approx(
            (1.5319148936170213, 0.7818336162988115), abs=1e-15)

    def test_step_satisfies_relation(self):
        rng = random.Random(23)
        prng = np.random.default_rng(23)
        for label in CASE_LABELS:
            p = random_case_params(label, rng)
            for _ in range(5):
                x, y = prng.uniform(0.5, 1.5, 2)
                xt, yt = lv_step(p, x, y, 0.01)
                r1, r2 = step_residuals(p, x, y, xt, yt, 0.01)
                assert max(abs(r1), abs(r2)) < 1e-10

    def test_roundtrip_all_cases(self):
        rng = random.Random(42)
        prng = np.random.default_rng(2025)
        for label in CASE_LABELS:
            p = random_case_params(label, rng)
            for _ in range(5):
                x, y = 0.5 + prng.random(2)
                xt, yt = lv_step(p, x, y, 0.01)
                xb, yb = lv_inverse_step(p, xt, yt, 0.01)
                assert (xb, yb) == pytest.approx((x, y), abs=1e-11)

    def test_non_case_scheme_refused(self):
        with pytest.raises(NotBirational):
            lv_step(QUARTERS, 2.0, 0.5, 0.1)

    def test_set_without_order_refused_on_its_line_p2_zero(self):
        # On p2 = 0 the forward elimination is linear at this one x, but the
        # set has no exact order; a float test of p2 there used to drop p2 and
        # return the linear root, which misses the relations by up to 8e-13.
        rng = random.Random(3)
        refused = 0
        for _ in range(20):
            p = random_noncase_params(rng)
            root = _curve_root(p, Fraction(1, 10), "xt")
            if p.elimination_order is None and root is not None:
                with pytest.raises(NotBirational, match="no elimination is linear"):
                    lv_step(p, float(root), 0.7, 0.1)
                refused += 1
        assert refused >= 10

    def test_forward_order_without_inverse_order(self):
        # outside every template with c = d = 0, so p2 vanishes and the forward
        # step is linear; its inverse has b, B != 0 in the c, C slots
        p = LVParams.from_list(["1/2", "1/2", 0, 0, "1/2", "1/2", "1/2", 0, "1/2", 0])
        assert classify_birational(p) == ()
        assert (p.elimination_order, p.inverse.elimination_order) == ("yt", None)
        got = lv_step(p, 2.0, 0.5, 0.1)
        bounded = _bounded_lv_step(p, 2.0, 0.5, 0.1)
        assert tuple(b.v for b in bounded) == _exact_step(
            p, Fraction(2), Fraction(1, 2), Fraction(0.1))
        for g, b in zip(got, bounded):
            assert abs(Fraction(g) - b.v) <= b.e
        with pytest.raises(NotBirational, match="no elimination is linear"):
            lv_inverse_step(p, *got, 0.1)

    def test_first_order_consistency(self):
        # Every constraint-satisfying scheme discretizes the same flow, so
        # the one-step defect against the field shrinks linearly with h.
        vf = lv_vf()
        fx, fy = vf.evaluate([2.0, 0.5])

        def defect(p, h):
            xt, yt = lv_step(p, 2.0, 0.5, h)
            return max(abs((xt - 2.0) / h - fx), abs((yt - 0.5) / h - fy))

        for p in (MICKENS_SCHEME, CASE_VI_SCHEME):
            ratio = defect(p, 0.02) / defect(p, 0.01)
            assert 1.7 < ratio < 2.3

    def test_iterate_shape(self):
        out = iterate_map(lambda s: lv_step(KAHAN_SCHEME, s[0], s[1], 0.01),
                          [2.0, 0.5], 10)
        assert out.shape == (11, 2)
        assert out[0] == pytest.approx([2.0, 0.5])

    def test_recover_tolerance_is_relative(self):
        # Near u1 = 0, relation 1's recovery denominator is 1.5e-9: it clears
        # tol = 1e-9 absolutely, but against a numerator of 1.05 it is
        # rounding noise, and its quotient is off by 1.9e-8.  xt must come
        # from relation 2, and when that one is noise too the step refuses.
        x, y, h = 4.2e8, -2.999999994, 0.5
        c1, u1, v1, uv1, *_ = _relation_coeffs(KAHAN_SCHEME.as_floats, x, y, h, 1.0)
        xt, yt = lv_step(KAHAN_SCHEME, x, y, h)
        num1, den1 = c1 + v1 * yt, u1 + uv1 * yt
        assert DEFAULT_STEP_TOL < abs(den1) <= DEFAULT_STEP_TOL * (abs(num1) + 1.0)
        exact_xt = _exact_step(KAHAN_SCHEME, Fraction(x), Fraction(y), Fraction(h))[0]
        assert abs(Fraction(xt) - exact_xt) <= 1e-15 * abs(exact_xt)
        assert abs(Fraction(-num1 / den1) - exact_xt) > 1e-9 * abs(exact_xt)
        with pytest.raises(DegenerateLinearTerm, match="both recovery denominators vanish"):
            lv_step(KAHAN_SCHEME, 1e15, -2.999999992, 0.5)


class TestCertificates:
    def test_all_cases_certify(self):
        rng = random.Random(42)
        for label in CASE_LABELS:
            p = random_case_params(label, rng)
            cert = symbolic_certificate(p)
            assert cert.verdict == BIRATIONAL, label

    def test_quarters_not_certified(self):
        assert symbolic_certificate(QUARTERS).verdict == NOT_CERTIFIED

    def test_noncase_sets_not_certified(self):
        rng = random.Random(7)
        for _ in range(10):
            p = random_noncase_params(rng)
            assert symbolic_certificate(p).verdict == NOT_CERTIFIED
            assert classify_birational(p) == ()

    @settings(max_examples=30)
    @given(constrained)
    def test_forward_leading_coefficient_closed_form(self, p):
        cert = symbolic_certificate(p)
        expected = -(H * ((p.c * p.D - p.d * p.C) * (H * X)
                          + p.c * (p.A * H - ONE - H)))
        assert cert.forward[0] == expected

    @settings(max_examples=30)
    @given(constrained)
    def test_backward_leading_coefficient_closed_form(self, p):
        # The x slot holds the arrival point for the backward quadratic.
        cert = symbolic_certificate(p)
        lead = (p.B * (1 - p.c - p.d) - p.b * (1 - p.C - p.D)) * (H * X) \
            + p.b * (p.A * H - ONE)
        assert cert.backward[0] == H * lead

    def test_kahan_forward_leading_term_vanishes(self):
        cert = symbolic_certificate(KAHAN_SCHEME)
        assert cert.forward[0].is_zero
        assert cert.backward[0].is_zero

    def test_blend_d1_backward_quadratic(self):
        cert = symbolic_certificate(case_iv_blend(Fraction(1)))
        assert cert.verdict == BIRATIONAL
        assert cert.forward[0].is_zero
        assert cert.backward[0].render() == "-3/2*x*h^2 + 3/4*h^2 - 3/2*h"
        # Quadratic backward branch: certification rests on the discriminant
        # being a polynomial square.
        root = cert.backward_root
        assert root is not None
        assert root * root == cert.backward_discriminant

    def test_report_serialization(self):
        report = classify_params(MICKENS_SCHEME, certify=True)
        assert isinstance(report, ClassificationReport)
        data = report.to_json_dict()
        assert data["birational_cases"] == ["iii", "vii"]
        assert data["symplectic_cases"] == ["I"]
        assert data["sympcon"] is True
        assert data["certificate"]["verdict"] == BIRATIONAL

    # sha256 of the certificate JSON below: any change to a rendered
    # certificate, or to the seeded draw of parameter sets, moves it.
    CERTIFICATE_SHA256 = "4c602c1c287c94a5462b2b5258c8dd3713c5f7ced7af71ed8b7d3e9feee90836"

    def test_certificate_bytes_pinned(self):
        rng = random.Random(2014)
        sets = [random_case_params(label, rng) for label in CASE_LABELS]
        sets += [random_noncase_params(rng) for _ in range(4)]
        digest = hashlib.sha256()
        for p in sets:
            doc = classify_params(p, certify=True).to_json_dict()
            digest.update(json.dumps(doc, sort_keys=True).encode())
        assert digest.hexdigest() == self.CERTIFICATE_SHA256


def _eliminate(c1, u1, v1, uv1, c2, u2, v2, uv2):
    """Resultant of the two relations in u: quadratic coefficients in v.

    With E_i = (u_i + uv_i v) u + (c_i + v_i v), returns (p2, p1, p0) of
    alpha1*beta2 - alpha2*beta1.
    """
    p2 = uv1 * v2 - uv2 * v1
    p1 = u1 * v2 + uv1 * c2 - u2 * v1 - uv2 * c1
    p0 = u1 * c2 - u2 * c1
    return p2, p1, p0


def negate_h(q):
    """q with h -> -h."""
    return MultiPoly({key: -c if key[2] % 2 else c for key, c in q.terms.items()})


def reference_quadratics(p):
    """_eliminate over the relations from _relation_coeffs in x, y, h: (p2, p1, p0)
    with xt eliminated, and q2, the quadratic coefficient with yt eliminated."""
    c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(tuple(p.to_list()), X, Y, H, ONE)
    q2 = _eliminate(c1, v1, u1, uv1, c2, v2, u2, uv2)[0]
    return _eliminate(c1, u1, v1, uv1, c2, u2, v2, uv2), q2


def reference_certificate(p):
    """The generic certificate pipeline, one MultiPoly operation at a time: the
    relations from _relation_coeffs over x, y, h, the inverse scheme from
    invert_params, and the discriminants as p1 * p1 - 4 * p2 * p0."""
    forward = reference_quadratics(p)[0]
    backward = tuple(negate_h(q) for q in reference_quadratics(invert_params(p))[0])
    discs = [q[1] * q[1] - 4 * q[0] * q[2] for q in (forward, backward)]
    roots = [perfect_square_root(d) for d in discs]
    ok = [q[0].is_zero or r is not None for q, r in zip((forward, backward), roots)]
    return {
        "verdict": BIRATIONAL if all(ok) else NOT_CERTIFIED,
        "forward_quadratic": [q.render() for q in forward],
        "backward_quadratic": [q.render() for q in backward],
        "forward_discriminant": discs[0].render(),
        "backward_discriminant": discs[1].render(),
        "forward_root": None if roots[0] is None else roots[0].render(),
        "backward_root": None if roots[1] is None else roots[1].render(),
    }


class TestExactSymbolicSide:
    """The closed-form quadratics against the generic pipeline."""

    @given(st.one_of(constrained, sparse_constrained))
    def test_forward_quadratics_match_eliminate(self, p):
        assert _elimination_quadratics(p) == reference_quadratics(p)[0]

    @given(st.one_of(constrained, sparse_constrained))
    def test_backward_quadratics_match_inverse_scheme(self, p):
        expected = tuple(negate_h(q) for q in reference_quadratics(invert_params(p))[0])
        assert _elimination_quadratics(p, inverse=True) == expected

    @given(st.one_of(constrained, sparse_constrained))
    def test_elimination_order_matches_reference(self, p):
        (p2, _, _), q2 = reference_quadratics(p)
        assert p.elimination_order == ("yt" if p2.is_zero else "xt" if q2.is_zero else None)

    def test_certificate_matches_reference_pipeline(self):
        rng = random.Random(22)
        sets = [random_case_params(label, rng) for _ in range(60) for label in CASE_LABELS]
        sets += [random_noncase_params(rng) for _ in range(100)]
        assert len(sets) >= 500
        verdicts = set()
        for p in sets:
            doc = symbolic_certificate(p).to_json_dict()
            assert doc == reference_certificate(p), p
            verdicts.add(doc["verdict"])
        assert verdicts == {BIRATIONAL, NOT_CERTIFIED}


class TestHamiltonian:
    def test_reference_value(self):
        assert lv_hamiltonian(1.0, 1.0) == pytest.approx(-2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lv_hamiltonian(0.0, 1.0)
        with pytest.raises(DomainError):
            lv_hamiltonian(1.0, -0.5)

    def test_nearly_conserved_along_polarized_orbit(self):
        states = iterate_map(lambda s: lv_step(KAHAN_SCHEME, s[0], s[1], 0.01),
                             [2.0, 0.5], 2000)
        vals = np.array([lv_hamiltonian(x, y) for x, y in states])
        assert vals.max() - vals.min() < 1e-4


class TestSymplecticResidual:
    def test_kahan_scheme_preserves_form(self):
        prng = np.random.default_rng(13)
        for _ in range(20):
            x, y = prng.uniform(0.2, 2.0, 2)
            assert abs(symplectic_residual(KAHAN_SCHEME, x, y, 0.1)) < 1e-12

    def test_symplectic_templates(self):
        rng = random.Random(5)
        prng = np.random.default_rng(5)
        for label in SYMPLECTIC_LABELS:
            for _ in range(5):
                p = random_symplectic_params(label, rng)
                x, y = prng.uniform(0.2, 2.0, 2)
                assert abs(symplectic_residual(p, x, y, 0.1)) < 1e-10, label

    def test_blend_d1_frozen_violation(self):
        val = symplectic_residual(case_iv_blend(Fraction(1)), 1.5, 0.8, 0.1)
        assert val == pytest.approx(-0.014540966633703079, rel=1e-9)

    def test_case_i_symplectic_iff_diagonal_match(self):
        rng = random.Random(31)
        prng = np.random.default_rng(31)
        pts = prng.uniform(0.2, 2.0, (20, 2))
        for _ in range(5):
            p = random_case_params("i", rng)
            matched = LVParams(p.a, p.b, p.c, p.d, p.e,
                               p.A, p.B, p.C, p.d, 1 - p.B - p.C - p.d)
            worst = max(abs(symplectic_residual(matched, x, y, 0.1)) for x, y in pts)
            assert worst < 1e-10
            if p.d != p.D:
                worst = max(abs(symplectic_residual(p, x, y, 0.1)) for x, y in pts)
                assert worst > 1e-6

    def test_domain_error_on_axes(self):
        with pytest.raises(DomainError):
            symplectic_residual(KAHAN_SCHEME, 0.0, 1.0, 0.1)


class TestGenerators:
    def test_case_generator_lands_in_case(self):
        rng = random.Random(71)
        for label in CASE_LABELS:
            for _ in range(5):
                assert label in classify_birational(random_case_params(label, rng))

    def test_symplectic_generator_lands_in_case(self):
        rng = random.Random(72)
        for label in SYMPLECTIC_LABELS:
            for _ in range(5):
                assert label in classify_symplectic(random_symplectic_params(label, rng))

    def test_noncase_generator_misses_all_cases(self):
        rng = random.Random(73)
        for _ in range(10):
            assert classify_birational(random_noncase_params(rng)) == ()

    # sha256 of seeded symplectic members: any change to the number or order
    # of draws moves it.
    SYMPLECTIC_SHA256 = "309da55089fe9ec8cf15fc3bb2321873b976241262bacfc7a6717328d3d74a95"

    def test_symplectic_members_pinned(self):
        rng = random.Random(1994)
        members = [random_symplectic_params(label, rng)
                   for _ in range(4) for label in SYMPLECTIC_LABELS]
        text = ";".join(",".join(map(str, p.to_list())) for p in members)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SYMPLECTIC_SHA256

    def test_unknown_labels_raise_key_error(self):
        rng = random.Random(74)
        with pytest.raises(KeyError, match="unknown case label 'I'"):
            random_case_params("I", rng)
        with pytest.raises(KeyError, match="unknown symplectic label 'i'"):
            random_symplectic_params("i", rng)

    def test_templates_agree_with_certificate(self):
        # Zero-heavy sets land in a template often enough to test both ways;
        # the certificate re-derives birationality without the table.
        pool = [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3, 2)]
        rng = random.Random(2014)
        inside = 0
        for _ in range(300):
            a, A, b, c, d, B, C, D = (rng.choice(pool) for _ in range(8))
            p = LVParams(a, b, c, d, 1 - b - c - d, A, B, C, D, 1 - B - C - D)
            in_table = bool(classify_birational(p))
            inside += in_table
            assert in_table == (symbolic_certificate(p).verdict == BIRATIONAL), p
        assert 0 < inside < 300


def _exact_relations(p, h):
    """The two step relations E(x, y, xt, yt) of p at step h, in Fraction."""
    def rel(x, y, xt, yt):
        c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(p.to_list(), x, y, h, Fraction(1))
        return (c1 + u1 * xt + v1 * yt + uv1 * xt * yt,
                c2 + u2 * xt + v2 * yt + uv2 * xt * yt)
    return rel


def _exact_step(p, x, y, h):
    """The exact rational image (xt, yt): linear root, then recovery."""
    c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(p.to_list(), x, y, h, Fraction(1))
    swap = _eliminate(c1, u1, v1, uv1, c2, u2, v2, uv2)[0] != 0
    if swap:  # quadratic in yt: eliminate yt instead
        u1, v1, u2, v2 = v1, u1, v2, u2
    p2, p1, p0 = _eliminate(c1, u1, v1, uv1, c2, u2, v2, uv2)
    assert p2 == 0
    s = -p0 / p1
    den = u1 + uv1 * s
    t = -(c1 + v1 * s) / den if den else -(c2 + v2 * s) / (u2 + uv2 * s)
    return (s, t) if swap else (t, s)


def _det_partials(rel, point, i, j):
    """det of the partials of rel in slots i, j at point.

    Each relation is affine in each slot, so a unit central difference is exact.
    """
    cols = []
    for slot in (i, j):
        up, down = list(point), list(point)
        up[slot] += 1
        down[slot] -= 1
        cols.append([(hi - lo) / 2 for hi, lo in zip(rel(*up), rel(*down))])
    (a, c), (b, d) = cols
    return a * d - b * c


def _keeps_form(p, rng, points=3):
    """Exactly whether the step keeps dx ^ dy / (x y) at random rational points.

    With E(x, y, xt, yt) = 0, det DPhi = det dE/d(x, y) / det dE/d(xt, yt),
    and the form is kept iff det DPhi * x y = xt yt.  Both sides are rational
    in (x, y, h), so an identity that fails, fails at a random point.  The
    prime denominators keep the points off the finitely many exceptional
    values (such as h (1 - a) = 1) where a template's step is undefined.
    """
    for _ in range(points):
        x = Fraction(rng.randint(1, 400), 103)
        y = Fraction(rng.randint(1, 400), 107)
        h = Fraction(rng.randint(1, 50), 101)
        xt, yt = _exact_step(p, x, y, h)
        rel = _exact_relations(p, h)
        point = (x, y, xt, yt)
        if _det_partials(rel, point, 0, 1) * x * y != _det_partials(rel, point, 2, 3) * xt * yt:
            return False
    return True


class TestSymplecticOracle:
    def test_named_schemes(self):
        rng = random.Random(1994)
        for p in (KAHAN_SCHEME, MICKENS_SCHEME, CASE_VI_SCHEME, case_iv_blend(0)):
            assert _keeps_form(p, rng)
        assert not _keeps_form(case_iv_blend(1), rng)

    def test_symplectic_templates_keep_form(self):
        rng = random.Random(1995)
        for label in SYMPLECTIC_LABELS:
            for _ in range(30):
                assert _keeps_form(random_symplectic_params(label, rng), rng), label

    def test_oracle_agrees_with_table_and_sympcon(self):
        rng = random.Random(1996)
        kept = 0
        for label in CASE_LABELS:
            for _ in range(30):
                p = random_case_params(label, rng)
                expected = _keeps_form(p, rng)
                kept += expected
                assert bool(classify_symplectic(p)) == expected, (label, p)
                assert check_sympcon(p) == expected, (label, p)
        assert 0 < kept < 210


UNIT_ROUNDOFF = Fraction(1, 2**53)


class _Bounded:
    """An exact rational value, and a bound on how far the float computation of
    the same expression can lie from it.

    Every operation mirrors one float operation: the operands' error bounds
    propagate exactly (no linearisation), and rounding the result adds the
    unit roundoff times its magnitude.  Ints and floats met as operands are
    exact.
    """

    __slots__ = ("v", "e")

    def __init__(self, v, e=0):
        self.v, self.e = Fraction(v), Fraction(e)

    @staticmethod
    def _of(other):
        return other if isinstance(other, _Bounded) else _Bounded(other)

    @staticmethod
    def _rounded(v, e):
        return _Bounded(v, e + UNIT_ROUNDOFF * (abs(v) + e))

    def __add__(self, other):
        other = self._of(other)
        return self._rounded(self.v + other.v, self.e + other.e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._of(other)
        return self._rounded(self.v - other.v, self.e + other.e)

    def __rsub__(self, other):
        return self._of(other) - self

    def __neg__(self):
        return _Bounded(-self.v, self.e)

    def __mul__(self, other):
        other = self._of(other)
        return self._rounded(self.v * other.v,
                             abs(self.v) * other.e + abs(other.v) * self.e + self.e * other.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        assert other.e < abs(other.v), "divisor bound includes zero"
        q = self.v / other.v
        return self._rounded(q, (self.e + abs(q) * other.e) / (abs(other.v) - other.e))

    def __abs__(self):
        return abs(self.v)


def _bounded_lv_step(p, x, y, h, tol=DEFAULT_STEP_TOL):
    """lv_step's operations on _Bounded values, from the float inputs x, y, h.

    Each parameter enters with its exact rounding error as a float, and the
    elimination follows p.elimination_order, as lv_step's does.  The tests of
    the linear coefficient and of the recovery denominator see exact values;
    at points away from the degenerate ones they agree with the float tests.
    """
    vals = [_Bounded(q, abs(Fraction(float(q)) - q)) for q in p.to_list()]
    c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(
        vals, _Bounded(x), _Bounded(y), _Bounded(h), _Bounded(1))
    order = p.elimination_order
    assert order in ("xt", "yt")
    if order == "xt":
        u1, v1, u2, v2 = v1, u1, v2, u2
    _, s1, s0 = _eliminate(c1, u1, v1, uv1, c2, u2, v2, uv2)
    if abs(s1) <= tol * (abs(s0) + 1.0):
        raise DegenerateLinearTerm("linear coefficient too small")
    s = -s0 / s1
    num, den = c1 + v1 * s, u1 + uv1 * s
    if not abs(den) > tol * (abs(num) + 1.0):
        num, den = c2 + v2 * s, u2 + uv2 * s
        if not abs(den) > tol * (abs(num) + 1.0):
            raise DegenerateLinearTerm("both recovery denominators vanish")
    r = -num / den
    return (r, s) if order == "yt" else (s, r)


class TestFloatStepAgainstExact:
    """The float lv_step lies within a rounding-error bound of the exact step."""

    @pytest.mark.parametrize("p", [KAHAN_SCHEME, MICKENS_SCHEME, CASE_VI_SCHEME],
                             ids=["kahan", "mickens", "case-vi"])
    def test_within_derived_bound(self, p):
        rng = random.Random(2013)
        for _ in range(200):
            x = rng.randint(1, 400) / 103
            y = rng.randint(1, 400) / 107
            h = rng.randint(1, 50) / 101 * rng.choice((1, -1))
            exact = _exact_step(p, Fraction(x), Fraction(y), Fraction(h))
            bounded = _bounded_lv_step(p, x, y, h)
            assert tuple(b.v for b in bounded) == exact
            for got, b in zip(lv_step(p, x, y, h), bounded):
                assert abs(Fraction(got) - b.v) <= b.e, (x, y, h)
                assert b.e <= 1e-10 * abs(b.v)  # the bound itself is informative


def _curve_root(p, h, order):
    """Where the elimination that p's order skips has a vanishing quadratic term.

    For the xt order: the x with p2 = 0 (p2 is affine in x).  For the yt
    order: the y with q2 = 0 (affine in y).  None when the term does not
    depend on that variable.
    """
    one = Fraction(1)

    def coeff(t):
        x, y = (t, one) if order == "xt" else (one, t)
        c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(p.to_list(), x, y, h, one)
        if order == "xt":
            return _eliminate(c1, u1, v1, uv1, c2, u2, v2, uv2)[0]
        return _eliminate(c1, v1, u1, uv1, c2, v2, u2, uv2)[0]

    slope = coeff(one) - coeff(0)
    return None if slope == 0 else -coeff(0) / slope


class TestEliminationOrder:
    """LVParams.elimination_order comes from the exact quadratics, once per set,
    and lv_step follows it where a float test of p2 picked the wrong root."""

    def test_named_schemes(self):
        assert KAHAN_SCHEME.elimination_order == "yt"
        assert MICKENS_SCHEME.elimination_order == "yt"
        assert CASE_VI_SCHEME.elimination_order == "xt"
        assert QUARTERS.elimination_order is None

    def test_every_template_member_gets_an_order(self):
        rng = random.Random(2021)
        for label in CASE_LABELS:
            for _ in range(20):
                p = random_case_params(label, rng)
                cert = symbolic_certificate(p)
                assert cert.verdict == BIRATIONAL
                assert p.elimination_order == ("yt" if cert.forward[0].is_zero else "xt"), label
                if p.elimination_order == "xt":
                    assert cert.forward_root is not None
                # the inverse scheme's p2 is the backward quadratic's, h negated
                assert p.inverse.elimination_order == (
                    "yt" if cert.backward[0].is_zero else "xt"), label

    @settings(max_examples=200, deadline=None)
    @given(sparse_constrained)
    def test_certified_sets_are_template_members_with_an_order(self, p):
        # the certificate agrees with the template table, and no certified
        # set has both p2 and q2 nonzero, in either direction.  (A set outside
        # every template may still have p2 = 0: its forward step is linear,
        # its inverse is not.)
        certified = symbolic_certificate(p).verdict == BIRATIONAL
        assert certified == bool(classify_birational(p))
        if certified:
            assert p.elimination_order is not None
            assert p.inverse.elimination_order is not None

    def test_pole_line_of_case_vi(self):
        # p2 = -3/10 x h^2 + 3/4 h^2 + 3/2 h vanishes on x = 52.5 at h = 0.1; a
        # float test of p2 there dropped it and returned the spurious root
        # (823857423.75352192, -6.3333330217907404)
        x, y, h = 52.500001, 0.5, 0.1
        assert _curve_root(CASE_VI_SCHEME, Fraction(1, 10), "xt") == Fraction(105, 2)
        got = lv_step(CASE_VI_SCHEME, x, y, h)
        bounded = _bounded_lv_step(CASE_VI_SCHEME, x, y, h)
        assert tuple(b.v for b in bounded) == _exact_step(
            CASE_VI_SCHEME, Fraction(x), Fraction(y), Fraction(h))
        for g, b in zip(got, bounded):
            assert abs(Fraction(g) - b.v) <= b.e
        assert got == (17.49999833980571, -128750001.46138006)

    @settings(max_examples=150, deadline=None)
    @given(label=st.sampled_from(CASE_LABELS), seed=st.integers(0, 2**32 - 1),
           h=st.sampled_from([0.01, 0.1, 0.3, -0.1, -0.37]),
           offset=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]),
           sign=st.sampled_from([1, -1]), free=st.floats(0.2, 3.0))
    def test_near_the_quadratic_curve(self, label, seed, h, offset, sign, free):
        # x near the line p2 = 0 (xt order) or y near q2 = 0 (yt order): the
        # step is the exact step to within its derived rounding bound, or a
        # typed error; never a silent wrong root
        p = random_case_params(label, random.Random(seed))
        order = p.elimination_order
        root = _curve_root(p, Fraction(h), order)
        near = 1.0 + sign * offset if root is None else float(root * (1 + sign * Fraction(offset)))
        x, y = (near, free) if order == "xt" else (free, near)
        try:
            got = lv_step(p, x, y, h)
        except BiratError:
            return
        bounded = _bounded_lv_step(p, x, y, h)
        exact = tuple(b.v for b in bounded)
        assert _exact_relations(p, Fraction(h))(Fraction(x), Fraction(y), *exact) == (0, 0)
        for g, b in zip(got, bounded):
            assert abs(Fraction(g) - b.v) <= b.e, (x, y, h)


def _exact_residual(p, x, y, h):
    """symplectic_residual in Fraction arithmetic, rebuilt from _relation_coeffs.

    dE/d(xt, yt) is (u + uv yt, v + uv xt) from the relation coefficients, and
    dE/d(x, y) an exact unit difference, as in _keeps_form.
    """
    xt, yt = _exact_step(p, x, y, h)
    c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(p.to_list(), x, y, h, Fraction(1))
    det_m = (u1 + uv1 * yt) * (v2 + uv2 * xt) - (v1 + uv1 * xt) * (u2 + uv2 * yt)
    det_r = _det_partials(_exact_relations(p, h), (x, y, xt, yt), 0, 1)
    return det_r / det_m - xt * yt / (x * y)


def _bounded_symplectic_residual(p, x, y, h):
    """symplectic_residual's own operations on _Bounded values, from the float inputs.

    The step comes from _bounded_lv_step, each parameter carries its float
    rounding, and the eight partials are the function's expressions, term for
    term, so the bound counts exactly the roundings the function performs.
    """
    xt, yt = _bounded_lv_step(p, x, y, h)
    a, b, c, d, e, A, B, C, D, E = [_Bounded(q, abs(Fraction(float(q)) - q))
                                    for q in p.to_list()]
    x, y, h = _Bounded(x), _Bounded(y), _Bounded(h)
    m11 = 1.0 - h * (1.0 - a) + h * (c * yt + e * y)
    m12 = h * (c * xt + d * x)
    m21 = -h * (C * yt + E * y)
    m22 = 1.0 + h * (1.0 - A) - h * (C * xt + D * x)
    r11 = -1.0 - h * a + h * (b * y + d * yt)
    r12 = h * (b * x + e * xt)
    r21 = -h * (B * y + D * yt)
    r22 = -1.0 + h * A - h * (B * x + E * xt)
    return (r11 * r22 - r12 * r21) / (m11 * m22 - m12 * m21) - (xt * yt) / (x * y)


class TestSymplecticResidualAgainstExact:
    """The hand-typed partials of symplectic_residual are the relations' partials,
    and the float residual lies within a rounding bound of the exact one."""

    @pytest.mark.parametrize("p", [KAHAN_SCHEME, MICKENS_SCHEME, CASE_VI_SCHEME,
                                   case_iv_blend(1)],
                             ids=["kahan", "mickens", "case-vi", "blend-d1"])
    def test_within_derived_bound(self, p):
        rng = random.Random(2014)
        for _ in range(100):
            x = rng.randint(1, 400) / 103
            y = rng.randint(1, 400) / 107
            h = rng.randint(1, 50) / 101 * rng.choice((1, -1))
            exact = _exact_residual(p, Fraction(x), Fraction(y), Fraction(h))
            bounded = _bounded_symplectic_residual(p, x, y, h)
            assert bounded.v == exact
            assert abs(Fraction(symplectic_residual(p, x, y, h)) - exact) <= bounded.e, \
                (x, y, h)
            assert bounded.e <= 1e-10  # the bound itself is informative


def _reference_lv_step(p, x, y, h, tol=DEFAULT_STEP_TOL):
    """The lv step with every coefficient from _relation_coeffs at each call: the
    reference that lv_stepper's bound step and lv_step must match bit for bit."""
    order = p.elimination_order
    if order is None:
        raise NotBirational("no elimination is linear for this parameter set")
    x, y, h = float(x), float(y), float(h)
    c1, u1, v1, uv1, c2, u2, v2, uv2 = _relation_coeffs(p.as_floats, x, y, h, 1.0)
    if order == "xt":
        u1, v1, u2, v2 = v1, u1, v2, u2
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
    return (r, s) if order == "yt" else (s, r)


def _outcome(step, *args):
    """The step's floats as hex, so the sign of zero counts, or its exception's type and text."""
    try:
        return tuple(v.hex() for v in step(*args))
    except Exception as exc:  # noqa: BLE001 -- any exception must match in type and text
        return type(exc), str(exc)


@st.composite
def _scheme(draw):
    """A template member, its inverse, a named scheme or a set with no order."""
    kind = draw(st.sampled_from(["member", "inverse", "named", "no-order"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "named":
        return draw(st.sampled_from([KAHAN_SCHEME, MICKENS_SCHEME, CASE_VI_SCHEME]))
    if kind == "no-order":
        return draw(st.sampled_from([QUARTERS, random_noncase_params(rng)]))
    p = random_case_params(draw(st.sampled_from(CASE_LABELS)), rng)
    return p.inverse if kind == "inverse" else p


_coordinate = st.floats(-1e6, 1e6)
_step_size = st.builds(lambda size, sign: sign * size,
                       st.sampled_from([0.01, 0.1, 0.37, 1.0, 3.0]) | st.floats(1e-6, 10.0),
                       st.sampled_from([1.0, -1.0]))
# CASE_VI_SCHEME's pole line p2 = 0 is x = 52.5 at h = 0.1
_near_pole = st.tuples(st.just(CASE_VI_SCHEME), st.floats(52.4999, 52.5001), _coordinate,
                       st.sampled_from([0.1, -0.1]))


class TestBoundStepOracle:
    """lv_stepper's bound step and lv_step give the floats, bit for bit, or the
    exception, of the body that formed every coefficient at each call."""

    @settings(max_examples=400, deadline=None)
    @given(case=st.tuples(_scheme(), _coordinate, _coordinate, _step_size) | _near_pole,
           tol=st.sampled_from([DEFAULT_STEP_TOL, 0.0, 1e-15, 1e-6, 0.5]))
    def test_same_bits_or_same_error(self, case, tol):
        p, x, y, h = case
        expected = _outcome(_reference_lv_step, p, x, y, h, tol)
        assert _outcome(lv_step, p, x, y, h, tol) == expected
        try:
            step = lv_stepper(p, h, tol)
        except NotBirational as exc:
            assert expected == (NotBirational, str(exc))
            return
        assert _outcome(step, (x, y)) == expected
        assert _outcome(step, np.array([x, y])) == expected  # a float array state
