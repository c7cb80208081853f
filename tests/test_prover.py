"""Sign certificates and the bound proofs."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerbounds.algebra import Poly, RatFunc
from eulerbounds.prover import (REFERENCE_LOWER_CERT_NUMERATOR,
                                REFERENCE_LOWER_NUMERATOR,
                                REFERENCE_UPPER_CERT_NUMERATOR,
                                REFERENCE_UPPER_NUMERATOR,
                                conclusion_from_checks,
                                log_gap_second_derivative,
                                match_reference_polynomials, prove_bound,
                                refute_bound, render_certificate,
                                sign_certificate)
from eulerbounds.series import (BoundSpec, Variant, bare_optimal_bound,
                               classical_bracket, lower_bound, truncated_bound,
                               upper_bound)

X = Poly.x()


def P(*coeffs):
    return Poly(coeffs)


# every bound the tests below prove or refute
PROVED_OR_REFUTED = [lower_bound(), upper_bound(Variant.DEDUP),
                     upper_bound(Variant.AS_WRITTEN), bare_optimal_bound(),
                     *(truncated_bound(K) for K in range(5, 9)), BoundSpec(1, 1)]


def to_sympy(r: RatFunc, x):
    num = sum(sp.Rational(c.numerator, c.denominator) * x**i
              for i, c in enumerate(r.num.coeffs))
    den = sum(sp.Rational(c.numerator, c.denominator) * x**i
              for i, c in enumerate(r.den.coeffs))
    return num / den


class TestLogGapSecondDerivative:
    def test_constant_one_bound(self):
        # a == b collapses the approximant to 1, leaving only the rational
        # part of d^2/dx^2 [x ln(1+1/x)] = -1/(x(x+1)^2)
        for bound in (BoundSpec(1, 1), BoundSpec(F(1, 3), F(1, 3))):
            h = log_gap_second_derivative(bound)
            assert h == RatFunc(P(-1), X * P(1, 1) ** 2)

    @pytest.mark.parametrize("bound", [lower_bound(), upper_bound(Variant.DEDUP)])
    def test_matches_symbolic_differentiation(self, bound):
        # independent oracle: differentiate the log gap with sympy
        x = sp.symbols("x", positive=True)
        expr = ((x + sp.Rational(5, 12)) / (x + sp.Rational(11, 12))
                + sum(sp.Rational(c.numerator, c.denominator) / x**k
                      for c, k in bound.corrections))
        gap = x * sp.log(1 + 1 / x) - 1 - sp.log(expr)
        oracle = sp.cancel(sp.together(sp.diff(gap, x, 2)))
        mine = to_sympy(log_gap_second_derivative(bound), x)
        assert sp.cancel(mine - oracle) == 0

    def test_denominator_divides_stated_product(self):
        h = log_gap_second_derivative(lower_bound())
        stated = (X**5 * X**2 * P(1, 1) ** 2 * P(11, 12) ** 2
                  * REFERENCE_LOWER_NUMERATOR**2)
        assert (stated % h.den).is_zero

    @pytest.mark.parametrize("bound", PROVED_OR_REFUTED, ids=lambda b: b.describe())
    def test_denominator_divides_the_squared_polynomials(self, bound):
        # the premise that lets prove_bound certify the numerator alone:
        # once P, Q > 0 on [1, oo), no factor of x (x+1)^2 P^2 Q^2 has a
        # root there, so neither has the monic h.den
        h = log_gap_second_derivative(bound)
        num, den = bound.polynomials()
        assert h.den.leading() == 1
        assert (X * P(1, 1) ** 2 * num**2 * den**2 % h.den).is_zero

    def test_denominator_structure_exactly(self):
        h = log_gap_second_derivative(lower_bound())
        target = X**2 * P(1, 1) ** 2 * P(11, 12) ** 2 * REFERENCE_LOWER_NUMERATOR**2
        assert h.den.primitive() == target.primitive()


class TestPolySignCertificate:
    def test_boundary_root_extracted(self):
        cert = sign_certificate(P(-1, 1), 1)  # x - 1 at base 1
        assert cert.boundary_multiplicity == 1
        assert cert.shifted_poly == Poly.one()
        assert cert.claimed_sign == 1

    def test_negative_certificate(self):
        cert = sign_certificate(P(0, -1), 1)  # -x
        assert cert.claimed_sign == -1 and cert.boundary_multiplicity == 0

    def test_sign_change_returns_none(self):
        assert sign_certificate(P(-3, 1) * P(-4, 1) * P(1, 1), 1) is None

    def test_mixed_shifted_signs_return_none(self):
        # (x-3)^2 + 1 is positive everywhere, but its shift to 1 is
        # y^2 - 4y + 5: the one proof form needs uniform signs
        assert sign_certificate(P(-3, 1) ** 2 + Poly.one(), 1) is None

    def test_zero_polynomial_not_certified(self):
        assert sign_certificate(Poly.zero(), 1) is None

    def test_reconstruction_invariant(self):
        # cleared numerator == (x - x0)^mult * shifted(x - x0)
        for p in (P(-1, 1) ** 2 * P(1, 0, 3), P(5, 1) * P(2, 1)):
            cert = sign_certificate(p, 1)
            assert cert is not None
            rebuilt = (P(-1, 1) ** cert.boundary_multiplicity
                       * cert.shifted_poly.shift(-cert.base_point))
            assert rebuilt == cert.cleared_numerator

    @given(st.sampled_from([-1, 0, 1, F(3, 2), 2]), st.integers(0, 3),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_one_shift_gives_multiplicity_and_sign(self, x0, m, coeffs):
        q = Poly(coeffs)
        shifted = q.shift(x0)
        assume(shifted.coeff(0) != 0)  # q nonzero, q(x0) != 0
        p = P(-x0, 1) ** m * q
        cert = sign_certificate(p, x0)
        signs = {c > 0 for c in shifted.coeffs if c}
        assert (cert is None) == (len(signs) == 2)
        if cert is not None:
            assert cert.boundary_multiplicity == m
            assert cert.shifted_poly == shifted
            assert cert.cleared_numerator == p
            assert signs == {cert.claimed_sign > 0}

    @pytest.mark.parametrize("h,base", [
        (log_gap_second_derivative(lower_bound()), F(1)),
        (log_gap_second_derivative(upper_bound(Variant.DEDUP)), F(1)),
    ])
    def test_certificate_soundness_at_random_points(self, h, base):
        # the numerator's certificate gives the sign of the whole of f''
        cert = sign_certificate(h.num, base)
        assert cert is not None
        x = sp.symbols("x")
        f2 = to_sympy(h, x)
        rng = random.Random(20260808)
        for _ in range(20):
            point = base + F(rng.randint(1, 10**6), 10**4)  # in (base, base+100]
            value = f2.subs(x, sp.Rational(point.numerator, point.denominator))
            assert value != 0 and (value > 0) == (cert.claimed_sign > 0)

    def test_denominator_sign_unknown(self):
        # (x + 1/3)/(x - 2) has a pole at 2: its denominator gets no
        # certificate, so the bound is not positive and nothing is proven
        bound = BoundSpec(F(1, 3), -2)
        assert sign_certificate(bound.polynomials()[1], 1) is None
        report = prove_bound(bound, "upper")
        assert not report.bound_positive and report.certificate is None
        assert not report.proven
        assert "bound-positive: no" in render_certificate(report)


class TestCertifiedBounds:
    def test_lower_bound_certificate_shape(self):
        h = log_gap_second_derivative(lower_bound())
        cert = sign_certificate(h.num, F(1))
        assert cert.claimed_sign == 1
        assert cert.boundary_multiplicity == 0
        assert cert.shifted_poly.degree() == 10
        assert cert.shifted_poly.primitive() == REFERENCE_LOWER_CERT_NUMERATOR

    def test_upper_bound_certificate_shape(self):
        h = log_gap_second_derivative(upper_bound(Variant.DEDUP))
        cert = sign_certificate(h.num, F(1))
        assert cert.claimed_sign == -1
        assert cert.shifted_poly.degree() == 11
        assert cert.shifted_poly.primitive() == REFERENCE_UPPER_CERT_NUMERATOR

    def test_prove_lower(self):
        report = prove_bound(lower_bound(), "lower")
        assert report.proven and report.limit_at_infinity_ok

    def test_prove_upper_dedup(self):
        assert prove_bound(upper_bound(Variant.DEDUP), "upper").proven

    def test_prove_bare_upper(self):
        # the bare approximant alone is already a strict upper bound
        assert prove_bound(bare_optimal_bound(), "upper").proven

    def test_hierarchy_orders_proven(self):
        # truncating the bare bound's gap series after 1/x^K gives a lower
        # bound for odd K and an upper bound for even K
        for K in range(5, 9):
            report = prove_bound(truncated_bound(K), "lower" if K % 2 else "upper")
            assert report.proven, (K, report.conclusion)

    def test_prove_classical_bracket(self):
        # 2x/(2x+1) is a lower and (2x+1)/(2x+2) an upper bound on [1, oo)
        for bound, side, shifted in zip(classical_bracket(), ("lower", "upper"),
                                        ((F(11, 4), F(15, 4), F(5, 4)), (F(-1, 4),))):
            report = prove_bound(bound, side)
            assert report.proven and report.limit_at_infinity_ok
            assert report.certificate.boundary_multiplicity == 0
            assert report.certificate.shifted_poly.coeffs == shifted

    def test_refute_as_written_upper(self):
        report = prove_bound(upper_bound(Variant.AS_WRITTEN), "upper")
        assert report.conclusion == "refuted"
        assert report.refutation.x == 1
        assert report.refutation.bound_value == F(289024999, 400619520)
        # the enclosure sits strictly above the claimed upper bound
        assert report.refutation.enclosure.lo >= report.refutation.bound_value

    def test_refute_lower_bound_misused_as_upper(self):
        report = prove_bound(lower_bound(), "upper")
        assert report.conclusion == "refuted" and report.refutation.x == 1

    def test_refutation_search_skips_poles(self):
        # (x + 1/3)/(x - 2) has a pole on the grid at x = 2; the search
        # passes over it and finds the next grid point above the curve
        report = prove_bound(BoundSpec(F(1, 3), -2), "lower")
        assert report.conclusion == "refuted" and report.refutation.x == 3
        # x/(x - 1) has its pole at the first grid point, x = 1
        for side in ("lower", "upper"):
            assert prove_bound(BoundSpec(0, -1), side).conclusion in ("refuted", "inconclusive")

    @pytest.mark.parametrize("bound, side", [
        (upper_bound(Variant.AS_WRITTEN), "upper"),
        (lower_bound(), "upper"),
        (BoundSpec(F(1, 3), -2), "lower"),  # a pole on the grid at x = 2
        (BoundSpec(0, -1), "lower"),  # a pole at the first grid point
        (BoundSpec(0, -1), "upper"),
    ])
    def test_the_witness_search_alone_gives_the_reports_witness(self, bound, side):
        assert refute_bound(bound, side) == prove_bound(bound, side).refutation

    def test_the_witness_search_refuses_an_unknown_side(self):
        with pytest.raises(ValueError):
            refute_bound(lower_bound(), "both")

    def test_inconclusive_when_no_witness_found(self, monkeypatch):
        import eulerbounds.prover as prover
        monkeypatch.setattr(prover, "REFUTATION_GRID", ())
        report = prove_bound(upper_bound(Variant.AS_WRITTEN), "upper")
        assert report.conclusion == "inconclusive" and report.refutation is None

    def test_conclusion_needs_all_three_premises(self):
        h = log_gap_second_derivative(lower_bound())
        cert = sign_certificate(h.num, F(1))
        assert conclusion_from_checks(1, cert, True, True)
        # convex certificate with a nonzero limit at infinity proves nothing
        assert not conclusion_from_checks(1, cert, True, False)
        assert not conclusion_from_checks(1, cert, False, True)
        assert not conclusion_from_checks(-1, cert, True, True)
        assert not conclusion_from_checks(1, None, True, True)


# the published tables each bound u or v is compared with, in printed order
REFERENCE_TABLES = ["bound numerator (cleared)", "second-derivative denominator structure",
                    "certificate shifted numerator"]


class TestReferenceMatching:
    def test_lower_matches_all(self):
        report = prove_bound(lower_bound(), "lower")
        assert match_reference_polynomials(report) == dict.fromkeys(REFERENCE_TABLES, True)

    def test_dedup_upper_matches_all(self):
        report = prove_bound(upper_bound(Variant.DEDUP), "upper")
        assert match_reference_polynomials(report) == dict.fromkeys(REFERENCE_TABLES, True)

    def test_as_written_upper_matches_nothing(self):
        # adjudication: the published Q and B tables come from the
        # single-correction form, not the doubled one, on either side
        for side in ("upper", "lower"):
            report = prove_bound(upper_bound(Variant.AS_WRITTEN), side)
            matches = match_reference_polynomials(report)
            assert matches == dict.fromkeys(REFERENCE_TABLES, False)

    @pytest.mark.parametrize("bound, side", [(lower_bound(), "upper"),
                                             (upper_bound(Variant.DEDUP), "lower")])
    def test_tables_follow_the_bound_not_the_side(self, bound, side):
        report = prove_bound(bound, side)
        assert report.conclusion == "refuted"
        matches = match_reference_polynomials(report)
        assert list(matches) == REFERENCE_TABLES and all(matches.values())

    @pytest.mark.parametrize("bound", [bare_optimal_bound(), *classical_bracket()],
                             ids=["bare", "classical-lower", "classical-upper"])
    def test_other_bounds_have_no_tables(self, bound):
        for side in ("lower", "upper"):
            assert match_reference_polynomials(prove_bound(bound, side)) == {}

    def test_reference_tables_have_expected_shape(self):
        assert REFERENCE_LOWER_NUMERATOR.degree() == 6
        assert REFERENCE_LOWER_NUMERATOR.coeff(4) == 0  # the absent x^4 term
        assert REFERENCE_UPPER_NUMERATOR.degree() == 7
        assert REFERENCE_UPPER_NUMERATOR.coeff(5) == 0
        assert REFERENCE_LOWER_CERT_NUMERATOR.coeff(9) == 44174729709158400
        assert sum(REFERENCE_LOWER_NUMERATOR.coeffs) == 3330241  # its value at x = 1


class TestRendering:
    def test_certificate_text(self):
        report = prove_bound(lower_bound(), "lower")
        text = render_certificate(report)
        assert text.splitlines()[0] == "certificate-format 1"
        assert "conclusion: proven" in text
        assert "sign: +1" in text

    def test_refutation_text(self):
        report = prove_bound(upper_bound(Variant.AS_WRITTEN), "upper")
        text = render_certificate(report)
        assert "witness: x = 1/1" in text and "conclusion: refuted" in text
