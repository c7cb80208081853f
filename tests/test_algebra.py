"""Exact polynomial / rational-function algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds.algebra import Poly, RatFunc, poly_gcd, rat_str

X = Poly.x()


def P(*coeffs):
    return Poly(coeffs)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def polys(max_deg=4):
    return st.lists(small_rationals, min_size=0, max_size=max_deg + 1).map(Poly)


def nonzero_polys(max_deg=4):
    return polys(max_deg).filter(lambda p: not p.is_zero)


class TestPoly:
    def test_trims_leading_zeros(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero and P().degree() == -1

    def test_gcd_factor_identity(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)  # x^2-1 vs x-1

    def test_gcd_with_zero_is_monic(self):
        assert poly_gcd(P(2, 4), Poly.zero()) == P(F(1, 2), 1)
        assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()

    def test_gcd_coprime_linear(self):
        # Euclid by hand: 12x+11 and 12x-1 differ by the unit 12, no common root.
        assert poly_gcd(P(11, 12), P(-1, 12)) == Poly.one()

    def test_divmod_exact(self):
        q, r = divmod(P(-1, 0, 1), P(-1, 1))
        assert q == P(1, 1) and r.is_zero

    def test_shift_square(self):
        assert P(0, 0, 1).shift(1) == P(1, 2, 1)

    def test_shift_identity(self):
        p = P(3, -2, F(1, 3))
        assert p.shift(0) == p

    def test_shift_moves_root_to_origin(self):
        assert P(-1, 1).shift(1) == P(0, 1)

    def test_primitive(self):
        content, prim = P(F(-2, 3), F(-4, 3)).content_and_primitive()
        assert prim == P(1, 2) and content == F(-2, 3)

    @given(polys(), polys(), nonzero_polys())
    @settings(max_examples=60, deadline=None)
    def test_gcd_common_factor(self, p, q, r):
        left = poly_gcd(p * r, q * r)
        expected = poly_gcd(p, q) * r
        if expected.is_zero:
            assert left.is_zero
        else:
            assert left == expected.monic()

    @given(polys(), polys(), small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_shift_is_ring_homomorphism(self, p, q, c):
        assert (p * q).shift(c) == p.shift(c) * q.shift(c)
        assert (p + q).shift(c) == p.shift(c) + q.shift(c)

    @given(polys(), small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_shift_roundtrip(self, p, c):
        assert p.shift(c).shift(-c) == p

    @given(polys(), nonzero_polys())
    @settings(max_examples=60, deadline=None)
    def test_divmod_reconstructs(self, p, q):
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.degree() < q.degree()


class TestRatFunc:
    def test_derivative_reciprocal(self):
        r = RatFunc(Poly.one(), X)
        assert r.derivative() == RatFunc(P(-1), X * X)

    def test_derivative_quotient_rule(self):
        # d/dx (x+5/12)/(x+11/12) = (1/2)/(x+11/12)^2, by hand
        r = RatFunc(P(F(5, 12), 1), P(F(11, 12), 1))
        expected = RatFunc(P(F(1, 2)), P(F(11, 12), 1) ** 2)
        assert r.derivative() == expected

    def test_second_derivative_of_constant_is_zero(self):
        seven_thirds = RatFunc(Poly.constant(F(7, 3)))
        assert seven_thirds.derivative().derivative() == RatFunc(Poly.zero())

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly.one(), Poly.zero())

    @given(nonzero_polys(), nonzero_polys(), nonzero_polys())
    @settings(max_examples=60, deadline=None)
    def test_normalization_cancels_common_factors(self, num, den, extra):
        assert RatFunc(num * extra, den * extra) == RatFunc(num, den)

    @given(nonzero_polys(2), nonzero_polys(2))
    @settings(max_examples=60, deadline=None)
    def test_eval_invariant_under_normalization(self, num, den):
        blown = RatFunc(num * den, den * den)  # construct un-cancelled
        # the same function as num/den: equal cross products, as polynomials
        assert blown.num * den == num * blown.den

    def test_normalization_idempotent(self):
        r = RatFunc(P(2, 4), P(0, 2))
        again = RatFunc(r.num, r.den)
        assert r == again and r.den.leading() == 1


class TestSerialization:
    def test_rat_str_roundtrip(self):
        assert rat_str(F(-5, 288)) == "-5/288"
        assert F(rat_str(F(17, 23))) == F(17, 23)
