"""Rigorous interval enclosures.

High-precision reference decimals were computed independently at 60-digit
working precision (mpmath) and frozen here as strings: the enclosure under
test must trap them.
"""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds.enclosure import (DomainError, RatInterval,
                                   RefinementExhausted, _exp_fixed,
                                   _ln1p_fixed, check_classic_at,
                                   check_certified_at, euler_number_interval,
                                   fraction_normalized_euler_interval,
                                   integer_nth_root, ln1p_to_width,
                                   normalized_euler_interval, nth_root_interval)
from eulerbounds.series import Variant

LN2 = F("0.693147180559945309417232121458176568075500134")
E_CONST = F("2.71828182845904523536028747135266249775724709")
NORMALIZED_AT = {  # (1/e)(1+1/n)^n for the oracle spot checks
    1: F("0.735758882342884643191047540322921734891622262"),
    2: F("0.827728742635745223589928482863286951753075045"),
    5: F("0.915401771055723357672573707768166305682760754"),
    10: F("0.954184526764230033080429180766614484538778166"),
}
TWO_OVER_E = NORMALIZED_AT[1]
E10_OVER_E = NORMALIZED_AT[10]

W30 = F(1, 10**30)


def ln1p_interval(n, k: int) -> RatInterval:
    """Bracket ln(1 + 1/n) between consecutive partial sums S_k, S_{k+1}
    of sum_j (-1)^(j+1) / (j n^j): the oracle for ``ln1p_to_width``.

    For n >= 1 the terms decrease strictly in absolute value, so the
    partial sums alternate around the limit and the width is at most
    1/((k+1) n^(k+1)).
    """
    n = F(n)
    if n < 1:
        raise DomainError("alternating bracket needs n >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    s = F(0)
    sign = 1
    npow = F(1)
    for j in range(1, k + 1):
        npow *= n
        s += F(sign, j) / npow
        sign = -sign
    nxt = s + F(sign, k + 1) / (npow * n)
    return RatInterval(min(s, nxt), max(s, nxt))


class TestRatInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            RatInterval(1, 0)

    def test_arithmetic(self):
        a, b = RatInterval(1, 2), RatInterval(F(-1, 2), 3)
        assert (a + b) == RatInterval(F(1, 2), 5)
        assert (a - b) == RatInterval(-2, F(5, 2))
        assert a.scale(-2) == RatInterval(-4, -2)
        assert (a * b) == RatInterval(-1, 6)
        assert b.midpoint == F(5, 4) and b.width == F(7, 2)

    def test_reciprocal(self):
        assert RatInterval(F(1, 2), 2).reciprocal() == RatInterval(F(1, 2), 2)
        with pytest.raises(ZeroDivisionError):
            RatInterval(-1, 1).reciprocal()

    def test_intersection_guards_soundness(self):
        with pytest.raises(ValueError):
            RatInterval(0, 1).intersect(RatInterval(2, 3))


class TestLogEnclosures:
    def test_alternating_bracket_examples(self):
        assert ln1p_interval(1, 2) == RatInterval(F(1, 2), F(5, 6))
        assert ln1p_interval(1, 3) == RatInterval(F(7, 12), F(5, 6))

    def test_bracket_contains_ln2(self):
        for k in range(2, 12):
            iv = ln1p_interval(1, k)
            assert iv.lo < LN2 < iv.hi

    @given(st.fractions(min_value=1, max_value=50, max_denominator=7),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_bracket_width_bound(self, n, k):
        assert ln1p_interval(n, k).width <= F(1, k + 1) / n ** (k + 1)

    @given(st.fractions(min_value=1, max_value=50, max_denominator=7),
           st.integers(min_value=2, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_bracket_nested_in_k(self, n, k):
        outer, inner = ln1p_interval(n, k), ln1p_interval(n, k + 1)
        assert inner in outer

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            ln1p_interval(F(1, 2), 4)

    def test_tight_log_contains_and_meets_width(self):
        for width in (F(1, 10**6), F(1, 10**20), F(1, 10**40)):
            iv = ln1p_to_width(1, width)
            assert iv.lo < LN2 < iv.hi and iv.width <= width

    def test_tight_log_nested_across_widths(self):
        for n in (F(1), F(3, 2), F(10)):
            coarse = ln1p_to_width(n, F(1, 10**8))
            fine = ln1p_to_width(n, F(1, 10**25))
            assert fine in coarse

    def test_tight_log_agrees_with_bracket(self):
        for n in (F(1), F(7, 3), F(12)):
            tight = ln1p_to_width(n, F(1, 10**30))
            assert tight in ln1p_interval(n, 2)


class TestExpInterval:
    """e as exp(1/2) squared from the fixed-point exponential."""

    def test_euler_number(self):
        iv = euler_number_interval(W30)
        assert iv.width <= W30 and iv.lo < E_CONST < iv.hi


class TestNormalizedEuler:
    def test_at_one(self):
        iv = normalized_euler_interval(1, W30)
        assert iv.width <= W30
        assert iv.lo < TWO_OVER_E < iv.hi
        assert abs(iv.midpoint - TWO_OVER_E) <= W30

    def test_at_ten(self):
        iv = normalized_euler_interval(10, W30)
        assert iv.lo < E10_OVER_E < iv.hi

    def test_oracle_agreement_within_width(self):
        for n, oracle in NORMALIZED_AT.items():
            iv = normalized_euler_interval(n, W30)
            assert iv.lo < oracle < iv.hi
            assert abs(iv.midpoint - oracle) <= W30

    def test_rational_argument(self):
        # exp((3/2) ln(5/3) - 1) at a non-integer point
        iv = normalized_euler_interval(F(3, 2), F(1, 10**20))
        assert iv.width <= F(1, 10**20)
        assert F("0.79") < iv.lo < iv.hi < F("0.80")

    def test_refinements_nested(self):
        for n in (F(1), F(7, 2), F(100)):
            w8 = normalized_euler_interval(n, F(1, 10**8))
            w20 = normalized_euler_interval(n, F(1, 10**20))
            w40 = normalized_euler_interval(n, F(1, 10**40))
            assert w40 in w20 and w20 in w8

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            normalized_euler_interval(F(1, 2))


ORACLE_DIGITS = 200
ORACLE_SLACK = F(1, 10**190)  # far above mpmath's error, far below any width
POINTS = st.fractions(min_value=1, max_value=10**4, max_denominator=16)
DIGITS = st.integers(min_value=8, max_value=120)


def oracle_normalized(n: F) -> F:
    """(1/e)(1+1/n)^n from mpmath at 200 digits, as an exact rational."""
    with mpmath.workdps(ORACLE_DIGITS):
        x = mpmath.mpf(n.numerator) / n.denominator
        man, exp = mpmath.exp(x * mpmath.log1p(1 / x) - 1).man_exp
    return F(man) * F(2) ** exp


class TestNormalizedEulerOracle:
    """The fixed-point stages against mpmath and against the Fraction stages."""

    @given(POINTS, DIGITS)
    @settings(max_examples=60, deadline=None)
    def test_contains_oracle_within_width(self, n, digits):
        iv = normalized_euler_interval(n, F(1, 10**digits))
        assert iv.width <= F(1, 10**digits)
        ref = oracle_normalized(n)
        assert iv.lo - ORACLE_SLACK <= ref <= iv.hi + ORACLE_SLACK

    @given(POINTS, DIGITS, DIGITS)
    @settings(max_examples=60, deadline=None)
    def test_nested_across_widths(self, n, d1, d2):
        loose = normalized_euler_interval(n, F(1, 10 ** min(d1, d2)))
        tight = normalized_euler_interval(n, F(1, 10 ** max(d1, d2)))
        assert tight in loose

    @given(POINTS, DIGITS)
    @settings(max_examples=30, deadline=None)
    def test_meets_fraction_stages(self, n, digits):
        # the Fraction stages take up to a second near n = 2 at 1e-120, so
        # they stop at 1e-40; both enclose the same value either way
        fixed = normalized_euler_interval(n, F(1, 10**digits))
        exact = fraction_normalized_euler_interval(n, F(1, 10 ** min(digits, 40)))
        assert max(fixed.lo, exact.lo) <= min(fixed.hi, exact.hi)

    @given(st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=4, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_fixed_point_logarithm_brackets(self, a, b, prec):
        p, q = max(a, b), min(a, b)
        lo, hi = _ln1p_fixed(p, q, prec)
        with mpmath.workdps(ORACLE_DIGITS):
            exact = mpmath.log1p(mpmath.mpf(q) / p) * mpmath.mpf(2) ** prec
            assert lo <= exact <= hi

    @given(st.fractions(min_value=F(-1, 2), max_value=F(1, 2)),
           st.integers(min_value=4, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_fixed_point_exponential_brackets(self, v, prec):
        x = v.numerator * 2**prec // v.denominator
        lo, hi = _exp_fixed(x, prec)
        with mpmath.workdps(ORACLE_DIGITS):
            exact = mpmath.exp(mpmath.mpf(x) / 2**prec) * mpmath.mpf(2) ** prec
            assert lo <= exact <= hi

    def test_endpoint_bits_track_the_target(self):
        # 1e-100 is 333 bits; the last stage adds its digit margin and guard bits
        iv = normalized_euler_interval(1, F(1, 10**100))
        assert max(iv.lo.denominator, iv.hi.denominator).bit_length() <= 400

    def test_fraction_stages_domain_guard(self):
        with pytest.raises(DomainError):
            fraction_normalized_euler_interval(F(1, 2))

    def test_unreachable_width_fails_after_the_last_stage(self):
        with pytest.raises(ArithmeticError):
            normalized_euler_interval(1, F(0))


E_DIGITS = st.integers(min_value=8, max_value=300)


def oracle_e(digits: int) -> F:
    """e from mpmath at three times the digits, as an exact rational."""
    with mpmath.workdps(3 * digits):
        man, exp = (+mpmath.e).man_exp
    return F(man) * F(2) ** exp


class TestEulerNumberOracle:
    """e from the fixed-point stages against mpmath, widths 1e-8 to 1e-300."""

    @given(E_DIGITS)
    @settings(max_examples=40, deadline=None)
    def test_contains_oracle_within_width(self, digits):
        iv = euler_number_interval(F(1, 10**digits))
        assert iv.width <= F(1, 10**digits)
        slack = F(1, 10 ** (3 * digits - 1))  # above mpmath's error, far below the width
        assert iv.lo - slack <= oracle_e(digits) <= iv.hi + slack

    @given(E_DIGITS, E_DIGITS)
    @settings(max_examples=40, deadline=None)
    def test_nested_across_widths(self, d1, d2):
        loose = euler_number_interval(F(1, 10 ** min(d1, d2)))
        tight = euler_number_interval(F(1, 10 ** max(d1, d2)))
        assert tight in loose

    @given(E_DIGITS)
    @settings(max_examples=40, deadline=None)
    def test_denominator_bits_track_the_target(self, digits):
        iv = euler_number_interval(F(1, 10**digits))
        bits = max(iv.lo.denominator, iv.hi.denominator).bit_length()
        target = (10**digits).bit_length()
        # the last stage's digit target is at most 7 digits (24 bits) past the
        # request and adds 16 guard bits; squaring exp(1/2) doubles the lot
        assert target <= bits <= 2 * (target + 24 + 16) + 1

    def test_unreachable_width_fails_after_the_last_stage(self):
        with pytest.raises(RefinementExhausted):
            euler_number_interval(F(0))


class TestChecks:
    def test_certified_at_one_dedup_holds(self):
        res = check_certified_at(1, Variant.DEDUP, W30)
        assert res.holds
        assert res.lower_value == F(3330241, 4769280)
        assert res.upper_value == F(314343859, 400619520)

    def test_certified_at_one_as_written_fails_upper(self):
        res = check_certified_at(1, Variant.AS_WRITTEN, W30)
        assert res.status == "fails" and res.side == "upper"
        assert res.upper_value == F(289024999, 400619520)

    def test_certified_holds_through_one_thousand(self):
        assert all(check_certified_at(n, Variant.DEDUP, W30).holds
                   for n in range(1, 1001))

    def test_certified_large_n(self):
        assert check_certified_at(1000, Variant.DEDUP, W30).holds
        # the doubled-term bound also fails far out, but only on the upper
        # side; the lower inequality is untouched by the variant
        res = check_certified_at(1000, Variant.AS_WRITTEN, W30)
        assert res.status == "fails" and res.side == "upper"
        assert res.enclosure.lo > res.lower_value

    def test_classic_small_n(self):
        res = check_classic_at(1, W30)
        assert res.holds
        assert (res.lower_value, res.upper_value) == (F(2, 3), F(3, 4))
        assert check_classic_at(2, W30).holds

    def test_classic_rejects_bad_n(self):
        with pytest.raises(DomainError):
            check_classic_at(0)


class TestRoots:
    @given(st.integers(min_value=0, max_value=10**24),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_integer_nth_root_brackets(self, m, k):
        r = integer_nth_root(m, k)
        assert r**k <= m and (r + 1) ** k > m

    def test_perfect_roots_are_points(self):
        assert nth_root_interval(F(8, 27), 3) == RatInterval.point(F(2, 3))
        assert nth_root_interval(F(1), 7) == RatInterval.point(1)

    @given(st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=10**6),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_root_interval_brackets_exactly(self, q, k):
        iv = nth_root_interval(q, k, F(1, 10**12))
        assert iv.lo**k <= q <= iv.hi**k
        assert iv.width <= F(1, 10**12)

    def test_root_domain_guard(self):
        with pytest.raises(DomainError):
            nth_root_interval(F(-1), 2)


ROOT_DIGITS = st.integers(min_value=8, max_value=60)


class TestRootOracle:
    """``nth_root_interval`` against mpmath at three times the digits."""

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=2, max_value=400), ROOT_DIGITS)
    @settings(max_examples=50, deadline=None)
    def test_contains_oracle_within_width(self, a, b, k, digits):
        iv = nth_root_interval(F(a, b), k, F(1, 10**digits))
        assert iv.width <= F(1, 10**digits)
        with mpmath.workdps(3 * digits):
            man, exp = mpmath.root(mpmath.mpf(a) / b, k).man_exp
        ref = F(man) * F(2) ** exp
        slack = F(1, 10 ** (3 * digits - 5))  # above mpmath's error (roots stay below 10^3)
        assert iv.lo - slack <= ref <= iv.hi + slack

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30),
           st.integers(min_value=2, max_value=400), ROOT_DIGITS)
    @settings(max_examples=50, deadline=None)
    def test_perfect_powers_are_exact_points(self, c, d, k, digits):
        root = F(c, d)
        assert nth_root_interval(root**k, k, F(1, 10**digits)) == RatInterval.point(root)
