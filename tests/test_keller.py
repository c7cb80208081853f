"""The difference sequence, its exact sandwich, limits and rate tables.

Frozen decimals were computed independently at 60-digit working precision
(mpmath) from the defining expression (1/e)((n+1)^{n+1}/n^n - n^n/(n-1)^{n-1}).
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerbounds.enclosure import RatInterval, normalized_euler_interval
from eulerbounds import keller
from eulerbounds.algebra import Poly
from eulerbounds.keller import (DISPLAY_DENOMINATOR_CONSTANT, ConvergenceRow,
                                DegreeMismatch, _leading_ratio, convergence_table,
                                display_forms, keller_term, rate_sides, sandwich_limits,
                                sandwich_rates, sandwich_sides)
from eulerbounds.series import Variant, lower_bound, upper_bound

X2 = F("1.01166846322146638438769036794401738547598061")  # (11/4)/e
X10 = F("1.00041839499388026020051005447100731102878979")
RATE10 = F("0.0418394993880260200510054471007311028789789804")
RATE100 = F("0.0416683855118316248938978227516701544293207616")
RATE1000 = F("0.0416666838541761825595510603561809975583508154")


def reference_row(n: int, width: F, variant: Variant) -> ConvergenceRow:
    """A table row as first composed: two interval enclosures scaled and
    subtracted, then shifted by 1 and scaled by n^2, and the sandwich rates
    from Fraction arithmetic on the rate polynomials."""
    width = width / (n * n)
    here = normalized_euler_interval(n, width / (2 * (n + 1)))
    prev = normalized_euler_interval(n - 1, width / (2 * n))
    rate = (here.scale(n + 1) - prev.scale(n) - 1).scale(n * n)
    low, high = (sum(c * n**k for k, c in enumerate(num.coeffs))
                 / sum(c * n**k for k, c in enumerate(den.coeffs))
                 for num, den in rate_sides(variant))
    if not low < high:
        raise ArithmeticError(f"sandwich sides out of order at n={n}")
    return ConvergenceRow(n, rate, low, high)


def row_or_error(make_row) -> tuple:
    """A row's printed fields, or the type and message of what it raised."""
    try:
        row = make_row()
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return row.rate, row.sandwich_lo, row.sandwich_hi, row.outcome


class TestKellerTerm:
    def test_first_term_encloses_exact_value(self):
        term = keller_term(2, F(1, 10**20))
        assert term.width <= F(1, 10**20)
        assert term.lo < X2 < term.hi

    def test_width_contract(self):
        for width in (F(1, 10**6), F(1, 10**25)):
            assert keller_term(10, width).width <= width

    def test_tenth_term(self):
        value = keller_term(10, F(1, 10**20))
        assert value.lo < X10 < value.hi

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            keller_term(1)


class TestSandwich:
    """The exact rates n^2 (side - 1) of both sandwich sides."""

    def test_exact_values_at_two(self):
        # independent route: evaluate the bounds directly
        u, v = lower_bound(), upper_bound(Variant.DEDUP)
        lo, hi = sandwich_rates(2)
        assert lo == 4 * (3 * u.eval(2) - 2 * v.eval(1) - 1)
        assert hi == 4 * (3 * v.eval(2) - 2 * u.eval(1) - 1)

    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_rates_are_the_bounds_sandwich(self, n):
        u, v = lower_bound(), upper_bound(Variant.DEDUP)
        assert sandwich_rates(n) == (
            n * n * ((n + 1) * u.eval(n) - n * v.eval(n - 1) - 1),
            n * n * ((n + 1) * v.eval(n) - n * u.eval(n - 1) - 1))

    def test_ordering(self):
        for n in range(2, 101):
            lo, hi = sandwich_rates(n, Variant.DEDUP)
            assert lo < hi

    def test_as_written_sandwich_inverts(self):
        # with the doubled correction the claimed upper side drops below the
        # lower side from n = 3 on: the squeeze is only coherent for the
        # single-term variant
        lo, hi = sandwich_rates(2, Variant.AS_WRITTEN)
        assert lo < hi
        with pytest.raises(ArithmeticError):
            sandwich_rates(3, Variant.AS_WRITTEN)

    def test_term_within_sandwich(self):
        for n in range(2, 51):
            lo, hi = sandwich_rates(n, Variant.DEDUP)
            value = keller_term(n, F(1, 10**15))
            assert lo < n * n * (value.lo - 1) and n * n * (value.hi - 1) < hi

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            sandwich_rates(1)


class TestSymbolicLimits:
    @pytest.mark.parametrize("variant", [Variant.DEDUP, Variant.AS_WRITTEN])
    def test_limits(self, variant):
        assert sandwich_limits(variant) == (1, F(1, 24))

    def test_sandwich_ratfunc_degrees(self):
        (low, low_den), (high, high_den) = sandwich_sides(Variant.DEDUP)
        assert low.degree() == low_den.degree()
        assert high.degree() == high_den.degree()

    def test_display_forms_reproduce_published_leading_terms(self):
        forms = {f.name: f.numerator for f in display_forms(Variant.DEDUP)}
        lower = forms["sandwich lower"]
        assert (lower.degree(), lower.leading(), lower.coeff(12)) == (
            13, 2508226560, -12959170560)
        upper = forms["sandwich upper"]
        assert (upper.degree(), upper.leading(), upper.coeff(12)) == (
            13, 2508226560, -10450944000)
        rate_lower = forms["rate lower"]
        assert (rate_lower.degree(), rate_lower.leading(), rate_lower.coeff(10)) == (
            11, 104509440, -539965440)
        # the published rate-upper display carries a garbled "+-" sign on
        # its second coefficient; the recomputation settles it as negative
        rate_upper = forms["rate upper"]
        assert (rate_upper.degree(), rate_upper.leading(), rate_upper.coeff(10)) == (
            11, 104509440, -435456000)

    def test_display_leading_terms_are_variant_independent(self):
        # the doubled correction only perturbs coefficients below n^10
        dd = {f.name: f.numerator for f in display_forms(Variant.DEDUP)}
        aw = {f.name: f.numerator for f in display_forms(Variant.AS_WRITTEN)}
        for name in dd:
            d = dd[name].degree()
            assert dd[name].coeff(d) == aw[name].coeff(d)
            assert dd[name].coeff(d - 1) == aw[name].coeff(d - 1)
        assert dd["sandwich lower"] != aw["sandwich lower"]

    def test_display_denominator_must_clear(self, monkeypatch):
        # a stated denominator that leaves a remainder is refused, not truncated
        monkeypatch.setattr(keller, "_display_denominator", lambda a, b: Poly.one())
        with pytest.raises(ValueError, match="does not clear"):
            display_forms(Variant.DEDUP)

    def test_display_denominator_constant(self):
        assert DISPLAY_DENOMINATOR_CONSTANT == 17418240
        form = display_forms(Variant.DEDUP)[0]
        # leading coefficient of the stated denominator: 17418240 * 144
        assert form.denominator.leading() == 2508226560

    def test_ratio_of_leading_display_terms(self):
        forms = {f.name: f for f in display_forms(Variant.DEDUP)}
        for name in ("rate lower", "rate upper"):
            f = forms[name]
            assert f.numerator.leading() / f.denominator.leading() == F(1, 24)


class TestConvergenceTable:
    def test_frozen_rates_are_trapped(self):
        rows = convergence_table([10, 100, 1000], F(1, 10**12))
        for row, frozen in zip(rows, (RATE10, RATE100, RATE1000)):
            assert row.rate.lo < frozen < row.rate.hi
            assert row.contained

    def test_rate_approaches_one_24th(self):
        row = convergence_table([1000], F(1, 10**12))[0]
        assert abs(row.rate.midpoint - F(1, 24)) < F(1, 1000)

    def test_containment_small_n(self):
        for row in convergence_table(range(2, 21), F(1, 10**10)):
            assert row.contained

    def test_width_contract(self):
        row = convergence_table([50], F(1, 10**9))[0]
        assert row.rate.width <= F(1, 10**9)

    @pytest.mark.parametrize("rate, outcome", [
        (RatInterval(F(2), F(3)), "contained"),
        (RatInterval(F(4), F(5)), "undecided"),
        (RatInterval(F(1, 2), F(3, 2)), "undecided"),
        (RatInterval(F(5), F(6)), "outside"),
        (RatInterval(F(0), F(1, 2)), "outside"),
    ])
    def test_outcome_separates_overlap_from_disjoint(self, rate, outcome):
        row = ConvergenceRow(10, rate, F(1), F(4))
        assert row.outcome == outcome
        assert row.contained == (outcome == "contained")

    # digits None stands for the non-round width 10^-60 / n^2
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**6), st.one_of(st.integers(1, 500), st.none()),
           st.sampled_from(Variant))
    @example(3, 12, Variant.AS_WRITTEN)  # the as-written sides out of order
    @example(3, 600, Variant.AS_WRITTEN)  # past the last stage, raised before the order
    @example(10**6, 500, Variant.DEDUP)  # past the last stage at the largest n
    def test_rows_are_the_interval_composition(self, n, digits, variant):
        width = F(1, 10**60 * n * n) if digits is None else F(1, 10**digits)
        assert (row_or_error(lambda: convergence_table([n], width, variant)[0])
                == row_or_error(lambda: reference_row(n, width, variant)))

    def test_rows_need_no_interval_arithmetic(self, monkeypatch):
        width = F(1, 10**12)
        expected = [reference_row(n, width, Variant.DEDUP) for n in (10, 100, 1000)]

        def refuse(*args):
            raise AssertionError("a table row used interval arithmetic")

        for name in ("__add__", "__sub__", "scale"):
            monkeypatch.setattr(RatInterval, name, refuse)
        assert convergence_table([10, 100, 1000], width) == expected

    def test_degree_mismatch_guard_exists(self):
        # regression tripwire: a malformed (numerator, denominator) pair must raise
        with pytest.raises(DegreeMismatch):
            _leading_ratio(Poly.one(), Poly.x())
