"""Series engine: the error expansion, optimal parameters, bound gaps."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds import series
from eulerbounds.series import (BoundSpec, DegenerateSystem,
                                NonzeroConstantTerm, ParamPoly,
                                Series, Variant, bare_optimal_bound,
                                euler_ratio_series, expand_bound_gap,
                                expand_relative_error, log_gap_series,
                                lower_bound, series_exp_compose, series_log,
                                series_log1p, solve_optimal_params,
                                upper_bound, xlog1p_minus_one_series)

A, B = ParamPoly.var_a(), ParamPoly.var_b()
C = ParamPoly.const


def brute_force_exp(s: Series, order: int) -> Series:
    """Independent oracle: exp(s) = sum s^j / j!, truncated."""
    out = [F(0)] * (order + 1)
    out[0] = F(1)
    power = Series([F(1)] + [F(0)] * order)
    factorial = 1
    for j in range(1, order + 1):
        power = power * s
        factorial *= j
        for k in range(order + 1):
            out[k] += power[k] / factorial
    return Series(out)


class TestElementarySeries:
    def test_log1p_first_orders(self):
        assert series_log1p(3) == Series([F(0), F(1), F(-1, 2), F(1, 3)])

    def test_log1p_named_coefficients(self):
        s = series_log1p(6)
        assert s[1] == 1 and s[6] == F(-1, 6)

    def test_exp_of_zero(self):
        assert series_exp_compose(Series([F(0)] * 3), 2) == Series([F(1), F(0), F(0)])

    def test_exp_of_t(self):
        t = Series([F(0), F(1), F(0)])
        assert series_exp_compose(t, 2) == Series([F(1), F(1), F(1, 2)])

    def test_exp_rejects_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            series_exp_compose(Series([F(1), F(1)]), 1)

    def test_euler_ratio_leading_terms(self):
        # independently derived with the brute-force oracle
        oracle = brute_force_exp(xlog1p_minus_one_series(2), 2)
        assert oracle == Series([F(1), F(-1, 2), F(11, 24)])
        assert euler_ratio_series(2) == oracle

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exp_recurrence_matches_brute_force(self, tail):
        s = Series([F(0)] + tail)
        assert series_exp_compose(s, s.order) == brute_force_exp(s, s.order)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_exp_log_identity(self, order):
        # exp(ln(1+t)) == 1 + t at every computed order
        expected = Series([F(1), F(1)] + [F(0)] * (order - 1))
        assert series_exp_compose(series_log1p(order), order) == expected

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8),
                    min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_log_inverts_exp(self, tail):
        s = Series([F(0)] + tail)
        assert series_log(series_exp_compose(s, s.order)) == s


class TestRelativeErrorExpansion:
    def test_first_three_coefficients(self):
        w = expand_relative_error(3)
        assert w[1] == -A + B - C(F(1, 2))
        assert w[2] == A * A * F(1, 2) - B * B * F(1, 2) + C(F(1, 3))
        assert w[3] == B**3 * F(1, 3) - A**3 * F(1, 3) - C(F(1, 4))

    def test_vanishing_at_the_optimum(self):
        w = expand_relative_error(3)
        assert w[1].subs(F(5, 12), F(11, 12)) == 0
        assert w[2].subs(F(5, 12), F(11, 12)) == 0
        assert w[3].subs(F(5, 12), F(11, 12)) == F(-5, 288)

    def test_equal_parameters_leave_the_leading_term(self):
        # a == b degenerates the approximant to the constant 1
        w = expand_relative_error(3)
        for value in (F(0), F(1, 2), F(3)):
            assert w[1].subs(value, value) == F(-1, 2)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            expand_relative_error(2)


class TestOptimalParams:
    def test_solution(self):
        got = solve_optimal_params()
        assert (got.a, got.b) == (F(5, 12), F(11, 12))
        assert got.residual_third_coefficient == F(-5, 288)

    @pytest.mark.parametrize("c2", [A * A - C(F(1, 4)), C(1)],
                             ids=["quadratic", "constant"])
    def test_reduced_degree_other_than_one_is_degenerate(self, monkeypatch, c2):
        # c1 = a - b + 1/2 eliminates to b = a + 1/2, as in the real system;
        # c2 then reduces to a^2 - 1/4 (root 1/2 > 0) or to a constant
        system = Series([C(0), A - B + C(F(1, 2)), c2, C(0)])
        monkeypatch.setattr(series, "expand_relative_error", lambda order: system)
        with pytest.raises(DegenerateSystem):
            solve_optimal_params()


def defining_sum(bound: BoundSpec, x: F) -> F:
    """Independent oracle for ``BoundSpec.eval``: (x+a)/(x+b) + sum c_k / x^k."""
    value = (x + bound.a) / (x + bound.b)
    for c, k in bound.corrections:
        value += c / x**k
    return value


# rational x = p/q >= 1/2 with q <= 50
EVAL_POINTS = st.builds(F, st.integers(min_value=1, max_value=10**7),
                        st.integers(min_value=1, max_value=50)).filter(lambda x: x >= F(1, 2))


class TestBoundSpec:
    def test_corrections_canonicalized(self):
        b = BoundSpec(F(5, 12), F(11, 12), [(F(1, 4), 5), (F(-1, 3), 3), (F(1, 4), 5)])
        assert b.corrections == ((F(-1, 3), 3), (F(1, 2), 5))

    def test_as_written_upper_merges_the_doubled_term(self):
        aw = upper_bound(Variant.AS_WRITTEN)
        assert dict((k, c) for c, k in aw.corrections)[5] == F(-2621, 20736)
        dd = upper_bound(Variant.DEDUP)
        assert dict((k, c) for c, k in dd.corrections)[5] == F(-2621, 41472)

    def test_eval_matches_ratfunc(self):
        for bound in (bare_optimal_bound(), lower_bound(),
                      upper_bound(Variant.AS_WRITTEN)):
            for x in (F(1), F(3, 2), F(10)):
                assert bound.eval(x) == bound.as_ratfunc().eval(x)

    @given(EVAL_POINTS)
    @settings(max_examples=60, deadline=None)
    def test_eval_matches_the_defining_sum_for_the_paper_bounds(self, x):
        for bound in (lower_bound(), bare_optimal_bound(), upper_bound(Variant.DEDUP),
                      upper_bound(Variant.AS_WRITTEN)):
            assert bound.eval(x) == defining_sum(bound, x)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=12),
           st.fractions(min_value=-3, max_value=3, max_denominator=12),
           st.lists(st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
                              st.integers(min_value=1, max_value=9)),
                    max_size=5),
           EVAL_POINTS)
    @settings(max_examples=200, deadline=None)
    def test_eval_matches_the_defining_sum_for_any_bound(self, a, b, corrections, x):
        bound = BoundSpec(a, b, corrections)
        try:
            expected = defining_sum(bound, x)
        except ZeroDivisionError:  # x = -b
            with pytest.raises(ZeroDivisionError):
                bound.eval(x)
        else:
            assert bound.eval(x) == expected

    def test_eval_raises_at_every_pole_of_the_sum(self):
        bound = BoundSpec(F(1, 3), F(1, 3), [(F(1), 2)])
        for x in (F(-1, 3), F(0)):  # x + b = 0 although a = b, and x = 0
            with pytest.raises(ZeroDivisionError):
                bound.eval(x)

    def test_power_guard(self):
        with pytest.raises(ValueError):
            BoundSpec(1, 2, [(F(1), 0)])

    def test_series_truncates_corrections_exactly(self):
        b = lower_bound()
        assert b.series(2) == Series([F(1), F(-1, 2), F(11, 24)])


class TestBoundGap:
    def test_bare_bound_gap_coefficients(self):
        gap = expand_bound_gap(bare_optimal_bound(), 6)
        assert [gap[k] for k in range(3)] == [F(0)] * 3
        assert gap[3] == F(-5, 288)
        assert gap[4] == F(343, 8640)
        assert gap[5] == F(-2621, 41472)
        assert gap[6] == F(300901, 3483648)

    def test_lower_bound_gap_vanishes_through_order_five(self):
        gap = expand_bound_gap(lower_bound(), 8)
        assert all(gap[k] == 0 for k in range(6))
        assert gap[6] == F(300901, 3483648)
        assert gap[7] == F(-648467, 5971968)  # next term, frozen from the oracle

    def test_dedup_upper_gap_vanishes_through_order_six(self):
        gap = expand_bound_gap(upper_bound(Variant.DEDUP), 7)
        assert all(gap[k] == 0 for k in range(7))
        assert gap[7] == F(-648467, 5971968)

    def test_gap_linear_in_corrections(self):
        base = lower_bound()
        gap0 = expand_bound_gap(base, 9)
        for c, k in ((F(3, 7), 8), (F(-2, 5), 9)):
            tweaked = BoundSpec(base.a, base.b, list(base.corrections) + [(c, k)])
            gap1 = expand_bound_gap(tweaked, 9)
            for j in range(10):
                assert gap1[j] - gap0[j] == (-c if j == k else 0)

    def test_order_must_cover_corrections(self):
        with pytest.raises(ValueError):
            expand_bound_gap(lower_bound(), 4)

    @pytest.mark.parametrize("bound", [bare_optimal_bound(), lower_bound(),
                                       upper_bound(Variant.AS_WRITTEN),
                                       upper_bound(Variant.DEDUP)])
    def test_log_gap_constant_term_vanishes(self, bound):
        assert log_gap_series(bound, 8)[0] == 0

    @given(st.fractions(min_value=-2, max_value=2, max_denominator=9),
           st.lists(st.tuples(st.fractions(min_value=-1, max_value=1, max_denominator=9),
                              st.integers(min_value=1, max_value=5)),
                    max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_log_gap_constant_vanishes_for_any_bound(self, a, corrections):
        # every bound of this family tends to 1, so the gap tends to 0
        bound = BoundSpec(a, a + F(1, 2), corrections)
        assert log_gap_series(bound, 6)[0] == 0


class TestParamPoly:
    def test_serialization_sorted(self):
        p = B * 2 - A + C(F(1, 3))
        assert p.to_triples() == [(0, 0, "1/3"), (0, 1, "2/1"), (1, 0, "-1/1")]

    def test_zero_terms_dropped(self):
        assert (A - A).is_zero
        assert A - A == C(0)

    @given(st.fractions(max_denominator=6), st.fractions(max_denominator=6))
    @settings(max_examples=40, deadline=None)
    def test_subs_is_homomorphic(self, a, b):
        p, q = A * B - C(2), A + B * B
        assert (p * q).subs(a, b) == p.subs(a, b) * q.subs(a, b)
        assert (p + q).subs(a, b) == p.subs(a, b) + q.subs(a, b)
