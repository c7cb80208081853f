"""Series engine: the error expansion, optimal parameters, bound gaps."""

from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds.algebra import Poly, RatFunc
from eulerbounds.series import (BoundSpec, NonzeroConstantTerm, Variant,
                                bare_optimal_bound, classical_bracket,
                                euler_ratio_series,
                                expand_bound_gap, expand_relative_error,
                                log_gap_series,
                                lower_bound, series_exp_compose, series_log,
                                series_log1p, solve_optimal_params,
                                upper_bound, xlog1p_minus_one_series)


def brute_force_exp(s: tuple) -> tuple:
    """Independent oracle: exp(s) = sum s^j / j!, truncated at the order of s."""
    order = len(s) - 1
    out = [F(0)] * (order + 1)
    out[0] = F(1)
    power = [F(1)] + [F(0)] * order
    factorial = 1
    for j in range(1, order + 1):
        # power *= s, truncated
        power = [sum((power[i] * s[k - i] for i in range(k + 1)), F(0))
                 for k in range(order + 1)]
        factorial *= j
        for k in range(order + 1):
            out[k] += power[k] / factorial
    return tuple(out)


class TestElementarySeries:
    def test_log1p_first_orders(self):
        assert series_log1p(3) == (F(0), F(1), F(-1, 2), F(1, 3))

    def test_log1p_named_coefficients(self):
        s = series_log1p(6)
        assert s[1] == 1 and s[6] == F(-1, 6)

    def test_exp_of_zero(self):
        assert series_exp_compose((F(0),) * 3) == (F(1), F(0), F(0))

    def test_exp_of_t(self):
        assert series_exp_compose((F(0), F(1), F(0))) == (F(1), F(1), F(1, 2))

    def test_exp_rejects_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            series_exp_compose((F(1), F(1)))

    def test_euler_ratio_leading_terms(self):
        # independently derived with the brute-force oracle
        oracle = brute_force_exp(xlog1p_minus_one_series(2))
        assert oracle == (F(1), F(-1, 2), F(11, 24))
        assert euler_ratio_series(2) == oracle

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exp_recurrence_matches_brute_force(self, tail):
        s = (F(0), *tail)
        assert series_exp_compose(s) == brute_force_exp(s)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_exp_log_identity(self, order):
        # exp(ln(1+t)) == 1 + t at every computed order
        expected = (F(1), F(1)) + (F(0),) * (order - 1)
        assert series_exp_compose(series_log1p(order)) == expected

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8),
                    min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_log_inverts_exp(self, tail):
        s = (F(0), *tail)
        assert series_log(series_exp_compose(s)) == s


def error_terms(pair: tuple, k: int) -> dict:
    """The t^k coefficient w_k + l_k (b^k - a^k) of the relative error as
    {(i, j): c} for the terms c a^i b^j, zeros dropped."""
    w, l = pair
    terms = {}
    for key, c in (((0, 0), w[k]), ((0, k), l[k]), ((k, 0), -l[k])):
        terms[key] = terms.get(key, F(0)) + c
    return {key: c for key, c in terms.items() if c}


def error_coefficient(pair: tuple, k: int, a: F, b: F) -> F:
    """The t^k coefficient of the relative error at rational a, b."""
    return sum((c * a**i * b**j for (i, j), c in error_terms(pair, k).items()), F(0))


class TestRelativeErrorExpansion:
    def test_first_three_coefficients(self):
        w = expand_relative_error(3)
        assert error_terms(w, 0) == {}
        assert error_terms(w, 1) == {(1, 0): -1, (0, 1): 1, (0, 0): F(-1, 2)}
        assert error_terms(w, 2) == {(2, 0): F(1, 2), (0, 2): F(-1, 2), (0, 0): F(1, 3)}
        assert error_terms(w, 3) == {(0, 3): F(1, 3), (3, 0): F(-1, 3), (0, 0): F(-1, 4)}

    def test_closed_form_matches_sympy(self):
        # independent oracle: the same error, x ln(1+1/x) - 1 - ln((x+a)/(x+b))
        # at x = 1/t, expanded by sympy
        a, b, t = sp.symbols("a b t")
        error = sp.log(1 + t) / t - 1 - sp.log(1 + a * t) + sp.log(1 + b * t)
        expansion = sp.series(error, t, 0, 11).removeO()
        w = expand_relative_error(10)
        assert tuple(map(len, w)) == (11, 11)
        for k in range(11):
            coeff = sp.Poly(expansion.coeff(t, k), a, b)
            expected = {(i, j): F(int(c.p), int(c.q)) for (i, j), c in coeff.terms() if c}
            assert error_terms(w, k) == expected, k

    def test_vanishing_at_the_optimum(self):
        w = expand_relative_error(3)
        assert error_coefficient(w, 1, F(5, 12), F(11, 12)) == 0
        assert error_coefficient(w, 2, F(5, 12), F(11, 12)) == 0
        assert error_coefficient(w, 3, F(5, 12), F(11, 12)) == F(-5, 288)

    def test_equal_parameters_leave_the_leading_term(self):
        # a == b degenerates the approximant to the constant 1
        w = expand_relative_error(3)
        for value in (F(0), F(1, 2), F(3)):
            assert error_coefficient(w, 1, value, value) == F(-1, 2)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            expand_relative_error(2)


class TestOptimalParams:
    def test_solution(self):
        got = solve_optimal_params()
        assert (got.a, got.b) == (F(5, 12), F(11, 12))
        assert got.residual_third_coefficient == F(-5, 288)

    def test_matches_an_independent_sympy_derivation(self):
        # sympy's own t and t^2 coefficients of the error, solved for zero
        a, b, t = sp.symbols("a b t")
        error = sp.log(1 + t) / t - 1 - sp.log(1 + a * t) + sp.log(1 + b * t)
        expansion = sp.series(error, t, 0, 4).removeO()
        c1, c2, c3 = (expansion.coeff(t, k) for k in (1, 2, 3))
        roots = [root for root in sp.solve([c1, c2], [a, b], dict=True) if root[a] > 0]
        assert len(roots) == 1
        expected = tuple(F(int(v.p), int(v.q))
                         for v in (roots[0][a], roots[0][b], c3.subs(roots[0])))
        assert tuple(solve_optimal_params()) == expected


def ratfunc_sum(bound: BoundSpec) -> RatFunc:
    """Independent oracle for ``BoundSpec.polynomials``: the defining sum
    (x+a)/(x+b) + sum c_k / x^k, added up term by term in Q(x)."""
    r = RatFunc(Poly((bound.a, 1)), Poly((bound.b, 1)))
    for c, k in bound.corrections:
        r = r + RatFunc(Poly.constant(c), Poly.x() ** k)
    return r


def defining_sum(bound: BoundSpec, x: F) -> F:
    """Independent oracle for ``BoundSpec.eval``: (x+a)/(x+b) + sum c_k / x^k."""
    value = (x + bound.a) / (x + bound.b)
    for c, k in bound.corrections:
        value += c / x**k
    return value


# rational x = p/q >= 1/2 with q <= 50
EVAL_POINTS = st.builds(F, st.integers(min_value=1, max_value=10**7),
                        st.integers(min_value=1, max_value=50)).filter(lambda x: x >= F(1, 2))

ANY_BOUND = st.builds(
    BoundSpec,
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.lists(st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
                       st.integers(min_value=1, max_value=9)),
             max_size=5))


class TestBoundSpec:
    def test_describe_signs_every_parameter(self):
        assert lower_bound().describe().startswith("(x+5/12)/(x+11/12) - 5/288/x^3")
        assert BoundSpec(F(1, 3), -2, [(F(-1, 2), 1)]).describe() == "(x+1/3)/(x-2/1) - 1/2/x^1"
        assert BoundSpec(F(-3, 4), 0).describe() == "(x-3/4)/(x+0/1)"

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
            num, den = bound.polynomials()
            assert RatFunc(num, den) == ratfunc_sum(bound)
            for x in (F(1), F(3, 2), F(10)):
                num_x, den_x = (sum(c * x**i for i, c in enumerate(p.coeffs))
                                for p in (num, den))
                assert bound.eval(x) == num_x / den_x

    @given(ANY_BOUND)
    @settings(max_examples=100, deadline=None)
    def test_ratfunc_matches_the_sum_of_terms(self, bound):
        assert RatFunc(*bound.polynomials()) == ratfunc_sum(bound)

    @given(EVAL_POINTS)
    @settings(max_examples=60, deadline=None)
    def test_eval_matches_the_defining_sum_for_the_paper_bounds(self, x):
        for bound in (lower_bound(), bare_optimal_bound(), upper_bound(Variant.DEDUP),
                      upper_bound(Variant.AS_WRITTEN)):
            assert bound.eval(x) == defining_sum(bound, x)

    @given(ANY_BOUND, EVAL_POINTS)
    @settings(max_examples=200, deadline=None)
    def test_eval_matches_the_defining_sum_for_any_bound(self, bound, x):
        try:
            expected = defining_sum(bound, x)
        except ZeroDivisionError:  # x = -b
            with pytest.raises(ZeroDivisionError):
                bound.eval(x)
        else:
            assert bound.eval(x) == expected

    @given(st.one_of(st.integers(1, 10**30),
                     st.integers(5 * 10**4299 - 10**6, 5 * 10**4299 + 10**6)))
    @settings(max_examples=100, deadline=None)
    def test_classical_bracket_is_the_integer_pair(self, n):
        lower, upper = classical_bracket()
        assert lower.eval_pair(n) == (2 * n, 2 * n + 1)
        assert upper.eval_pair(n) == (2 * n + 1, 2 * n + 2)
        assert (lower.eval(n), upper.eval(n)) == (F(2 * n, 2 * n + 1), F(2 * n + 1, 2 * n + 2))

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
        assert b.series(2) == (F(1), F(-1, 2), F(11, 24))


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

    @pytest.mark.parametrize("bound", [bare_optimal_bound(), lower_bound(),
                                       upper_bound(Variant.AS_WRITTEN),
                                       upper_bound(Variant.DEDUP)],
                             ids=["bare", "u", "v-as-written", "v-dedup"])
    def test_log_gap_matches_sympy(self, bound):
        # independent oracle: x ln(1+1/x) - 1 - ln(bound(x)) at x = 1/t,
        # expanded by sympy through t^8
        t = sp.symbols("t")
        a, b = (sp.Rational(v.numerator, v.denominator) for v in (bound.a, bound.b))
        value = (1 + a * t) / (1 + b * t) + sum(
            sp.Rational(c.numerator, c.denominator) * t**k for c, k in bound.corrections)
        error = sp.log(1 + t) / t - 1 - sp.log(value)
        expansion = sp.series(error, t, 0, 9).removeO()
        got = log_gap_series(bound, 8)
        assert len(got) == 9
        for k in range(9):
            c = expansion.coeff(t, k)
            assert got[k] == F(int(c.p), int(c.q)), k
