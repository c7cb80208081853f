"""Telescoping weights, the sharpened weight families, inequality sums."""

import functools
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds import enclosure
from eulerbounds.carleman import (TestSequence, WeightScheme, carleman_sums,
                                  epsilon_term, geometric_mean_sum,
                                  geometric_means,
                                  polya_identities, telescoping_weight,
                                  termwise_weight_chain, weight_over_e,
                                  weighted_sum, weights)
from eulerbounds.enclosure import (DEFAULT_WIDTH, RatInterval, RefinementExhausted,
                                   _normalized_fixed, euler_number_interval,
                                   integer_nth_root, normalized_below,
                                   normalized_euler_interval, nth_root_interval)
from eulerbounds.series import (Variant, bare_optimal_bound, lower_bound,
                                upper_bound)

E_CONST = F("2.71828182845904523536028747135266249775724709")


class TestTelescopingIdentities:
    def test_product_at_three(self):
        # c1 c2 c3 = 2 * 9/2 * 64/9 = 64, a perfect cube
        prod = telescoping_weight(1) * telescoping_weight(2) * telescoping_weight(3)
        assert prod == 64
        assert integer_nth_root(64, 3) == 4
        assert polya_identities(3) == (4, F(1, 3))

    def test_tail_telescopes(self):
        # sum_{k=3}^{M} 1/(k(k+1)) + 1/(M+1) == 1/3 exactly
        M = 500
        acc = sum(F(1, k * (k + 1)) for k in range(3, M + 1))
        assert acc + F(1, M + 1) == F(1, 3)

    def test_effective_weight_is_the_power(self):
        for m in (1, 2, 7):
            geo, tail = polya_identities(m)
            assert telescoping_weight(m) * tail == F((m + 1) ** m, m**m)
        assert telescoping_weight(1) * polya_identities(1)[1] == 2

    def test_product_identity_range(self):
        prod = F(1)
        for n in range(1, 201):
            prod *= telescoping_weight(n)
            assert prod == F(n + 1) ** n


class TestWeights:
    def test_simple_weight_over_e(self):
        assert weight_over_e(WeightScheme.simple(), 1) == F(17, 23)

    def test_refined_weight_over_e_is_the_upper_bound(self):
        for n in (1, 2, 10):
            for variant in (Variant.DEDUP, Variant.AS_WRITTEN):
                scheme = WeightScheme.refined(variant)
                expected = F(12 * n + 5, 12 * n + 11) - epsilon_term(n, variant)
                assert weight_over_e(scheme, n) == expected

    def test_epsilon_one_as_written(self):
        # direct evaluation of the correction stack with the doubled term
        expected = (F(5, 288) - F(343, 8640) + F(2621, 41472) + F(2621, 41472)
                    - F(300901, 3483648))
        assert epsilon_term(1, Variant.AS_WRITTEN) == expected
        assert expected > 0

    def test_epsilon_one_dedup_is_negative(self):
        expected = F(5, 288) - F(343, 8640) + F(2621, 41472) - F(300901, 3483648)
        assert epsilon_term(1, Variant.DEDUP) == expected
        assert expected < 0

    def test_epsilon_positive_beyond_one(self):
        assert all(epsilon_term(n, Variant.DEDUP) > 0 for n in range(2, 200))

    def test_polya_weight_exact(self):
        w = weights(WeightScheme.polya(), 3)
        assert w[0] == RatInterval.point(2)
        assert w[2] == RatInterval.point(F(64, 27))

    def test_interval_weights_contain_e_multiples(self):
        w = weights(WeightScheme.simple(), 1)[0]
        assert w.lo < E_CONST * F(17, 23) < w.hi
        assert w.width <= DEFAULT_WIDTH


class TestWeightChain:
    def test_dedup_chain_passes(self):
        report = termwise_weight_chain(100, Variant.DEDUP)
        assert report.passed
        assert report.non_improving == (1,)
        assert dict(report.first_failures)["value_vs_refined"] is None

    def test_as_written_chain_fails_at_one(self):
        report = termwise_weight_chain(3, Variant.AS_WRITTEN)
        assert not report.passed
        assert dict(report.first_failures) == {
            "value_vs_refined": 1, "value_vs_simple": None, "simple_vs_one": None}
        assert report.non_improving == ()

    def test_refined_below_simple_beyond_one(self):
        refined = WeightScheme.refined(Variant.DEDUP)
        simple = WeightScheme.simple()
        assert weight_over_e(refined, 1) > weight_over_e(simple, 1)
        for n in range(2, 100):
            assert weight_over_e(refined, n) < weight_over_e(simple, n)


def chain_decision(n: int, value: F) -> bool:
    """The chain's test of (1/e)(1+1/n)^n < value, from its starting bracket."""
    return normalized_below(n, (value.numerator, value.denominator))[0]


def oracle_normalized(n: int, digits: int) -> F:
    """(1/e)(1+1/n)^n from mpmath at the given digits, as an exact rational."""
    with mpmath.workdps(digits):
        man, exp = mpmath.exp(n * mpmath.log1p(mpmath.mpf(1) / n) - 1).man_exp
    return F(man) * F(2) ** exp


class TestChainDecision:
    """The integer cross-multiplication test of the weight chain."""

    def test_agrees_with_the_interval_comparison(self):
        bounds = (lower_bound(), bare_optimal_bound(), upper_bound(Variant.DEDUP),
                  upper_bound(Variant.AS_WRITTEN))
        for n in range(1, 501):
            env = normalized_euler_interval(n, F(1, 64 * n**7))
            for bound in bounds:
                value = bound.eval(n)
                assert env.hi < value or env.lo >= value  # the interval decides
                assert chain_decision(n, value) == (env.hi < value)

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_decides_values_within_two_to_the_minus_80(self, n):
        ref = oracle_normalized(n, 60)
        assert chain_decision(n, ref + F(1, 2**80))
        assert not chain_decision(n, ref - F(1, 2**80))

    def test_straddle_refines(self, monkeypatch):
        calls = []
        monkeypatch.setattr(enclosure, "_normalized_fixed",
                            lambda *args: calls.append(args) or _normalized_fixed(*args))
        ref = oracle_normalized(1, 60)
        assert chain_decision(1, ref + F(1, 2**80))
        # the bracket at 29 bits straddles; 63 and 97 bits come from refining
        assert [prec for _, _, prec in calls] == [29, 63, 97]

    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_values_within_two_to_the_minus_400_are_undecidable(self, n):
        ref = oracle_normalized(n, 200)
        for value in (ref + F(1, 2**400), ref - F(1, 2**400)):
            with pytest.raises(RefinementExhausted):
                chain_decision(n, value)


class TestSequences:
    def test_geometric_terms(self):
        seq = TestSequence.geometric(F(1, 2))
        assert [seq.term(n) for n in (1, 2, 3)] == [F(1, 2), F(1, 4), F(1, 8)]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TestSequence.geometric(1)
        with pytest.raises(ValueError):
            TestSequence.power_law(1)
        with pytest.raises(ValueError):
            TestSequence.power_law(F(3, 2))
        with pytest.raises(ValueError):
            TestSequence.custom([1, 0])

    @pytest.mark.parametrize("seq", [TestSequence.geometric(F(2, 3)),
                                     TestSequence.power_law(2),
                                     TestSequence.custom([F(1, 2), 3, F(7, 5), 1]),
                                     TestSequence.power_law(7)])
    def test_geometric_mean_enclosure_brackets_product(self, seq):
        for n in range(1, 5):
            iv = seq.geometric_mean_enclosure(n, F(1, 10**20))
            prod = F(1)
            for k in range(1, n + 1):
                prod *= seq.term(k)
            assert iv.lo**n <= prod <= iv.hi**n
            assert iv.width <= F(1, 10**20)
            if seq.kind != "geometric":  # the root of this term-by-term product
                assert iv == nth_root_interval(prod, n, F(1, 10**20))

    def test_a_mean_past_the_last_custom_term_is_refused(self):
        with pytest.raises(IndexError):
            TestSequence.custom([1, 2]).geometric_mean_enclosure(3, F(1, 10**20))

    def test_custom_means_take_the_running_product(self, monkeypatch):
        """One mean per n, each the root of the product ``geometric_means``
        keeps, equal to the mean built without it; no mean past the end."""
        seq = TestSequence.custom([F(1, 2), 3, F(7, 5), 1])
        calls = []
        enclose = TestSequence.geometric_mean_enclosure
        monkeypatch.setattr(TestSequence, "geometric_mean_enclosure",
                            lambda s, n, width, product=None:
                            calls.append((n, product)) or enclose(s, n, width, product))
        width = F(1, 10**20)
        means = geometric_means(seq, 4, width)
        assert calls == [(1, F(1, 2)), (2, F(3, 2)), (3, F(21, 10)), (4, F(21, 10))]
        assert means == [enclose(seq, n, width / 4) for n in range(1, 5)]
        with pytest.raises(IndexError):
            geometric_means(seq, 5)

    def test_odd_geometric_means_are_exact(self):
        seq = TestSequence.geometric(F(1, 2))
        iv = seq.geometric_mean_enclosure(3, F(1, 10**30))
        assert iv.lo == iv.hi == F(1, 4)  # (1/2 * 1/4 * 1/8)^(1/3)


class TestCarlemanSums:
    def test_single_term_case(self):
        seq = TestSequence.geometric(F(1, 2))
        lhs, rhs = carleman_sums(seq, WeightScheme.polya(), 1)
        assert lhs == RatInterval.point(F(1, 2))
        assert rhs == RatInterval.point(1)
        assert lhs.hi <= rhs.lo

    def test_geometric_thirty_terms_simple(self):
        seq = TestSequence.geometric(F(1, 2))
        lhs, rhs = carleman_sums(seq, WeightScheme.simple(), 30)
        assert lhs.hi <= rhs.lo

    def test_simple_rhs_below_classical(self):
        for seq in (TestSequence.geometric(F(1, 2)), TestSequence.power_law(2)):
            for N in (5, 40):
                total = sum(seq.term(n) for n in range(1, N + 1))
                weighted = sum(weight_over_e(WeightScheme.simple(), n)
                               * seq.term(n) for n in range(1, N + 1))
                assert weighted < total  # termwise (12n+5)/(12n+11) < 1
                _, rhs = carleman_sums(seq, WeightScheme.simple(), N)
                # e * sum a_n, the unimproved comparison point
                classical = euler_number_interval(DEFAULT_WIDTH / (total + 1)).scale(total)
                assert rhs.lo < classical.hi

    @pytest.mark.parametrize("exponent", [500, 4000])
    def test_rhs_width_is_relative_to_the_sum(self, exponent):
        # an absolute 1e-30 would ask e for more stages than it has
        total = F(17, 23) * 10**exponent
        rhs = weighted_sum(TestSequence.custom([10**exponent]), WeightScheme.simple(), 1)
        assert rhs.lo < E_CONST * total < (E_CONST + F(1, 10**44)) * total < rhs.hi
        assert rhs.width / total < F(1, 10**30)

    @pytest.mark.parametrize("scheme", [WeightScheme.polya(),
                                        WeightScheme.simple(),
                                        WeightScheme.refined(Variant.DEDUP)])
    def test_inequality_holds_across_schemes(self, scheme):
        for seq in (TestSequence.geometric(F(9, 10)), TestSequence.power_law(2)):
            lhs, rhs = carleman_sums(seq, scheme, 60)
            assert lhs.hi <= rhs.lo


def exact_polya_sum(seq: TestSequence, N: int) -> F:
    """sum_{n<=N} (n+1)^n a_n / n^n in exact Fractions."""
    total = F(0)
    for n in range(1, N + 1):
        total += F((n + 1) ** n, n**n) * seq.term(n)
    return total


class TestPolyaBracket:
    """The Polya sum as integer floors and ceilings over one power of ten."""

    @staticmethod
    def check_bracket(seq: TestSequence, N: int) -> RatInterval:
        rhs = weighted_sum(seq, WeightScheme.polya(), N)
        assert rhs.lo <= exact_polya_sum(seq, N) <= rhs.hi
        assert rhs.width <= DEFAULT_WIDTH
        scale = 10 ** (40 + len(str(N)))
        assert scale % rhs.lo.denominator == 0
        assert scale % rhs.hi.denominator == 0
        return rhs

    @given(st.integers(min_value=2, max_value=20).flatmap(
               lambda b: st.integers(min_value=1, max_value=b - 1).map(lambda a: F(a, b))),
           st.integers(min_value=1, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_brackets_the_exact_sum(self, r, N):
        self.check_bracket(TestSequence.geometric(r), N)

    @pytest.mark.parametrize("N", [300, 400])
    def test_brackets_the_exact_sum_at_deep_sizes(self, N):
        self.check_bracket(TestSequence.geometric(F(7, 16)), N)

    @pytest.mark.parametrize("seq, N", [(TestSequence.geometric(F(9, 10)), N)
                                        for N in range(1, 6)]
                             + [(TestSequence.custom([F(1, 2), F(1, 3)]), 2)])
    def test_short_decimal_terms_give_exact_points(self, seq, N):
        rhs = self.check_bracket(seq, N)
        assert rhs == RatInterval.point(exact_polya_sum(seq, N))


@functools.cache
def mean_sum(seq: TestSequence, N: int, width: F = DEFAULT_WIDTH) -> RatInterval:
    return geometric_mean_sum(seq, N, width)


def power_law_lhs(p: int, N: int) -> RatInterval:
    return mean_sum(TestSequence.power_law(p), N)


class TestMeanSumNesting:
    """verify-all decides its sums at the coarsest of 1, 1e-6 and 1e-12
    that decides and trusts the verdict at DEFAULT_WIDTH: that needs each
    coarser lhs to contain the finer ones."""

    @pytest.mark.parametrize("seq", [TestSequence.geometric(F(1, 2)),
                                     TestSequence.geometric(F(9, 10)),
                                     TestSequence.power_law(2)],
                             ids=lambda seq: seq.describe())
    @pytest.mark.parametrize("N", [1, 2, 17, 200])
    def test_coarse_lhs_contains_the_default_width_lhs(self, seq, N):
        widths = [F(1), F(1, 10**6), F(1, 10**12), DEFAULT_WIDTH]
        sums = [mean_sum(seq, N, width) for width in widths]
        for width, coarse, fine in zip(widths, sums, sums[1:]):
            assert coarse.width <= width
            assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


class TestPowerLawOracle:
    """The power-law lhs against mpmath at three times the digits."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3, 50, 200, 260])
    def test_contains_the_mpmath_sum(self, p, N):
        lhs = power_law_lhs(p, N)
        assert lhs.width <= DEFAULT_WIDTH
        with mpmath.workdps(90):  # DEFAULT_WIDTH is 1e-30
            total = mpmath.fsum(mpmath.exp(-p * mpmath.loggamma(n + 1) / n)
                                for n in range(1, N + 1))
            man, exp = total.man_exp
        ref = F(man) * F(2) ** exp
        slack = F(1, 10**85)  # above mpmath's error on a sum below 10
        assert lhs.lo - slack <= ref <= lhs.hi + slack

    def test_endpoints_stay_small(self):
        lhs = power_law_lhs(2, 260)
        for end in (lhs.lo, lhs.hi):
            assert max(end.numerator.bit_length(), end.denominator.bit_length()) <= 200
