"""The verify-all gate's exact detail formatting, and that it still fails."""

import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds import verify
from eulerbounds.carleman import TestSequence, geometric_mean_sum
from eulerbounds.cli import EXIT_FAIL, main
from eulerbounds.enclosure import DEFAULT_WIDTH, RatInterval
from eulerbounds.verify import (WIDTH_12, check_limit_numerics,
                                check_weight_chains, sci_str)


class TestSciStr:
    @pytest.mark.parametrize("q, text", [
        (F(12345, 10**4), "1.234e+00"),  # ties go to the even digit
        (F(12355, 10**4), "1.236e+00"),
        (F(12345, 10**8), "1.234e-04"),
        (F(99995, 10**9), "1.000e-04"),  # 9.9995e-5 rounds up into the next decade
        (F(1), "1.000e+00"),
        (F(1, 1000), "1.000e-03"),
        (F(10**5), "1.000e+05"),
        (F(1, 10**100), "1.000e-100"),
        (F(0), "0.000e+00"),
        (F(1, 3), "3.333e-01"),
    ])
    def test_examples(self, q, text):
        assert sci_str(q) == text

    @given(st.floats(min_value=0, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_float_formatting_on_binary_values(self, x):
        # format() rounds a float's exact binary value half to even too
        assert sci_str(F(x)) == format(x, ".3e")

    def test_limit_numerics_detail(self):
        ok, detail = check_limit_numerics()
        assert ok and detail.endswith("|midpoint(1000) - 1/24| = 1.719e-08")


class TestGateFails:
    def run_gate(self):
        out = io.StringIO()
        return main(["verify-all"], out=out), out.getvalue()

    def test_wrong_telescoping_weight(self, monkeypatch):
        weight = verify.telescoping_weight
        monkeypatch.setattr(verify, "telescoping_weight", lambda n: (
            weight(n) * F(n + 2, n + 1) if n == 37 else weight(n)))
        code, out = self.run_gate()
        assert code == EXIT_FAIL
        assert "FAIL telescoping-identities: product identity broke at n=37\n" in out
        assert out.endswith("CHECKS FAILED (10 checks)\n")

    def test_comparator_reporting_one_violation(self, monkeypatch):
        below = verify.normalized_below
        monkeypatch.setattr(verify, "normalized_below",
                            lambda n, *pairs: [True, True] if pairs[0] == (1000, 1001)
                            else below(n, *pairs))
        code, out = self.run_gate()
        assert code == EXIT_FAIL
        assert "FAIL classical-bracket: violations in 1..1000: [500]\n" in out
        assert out.endswith("CHECKS FAILED (10 checks)\n")


SUMS_PASS = ("chain N=10^4 passed=True non-improving=[1]; "
             "sums at N=200: lhs.hi <= rhs.lo for 3 sequences x 3 schemes")
HALF = TestSequence.geometric(F(1, 2))


class TestWeightChainSums:
    """The sums are decided at WIDTH_12 alone."""

    @pytest.fixture
    def widths(self, monkeypatch):
        seen = []

        def spy(seq, N, width=DEFAULT_WIDTH):
            seen.append(width)
            return geometric_mean_sum(seq, N, width)
        monkeypatch.setattr(verify, "geometric_mean_sum", spy)
        return seen

    def test_passing_sums_stay_coarse(self, widths):
        assert check_weight_chains() == (True, SUMS_PASS)
        assert widths == [WIDTH_12] * 3

    def test_a_violation_fails_verify_all(self, widths, monkeypatch):
        """geometric(1/2) under the simple weights gets an rhs.lo below
        the coarse lhs.hi."""
        lo = geometric_mean_sum(HALF, 200, WIDTH_12).lo
        weighted = verify.weighted_sum
        monkeypatch.setattr(verify, "weighted_sum", lambda seq, scheme, N: (
            RatInterval(lo, lo + 1) if (seq, scheme.kind) == (HALF, "simple")
            else weighted(seq, scheme, N)))
        out = io.StringIO()
        assert main(["verify-all"], out=out) == EXIT_FAIL
        assert ("FAIL weight-chains: chain N=10^4 passed=True non-improving=[1]; "
                "geometric(1/2)/simple: VIOLATED; sums at N=200: "
                "lhs.hi <= rhs.lo for 3 sequences x 3 schemes\n") in out.getvalue()
        assert out.getvalue().endswith("CHECKS FAILED (10 checks)\n")
        assert widths == [WIDTH_12] * 3
