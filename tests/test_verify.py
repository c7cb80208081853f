"""The verify-all gate's exact detail formatting."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds.verify import check_limit_numerics, sci_str


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
