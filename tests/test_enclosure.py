"""Rigorous interval enclosures.

High-precision reference decimals were computed independently at 60-digit
working precision (mpmath) and frozen here as strings: the enclosure under
test must trap them.
"""

import contextlib
import functools
import hashlib
import random
import signal
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds import enclosure
from eulerbounds.carleman import TestSequence, geometric_mean_sum
from eulerbounds.enclosure import (DomainError, RatInterval,
                                   RefinementExhausted, SoundnessError, _STAGES,
                                   _euler_stage, _exp_fixed, _ln1p_fixed,
                                   _normalized_stage, _refine_bracket,
                                   _stage_prec,
                                   check_classic_at,
                                   check_certified_at, euler_number_interval,
                                   fraction_normalized_euler_interval,
                                   integer_nth_root, ln1p_to_width, normalized_below,
                                   normalized_euler_interval, nth_root_interval)
from eulerbounds.keller import convergence_table, keller_term
from eulerbounds.series import Variant, lower_bound, upper_bound

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


def within(inner: RatInterval, outer: RatInterval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


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
        with pytest.raises(SoundnessError):
            RatInterval(1, 0)

    def test_arithmetic(self):
        a, b = RatInterval(1, 2), RatInterval(F(-1, 2), 3)
        assert (a + b) == RatInterval(F(1, 2), 5)
        assert (a - b) == RatInterval(-2, F(5, 2))
        assert a.scale(-2) == RatInterval(-4, -2)
        assert b.midpoint == F(5, 4) and b.width == F(7, 2)

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
        assert within(inner, outer)

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
            assert within(fine, coarse)

    def test_tight_log_agrees_with_bracket(self):
        for n in (F(1), F(7, 3), F(12)):
            tight = ln1p_to_width(n, F(1, 10**30))
            assert within(tight, ln1p_interval(n, 2))


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
            assert within(w40, w20) and within(w20, w8)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            normalized_euler_interval(F(1, 2))


ORACLE_DIGITS = 200
ORACLE_SLACK = F(1, 10**190)  # far above mpmath's error, far below any width
POINTS = st.fractions(min_value=1, max_value=10**4, max_denominator=16)
DIGITS = st.integers(min_value=8, max_value=120)


def oracle_normalized(n: F, dps: int = ORACLE_DIGITS) -> F:
    """(1/e)(1+1/n)^n from mpmath at dps digits (200 by default), as an
    exact rational."""
    with mpmath.workdps(dps):
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
        assert within(tight, loose)

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
        assert within(tight, loose)

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


def reference_exp_fixed(x: int, prec: int) -> tuple[int, int]:
    """``_exp_fixed`` as first written: one floor of t x by k 2^prec per term."""
    t = s = 1 << prec
    k = 0
    while t:
        k += 1
        t = t * x // (k << prec)
        s += t
    return s - 2 * k - 1, s + 2 * k + 1


def reference_refine(stage_bracket, target_width: F) -> RatInterval:
    """The refinement as first written: each stage a RatInterval,
    intersected and width-tested as Fractions, from stage 0."""
    best = None
    for stage in range(_STAGES):
        lo, hi, shift = stage_bracket(stage)
        cur = RatInterval(F(lo, 1 << shift), F(hi, 1 << shift))
        best = cur if best is None else best.intersect(cur)
        if best.width <= target_width:
            return best
    raise RefinementExhausted("enclosure refinement failed to reach the target width")


ENDPOINT_POINTS = (F(1), F(33, 16), F(7, 3), F(1000), F(10**4), F(10**6))
ENDPOINT_DIGITS = (8, 12, 20, 30, 40, 80, 120, 300, 500)


def endpoint_lines():
    for d in ENDPOINT_DIGITS:
        iv = euler_number_interval(F(1, 10**d))
        yield f"e 1e-{d} {iv.lo} {iv.hi}\n"
    for n in ENDPOINT_POINTS:
        for d in ENDPOINT_DIGITS:
            iv = normalized_euler_interval(n, F(1, 10**d))
            yield f"normalized {n} 1e-{d} {iv.lo} {iv.hi}\n"


class TestFixedPointKernel:
    """The integer stages and their intersection against the formulas and
    the Fraction intersection they replaced, and the exact endpoints."""

    def test_exact_endpoints_digest(self):
        # e and the normalized value at six n and nine widths, 1e-8 to 1e-500
        digest = hashlib.sha256("".join(endpoint_lines()).encode()).hexdigest()
        assert digest == "3dc8a4bbecd90588e00a46868999c7d6d5c9fd7bb7018e05b9981de32bf91ee7"

    @pytest.mark.parametrize("stage", range(_STAGES))
    def test_euler_stage_is_the_exponential_at_one_half(self, stage):
        prec = _stage_prec(stage)
        lo, hi = reference_exp_fixed(1 << (prec - 1), prec)
        assert _euler_stage(stage) == (lo * lo, hi * hi, 2 * prec)

    @given(st.data(), st.sampled_from((0, 1, 4, 12, 37, 63)))
    @settings(max_examples=60, deadline=None)
    def test_exponential_is_the_single_floor_formula(self, data, stage):
        prec = _stage_prec(stage)
        half = 1 << (prec - 1)
        x = data.draw(st.one_of(st.sampled_from((-half, -1, 0, 1, half)),
                                st.integers(min_value=-half, max_value=half)))
        assert _exp_fixed(x, prec) == reference_exp_fixed(x, prec)

    @pytest.mark.parametrize("n", [F(1), F(33, 16), F(10**9)])
    @pytest.mark.parametrize("digits", [8, 30, 120, 500])
    def test_integer_intersection_is_the_fraction_intersection(self, n, digits):
        width = F(1, 10**digits)
        stages = functools.partial(_normalized_stage, n.numerator, n.denominator)
        assert normalized_euler_interval(n, width) == reference_refine(stages, width)
        assert euler_number_interval(width) == reference_refine(_euler_stage, width)

    @pytest.mark.parametrize("stages", [
        [(0, 1, 0), (4, 5, 1)],  # [0, 1], then [4/2, 5/2]
        [(4, 0, 0), (3, 5, 1)],  # the first stage upside down
        [(0, 4, 0), (5, 3, 1)],  # a later stage upside down, inside [0, 4]
    ], ids=["disjoint", "inverted-first", "inverted-later"])
    def test_an_empty_intersection_is_a_soundness_failure(self, stages):
        # every stage's ulp is below 1/2, so the run starts at stage 0
        with pytest.raises(SoundnessError):
            _refine_bracket(lambda stage: stages[stage], 1, 2)

    @pytest.mark.parametrize("digits", [300, 500])
    def test_contains_the_oracle_at_three_times_the_digits(self, digits):
        slack = F(1, 10 ** (3 * digits - 1))  # above mpmath's error, far below the width
        e = euler_number_interval(F(1, 10**digits))
        assert e.lo - slack <= oracle_e(digits) <= e.hi + slack
        n = F(33, 16)
        iv = normalized_euler_interval(n, F(1, 10**digits))
        ref = oracle_normalized(n, 3 * digits)
        assert iv.lo - slack <= ref <= iv.hi + slack


SCHEDULE_POINTS = (F(1), F(2), F(33, 16), F(7, 3), F(1000), F(10**6), F(10**9),
                   F(10**400 + 1, 3))
SCHEDULES = [("e", _euler_stage)] + [
    ("n=" + (str(n) if n < 10**10 else "(10^400+1)/3"),
     functools.partial(_normalized_stage, n.numerator, n.denominator))
    for n in SCHEDULE_POINTS]


def stage_intervals(stage_bracket) -> list[tuple[F, F]]:
    """Every stage of a schedule as its exact endpoints."""
    return [(F(lo, 1 << shift), F(hi, 1 << shift))
            for lo, hi, shift in map(stage_bracket, range(_STAGES))]


def first_stage(width: F) -> int:
    """The first stage whose 8 ulps are at most width, or _STAGES if none is."""
    return next((i for i in range(_STAGES) if F(8, 1 << _stage_prec(i)) <= width), _STAGES)


@contextlib.contextmanager
def counted_stages(seam: str):
    """Record the stage index of every call to enclosure.<seam>."""
    runs = []
    stage_bracket = getattr(enclosure, seam)

    def counting(*args):
        runs.append(args[-1])
        return stage_bracket(*args)

    with mock.patch.object(enclosure, seam, counting):
        yield runs


def outcome(enclose, *args):
    """The enclosure, or RefinementExhausted if the stages run out."""
    try:
        return enclose(*args)
    except RefinementExhausted:
        return RefinementExhausted


@st.composite
def boundary_widths(draw, n: F) -> F:
    """10^-d for d <= 513, or a stage's ulp 2^-prec, 8 ulps or its exact
    width (for e or for n), each also one unit of 2^-(2 prec) lower or
    higher."""
    kind = draw(st.sampled_from(("decimal", "ulp", "8 ulps", "normalized", "e")))
    if kind == "decimal":
        return F(1, 10 ** draw(st.integers(min_value=1, max_value=513)))
    stage = draw(st.integers(min_value=0, max_value=_STAGES - 1))
    prec = _stage_prec(stage)
    if kind in ("ulp", "8 ulps"):
        width = F(1 if kind == "ulp" else 8, 1 << prec)
    else:
        lo, hi, shift = (_euler_stage(stage) if kind == "e"
                         else _normalized_stage(n.numerator, n.denominator, stage))
        width = F(hi - lo, 1 << shift)
    return width + draw(st.sampled_from((-1, 0, 1))) * F(1, 1 << 2 * prec)


class TestStageSchedule:
    """The two facts that let an enclosure start at the first stage that
    can meet its width, and the start rule against the full intersection."""

    @pytest.mark.parametrize("stage_bracket", [s for _, s in SCHEDULES],
                             ids=[name for name, _ in SCHEDULES])
    def test_every_stage_is_wider_than_its_ulp(self, stage_bracket):
        for stage, (lo, hi) in enumerate(stage_intervals(stage_bracket)):
            ulp = F(1, 1 << _stage_prec(stage))
            # more than 8 ulps, so a stage whose 8 ulps exceed the width
            # cannot pass, and under 2^12 ulps, so the stage after the
            # first that runs passes
            assert 8 * ulp < hi - lo < 2**12 * ulp

    @pytest.mark.parametrize("stage_bracket", [s for _, s in SCHEDULES],
                             ids=[name for name, _ in SCHEDULES])
    def test_each_stage_lies_inside_the_one_before(self, stage_bracket):
        stages = stage_intervals(stage_bracket)
        for (outer_lo, outer_hi), (lo, hi) in zip(stages, stages[1:]):
            assert min(lo - outer_lo, outer_hi - hi) >= hi - lo

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_a_width_runs_the_first_stage_that_can_meet_it(self, data):
        n = data.draw(POINTS)
        width = data.draw(boundary_widths(n))
        first = first_stage(width)
        for seam, enclose, stage_bracket in (
                ("_normalized_stage", functools.partial(normalized_euler_interval, n),
                 functools.partial(_normalized_stage, n.numerator, n.denominator)),
                ("_euler_stage", euler_number_interval, _euler_stage)):
            expected = outcome(reference_refine, stage_bracket, width)
            with counted_stages(seam) as runs:
                assert outcome(enclose, width) == expected
            assert runs in ([first], [first, first + 1]) if first < _STAGES else runs == []

    @pytest.mark.parametrize("width", [
        F(1, 1 << _stage_prec(_STAGES - 1)) - F(1, 1 << 4000),
        F(8, 1 << _stage_prec(_STAGES - 1)) - F(1, 1 << 4000), F(1, 10**517), F(1, 10**4000),
        F(0)], ids=["below-the-last-ulp", "below-8-last-ulps", "1e-517", "1e-4000", "zero"])
    def test_an_unreachable_width_runs_no_stage(self, width):
        with counted_stages("_normalized_stage") as runs, pytest.raises(RefinementExhausted):
            normalized_euler_interval(1, width)
        with counted_stages("_euler_stage") as e_runs, pytest.raises(RefinementExhausted):
            euler_number_interval(width)
        assert runs == e_runs == []

    def test_the_last_stage_alone_sets_the_exhaustion_point(self):
        # at n = 1 the last stage reaches 1e-513 but not 1e-514
        with counted_stages("_normalized_stage") as runs:
            normalized_euler_interval(1, F(1, 10**513))
            with pytest.raises(RefinementExhausted):
                normalized_euler_interval(1, F(1, 10**514))
        assert runs == [_STAGES - 1, _STAGES - 1]


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

    def test_integer_comparator_agrees_with_the_interval_checks(self):
        # verify-all decides these sweeps with normalized_below alone
        with pytest.raises(DomainError):
            normalized_below(0, (1, 2))
        for n in range(1, 1001):
            classic = normalized_below(n, (2 * n, 2 * n + 1), (2 * n + 1, 2 * n + 2))
            assert (classic == [False, True]) == check_classic_at(n, W30).holds
        lower = lower_bound()
        for variant in Variant:
            upper = upper_bound(variant)
            for n in range(1, 101):
                verdict = normalized_below(n, lower.eval_pair(n), upper.eval_pair(n))
                assert ((verdict == [False, True])
                        == check_certified_at(n, variant, W30).holds)


def check_line(res) -> str:
    """Every field of a CheckResult, status and side included."""
    return (f"{res.status} {res.side} {res.n} {res.enclosure.lo} {res.enclosure.hi} "
            f"{res.lower_value} {res.upper_value}\n")


def boundary_sweep_lines():
    """Every field a seeded sweep over the kernel's integer boundary returns:
    both certified checks and the classic one, Keller terms, table rows, and
    e at the endpoint widths.  Widths carry numerators besides 1."""
    rng = random.Random(27)

    def width() -> F:
        return F(rng.randint(1, 99), 10 ** rng.choice((8, 12, 20, 40, 60, 120)))

    for _ in range(100):
        q = rng.randint(1, 16)
        n, w = F(rng.randrange(q, 2000 * q), q), width()
        for variant in Variant:
            yield f"check {variant.value} {w} " + check_line(check_certified_at(n, variant, w))
        yield f"check classic {w} " + check_line(check_classic_at(n, w))
    for _ in range(50):
        n, w = rng.randrange(2, 5000), width()
        term = keller_term(n, w)
        yield f"term {n} {w} {term.lo} {term.hi}\n"
    for _ in range(20):
        ns, w = [rng.randrange(2, 10**4) for _ in range(3)], width()
        for row in convergence_table(ns, w):
            yield (f"row {w} {row.n} {row.rate.lo} {row.rate.hi} "
                   f"{row.sandwich_lo} {row.sandwich_hi} {row.outcome}\n")
    for d in ENDPOINT_DIGITS:
        iv = euler_number_interval(F(1, 10**d))
        yield f"e 1e-{d} {iv.lo} {iv.hi}\n"


class TestIntegerBoundary:
    def test_sweep_returns_the_rationals_it_always_did(self):
        lines = list(boundary_sweep_lines())
        # the sweep reaches every outcome of a check
        assert {line.split()[3] for line in lines if line.startswith("check")} == {
            "holds", "fails", "undecided"}
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "571f286ce545a99d21c344081b71e603ba8ce8bb63a538302e1913c9859abb58"


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

    @pytest.mark.parametrize("enclose", [
        lambda: nth_root_interval(F(2), 2, F(0)),
        lambda: nth_root_interval(F(2), 2, F(-1)),
        lambda: nth_root_interval(F(4), 2, F(0)),
        lambda: TestSequence.geometric(F(1, 2)).geometric_mean_enclosure(2, F(0)),
        lambda: geometric_mean_sum(TestSequence.power_law(2), 5, F(0)),
    ], ids=["zero", "negative", "perfect-square", "mean", "sum"])
    def test_width_guard_refuses_promptly(self, enclose):
        with time_budget(1), pytest.raises(DomainError, match="positive width"):
            enclose()


@contextlib.contextmanager
def time_budget(seconds: int):
    """Fail, instead of hanging, when the block outlasts its budget."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
