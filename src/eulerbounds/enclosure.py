"""Rigorous rational-endpoint enclosures of (1/e)(1+1/n)^n and friends.

The trusted path is exact: every interval endpoint is a Fraction, every
rounding is outward, and no binary floating point is involved anywhere.

Every enclosure of e and of the normalized value comes from one
fixed-point kernel.  A stage with digit target d holds each quantity as
an integer mantissa m standing for m / 2^prec, prec = d log2 10 plus 16
guard bits, and rounds every division down, carrying an explicit bound
in ulps (units of 2^-prec) on what the floors lost:

* ln(1 + 1/n) for n = p/q is 2 atanh(y), y = q/(2p+q) <= 1/3, summed at
  prec plus the bit length of p plus guard bits (n scales its error).
  Each term sits under 3 ulps below its exact value, and the terms left
  out once the running power reaches 0 total under 2 ulps.
* exp(x) for |x| <= 1/2 is a Taylor sum whose k-th term is off by
  under 1.2 ulps, and the terms left out after the first zero term total
  under 1 ulp.  The normalized value takes it at the exponent
  n ln(1+1/n) - 1, which lies in [ln 2 - 1, 0); its upper endpoint uses
  exp(x + d) <= exp(x) + 2d for 0 <= d <= 1 and x <= 0, so the
  exponential is summed once per stage.  e is exp(1/2) squared; at
  x = 2^(prec-1) the Taylor step floor(t x / (k 2^prec)) is t // 2k.

A stage is three integers (lo, hi, shift) standing for
[lo / 2^shift, hi / 2^shift].  Stage i has prec = ``_stage_prec(i)``
fraction bits, at least 26 more than stage i - 1, and its ulp is
2^-prec.  Two facts about this schedule let ``_refine_bracket`` compute
one stage, at most two, per enclosure:

* Width floor: every stage is more than 8 ulps wide.  With K terms in
  the exp sum, the normalized value spans 4K + 2 + 2 (x_hi - x_lo) ulps,
  at least 10, as its exponent x_lo <= -1 is a nonzero first term, so
  K >= 2.  e spans hi^2 - lo^2 >= (4K + 2) 2^(prec+1) units of
  2^-(2 prec), 2 (4K + 2) ulps, as lo + hi >= 2^(prec+1).  (Measured:
  at least 12 ulps normalized, 178 for e.)  So a stage whose 8 ulps
  exceed the target width can never pass the width test.
* Nesting: each stage lies strictly inside every earlier one.  The exp
  sum's error stays below 1.2 (K - 1) + 1 ulps, because its first term
  x is exact (e_1 = 0) and |x| <= 1/2 gives |e_k| < 1 + |e_(k-1)|/(2k),
  so |e_k| < 1.2.  The bracket allows 2K + 1 ulps, and K >= 1, so each
  endpoint sits at least 0.8K + 1.2 >= 2 ulps of its own stage outside
  the value; the normalized upper endpoint keeps that margin over
  exp(x_hi), and squaring keeps at least 2 ulps for e.
  Stage i+1 spans under 2^12 of its own ulps (K < 240 at the last
  stage), and its ulp is at least 2^26 times finer, so it lies within
  2^-14 ulps of stage i around the value, inside stage i.

So the intersection of stages 0..m is stage m, and the integer core
``_refine_bracket`` starts at the first stage whose 8 ulps are at most
the width.  It returns the integers (lo, hi, shift) of the same bracket
as intersecting from stage 0, whose size follows the request (361 bits
for the normalized value at width 1e-100).

The kernel's boundary is integers.  A width goes in as an integer ratio
num/den, unreduced, since the start rule and the width test are
homogeneous in (num, den): ``normalized_bracket`` is the bracket for the
normalized value at such a width.  A Fraction is built only where a
call returns it:

* ``normalized_euler_interval``, ``euler_number_interval`` and
  ``keller.keller_term`` return a ``RatInterval`` of exact dyadic
  rationals, one Fraction per endpoint; ``RatInterval.dyadic`` checks
  the order on the integers before building them.
* The checks compare that interval with the bounds' values as Fractions.
* The comparator ``normalized_below`` tests a kernel bracket against
  integer pairs num/den by cross-multiplication and builds none.

The one exception is ``fraction_normalized_euler_interval``: exact
Fraction stages (``ln1p_to_width`` and an adaptive Taylor sum for exp),
intersected as ``RatInterval``s, kept for the refutation witness, whose
exact endpoints the prover prints.
Integer n-th roots enclose k-th roots of rationals.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .algebra import Scalar
from .series import BoundSpec, Variant, classical_bracket, lower_bound, upper_bound

DEFAULT_WIDTH = Fraction(1, 10**30)


class DomainError(ValueError):
    """Argument outside the guaranteed-convergence domain of an enclosure."""


class SoundnessError(ValueError):
    """Two enclosures of the same value are disjoint: one of them is wrong."""


class RefinementExhausted(ArithmeticError):
    """The last refinement stage still misses the requested width, or
    still cannot tell which side of a value the enclosure lies on."""


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Scalar, hi: Scalar):
        # a Fraction endpoint is kept as it is: Fraction(v) would copy it
        lo, hi = (v if type(v) is Fraction else Fraction(v) for v in (lo, hi))
        if lo > hi:  # every interval is an enclosure: a fault, not bad input
            raise SoundnessError(f"inverted interval [{lo}, {hi}] (soundness bug)")
        self._set(lo, hi)

    def _set(self, lo: Fraction, hi: Fraction) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, v: Scalar) -> "RatInterval":
        v = Fraction(v)
        return cls(v, v)

    @classmethod
    def dyadic(cls, lo: int, hi: int, shift: int) -> "RatInterval":
        """[lo / 2^shift, hi / 2^shift]: a kernel bracket as an interval.
        The order is checked on the integers, before either Fraction is built."""
        if lo > hi:
            raise SoundnessError(f"inverted dyadic interval [{lo}, {hi}] / 2^{shift} "
                                 "(soundness bug)")
        one = 1 << shift
        interval = object.__new__(cls)
        interval._set(Fraction(lo, one), Fraction(hi, one))
        return interval

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: Union["RatInterval", Scalar]) -> "RatInterval":
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        return RatInterval(self.lo + other, self.hi + other)

    __radd__ = __add__  # so that sum() of intervals starts from 0

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other: Union["RatInterval", Scalar]) -> "RatInterval":
        return self + (-other if isinstance(other, RatInterval) else -Fraction(other))

    def scale(self, c: Scalar) -> "RatInterval":
        c = Fraction(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def intersect(self, other: "RatInterval") -> "RatInterval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise SoundnessError("intersection of disjoint enclosures (soundness bug)")
        return RatInterval(lo, hi)


# ---------------------------------------------------------------------------
# the fixed-point kernel
# ---------------------------------------------------------------------------


# Each stage i aims at width 10^-(8+8i); the final width test and the
# 64-stage cap are shared by every stage kind below.
_STAGES = 64
# Extra bits over a stage's digit target: they absorb the few-ulp rounding
# bounds below (a stage's result spans under 2^12 ulps up to its last
# stage, 512 digits).
_GUARD_BITS = 16


def _stage_prec(stage: int) -> int:
    """Fraction bits of stage i: its digit target 8+8i in bits, plus guard bits."""
    return (8 + 8 * stage) * 3322 // 1000 + _GUARD_BITS  # log2(10) ~ 3.322


_STAGE_PRECS = tuple(map(_stage_prec, range(_STAGES)))


def _first_stage(num: int, den: int) -> int:
    """The first stage whose 8 ulps are at most the width num/den, den > 0,
    or _STAGES if none is.

    That stage's prec is the first at least b, the fewest bits with
    num 2^b >= 8 den: num 2^b has num's bit length plus b bits, so b is
    the difference of the bit lengths or one more.
    """
    if num <= 0:
        return _STAGES
    eight_den = 8 * den
    bits = max(eight_den.bit_length() - num.bit_length(), 0)
    if num << bits < eight_den:
        bits += 1
    return bisect_left(_STAGE_PRECS, bits)


def _refine_bracket(stage_bracket: Callable[[int], tuple[int, int, int]],
                    num: int, den: int) -> tuple[int, int, int]:
    """Intersect the stages, from the first whose 8 ulps are at most the
    width num/den, until the width test passes.

    The width is an integer ratio, den > 0, not necessarily in lowest
    terms: the start rule and the width test are homogeneous in (num, den).
    Stage i returns integers (lo, hi, shift) standing for the bracket
    [lo / 2^shift, hi / 2^shift], and shift never falls from one stage to
    the next.  Every stage is more than 8 ulps (2^-prec) wide, prec =
    ``_stage_prec(i)``, and lies strictly inside every earlier one (the
    module docstring proves both).  So no stage before the first with
    num 2^prec >= 8 den can pass, and starting there returns the same
    rationals as starting at stage 0.  That stage or the next passes; a
    width below 8 ulps of the last stage raises ``RefinementExhausted``
    before any stage runs.

    The stages that run are still intersected in integers (the older
    bracket shifted up to the newer shift), and the width test
    cross-multiplies, (hi - lo) den <= num 2^shift.  An inverted or
    disjoint stage is a ``SoundnessError``.  The result is the integers
    (lo, hi, shift) of the stage that passes, intersected.
    """
    lo = hi = shift = None
    for stage in range(_first_stage(num, den), _STAGES):
        cur_lo, cur_hi, cur_shift = stage_bracket(stage)
        if lo is not None:
            up = cur_shift - shift
            cur_lo, cur_hi = max(lo << up, cur_lo), min(hi << up, cur_hi)
        lo, hi, shift = cur_lo, cur_hi, cur_shift
        # an inverted stage empties the intersection as a disjoint one does;
        # every stage is an enclosure, so either is a fault, not bad input
        if lo > hi:
            raise SoundnessError(f"stage {stage} is inverted or disjoint from "
                                 "the earlier ones (soundness bug)")
        if (hi - lo) * den <= num << shift:
            return lo, hi, shift
    raise RefinementExhausted("enclosure refinement failed to reach the target width")


def _ln1p_fixed(p: int, q: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^prec ln(1 + q/p) <= hi, for p >= q >= 1.

    Sums ln(1 + q/p) = 2 atanh(y), y = q/(2p+q) <= 1/3, with every
    division rounded down.  The running power Y stands for 2^prec y^j and
    sits below it by less than 9/8 ulp (each step loses under 1 ulp and
    scales the earlier loss by y^2 <= 1/9), so floor(Y/j) is under
    9/8 + 1 < 3 ulps below the term.  The loop stops once Y is 0, i.e.
    2^prec y^j < 9/8, so the terms left out sum to under
    (9/8)/(j (1 - y^2)) < 2 ulps.
    """
    d = 2 * p + q
    q2, d2 = q * q, d * d
    y = (q << prec) // d
    s, j = 0, 1
    while y:
        s += y // j
        y = y * q2 // d2
        j += 2
    terms = j // 2
    return 2 * s, 2 * (s + 3 * terms + 2)


def _exp_fixed(x: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^prec exp(x / 2^prec) <= hi, |x| <= 2^prec / 2.

    Sums the Taylor series with every division rounded down.  The first
    term x is exact, and the k-th term's loss obeys
    |e_k| < |e_(k-1)| |x|/(k 2^prec) + 1 <= |e_(k-1)|/(2k) + 1 < 1.2 ulps.
    The loop stops at a zero term, after which the terms left out total
    under 1 ulp, so the error of the sum stays below 1.2 (k - 1) + 1 ulps,
    at least 2 ulps short of the bracket's 2k + 1.
    """
    t = s = 1 << prec
    k = 0
    while t:
        k += 1
        # floor(floor(t x / 2^prec) / k) = floor(t x / (k 2^prec))
        t = (t * x >> prec) // k
        s += t
    return s - 2 * k - 1, s + 2 * k + 1


# ---------------------------------------------------------------------------
# e and the normalized sequence value  (1/e)(1+1/n)^n
# ---------------------------------------------------------------------------


def _euler_stage(stage: int) -> tuple[int, int, int]:
    """One fixed-point stage for e = exp(1/2)^2: (lo, hi, 2 prec).

    The series is ``_exp_fixed``'s at x = 2^(prec-1), where its step
    floor(floor(t x / 2^prec) / k) is floor(t / (2k)): the same integers
    without the products.  Squaring the positive bracket of exp(1/2) keeps
    its order, and the width (hi - lo)(hi + lo) / 2^(2 prec) stays under
    8 (2k + 1) ulps.
    """
    prec = _stage_prec(stage)
    t = s = 1 << prec
    k = 0
    while t:
        k += 1
        t //= 2 * k
        s += t
    lo, hi = s - 2 * k - 1, s + 2 * k + 1
    return lo * lo, hi * hi, 2 * prec


def euler_number_interval(width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """Enclose e as exp(1/2) squared, refined until the width bound holds.

    The stages are fixed point and nest like those of
    ``normalized_euler_interval``: dyadic endpoints, nested results.
    """
    return RatInterval.dyadic(*_refine_bracket(_euler_stage, width.numerator, width.denominator))


def _normalized_fixed(p: int, q: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^prec (1/e)(1+1/n)^n <= hi for n = p/q >= 1."""
    # n multiplies the logarithm's error, so it gets p's bit length on top
    shift = p.bit_length() + _GUARD_BITS
    ln_lo, ln_hi = _ln1p_fixed(p, q, prec + shift)
    den = q << shift
    one = 1 << prec
    # the exponent n ln(1+1/n) - 1 lies in [ln 2 - 1, 0), inside _exp_fixed's domain
    x_lo = p * ln_lo // den - one
    x_hi = -(-p * ln_hi // den) - one
    lo, hi = _exp_fixed(x_lo, prec)
    # exp(x_hi) = exp(x_lo) e^d with 0 <= d <= 1, and e^d <= 1 + 2d there;
    # exp(x_lo) <= 1 since x_lo <= 0, so hi grows by at most 2 d in ulps
    return lo, hi + 2 * (x_hi - x_lo)


def _normalized_stage(p: int, q: int, stage: int) -> tuple[int, int, int]:
    """One fixed-point stage for n = p/q >= 1: (lo, hi, prec)."""
    prec = _stage_prec(stage)
    return (*_normalized_fixed(p, q, prec), prec)


def normalized_bracket(n: Scalar, num: int, den: int) -> tuple[int, int, int]:
    """Integers (lo, hi, shift) with lo / 2^shift <= (1/e)(1+1/n)^n <= hi / 2^shift,
    (hi - lo) den <= num 2^shift, for rational n >= 1 and the width num/den,
    den > 0, an integer ratio not necessarily in lowest terms.

    Stage i works in integers over 2^prec with prec about (8+8i) log2(10)
    plus guard bits, and its width is below 10^-(8+8i).  The stages nest,
    so brackets for tighter targets are contained in brackets for looser
    ones.
    """
    if not isinstance(n, (int, Fraction)):
        n = Fraction(n)
    p, q = n.numerator, n.denominator
    if p < q:
        raise DomainError("normalized sequence value needs n >= 1")
    return _refine_bracket(lambda stage: _normalized_stage(p, q, stage), num, den)


def normalized_euler_interval(n: Scalar, target_width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """``normalized_bracket`` as an interval of exact dyadic rationals."""
    return RatInterval.dyadic(*normalized_bracket(n, target_width.numerator,
                                                  target_width.denominator))


# ---------------------------------------------------------------------------
# exact Fraction stages (the printed refutation witness)
# ---------------------------------------------------------------------------


def ln1p_to_width(n: Scalar, width: Fraction) -> RatInterval:
    """Enclose ln(1 + 1/n) to the requested width for any rational n >= 1.

    Writes 1 + 1/n = (p+q)/p for n = p/q and uses
    ln((1+y)/(1-y)) = 2 atanh(y) with y = q/(2p+q) <= 1/3.  All series
    terms are positive, so the partial sum is a lower endpoint, and the
    tail after the y^J term is at most y^(J+2) / ((J+2)(1 - y^2)).
    Successive refinements are nested.
    """
    n = Fraction(n)
    if n < 1:
        raise DomainError("logarithm enclosure needs n >= 1")
    p, q = n.numerator, n.denominator
    y = Fraction(q, 2 * p + q)
    y2 = y * y
    one_minus = 1 - y2
    s = Fraction(0)
    yj = y
    j = 1
    while True:
        s += yj / j
        yj *= y2
        tail = yj / ((j + 2) * one_minus)
        if 2 * tail <= width:
            return RatInterval(2 * s, 2 * (s + tail))
        j += 2


def _exp_interval_adaptive(s: RatInterval, target: Fraction) -> RatInterval:
    """Enclose exp over s, |s| <= 1/2, by Taylor sums at both endpoints
    summed until their tail bounds fall to target."""
    if max(abs(s.lo), abs(s.hi)) > Fraction(1, 2):
        raise DomainError("exp enclosure needs |endpoints| <= 1/2")
    sums, rem = [], Fraction(0)
    for v in (s.lo, s.hi):
        term = acc = Fraction(1)
        i = 0
        while True:
            i += 1
            term = term * v / i
            acc += term
            # remaining terms are dominated by a geometric series of ratio
            # |v|/(i+1) starting at |term| * |v|/(i+1)
            ratio = abs(v) / (i + 1)
            tail = abs(term) * ratio / (1 - ratio)
            if tail <= target:
                break
        sums.append(acc)
        rem = max(rem, tail)
    return RatInterval(sums[0] - rem, sums[1] + rem)


def fraction_normalized_euler_interval(n: Scalar,
                                       target_width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """The same enclosure from exact Fraction stages (slower, huge endpoints).

    Stage i encloses the logarithm to width 10^-(6+8i)/n with
    ``ln1p_to_width`` and the exponential to tail 10^-(8+8i).  The
    refutation witness is printed with its exact endpoints in
    certificate-format 1, so the prover keeps these stages; the tests use
    them as a cross-check of the fixed-point stages.
    """
    n = Fraction(n)
    if n < 1:
        raise DomainError("normalized sequence value needs n >= 1")

    best: Optional[RatInterval] = None
    for stage in range(_STAGES):
        ln_iv = ln1p_to_width(n, Fraction(1, 10 ** (6 + 8 * stage)) / n)
        cur = _exp_interval_adaptive(ln_iv.scale(n) - 1,
                                     Fraction(1, 10 ** (8 + 8 * stage)))
        best = cur if best is None else best.intersect(cur)
        if best.width <= target_width:
            return best
    raise RefinementExhausted("enclosure refinement failed to reach the target width")


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one rigorous two-sided inequality check."""

    status: str  # "holds" | "fails" | "undecided"
    side: Optional[str]  # "lower" | "upper" when status == "fails"
    n: Fraction
    enclosure: RatInterval
    lower_value: Fraction
    upper_value: Fraction

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def _two_sided_check(n: Scalar, lower: BoundSpec, upper: BoundSpec,
                     width: Fraction) -> CheckResult:
    """Check lower(n) < (1/e)(1+1/n)^n < upper(n) by exact comparisons;
    "undecided" means the enclosure straddles a bound (retry narrower).
    Enclosing first refuses n < 1 before a bound can meet its pole."""
    n = Fraction(n)
    env = normalized_euler_interval(n, width)
    lo, hi = lower.eval(n), upper.eval(n)
    if lo < env.lo and env.hi < hi:
        return CheckResult("holds", None, n, env, lo, hi)
    if env.hi <= lo:
        return CheckResult("fails", "lower", n, env, lo, hi)
    if hi <= env.lo:
        return CheckResult("fails", "upper", n, env, lo, hi)
    return CheckResult("undecided", None, n, env, lo, hi)


def check_certified_at(n: Scalar, variant: Variant = Variant.DEDUP,
                      width: Fraction = DEFAULT_WIDTH) -> CheckResult:
    """Check lower(n) < (1/e)(1+1/n)^n < upper_variant(n) rigorously."""
    return _two_sided_check(n, lower_bound(), upper_bound(variant), width)


def normalized_below(n: int, *values: tuple[int, int]) -> list[bool]:
    """Decide (1/e)(1+1/n)^n < num/den, integer n >= 1, for each (num, den), den > 0.

    One bracket lo <= 2^prec (1/e)(1+1/n)^n <= hi serves every pair, from
    prec = 7 bitlen(n) + 6 plus guard bits: it spans under 1/(64 n^7), the
    scale of the refined bound's margin.  Cross-multiplying by den keeps
    the tests in integers, with no gcd: hi den < num 2^prec proves "below",
    lo den >= num 2^prec "not below".  A straddle adds 34 bits and brackets
    again, up to 8 times per pair, then raises RefinementExhausted (the
    sides are never equal: one is irrational).
    """
    if n < 1:
        raise DomainError("normalized sequence value needs n >= 1")
    prec = 7 * n.bit_length() + 6 + _GUARD_BITS
    lo, hi = _normalized_fixed(n, 1, prec)
    verdicts = []
    for num, den in values:
        for _ in range(8):
            if hi * den < num << prec or lo * den >= num << prec:
                break
            prec += 34  # about ten decimal digits
            lo, hi = _normalized_fixed(n, 1, prec)
        else:
            raise RefinementExhausted(
                f"could not separate enclosure from {num}/{den} at n={n}")
        verdicts.append(hi * den < num << prec)
    return verdicts


def check_classic_at(n: int, width: Fraction = DEFAULT_WIDTH) -> CheckResult:
    """Check the pair of ``classical_bracket`` at n rigorously."""
    return _two_sided_check(n, *classical_bracket(), width)


# ---------------------------------------------------------------------------
# roots of rationals (used by the weighted-mean sums)
# ---------------------------------------------------------------------------


def integer_nth_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for nonnegative integer m, by integer Newton."""
    if m < 0 or k < 1:
        raise ValueError("integer_nth_root needs m >= 0, k >= 1")
    if m == 0:
        return 0
    if k == 1:
        return m
    x = 1 << ((m.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > m:
        x -= 1
    return x


def nth_root_interval(q: Fraction, k: int, width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """Enclose q ** (1/k) for rational q > 0 to the requested width.

    Perfect k-th powers come back as exact points.  Otherwise the root is
    scaled by a power of ten and bracketed between consecutive integers,
    entirely in integer arithmetic.
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError("n-th root enclosure needs a positive argument")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if width <= 0:  # no power of ten is that narrow
        raise DomainError("n-th root enclosure needs a positive width")
    rn = integer_nth_root(q.numerator, k)
    rd = integer_nth_root(q.denominator, k)
    if rn**k == q.numerator and rd**k == q.denominator:
        return RatInterval.point(Fraction(rn, rd))
    digits = 1
    while Fraction(1, 10**digits) > width:
        digits += 1
    scaled = q.numerator * 10 ** (digits * k) // q.denominator
    f = integer_nth_root(scaled, k)
    return RatInterval(Fraction(f, 10**digits), Fraction(f + 1, 10**digits))
