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
* exp(x) for |x| <= 1/2 is a Taylor sum whose k-th term is off by at
  most 2 ulps, and the terms left out after the first zero term total
  under 1 ulp.  The normalized value takes it at the exponent
  n ln(1+1/n) - 1, which lies in [ln 2 - 1, 0); its upper endpoint uses
  exp(x + d) <= exp(x) + 2d for 0 <= d <= 1 and x <= 0, so the
  exponential is summed once per stage.  e is exp(1/2) squared.

Endpoints are therefore exact dyadic rationals whose size follows the
request (361 bits for the normalized value at width 1e-100).  A fixed
stage schedule with cumulative intersection (``_refine``) makes a
tighter request return a subinterval of a looser one.

The one exception is ``fraction_normalized_euler_interval``: exact
Fraction stages (``ln1p_to_width`` and an adaptive Taylor sum for exp)
kept for the refutation witness, whose exact endpoints the prover prints.
Integer n-th roots enclose k-th roots of rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .algebra import Scalar, rat_str
from .series import Variant, lower_bound, upper_bound

DEFAULT_WIDTH = Fraction(1, 10**30)


class DomainError(ValueError):
    """Argument outside the guaranteed-convergence domain of an enclosure."""


class SoundnessError(ValueError):
    """Two enclosures of the same value are disjoint: one of them is wrong."""


class RefinementExhausted(ArithmeticError):
    """The last refinement stage still misses the requested width."""


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Scalar, hi: Scalar):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, v: Scalar) -> "RatInterval":
        v = Fraction(v)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, v) -> bool:
        if isinstance(v, RatInterval):
            return self.lo <= v.lo and v.hi <= self.hi
        return self.lo <= Fraction(v) <= self.hi

    def __add__(self, other: Union["RatInterval", Scalar]) -> "RatInterval":
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        return RatInterval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other: Union["RatInterval", Scalar]) -> "RatInterval":
        return self + (-other if isinstance(other, RatInterval) else -Fraction(other))

    def __rsub__(self, other: Scalar) -> "RatInterval":
        return (-self) + other

    def scale(self, c: Scalar) -> "RatInterval":
        c = Fraction(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def __mul__(self, other: Union["RatInterval", Scalar]) -> "RatInterval":
        if not isinstance(other, RatInterval):
            return self.scale(other)
        products = [self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi]
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("reciprocal of an interval containing 0")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def intersect(self, other: "RatInterval") -> "RatInterval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise SoundnessError("intersection of disjoint enclosures (soundness bug)")
        return RatInterval(lo, hi)

    def to_strings(self) -> tuple[str, str]:
        return rat_str(self.lo), rat_str(self.hi)


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


def _refine(stage_enclosure: Callable[[int], RatInterval],
            target_width: Fraction) -> RatInterval:
    """Intersect the stages in order until the width test passes.

    Stage i never depends on the target, so the result for a tighter
    target is the intersection of more stages: a subinterval of the
    result for a looser one.
    """
    best: Optional[RatInterval] = None
    for stage in range(_STAGES):
        cur = stage_enclosure(stage)
        best = cur if best is None else best.intersect(cur)
        if best.width <= target_width:
            return best
    raise RefinementExhausted("enclosure refinement failed to reach the target width")


def _stage_prec(stage: int) -> int:
    """Fraction bits of stage i: its digit target 8+8i in bits, plus guard bits."""
    return (8 + 8 * stage) * 3322 // 1000 + _GUARD_BITS  # log2(10) ~ 3.322


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

    Sums the Taylor series with every division rounded down.  The k-th
    term's loss obeys |e_k| <= |e_(k-1)| |x|/(k 2^prec) + 1 < 2 ulps.  The
    loop stops at a zero term, after which the terms left out total under
    1 ulp, so the error of the sum stays below 2k + 1 ulps.
    """
    t = s = 1 << prec
    k = 0
    while t:
        k += 1
        t = t * x // (k << prec)
        s += t
    return s - 2 * k - 1, s + 2 * k + 1


# ---------------------------------------------------------------------------
# e and the normalized sequence value  (1/e)(1+1/n)^n
# ---------------------------------------------------------------------------


def _euler_stage(stage: int) -> RatInterval:
    """One fixed-point stage for e = exp(1/2)^2: dyadic endpoints over 2^(2 prec).

    Squaring the positive bracket of exp(1/2) keeps its order, and the
    width (hi - lo)(hi + lo) / 2^(2 prec) stays under 8 (2k + 1) ulps.
    """
    prec = _stage_prec(stage)
    lo, hi = _exp_fixed(1 << (prec - 1), prec)
    one = 1 << 2 * prec
    return RatInterval(Fraction(lo * lo, one), Fraction(hi * hi, one))


def euler_number_interval(width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """Enclose e as exp(1/2) squared, refined until the width bound holds.

    The stages are fixed point and intersected like those of
    ``normalized_euler_interval``: dyadic endpoints, nested results.
    """
    return _refine(_euler_stage, width)


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


def _normalized_stage(p: int, q: int, stage: int) -> RatInterval:
    """One fixed-point stage for n = p/q >= 1: dyadic endpoints over 2^prec."""
    prec = _stage_prec(stage)
    lo, hi = _normalized_fixed(p, q, prec)
    one = 1 << prec
    return RatInterval(Fraction(lo, one), Fraction(hi, one))


def normalized_euler_interval(n: Scalar, target_width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """Enclose (1/e)(1+1/n)^n = exp(n ln(1+1/n) - 1) for rational n >= 1.

    Stage i works in integers over 2^prec with prec about (8+8i) log2(10)
    plus guard bits, and its width is below 10^-(8+8i).  The stages are
    intersected, so results for tighter targets are contained in results
    for looser ones.  Endpoints are exact dyadic rationals.
    """
    n = Fraction(n)
    if n < 1:
        raise DomainError("normalized sequence value needs n >= 1")
    p, q = n.numerator, n.denominator
    return _refine(lambda stage: _normalized_stage(p, q, stage), target_width)


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

    def stage_enclosure(stage: int) -> RatInterval:
        ln_iv = ln1p_to_width(n, Fraction(1, 10 ** (6 + 8 * stage)) / n)
        return _exp_interval_adaptive(ln_iv.scale(n) - 1,
                                      Fraction(1, 10 ** (8 + 8 * stage)))

    return _refine(stage_enclosure, target_width)


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


def _two_sided_check(n: Fraction, lower: Fraction, upper: Fraction,
                     width: Fraction) -> CheckResult:
    env = normalized_euler_interval(n, width)
    if lower < env.lo and env.hi < upper:
        return CheckResult("holds", None, n, env, lower, upper)
    if env.hi <= lower:
        return CheckResult("fails", "lower", n, env, lower, upper)
    if upper <= env.lo:
        return CheckResult("fails", "upper", n, env, lower, upper)
    return CheckResult("undecided", None, n, env, lower, upper)


def check_certified_at(n: Scalar, variant: Variant = Variant.DEDUP,
                      width: Fraction = DEFAULT_WIDTH) -> CheckResult:
    """Check lower(n) < (1/e)(1+1/n)^n < upper_variant(n) rigorously.

    Comparisons against the exact rational bound values are exact; an
    Undecided outcome means the enclosure straddles a bound and the caller
    should retry with a smaller width.
    """
    n = Fraction(n)
    if n < 1:
        raise DomainError("the certified bounds require n >= 1")
    return _two_sided_check(n, lower_bound().eval(n), upper_bound(variant).eval(n), width)


def check_classic_at(n: int, width: Fraction = DEFAULT_WIDTH) -> CheckResult:
    """Check the classical bracket 2n/(2n+1) < (1/e)(1+1/n)^n < (2n+1)/(2n+2)."""
    if n < 1:
        raise DomainError("the classical bracket requires n >= 1")
    return _two_sided_check(Fraction(n), Fraction(2 * n, 2 * n + 1),
                            Fraction(2 * n + 1, 2 * n + 2), width)


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
