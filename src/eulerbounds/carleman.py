"""Weighted arithmetic-geometric mean sums and sharpened Carleman weights.

The AM-GM step with positive auxiliary weights c_1..c_n,

    (a_1 ... a_n)^(1/n) <= (sum c_m a_m) / (n (c_1...c_n)^(1/n)),

summed over n and rearranged, turns any weight family whose normalized
tails x_n = sum_{k>=n} 1/(k (c_1...c_k)^(1/k)) converge into the bound
sum (a_1...a_n)^(1/n) <= sum c_n x_n a_n.  The classical choice
c_n = (n+1)^n / n^(n-1) telescopes: the geometric means are exactly n+1
and the tails exactly 1/n, so the effective weight is (1+1/n)^n -- the
classical constant-e inequality follows from (1+1/n)^n < e.

The certified upper bounds sharpen this: (1/e)(1+1/n)^n < v(n) gives the
weight family e*(12n+5)/(12n+11) (from the bare rational bound) and the
refined family e*((12n+5)/(12n+11) - eps_n).  Every weight comparison
made here is either an exact rational comparison or a rigorous enclosure
check; infinite sums are only ever reported as labeled finite-N
truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .enclosure import (_GUARD_BITS, DEFAULT_WIDTH, RatInterval, _normalized_fixed,
                        euler_number_interval, nth_root_interval)
from .series import Variant, bare_optimal_bound, upper_bound


# ---------------------------------------------------------------------------
# weight schemes and test sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightScheme:
    """One of the weight families compared by the inequality reports."""

    kind: str  # "polya" | "simple" | "refined"
    variant: Optional[Variant] = None

    @classmethod
    def polya(cls) -> "WeightScheme":
        return cls("polya")

    @classmethod
    def simple(cls) -> "WeightScheme":
        return cls("simple")

    @classmethod
    def refined(cls, variant: Variant = Variant.DEDUP) -> "WeightScheme":
        return cls("refined", variant=variant)

    def describe(self) -> str:
        if self.kind == "refined":
            return f"refined({self.variant.value})"
        return self.kind


@dataclass(frozen=True)
class TestSequence:
    """Positive test sequences a_n with convergent sums."""

    __test__ = False  # not a pytest collection target

    kind: str  # "geometric" | "powerlaw" | "custom"
    ratio: Optional[Fraction] = None
    exponent: Optional[Fraction] = None
    values: Optional[tuple[Fraction, ...]] = None

    @classmethod
    def geometric(cls, ratio) -> "TestSequence":
        ratio = Fraction(ratio)
        if not 0 < ratio < 1:
            raise ValueError("geometric ratio must satisfy 0 < r < 1")
        return cls("geometric", ratio=ratio)

    @classmethod
    def power_law(cls, exponent) -> "TestSequence":
        exponent = Fraction(exponent)
        if exponent <= 1:
            raise ValueError("power-law exponent must exceed 1")
        if exponent.denominator != 1:
            raise ValueError("power-law exponents must be integers so the "
                             "terms stay rational")
        return cls("powerlaw", exponent=exponent)

    @classmethod
    def custom(cls, values: Iterable) -> "TestSequence":
        vals = tuple(Fraction(v) for v in values)
        if any(v <= 0 for v in vals):
            raise ValueError("custom sequence terms must be positive")
        return cls("custom", values=vals)

    def term(self, n: int) -> Fraction:
        if self.kind == "geometric":
            return self.ratio**n
        if self.kind == "powerlaw":
            return Fraction(1, n ** int(self.exponent))
        if n > len(self.values):
            raise IndexError(f"custom sequence has only {len(self.values)} terms")
        return self.values[n - 1]

    def geometric_mean_enclosure(self, n: int, width: Fraction) -> RatInterval:
        """Enclose (a_1 ... a_n)^(1/n) to the given width.

        Geometric: the product is r^(n(n+1)/2), so the mean is
        r^((n+1)/2) -- exact for odd n, an exact power times sqrt(r)
        otherwise.  Power law p: the mean is (n!)^(-p/n), one integer
        root.  Custom: root of the running product (quadratic cost; fine
        for the table sizes used here).
        """
        if self.kind == "geometric":
            r = self.ratio
            if (n + 1) % 2 == 0:
                return RatInterval.point(r ** ((n + 1) // 2))
            base = r ** (n // 2)
            return nth_root_interval(r, 2, width / base).scale(base)
        if self.kind == "powerlaw":
            p = self.exponent
            fact = 1
            for i in range(2, n + 1):
                fact *= i
            root = nth_root_interval(Fraction(fact**p.numerator), n * p.denominator,
                                     width)
            return root.reciprocal()
        prod = Fraction(1)
        for k in range(1, n + 1):
            prod *= self.term(k)
        return nth_root_interval(prod, n, width)

    def describe(self) -> str:
        if self.kind == "geometric":
            return f"geometric({self.ratio})"
        if self.kind == "powerlaw":
            return f"powerlaw({self.exponent})"
        return f"custom[{len(self.values)}]"


# ---------------------------------------------------------------------------
# the telescoping weight family
# ---------------------------------------------------------------------------


def telescoping_weight(n: int) -> Fraction:
    """c_n = (n+1)^n / n^(n-1)."""
    if n < 1:
        raise ValueError("weights are indexed from 1")
    return Fraction((n + 1) ** n, n ** (n - 1))


def polya_identities(n: int) -> tuple[Fraction, Fraction]:
    """((c_1...c_n)^(1/n), x_n) = (n+1, 1/n), exactly.

    The product of the telescoping weights collapses to (n+1)^n, a perfect
    n-th power, and the tail sum of 1/(k(k+1)) collapses to 1/n.  The
    closed forms are returned; the term-by-term identities are verified
    exhaustively in the test suite.
    """
    if n < 1:
        raise ValueError("indices start at 1")
    return Fraction(n + 1), Fraction(1, n)


def epsilon_term(n: int, variant: Variant = Variant.DEDUP) -> Fraction:
    """The correction eps_n subtracted from (12n+5)/(12n+11) by the
    refined weight family: exactly the inverse-power corrections of the
    upper bound, negated."""
    if n < 1:
        raise ValueError("indices start at 1")
    return bare_optimal_bound().eval(n) - upper_bound(variant).eval(n)


def weight_over_e(scheme: WeightScheme, n: int) -> Fraction:
    """Exact rational weight/e for the simple and refined families."""
    if scheme.kind == "simple":
        return bare_optimal_bound().eval(n)
    if scheme.kind == "refined":
        return upper_bound(scheme.variant).eval(n)
    raise ValueError(f"{scheme.kind} weights are not rational multiples of e")


def weight(scheme: WeightScheme, n: int,
           width: Fraction = DEFAULT_WIDTH) -> Union[Fraction, RatInterval]:
    """Effective weight for index n: exact for the telescoping family
    ((1+1/n)^n as a rational), an e-interval multiple otherwise."""
    if n < 1:
        raise ValueError("indices start at 1")
    if scheme.kind == "polya":
        return Fraction((n + 1) ** n, n**n)
    ratio = weight_over_e(scheme, n)
    return euler_number_interval(width / (ratio + 1)).scale(ratio)


# ---------------------------------------------------------------------------
# termwise weight chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """Per-index verification of the weight chain up to N.

    Validity links (these make the weighted inequalities TRUE):
      value_vs_refined : (1/e)(1+1/n)^n < refined weight / e
      value_vs_simple  : (1/e)(1+1/n)^n < (12n+5)/(12n+11)
      simple_vs_one    : (12n+5)/(12n+11) < 1
    first_failures maps each link to the first violating index, or None.

    The improvement ordering refined <= simple is equivalent to
    eps_n >= 0 and is tracked separately in ``non_improving``: those
    indices leave both weight families valid but mean the refined weight
    is locally weaker (this genuinely happens at n = 1 for the
    deduplicated variant).
    """

    N: int
    variant: Variant
    first_failures: tuple[tuple[str, Optional[int]], ...]
    non_improving: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return all(idx is None for _, idx in self.first_failures)

    def first_failure(self, link: str) -> Optional[int]:
        for name, idx in self.first_failures:
            if name == link:
                return idx
        raise KeyError(link)


# Bits added to a straddling bracket: 34 bits is about ten decimal digits.
_REFINE_BITS = 34


def _strictly_below(n: int, value: Fraction, prec: int,
                    bracket: tuple[int, int]) -> bool:
    """Decide (1/e)(1+1/n)^n < value from lo <= 2^prec (1/e)(1+1/n)^n <= hi.

    Both tests cross-multiply by value's denominator, so they stay in
    integers.  A straddle brackets again with more bits; the compared
    quantities are never equal (one side is irrational), so this
    terminates.
    """
    lo, hi = bracket
    num, den = value.numerator, value.denominator
    for _ in range(8):
        if hi * den < num << prec:
            return True
        if lo * den >= num << prec:
            return False
        prec += _REFINE_BITS
        lo, hi = _normalized_fixed(n, 1, prec)
    raise ArithmeticError(f"could not separate enclosure from {value} at n={n}")


def termwise_weight_chain(N: int, variant: Variant = Variant.DEDUP) -> ChainReport:
    """Verify the weight chain for every n <= N.

    One fixed-point bracket per index decides both enclosure links in the
    common case: its 2^-prec resolution sits below 1/(64 n^7), the scale
    of the refined gap, and more bits come only if a comparison
    straddles.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    fail_refined: Optional[int] = None
    fail_simple: Optional[int] = None
    fail_one: Optional[int] = None
    non_improving: list[int] = []
    upper = upper_bound(variant)
    bare = bare_optimal_bound()
    for n in range(1, N + 1):
        refined = upper.eval(n)
        simple = bare.eval(n)
        # the bracket spans under 2^(_GUARD_BITS - prec) <= 1/(64 n^7)
        prec = 7 * n.bit_length() + 6 + _GUARD_BITS
        bracket = _normalized_fixed(n, 1, prec)
        if fail_refined is None and not _strictly_below(n, refined, prec, bracket):
            fail_refined = n
        if fail_simple is None and not _strictly_below(n, simple, prec, bracket):
            fail_simple = n
        if fail_one is None and not simple < 1:
            fail_one = n
        if simple <= refined:  # eps_n <= 0
            non_improving.append(n)
    return ChainReport(N, variant,
                       (("value_vs_refined", fail_refined),
                        ("value_vs_simple", fail_simple),
                        ("simple_vs_one", fail_one)),
                       tuple(non_improving))


# ---------------------------------------------------------------------------
# finite-N inequality sums
# ---------------------------------------------------------------------------


def geometric_mean_sum(seq: TestSequence, N: int) -> RatInterval:
    """Enclose lhs = sum_{n<=N} (a_1...a_n)^(1/n) to DEFAULT_WIDTH."""
    if N < 1:
        raise ValueError("N must be >= 1")
    per_term = DEFAULT_WIDTH / N
    lhs = RatInterval.point(0)
    for n in range(1, N + 1):
        lhs = lhs + seq.geometric_mean_enclosure(n, per_term)
    return lhs


def weighted_sum(seq: TestSequence, scheme: WeightScheme, N: int) -> RatInterval:
    """Enclose rhs = sum_{n<=N} weight(n) a_n: exact for the telescoping
    family, an e-interval multiple of width DEFAULT_WIDTH for the simple
    and refined ones."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if scheme.kind == "polya":
        total = Fraction(0)
        for n in range(1, N + 1):
            total += Fraction((n + 1) ** n, n**n) * seq.term(n)
        return RatInterval.point(total)
    total = Fraction(0)
    for n in range(1, N + 1):
        total += weight_over_e(scheme, n) * seq.term(n)
    return euler_number_interval(DEFAULT_WIDTH / (total + 1)).scale(total)


def carleman_sums(seq: TestSequence, scheme: WeightScheme,
                  N: int) -> tuple[RatInterval, RatInterval]:
    """(lhs, rhs) enclosures of the finite-N truncations

        lhs = sum_{n<=N} (a_1...a_n)^(1/n),    rhs = sum_{n<=N} weight(n) a_n.

    Both are rigorous; comparing lhs.hi <= rhs.lo is therefore a rigorous
    check of the truncated inequality.
    """
    return geometric_mean_sum(seq, N), weighted_sum(seq, scheme, N)

