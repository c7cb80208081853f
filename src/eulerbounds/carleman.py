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
refined family e*((12n+5)/(12n+11) - eps_n).  The weight chain compares
unreduced integer bound values with each other and, through
``enclosure.normalized_below``, with the sequence.  Infinite sums are
only ever reported as labeled finite-N truncations.  The Polya sum is
bracketed by the floor and ceiling of each term over one power of ten,
and each power-law mean is a root of the running product bracketed over
the power of ten set by the requested width, so neither sum grows its
endpoints with the number of terms.  Those root brackets nest as the
width shrinks, so lhs.hi <= rhs.lo at a coarse width holds at every
finer one: ``verify-all`` decides its sums at 1e-12, while
``carleman_sums`` and the ``carleman`` command enclose at DEFAULT_WIDTH,
the enclosure they print.  Each e-multiple is e's enclosure times an
exact rational, so its width is relative and no sum is too large to decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .enclosure import (DEFAULT_WIDTH, RatInterval, euler_number_interval,
                        normalized_below, nth_root_interval)
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
    exponent: Optional[int] = None
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
        return cls("powerlaw", exponent=int(exponent))

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
            return Fraction(1, n**self.exponent)
        if n > len(self.values):
            raise IndexError(f"custom sequence has only {len(self.values)} terms")
        return self.values[n - 1]

    def geometric_mean_enclosure(self, n: int, width: Fraction) -> RatInterval:
        """Enclose (a_1 ... a_n)^(1/n) to the given width.

        Geometric: the product is r^(n(n+1)/2), so the mean is
        r^((n+1)/2) -- exact for odd n, an exact power times sqrt(r)
        otherwise.  Power law p: the root of the running product
        1/(n!)^p, an exact point when (n!)^p is a perfect n-th power and
        otherwise a bracket whose endpoints share the decimal denominator
        10^d, 10^-d <= width, so that a sum of such means keeps that one
        denominator.  Custom: root of the running product (quadratic
        cost; fine for the table sizes used here).
        """
        if self.kind == "geometric":
            r = self.ratio
            if (n + 1) % 2 == 0:
                return RatInterval.point(r ** ((n + 1) // 2))
            base = r ** (n // 2)
            return nth_root_interval(r, 2, width / base).scale(base)
        if self.kind == "powerlaw":
            return nth_root_interval(Fraction(1, math.factorial(n) ** self.exponent), n, width)
        self.term(n)  # past the last custom term this raises IndexError
        return nth_root_interval(math.prod(self.values[:n]), n, width)

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
    """c_n = (n+1)^n / n^(n-1), reduced by gcds with n alone."""
    if n < 1:
        raise ValueError("weights are indexed from 1")
    return Fraction(n + 1, n) ** n * n


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


def weights(scheme: WeightScheme, N: int) -> list[RatInterval]:
    """Effective weights for indices 1..N: (1+1/n)^n as exact points for the
    telescoping family, otherwise one enclosure of e times each exact weight/e."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if scheme.kind == "polya":
        return [RatInterval.point(Fraction((n + 1) ** n, n**n)) for n in range(1, N + 1)]
    e = euler_number_interval()
    return [e.scale(weight_over_e(scheme, n)) for n in range(1, N + 1)]


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


def termwise_weight_chain(N: int, variant: Variant = Variant.DEDUP) -> ChainReport:
    """Verify the weight chain for every n <= N.

    Every test runs on the bounds' unreduced values (num, den), den > 0, so
    no index pays a gcd: one ``normalized_below`` bracket decides both
    enclosure links, and "simple < 1" and eps_n <= 0 cross-multiply.
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
        r_num, r_den = refined = upper.eval_pair(n)
        s_num, s_den = simple = bare.eval_pair(n)
        below_refined, below_simple = normalized_below(n, refined, simple)
        if fail_refined is None and not below_refined:
            fail_refined = n
        if fail_simple is None and not below_simple:
            fail_simple = n
        if fail_one is None and not s_num < s_den:
            fail_one = n
        if s_num * r_den <= r_num * s_den:  # eps_n <= 0
            non_improving.append(n)
    return ChainReport(N, variant,
                       (("value_vs_refined", fail_refined),
                        ("value_vs_simple", fail_simple),
                        ("simple_vs_one", fail_one)),
                       tuple(non_improving))


# ---------------------------------------------------------------------------
# finite-N inequality sums
# ---------------------------------------------------------------------------


def geometric_means(seq: TestSequence, N: int,
                    width: Fraction = DEFAULT_WIDTH) -> list[RatInterval]:
    """Enclose each (a_1...a_n)^(1/n), n <= N, to width/N: an exact point or
    the floor and ceiling of its root over a power of ten.  Those brackets
    nest as the width shrinks, so their sum at a coarser width contains the
    sum at any finer one, and a comparison its hi decides holds at all of them.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return [seq.geometric_mean_enclosure(n, width / N) for n in range(1, N + 1)]


def geometric_mean_sum(seq: TestSequence, N: int,
                       width: Fraction = DEFAULT_WIDTH) -> RatInterval:
    """Enclose lhs = sum_{n<=N} (a_1...a_n)^(1/n) to the given width."""
    return sum(geometric_means(seq, N, width))


def weighted_sum(seq: TestSequence, scheme: WeightScheme, N: int) -> RatInterval:
    """Enclose rhs = sum_{n<=N} weight(n) a_n.

    Telescoping family: each term (n+1)^n a_n / n^n is bracketed by its
    floor and ceiling over S = 10^(40 + digits of N + z), one integer
    divmod, and the integer brackets are summed, so the width is at most
    N/S < 10^-(40 + z).  z = max(0, 3 (g - 4) // 10), g the bit length of
    a_1's denominator less that of its numerator, is about the number of
    zeros of a_1 after the decimal point and 0 when a_1 >= 1/10: the first
    term, 2 a_1, keeps about 40 digits however small the sequence.  The result is
    an exact point when every term is exact at that scale (a short
    decimal); an exact sum built from inexact terms comes back as a
    bracket around it.  Simple and refined families: e's default enclosure
    times the exact sum s of the weights over e, a width of 7.07e-35 s.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if scheme.kind == "polya":
        first = seq.term(1)
        gap = first.denominator.bit_length() - first.numerator.bit_length()
        scale = 10 ** (40 + len(str(N)) + max(0, 3 * (gap - 4) // 10))
        lo = hi = 0
        for n in range(1, N + 1):
            a = seq.term(n)
            q, r = divmod((n + 1) ** n * a.numerator * scale, n**n * a.denominator)
            lo += q
            hi += q + (r != 0)
        return RatInterval(Fraction(lo, scale), Fraction(hi, scale))
    total = Fraction(0)
    for n in range(1, N + 1):
        total += weight_over_e(scheme, n) * seq.term(n)
    return euler_number_interval().scale(total)


def carleman_sums(seq: TestSequence, scheme: WeightScheme,
                  N: int) -> tuple[RatInterval, RatInterval]:
    """(lhs, rhs) enclosures of the finite-N truncations

        lhs = sum_{n<=N} (a_1...a_n)^(1/n),    rhs = sum_{n<=N} weight(n) a_n.

    Both are rigorous; comparing lhs.hi <= rhs.lo is therefore a rigorous
    check of the truncated inequality.
    """
    return geometric_mean_sum(seq, N), weighted_sum(seq, scheme, N)

