"""The normalized difference sequence x_n = (1/e)((n+1)^{n+1}/n^n - n^n/(n-1)^{n-1}).

Writing x_n = (n+1) E(n) - n E(n-1) with E(m) = (1/e)(1+1/m)^m, the
certified bounds give the exact rational sandwich

    (n+1) u(n) - n v(n-1)  <  x_n  <  (n+1) v(n) - n u(n-1),

both sides rational functions of n.  Their common limit 1 recovers the
classical limit of the unnormalized difference (e), and the common limit
of n^2 (side - 1), namely 1/24, pins the second-order rate (e/24 before
normalization).  This module builds each side, and each rate, as an
unreduced pair of the bounds' integer polynomials, reads the limits off
leading coefficients, divides out the published displays exactly, and
checks rigorous numeric convergence tables against the exact rates.

The tables' rows come from the kernel's integer brackets, with no
interval arithmetic.  ``keller_term`` hands the kernel each value's
share of the width as an unreduced integer ratio, lifts the brackets of
E(n) and E(n-1) to a common shift and forms (n+1) a - n b in integers,
so x_n is built as one Fraction per endpoint, a / 2^s.  A row's rate
n^2 (x_n - 1) is one more Fraction per endpoint, n^2 (a - 2^s) / 2^s.
Each sandwich rate is one Fraction, N(n) / D(n), from one integer Horner
pass over the coefficient rows of ``rate_sides``, cached per variant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Poly
from .enclosure import RatInterval, normalized_bracket
from .series import Variant, lower_bound, upper_bound

DEFAULT_TABLE_WIDTH = Fraction(1, 10**20)


class DegreeMismatch(ArithmeticError):
    """A sandwich rational function lost its expected degree structure."""


def keller_term(n: int, target_width: Fraction = DEFAULT_TABLE_WIDTH) -> RatInterval:
    """Enclose x_n = (n+1) E(n) - n E(n-1) (needs n >= 2) to the requested width.

    The kernel brackets of E(n) and E(n-1), each to its share of the
    width as an unreduced integer ratio, are lifted to a common shift and
    combined in integers."""
    if n < 2:
        raise ValueError("the difference sequence needs n >= 2")
    num, den = target_width.numerator, target_width.denominator
    a_lo, a_hi, a_shift = normalized_bracket(n, num, 2 * (n + 1) * den)
    b_lo, b_hi, b_shift = normalized_bracket(n - 1, num, 2 * n * den)
    shift = max(a_shift, b_shift)
    a_up, b_up = shift - a_shift, shift - b_shift
    return RatInterval.dyadic((n + 1) * (a_lo << a_up) - n * (b_hi << b_up),
                              (n + 1) * (a_hi << a_up) - n * (b_lo << b_up), shift)


# ---------------------------------------------------------------------------
# exact sandwich
# ---------------------------------------------------------------------------


@functools.cache
def sandwich_sides(variant: Variant) -> tuple[tuple[Poly, Poly], ...]:
    """Unreduced (N, D) of the lower and the upper side: from the bounds'
    integer polynomials a = P_a/Q_a, b = P_b/Q_b, the side (n+1) a(n) - n b(n-1)
    is ((n+1) P_a Q_b(n-1) - n P_b(n-1) Q_a) / (Q_a Q_b(n-1))."""
    u, v = lower_bound().polynomials(), upper_bound(variant).polynomials()
    n1, n = Poly((1, 1)), Poly.x()
    return tuple((n1 * p_a * q_b.shift(-1) - n * p_b.shift(-1) * q_a, q_a * q_b.shift(-1))
                 for (p_a, q_a), (p_b, q_b) in ((u, v), (v, u)))


# Cached: a build costs about 0.3 ms, and the limits, the display forms
# and the coefficient tuples all read them.
@functools.cache
def rate_sides(variant: Variant) -> tuple[tuple[Poly, Poly], ...]:
    """Unreduced (n^2 (N - D), D): the rates n^2 (side - 1) of both sides."""
    n2 = Poly((0, 0, 1))
    return tuple(((num - den) * n2, den) for num, den in sandwich_sides(variant))


# Cached: sandwich_rates evaluates them for every n, once per table row.
@functools.cache
def _rate_coefficients(variant: Variant) -> tuple[tuple[int, int, int, int], ...]:
    """The integer coefficients of rate_sides' four polynomials, one row per
    power of n, highest first: the rows of one Horner pass over all four."""
    polys = [p for pair in rate_sides(variant) for p in pair]
    return tuple(tuple(p.coeff(k).numerator for p in polys)
                 for k in range(max(p.degree() for p in polys), -1, -1))


def sandwich_rates(n: int, variant: Variant = Variant.DEDUP) -> tuple[Fraction, Fraction]:
    """Exact n^2 (side - 1) of the lower and the upper side at integer n >= 2."""
    if n < 2:
        raise ValueError("the sandwich needs n >= 2 (it evaluates the bounds at n-1)")
    low_num = low_den = high_num = high_den = 0
    for a, b, c, d in _rate_coefficients(variant):
        low_num, low_den, high_num, high_den = (low_num * n + a, low_den * n + b,
                                                high_num * n + c, high_den * n + d)
    low, high = Fraction(low_num, low_den), Fraction(high_num, high_den)
    if not low < high:
        raise ArithmeticError(f"sandwich sides out of order at n={n}")
    return low, high


def _leading_ratio(num: Poly, den: Poly) -> Fraction:
    """The finite nonzero limit of num/den at infinity.  A common factor
    changes neither the degree difference nor this ratio: no reduction."""
    if num.degree() != den.degree():
        raise DegreeMismatch(
            f"degree {num.degree()} over {den.degree()}: no finite nonzero limit")
    return num.leading() / den.leading()


def sandwich_limits(variant: Variant = Variant.DEDUP) -> tuple[Fraction, Fraction]:
    """(limit, rate): x_n -> limit and n^2 (x_n - 1) -> rate.

    Both sandwich sides must give the same leading-coefficient ratios;
    returns exactly (1, 1/24), i.e. the unnormalized difference tends to e
    with second-order rate e/24.
    """
    limits = [_leading_ratio(num, den) for num, den in sandwich_sides(variant)]
    if limits[0] != limits[1]:
        raise DegreeMismatch("sandwich sides disagree on the limit")
    rates = [_leading_ratio(num, den) for num, den in rate_sides(variant)]
    if rates[0] != rates[1]:
        raise DegreeMismatch("sandwich sides disagree on the rate")
    return limits[0], rates[0]


# ---------------------------------------------------------------------------
# published display forms (cleared numerators over the stated denominators)
# ---------------------------------------------------------------------------

DISPLAY_DENOMINATOR_CONSTANT = 17418240


def _display_denominator(pow_n: int, pow_nm1: int) -> Poly:
    n = Poly.x()
    return (Poly.constant(DISPLAY_DENOMINATOR_CONSTANT) * n**pow_n
            * (n - Poly.one()) ** pow_nm1 * Poly((-1, 12)) * Poly((11, 12)))


@dataclass(frozen=True)
class DisplayForm:
    """A sandwich expression rewritten over its published denominator."""

    name: str
    numerator: Poly
    denominator: Poly


def display_forms(variant: Variant = Variant.DEDUP) -> list[DisplayForm]:
    """All four published sandwich displays, recomputed exactly.

    The sandwich sides over 17418240 n^a (n-1)^b (12n-1)(12n+11) and the
    rate expressions n^2(side - 1) over the same shape with smaller powers
    of n and n-1.
    """
    forms = []
    for name, (num, den), powers in zip(
            ("sandwich lower", "sandwich upper", "rate lower", "rate upper"),
            sandwich_sides(variant) + rate_sides(variant),
            ((5, 6), (6, 5), (3, 6), (4, 5))):
        display = _display_denominator(*powers)
        top, rem = divmod(num * display, den)
        if rem:
            raise ValueError("denominator does not clear this rational function")
        forms.append(DisplayForm(name, top, display))
    return forms


# ---------------------------------------------------------------------------
# numeric convergence tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    """One row: rigorous enclosure of n^2 (x_n - 1) and the exact sandwich rates."""

    n: int
    rate: RatInterval
    sandwich_lo: Fraction
    sandwich_hi: Fraction

    @property
    def contained(self) -> bool:
        return self.sandwich_lo <= self.rate.lo and self.rate.hi <= self.sandwich_hi

    @property
    def outcome(self) -> str:
        """"contained"; "outside" when the enclosure is disjoint from the
        sandwich, which refutes the certified bounds; "undecided" when it
        overlaps the sandwich without fitting inside (a narrower width
        decides)."""
        if self.contained:
            return "contained"
        if self.rate.hi < self.sandwich_lo or self.sandwich_hi < self.rate.lo:
            return "outside"
        return "undecided"


def convergence_table(ns: Iterable[int],
                      target_width: Fraction = DEFAULT_TABLE_WIDTH,
                      variant: Variant = Variant.DEDUP) -> list[ConvergenceRow]:
    """Rows of rigorous n^2 (x_n - 1) enclosures with the exact sandwich pair.

    The x_n enclosure is requested at target_width / n^2 so that the
    rate interval n^2 (x_n - 1) meets target_width; containment in the exact
    sandwich is a consequence of the certified bounds and is asserted
    downstream rather than assumed.
    """
    rows = []
    for n in ns:
        n2 = n * n
        term = keller_term(n, target_width / n2)
        # x_n's endpoints are a / d, d a power of 2; lifted to the larger d,
        # 2^s, each gives the rate endpoint n^2 (a - 2^s) / 2^s
        lo, hi = term.lo, term.hi
        one = max(lo.denominator, hi.denominator)
        rate = RatInterval.dyadic(n2 * (lo.numerator * (one // lo.denominator) - one),
                                  n2 * (hi.numerator * (one // hi.denominator) - one),
                                  one.bit_length() - 1)
        rows.append(ConvergenceRow(n, rate, *sandwich_rates(n, variant)))
    return rows
