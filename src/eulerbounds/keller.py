"""The normalized difference sequence x_n = (1/e)((n+1)^{n+1}/n^n - n^n/(n-1)^{n-1}).

Writing x_n = (n+1) E(n) - n E(n-1) with E(m) = (1/e)(1+1/m)^m, the
certified bounds give the exact rational sandwich

    (n+1) u(n) - n v(n-1)  <  x_n  <  (n+1) v(n) - n u(n-1),

both sides rational functions of n.  Their common limit 1 recovers the
classical limit of the unnormalized difference (e), and the common limit
of n^2 (side - 1), namely 1/24, pins the second-order rate (e/24 before
normalization).  This module builds the sandwich symbolically, computes
those limits from leading coefficients, and produces rigorous numeric
convergence tables that are checked for containment in the exact
sandwich.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Poly, RatFunc
from .enclosure import RatInterval, normalized_euler_interval
from .series import Variant, lower_bound, upper_bound

DEFAULT_TABLE_WIDTH = Fraction(1, 10**20)


class DegreeMismatch(ArithmeticError):
    """A sandwich rational function lost its expected degree structure."""


@dataclass(frozen=True)
class KellerTerm:
    """One rigorously enclosed value of x_n (needs n >= 2)."""

    n: int
    value: RatInterval


def keller_term(n: int, target_width: Fraction = DEFAULT_TABLE_WIDTH) -> KellerTerm:
    """Enclose x_n = (n+1) E(n) - n E(n-1) to the requested width."""
    if n < 2:
        raise ValueError("the difference sequence needs n >= 2")
    here = normalized_euler_interval(n, target_width / (2 * (n + 1)))
    prev = normalized_euler_interval(n - 1, target_width / (2 * n))
    return KellerTerm(n, here.scale(n + 1) - prev.scale(n))


# ---------------------------------------------------------------------------
# exact sandwich
# ---------------------------------------------------------------------------


def sandwich_ratfuncs(variant: Variant = Variant.DEDUP) -> tuple[RatFunc, RatFunc]:
    """The two sandwich sides as exact rational functions of n."""
    u = lower_bound().as_ratfunc()
    v = upper_bound(variant).as_ratfunc()
    n_plus_1 = Poly((1, 1))
    n_poly = Poly.x()
    low = u * n_plus_1 - v.shift(-1) * n_poly
    high = v * n_plus_1 - u.shift(-1) * n_poly
    return low, high


def sandwich_bounds(n: int, variant: Variant = Variant.DEDUP) -> tuple[Fraction, Fraction]:
    """Exact rational sandwich values (lower, upper) at integer n >= 2."""
    if n < 2:
        raise ValueError("the sandwich needs n >= 2 (it evaluates the bounds at n-1)")
    u = lower_bound()
    v = upper_bound(variant)
    low = (n + 1) * u.eval(n) - n * v.eval(n - 1)
    high = (n + 1) * v.eval(n) - n * u.eval(n - 1)
    if not low < high:
        raise ArithmeticError(f"sandwich sides out of order at n={n}")
    return low, high


def _ratfunc_limit(r: RatFunc) -> Fraction:
    if r.num.degree() != r.den.degree():
        raise DegreeMismatch(
            f"degree {r.num.degree()} over {r.den.degree()}: no finite nonzero limit")
    return r.num.leading() / r.den.leading()


def sandwich_limits(variant: Variant = Variant.DEDUP) -> tuple[Fraction, Fraction]:
    """(limit, rate): x_n -> limit and n^2 (x_n - limit) -> rate.

    Both sandwich sides must give the same leading-coefficient ratios;
    returns exactly (1, 1/24), i.e. the unnormalized difference tends to e
    with second-order rate e/24.
    """
    low, high = sandwich_ratfuncs(variant)
    limit_low, limit_high = _ratfunc_limit(low), _ratfunc_limit(high)
    if limit_low != limit_high:
        raise DegreeMismatch("sandwich sides disagree on the limit")
    n2 = Poly((0, 0, 1))
    rate_low = _ratfunc_limit((low - RatFunc.constant(limit_low)) * n2)
    rate_high = _ratfunc_limit((high - RatFunc.constant(limit_high)) * n2)
    if rate_low != rate_high:
        raise DegreeMismatch("sandwich sides disagree on the rate")
    return limit_low, rate_low


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
    low, high = sandwich_ratfuncs(variant)
    one = RatFunc.constant(1)
    n2 = Poly((0, 0, 1))
    items = [
        ("sandwich lower", low, _display_denominator(5, 6)),
        ("sandwich upper", high, _display_denominator(6, 5)),
        ("rate lower", (low - one) * n2, _display_denominator(3, 6)),
        ("rate upper", (high - one) * n2, _display_denominator(4, 5)),
    ]
    return [DisplayForm(name, expr.clear_against(den), den)
            for name, expr, den in items]


# ---------------------------------------------------------------------------
# numeric convergence tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    """One row: rigorous enclosure of n^2 (x_n - 1) and the exact sandwich."""

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
    scaled rate interval meets target_width; containment in the exact
    sandwich is a consequence of the certified bounds and is asserted
    downstream rather than assumed.
    """
    rows = []
    for n in ns:
        term = keller_term(n, target_width / (n * n))
        rate = (term.value - 1).scale(n * n)
        lo, hi = sandwich_bounds(n, variant)
        rows.append(ConvergenceRow(n, rate,
                                   Fraction(n * n) * (lo - 1),
                                   Fraction(n * n) * (hi - 1)))
    return rows
