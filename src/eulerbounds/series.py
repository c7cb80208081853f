"""Truncated formal power series in t = 1/x over Q, and the derivation.

This module replaces the computer-algebra step of the derivation with an
in-repo exact series calculus:

* ``expand_relative_error`` gives the logarithmic error
  x ln(1+1/x) - 1 - ln((x+a)/(x+b))  with symbolic a, b as two rational
  series w, l: its t^k coefficient is w_k + l_k (b^k - a^k),
* ``solve_optimal_params`` reads the parameters (5/12, 11/12) that kill
  the two leading coefficients straight off w and l,
* ``expand_bound_gap`` expands  (1/e)(1+1/x)^x - bound(x)  for a candidate
  rational bound; ``truncated_bound`` appends the bare approximant's gap
  coefficients to it as corrections, which derives the certified bounds.

A series of order T is the tuple of its T+1 rational coefficients; no
routine reads beyond the stored order.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .algebra import Poly, Scalar, rat_str

Coeffs = tuple[Fraction, ...]


class NonzeroConstantTerm(ValueError):
    """exp/log composition applied to a series with the wrong constant term."""


# ---------------------------------------------------------------------------
# elementary series over Q
# ---------------------------------------------------------------------------


def series_log1p(order: int) -> Coeffs:
    """ln(1 + t) to the given order: coefficient of t^k is (-1)^(k+1)/k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return (Fraction(0),) + tuple(Fraction((-1) ** (k + 1), k) for k in range(1, order + 1))


def xlog1p_minus_one_series(order: int) -> Coeffs:
    """x ln(1 + 1/x) - 1 as a series in t = 1/x (constant term 0)."""
    return (Fraction(0),) + tuple(Fraction((-1) ** k, k + 1) for k in range(1, order + 1))


def series_exp_compose(s: Coeffs) -> Coeffs:
    """exp(s), to the order of s, for a series with zero constant term.

    Uses the derivative recurrence e_n = (1/n) sum_k k s_k e_{n-k}; the
    brute-force sum of powers s^j / j! is kept in the tests as the
    independent oracle.
    """
    if s[0] != 0:
        raise NonzeroConstantTerm("exp composition needs constant term 0")
    out = [Fraction(1)]
    for n in range(1, len(s)):
        acc = Fraction(0)
        for k in range(1, n + 1):
            sk = s[k]
            if sk:
                acc += (sk * k) * out[n - k]
        out.append(acc / n)
    return tuple(out)


def series_log(s: Coeffs) -> Coeffs:
    """ln(s), to the order of s, for a series with constant term exactly 1:
    the mirror of ``series_exp_compose``, since L = ln(s) solves s L' = s',
    n L_n = n s_n - sum_{0<k<n} k L_k s_{n-k}."""
    if s[0] != 1:
        raise NonzeroConstantTerm("log composition needs constant term 1")
    out = [Fraction(0)]
    for n in range(1, len(s)):
        acc = n * s[n]
        for k in range(1, n):
            acc -= (out[k] * k) * s[n - k]
        out.append(acc / n)
    return tuple(out)


# ---------------------------------------------------------------------------
# candidate bounds:  (x+a)/(x+b) + sum of c_k / x^k
# ---------------------------------------------------------------------------


class Variant(enum.Enum):
    """The upper bound's 1/x^5 correction appears twice in its published
    form.  AS_WRITTEN reproduces that verbatim (the coefficient doubled);
    DEDUP keeps the term once.  Everything downstream treats the choice as
    data, so both can be proved/refuted on equal footing."""

    AS_WRITTEN = "as-written"
    DEDUP = "dedup"


@dataclass(frozen=True)
class BoundSpec:
    """A candidate bound (x+a)/(x+b) + sum c_k / x^k with rational data.

    Corrections are canonicalized: same-power terms merged, zeros dropped,
    powers strictly increasing and >= 1.
    """

    a: Fraction
    b: Fraction
    corrections: tuple[tuple[Fraction, int], ...] = ()

    def __init__(self, a: Scalar, b: Scalar,
                 corrections: Iterable[tuple[Scalar, int]] = ()):
        merged: dict[int, Fraction] = {}
        for c, k in corrections:
            k = int(k)
            if k < 1:
                raise ValueError("correction powers must be >= 1")
            merged[k] = merged.get(k, Fraction(0)) + Fraction(c)
        canon = tuple(sorted(((Fraction(c), k) for k, c in merged.items() if c != 0),
                             key=lambda item: item[1]))
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "corrections", canon)
        object.__setattr__(self, "_horner", self._integer_coefficients())

    def _integer_coefficients(self) -> tuple[tuple[int, int], ...]:
        """(P_i, Q_i) pairs, leading first, of the integer polynomials with
        bound(x) = P(x) / Q(x) for every x.

        P = L ((x+a) x^K + (x+b) sum c_k x^(K-k)) and Q = L (x+b) x^K, with
        K the top correction power and L the least common multiple of the
        denominators.  No factor is cancelled, so Q vanishes exactly where a
        term of the defining sum has a pole.
        """
        K = self.max_power()
        num = [Fraction(0)] * (K + 2)  # num[i] is the coefficient of x^i
        den = [Fraction(0)] * (K + 2)
        num[K + 1], num[K] = Fraction(1), self.a
        den[K + 1], den[K] = Fraction(1), self.b
        for c, k in self.corrections:
            num[K - k + 1] += c
            num[K - k] += c * self.b
        lcm = math.lcm(*(v.denominator for v in num + den))
        return tuple((int(p * lcm), int(q * lcm))
                     for p, q in zip(reversed(num), reversed(den)))

    def max_power(self) -> int:
        return self.corrections[-1][1] if self.corrections else 0

    def polynomials(self) -> tuple[Poly, Poly]:
        """(P, Q), bound = P/Q, integer coefficients, no factor cancelled."""
        return (Poly(p for p, _ in reversed(self._horner)),
                Poly(q for _, q in reversed(self._horner)))

    def eval_pair(self, x: Scalar) -> tuple[int, int]:
        """Integers (num, den), den > 0, unreduced, with num/den the value at
        x: Horner's rule on P and Q homogenized for x = p/q (both sums scale
        by q^(K+1)).  A pole raises ZeroDivisionError."""
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        p, q = x.numerator, x.denominator
        (num, den), *rest = self._horner
        q_power = 1
        for p_i, q_i in rest:
            q_power *= q
            num = num * p + p_i * q_power
            den = den * p + q_i * q_power
        if den == 0:
            raise ZeroDivisionError(f"the bound has a pole at x = {x}")
        return (num, den) if den > 0 else (-num, -den)

    def eval(self, x: Scalar) -> Fraction:
        """The exact value at x, in lowest terms."""
        return Fraction(*self.eval_pair(x))

    def series(self, order: int) -> Coeffs:
        """Asymptotic expansion of the bound in t = 1/x.

        (x+a)/(x+b) = (1+at)/(1+bt) has the closed form coefficients
        1, (a-b)(-b)^(k-1); the corrections add c_k at t^k.
        """
        coeffs = [Fraction(1)]
        for k in range(1, order + 1):
            coeffs.append((self.a - self.b) * (-self.b) ** (k - 1))
        for c, k in self.corrections:
            if k <= order:
                coeffs[k] += c
        return tuple(coeffs)

    def describe(self) -> str:
        a, b = (f"{'-' if v < 0 else '+'}{rat_str(abs(v))}" for v in (self.a, self.b))
        parts = [f"(x{a})/(x{b})"]
        for c, k in self.corrections:
            parts.append(f"{'+' if c > 0 else '-'} {rat_str(abs(c))}/x^{k}")
        return " ".join(parts)


# the certified bounds: truncations of the bare approximant's gap series.
# Cached: a BoundSpec is frozen, so every caller can share one instance.
@functools.cache
def truncated_bound(order: int) -> BoundSpec:
    """The optimal approximant (x+a)/(x+b) of ``solve_optimal_params`` plus
    c_k/x^k for each k <= order, c_k the t^k coefficient of its bound gap.

    The gap's t and t^2 coefficients vanish, so order 2 is the bare
    approximant; orders 5 and 6 are the certified lower and upper bounds.
    """
    a, b, _ = solve_optimal_params()
    gap = expand_bound_gap(BoundSpec(a, b), order)
    return BoundSpec(a, b, [(gap[k], k) for k in range(1, order + 1)])


def bare_optimal_bound() -> BoundSpec:
    """(x + 5/12)/(x + 11/12) with no inverse-power corrections."""
    return truncated_bound(2)


def lower_bound() -> BoundSpec:
    """The certified lower bound: corrections through 1/x^5."""
    return truncated_bound(5)


@functools.cache
def upper_bound(variant: Variant = Variant.DEDUP) -> BoundSpec:
    """The certified upper bound, order 6; AS_WRITTEN counts 1/x^5 twice."""
    bound = truncated_bound(6)
    if variant is Variant.DEDUP:
        return bound
    fifth = [(c, k) for c, k in bound.corrections if k == 5]
    return BoundSpec(bound.a, bound.b, bound.corrections + tuple(fifth))


@functools.cache
def classical_bracket() -> tuple[BoundSpec, BoundSpec]:
    """The classical pair 2x/(2x+1) < (1/e)(1+1/x)^x < (2x+1)/(2x+2), as
    (x+0)/(x+1/2) and (x+1/2)/(x+1): their integer P/Q are 2x over 2x+1
    and 2x+1 over 2x+2."""
    return BoundSpec(0, Fraction(1, 2)), BoundSpec(Fraction(1, 2), 1)


# ---------------------------------------------------------------------------
# the derivation
# ---------------------------------------------------------------------------


def euler_ratio_series(order: int) -> Coeffs:
    """(1/e)(1+1/x)^x as a series in t = 1/x: exp(x ln(1+1/x) - 1)."""
    return series_exp_compose(xlog1p_minus_one_series(order))


def _minus(s: Coeffs, r: Coeffs) -> Coeffs:
    """s - r for two series of the same order."""
    return tuple(p - q for p, q in zip(s, r))


def expand_bound_gap(bound: BoundSpec, order: int) -> Coeffs:
    """Series of (1/e)(1+1/x)^x - bound(x) in t = 1/x."""
    if order < bound.max_power():
        raise ValueError("order must cover every correction power")
    return _minus(euler_ratio_series(order), bound.series(order))


def log_gap_series(bound: BoundSpec, order: int) -> Coeffs:
    """Series of x ln(1+1/x) - 1 - ln(bound(x)); constant term 0 exactly
    when the bound tends to 1 at infinity (true for every BoundSpec)."""
    return _minus(xlog1p_minus_one_series(order), series_log(bound.series(order)))


def expand_relative_error(order: int) -> tuple[Coeffs, Coeffs]:
    """The pair (w, l) = (x ln(1+1/x) - 1, ln(1+t)) to t^order, which gives
    the relative error x ln(1+1/x) - 1 - ln((x+a)/(x+b)) for symbolic a, b.

    With ln((x+a)/(x+b)) = ln(1+at) - ln(1+bt), the error's t^k coefficient
    is w_k + l_k (b^k - a^k).
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    return xlog1p_minus_one_series(order), series_log1p(order)


class OptimalParams(NamedTuple):
    a: Fraction
    b: Fraction
    residual_third_coefficient: Fraction


def solve_optimal_params() -> OptimalParams:
    """The parameters that kill the two leading error terms, with the
    residual t^3 coefficient.

    The t coefficient w_1 + l_1 (b - a) fixes b - a = 1/2; the t^2
    coefficient w_2 + l_2 (b - a)(b + a) then fixes b + a = 4/3.
    """
    w, l = expand_relative_error(3)
    diff = -w[1] / l[1]
    total = -w[2] / (l[2] * diff)
    a, b = (total - diff) / 2, (total + diff) / 2
    return OptimalParams(a, b, w[3] + l[3] * (b**3 - a**3))
