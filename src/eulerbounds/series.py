"""Truncated formal power series in t = 1/x, over Q or over Q[a,b].

This module replaces the computer-algebra step of the derivation with an
in-repo exact series calculus:

* ``expand_relative_error`` re-derives the expansion of the logarithmic
  error  w(x) = x ln(1+1/x) - 1 - ln((x+a)/(x+b))  with symbolic a, b,
* ``solve_optimal_params`` kills the two leading coefficients and returns
  the unique admissible parameters (5/12, 11/12),
* ``expand_bound_gap`` expands  (1/e)(1+1/x)^x - bound(x)  for a candidate
  rational bound, which is how the inverse-power correction terms of the
  certified bounds are obtained (and audited).

A series of order T stores exactly T+1 coefficients; arithmetic never
reads beyond the stored order.  The parameter ring Q[a,b] is a sparse map
from exponent pairs to rationals (``ParamPoly``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .algebra import Poly, RatFunc, Scalar, rat_str


class NonzeroConstantTerm(ValueError):
    """exp/log composition applied to a series with the wrong constant term."""


class DegenerateSystem(ArithmeticError):
    """The optimal-parameter elimination failed to stay triangular."""


DEFAULT_ORDER = 10  # two orders past the deepest coefficient we assert on


class ParamPoly:
    """Element of Q[a,b]: sparse sum of c_ij * a^i * b^j, no stored zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms: Union[dict, Iterable[tuple[int, int, Scalar]]] = ()):
        if isinstance(terms, dict):
            items = [(i, j, Fraction(c)) for (i, j), c in terms.items()]
        else:
            items = [(i, j, Fraction(c)) for (i, j, c) in terms]
        merged: dict[tuple[int, int], Fraction] = {}
        for i, j, c in items:
            key = (i, j)
            merged[key] = merged.get(key, Fraction(0)) + c
        object.__setattr__(
            self,
            "terms",
            tuple(sorted((k, c) for k, c in merged.items() if c != 0)),
        )

    def __setattr__(self, *_):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "ParamPoly":
        return cls([(0, 0, c)])

    @classmethod
    def var_a(cls) -> "ParamPoly":
        return cls([(1, 0, 1)])

    @classmethod
    def var_b(cls) -> "ParamPoly":
        return cls([(0, 1, 1)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == ParamPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ParamPoly(list(self._triples()) + list(other._triples()))

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly([(i, j, -c) for (i, j), c in self.terms])

    def __sub__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ParamPoly":
        return (-self) + other

    def __mul__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = []
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                out.append((i1 + i2, j1 + j2, c1 * c2))
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ParamPoly":
        result = ParamPoly.const(1)
        for _ in range(k):
            result = result * self
        return result

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return cls.const(other)
        return NotImplemented

    def _triples(self):
        return ((i, j, c) for (i, j), c in self.terms)

    def subs(self, a: Scalar, b: Scalar) -> Fraction:
        """Evaluate at concrete rational parameter values."""
        a, b = Fraction(a), Fraction(b)
        return sum((c * a**i * b**j for (i, j), c in self.terms), Fraction(0))

    def coefficient(self, i: int, j: int) -> Fraction:
        for (ti, tj), c in self.terms:
            if (ti, tj) == (i, j):
                return c
        return Fraction(0)

    def to_triples(self) -> list[tuple[int, int, str]]:
        """Serialization: lexicographically sorted (i, j, 'p/q')."""
        return [(i, j, rat_str(c)) for (i, j), c in self.terms]

    def __repr__(self) -> str:
        if self.is_zero:
            return "ParamPoly(0)"
        bits = []
        for (i, j), c in self.terms:
            mon = "".join(s for s, e in (("a^%d" % i, i), ("b^%d" % j, j)) if e)
            bits.append(f"{c}*{mon}" if mon else str(c))
        return "ParamPoly(" + " + ".join(bits) + ")"


Coeff = Union[Fraction, ParamPoly]


def _is_zero_coeff(c: Coeff) -> bool:
    return c.is_zero if isinstance(c, ParamPoly) else c == 0


class Series:
    """Power series in t truncated at a fixed order (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Coeff]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series order must be >= 0")
        object.__setattr__(self, "order", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Series is immutable")

    def __getitem__(self, k: int) -> Coeff:
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, Series):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r})"

    def __add__(self, other: "Series") -> "Series":
        T = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(T + 1)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        T = min(self.order, other.order)
        out = [self.coeffs[0] * 0 for _ in range(T + 1)]
        for i in range(T + 1):
            ci = self.coeffs[i]
            if _is_zero_coeff(ci):
                continue
            for j in range(T + 1 - i):
                out[i + j] = out[i + j] + ci * other.coeffs[j]
        return Series(out)

    def scale_arg(self, c: Coeff) -> "Series":
        """Substitute t -> c*t: coefficient k picks up a factor c^k."""
        out = []
        power: Coeff = 1
        for k, v in enumerate(self.coeffs):
            out.append(v * power if k else v)
            power = power * c
        return Series(out)

    def map(self, fn) -> "Series":
        return Series([fn(c) for c in self.coeffs])

    def to_strings(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]


# ---------------------------------------------------------------------------
# elementary series over Q
# ---------------------------------------------------------------------------


def series_log1p(order: int) -> Series:
    """ln(1 + t) to the given order: coefficient of t^k is (-1)^(k+1)/k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return Series([Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)])


def xlog1p_minus_one_series(order: int) -> Series:
    """x ln(1 + 1/x) - 1 as a series in t = 1/x (constant term 0)."""
    return Series([Fraction(0)] + [Fraction((-1) ** k, k + 1) for k in range(1, order + 1)])


def series_exp_compose(s: Series, order: int) -> Series:
    """exp(s) truncated at ``order`` for a series with zero constant term.

    Uses the derivative recurrence e_n = (1/n) sum_k k s_k e_{n-k}; the
    brute-force sum of powers s^j / j! is kept in the tests as the
    independent oracle.
    """
    if not _is_zero_coeff(s.coeffs[0]):
        raise NonzeroConstantTerm("exp composition needs constant term 0")
    if order > s.order:
        raise ValueError("requested order exceeds the input series order")
    src = s.coeffs
    out: list[Coeff] = [Fraction(1)]
    for n in range(1, order + 1):
        acc: Coeff = Fraction(0)
        for k in range(1, n + 1):
            sk = src[k]
            if _is_zero_coeff(sk):
                continue
            acc = acc + (sk * k) * out[n - k]
        out.append(acc * Fraction(1, n))
    return Series(out)


def series_inverse(s: Series) -> Series:
    """1/s for a rational series with nonzero constant term."""
    c0 = s.coeffs[0]
    if c0 == 0:
        raise NonzeroConstantTerm("cannot invert a series with constant term 0")
    inv0 = 1 / c0
    out = [inv0]
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += s.coeffs[k] * out[n - k]
        out.append(-inv0 * acc)
    return Series(out)


def series_log(s: Series) -> Series:
    """ln(s) for a rational series with constant term exactly 1."""
    if s.coeffs[0] != 1:
        raise NonzeroConstantTerm("log composition needs constant term 1")
    inv = series_inverse(s)
    out = [Fraction(0)]
    if s.order == 0:
        return Series(out)
    # L' = s'/s, integrated termwise.
    deriv = [(k + 1) * s.coeffs[k + 1] for k in range(s.order)]
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += deriv[k] * inv.coeffs[n - 1 - k]
        out.append(acc / n)
    return Series(out)


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

    @classmethod
    def parse(cls, text: str) -> "Variant":
        for v in cls:
            if v.value == text:
                return v
        raise ValueError(f"unknown variant {text!r}")


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

    def as_ratfunc(self) -> RatFunc:
        """The bound as one exact rational function of x."""
        r = RatFunc(Poly((self.a, 1)), Poly((self.b, 1)))
        for c, k in self.corrections:
            r = r + RatFunc(Poly.constant(c), Poly.x() ** k)
        return r

    def eval(self, x: Scalar) -> Fraction:
        """The exact value at x, by Horner's rule on P and Q homogenized
        for x = p/q: both sums scale by the same q^(K+1), so their ratio
        is bound(x).  A pole raises ZeroDivisionError."""
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        p, q = x.numerator, x.denominator
        (num, den), *rest = self._horner
        q_power = 1
        for p_i, q_i in rest:
            q_power *= q
            num = num * p + p_i * q_power
            den = den * p + q_i * q_power
        return Fraction(num, den)

    def series(self, order: int) -> Series:
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
        return Series(coeffs)

    def describe(self) -> str:
        parts = [f"(x+{rat_str(self.a)})/(x+{rat_str(self.b)})"]
        for c, k in self.corrections:
            parts.append(f"{'+' if c > 0 else '-'} {rat_str(abs(c))}/x^{k}")
        return " ".join(parts)


# the certified bounds, with the corrections equal to the leading
# coefficients of the bound gap (asserted by expand_bound_gap in the tests)
GAP_COEFF_3 = Fraction(-5, 288)
GAP_COEFF_4 = Fraction(343, 8640)
GAP_COEFF_5 = Fraction(-2621, 41472)
GAP_COEFF_6 = Fraction(300901, 3483648)

OPTIMAL_A = Fraction(5, 12)
OPTIMAL_B = Fraction(11, 12)


# Cached: a BoundSpec is frozen, so every caller can share one instance.
@functools.cache
def bare_optimal_bound() -> BoundSpec:
    """(x + 5/12)/(x + 11/12) with no inverse-power corrections."""
    return BoundSpec(OPTIMAL_A, OPTIMAL_B)


@functools.cache
def lower_bound() -> BoundSpec:
    """The certified lower bound: corrections through 1/x^5."""
    return BoundSpec(OPTIMAL_A, OPTIMAL_B,
                     [(GAP_COEFF_3, 3), (GAP_COEFF_4, 4), (GAP_COEFF_5, 5)])


@functools.cache
def upper_bound(variant: Variant = Variant.DEDUP) -> BoundSpec:
    """The upper bound; AS_WRITTEN doubles the 1/x^5 correction."""
    corr = [(GAP_COEFF_3, 3), (GAP_COEFF_4, 4), (GAP_COEFF_5, 5),
            (GAP_COEFF_6, 6)]
    if variant is Variant.AS_WRITTEN:
        corr.append((GAP_COEFF_5, 5))
    return BoundSpec(OPTIMAL_A, OPTIMAL_B, corr)


# ---------------------------------------------------------------------------
# the derivation
# ---------------------------------------------------------------------------


def euler_ratio_series(order: int) -> Series:
    """(1/e)(1+1/x)^x as a series in t = 1/x: exp(x ln(1+1/x) - 1)."""
    return series_exp_compose(xlog1p_minus_one_series(order), order)


def expand_bound_gap(bound: BoundSpec, order: int) -> Series:
    """Series of (1/e)(1+1/x)^x - bound(x) in t = 1/x."""
    if order < bound.max_power():
        raise ValueError("order must cover every correction power")
    return euler_ratio_series(order) - bound.series(order)


def log_gap_series(bound: BoundSpec, order: int) -> Series:
    """Series of x ln(1+1/x) - 1 - ln(bound(x)); constant term 0 exactly
    when the bound tends to 1 at infinity (true for every BoundSpec)."""
    return xlog1p_minus_one_series(order) - series_log(bound.series(order))


def expand_relative_error(order: int) -> Series:
    """Expansion of x ln(1+1/x) - 1 - ln((x+a)/(x+b)) over Q[a,b].

    ln((x+a)/(x+b)) is expanded as ln(1+at) - ln(1+bt), reusing the
    rational log series under the substitutions t -> at and t -> bt.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    base = xlog1p_minus_one_series(order).map(ParamPoly.const)
    log_pattern = series_log1p(order)
    log_a = log_pattern.map(ParamPoly.const).scale_arg(ParamPoly.var_a())
    log_b = log_pattern.map(ParamPoly.const).scale_arg(ParamPoly.var_b())
    return base - (log_a - log_b)


class OptimalParams(NamedTuple):
    a: Fraction
    b: Fraction
    residual_third_coefficient: Fraction


def _as_univariate_in_a(p: ParamPoly, b_poly: Poly) -> Poly:
    """Substitute b -> b_poly(a) into p, returning a polynomial in a."""
    out = Poly.zero()
    for (i, j), c in p.terms:
        out = out + (Poly.x() ** i) * (b_poly ** j) * c
    return out


def solve_optimal_params() -> OptimalParams:
    """Solve for the parameters that kill the two leading error terms.

    The coefficient of t is linear in (a, b); eliminating b (b = a + 1/2)
    cancels the a^2 terms of the t^2 coefficient, leaving the linear
    -a/2 + 5/24.  Its root, which must be positive, is returned together
    with the residual t^3 coefficient.
    """
    w = expand_relative_error(3)
    c1, c2, c3 = w[1], w[2], w[3]
    # c1 = alpha*a + beta*b + gamma must be linear with beta != 0
    alpha = c1.coefficient(1, 0)
    beta = c1.coefficient(0, 1)
    gamma = c1.coefficient(0, 0)
    if beta == 0 or c1 != ParamPoly([(1, 0, alpha), (0, 1, beta), (0, 0, gamma)]):
        raise DegenerateSystem("leading error coefficient is not linear in (a, b)")
    # b expressed as a polynomial in a
    b_of_a = Poly((-gamma / beta, -alpha / beta))
    reduced = _as_univariate_in_a(c2, b_of_a)
    if reduced.degree() != 1:
        raise DegenerateSystem(
            f"elimination left degree {reduced.degree()} in a, expected 1")
    a = -reduced.coeff(0) / reduced.coeff(1)
    if a <= 0:
        raise DegenerateSystem(f"the root a = {a} is not admissible")
    b = b_of_a.eval(a)
    return OptimalParams(a, b, c3.subs(a, b))
