"""Exact rational scalars, dense univariate polynomials, rational functions.

Everything downstream (series expansion, sign certificates, interval
endpoints, sandwich sequences) is built on three carriers:

* rationals -- stdlib ``fractions.Fraction``, which already maintains the
  canonical form we need (positive denominator, reduced, 0 == 0/1);
* ``Poly`` -- a dense ascending coefficient list over Q.  The zero
  polynomial is the empty list; otherwise the top coefficient is nonzero;
* ``RatFunc`` -- a quotient of two ``Poly`` kept in canonical form:
  gcd(num, den) = 1 and den monic (so structural equality is semantic
  equality); it serves only the prover's second derivative f''.

``rat_str`` is the one printed form of a rational, and of each
coefficient of a printed polynomial.

There is deliberately no floating point anywhere in this module: sign
certificates and refutation witnesses must be bit-exact.  Degrees stay
small (< 30), so the dense representation and quadratic algorithms are
fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def rat_str(q: Fraction) -> str:
    """Canonical 'p/q' rendering; the sign sits on the numerator."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _coerce_coeffs(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Poly:
    """Dense univariate polynomial over Q, coefficients in ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _coerce_coeffs(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree()
        lead = other.leading()
        if len(rem) <= dq:
            return Poly.zero(), Poly(rem)
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - dq] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dq + j] -= q * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def shift(self, c: Scalar) -> "Poly":
        """Taylor shift: returns q with q(t) = self(t + c), exactly.

        Synthetic-division form of the shift; O(deg^2) exact operations.
        """
        c = Fraction(c)
        if c == 0 or self.is_zero:
            return self
        out = list(self.coeffs)
        n = len(out)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += c * out[j + 1]
        return Poly(out)

    # -- normal forms ---------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading()
        return Poly(tuple(c / lead for c in self.coeffs))

    def content_and_primitive(self) -> tuple[Fraction, "Poly"]:
        """Write self = content * primitive with primitive an integer
        polynomial of content 1 and positive leading coefficient."""
        if self.is_zero:
            return Fraction(0), self
        from math import gcd, lcm

        den = lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = 0
        for v in nums:
            g = gcd(g, v)
        if nums[-1] < 0:
            g = -g
        return Fraction(g, den), Poly([v // g for v in nums])

    def primitive(self) -> "Poly":
        return self.content_and_primitive()[1]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm.

    gcd(p, 0) is p made monic; gcd(0, 0) is 0.
    """
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class RatFunc:
    """Quotient of polynomials in canonical form (coprime, monic denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly.one()):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    # -- field operations (between rational functions) -----------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RatFunc":
        """Quotient rule, returned in canonical form."""
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )
