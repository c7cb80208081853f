"""An integer-only recheck of a published convexity certificate.

It shares no code with the prover and imports no module of this package:
its inputs are plain lists of integers, ascending by degree.  A bound
B = P/Q of the paper's shape (Q = x^K times a linear factor qx + p, so
b = p/q is its pole) claims to bracket (1/e)(1+1/x)^x on [1, oo) from the
given side.  With f(x) = x ln(1+1/x) - 1 - ln B(x), a published cleared
numerator N and a published certificate C, ``recheck_bound`` checks:

* P > 0 and Q > 0 on [1, oo): every coefficient of the Taylor shift to 1
  is positive.
* f -> 0 at oo: deg P = deg Q with equal leading coefficients, so B -> 1.
* Every coefficient of C is positive, so C(x-1) > 0 on [1, oo).
* The identity f''(x) D(x) = lambda C(x-1), D = x^2 (x+1)^2 (qx+p)^2 N^2,
  with lambda of the side's sign (+ for lower, - for upper).  With
  M = x (x+1)^2 P^2 Q^2, F = f'' M is a polynomial, written here by the
  quotient rule: U = P'Q - PQ', U' = P''Q - PQ'' and
  F = -P^2 Q^2 - x (x+1)^2 (P (U'Q - 2UQ') - U^2).  deg F <= deg M, so
  G = F D and H = C(x-1) M have degree at most
  d = deg M + max(deg D, deg C).  Evaluated exactly at the d + 1 integers
  x = 2, ..., d + 2, G(x) H(2) = G(2) H(x) at every point, with
  G(2) H(2) != 0, makes G H(2) - G(2) H a polynomial of degree <= d with
  d + 1 roots, hence zero; dividing by M gives the identity with
  lambda = G(2) / H(2).

Then f'' has the side's sign on [1, oo).  D has no root there: at one,
F D = 0 while lambda C(x-1) M > 0 in absolute value.  A convex f (lower
side) that tends to 0 stays above 0, strictly as f'' > 0, which is
B < (1/e)(1+1/x)^x; the concave mirror proves the upper side.

The published-table matches read the same data: the bound numerator
matches when N is the primitive part of P; the denominator structure
when the identity holds and C(x-1) is coprime to D, so D is the
denominator of f'' in lowest terms: C(x-1) is nonzero at 0, -1 and -p/q,
and gcd(C(x-1), N) modulo ``PRIME`` has degree 0 (a common factor over Q
would survive reduction, as ``PRIME`` does not divide N's leading
coefficient); and the certificate when, in addition, C is primitive and
lambda has the side's sign.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

PRIME = 2**61 - 1
NUMERATOR_MATCH = "bound numerator (cleared)"
STRUCTURE_MATCH = "second-derivative denominator structure"
CERTIFICATE_MATCH = "certificate shifted numerator"


class Recheck(NamedTuple):
    """The proof premises that failed, in order, and the three
    published-table matches by their printed names."""

    failed: tuple[str, ...]
    matches: dict[str, bool]

    @property
    def proven(self) -> bool:
        return not self.failed

    @property
    def conclusion(self) -> str:
        return "proven" if self.proven else f"unproven (failed: {', '.join(self.failed)})"


def _strip(c: Sequence[int]) -> list[int]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _at(c: Sequence[int], x: int) -> int:
    value = 0
    for a in reversed(c):
        value = value * x + a
    return value


def _derivative(c: Sequence[int]) -> list[int]:
    return [i * a for i, a in enumerate(c)][1:]


def _shift_one(c: Sequence[int]) -> list[int]:
    """The coefficients of c(t + 1)."""
    out = list(c)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _primitive(c: Sequence[int]) -> list[int]:
    """c over the gcd of its coefficients, leading coefficient positive."""
    g = math.gcd(*c)
    return [a // g for a in c] if c[-1] > 0 else [-a // g for a in c]


def _gcd_degree_mod(a: Sequence[int], b: Sequence[int], prime: int) -> int:
    """The degree of gcd(a, b) over the integers modulo ``prime``."""
    a, b = _strip([v % prime for v in a]), _strip([v % prime for v in b])
    while b:
        inverse = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            factor, offset = a[-1] * inverse % prime, len(a) - len(b)
            for i, v in enumerate(b):
                a[offset + i] = (a[offset + i] - factor * v) % prime
            a = _strip(a)
        a, b = b, a
    return len(a) - 1


def _identity_sign(P: list[int], Q: list[int], N: list[int], C: list[int],
                   p: int, q: int) -> int:
    """The sign of lambda when f'' D = lambda C(x-1) holds identically
    (the module docstring's evaluation argument), else 0."""
    dP, dQ = _derivative(P), _derivative(Q)
    ddP, ddQ = _derivative(dP), _derivative(dQ)
    deg_m = 3 + 2 * (len(P) - 1) + 2 * (len(Q) - 1)
    deg_d = 2 * (len(N) + 2)
    first = None
    for x in range(2, deg_m + max(deg_d, len(C) - 1) + 3):
        p0, q0, q1 = _at(P, x), _at(Q, x), _at(dQ, x)
        u = _at(dP, x) * q0 - p0 * q1
        du = _at(ddP, x) * q0 - p0 * _at(ddQ, x)
        w = x * (x + 1) ** 2
        f2 = -(p0 * q0) ** 2 - w * (p0 * (du * q0 - 2 * u * q1) - u * u)
        g = f2 * (x * (x + 1) * (q * x + p) * _at(N, x)) ** 2
        h = _at(C, x - 1) * w * (p0 * q0) ** 2
        if first is None:
            if g == 0 or h == 0:
                return 0
            first = g, h
        elif g * first[1] != first[0] * h:
            return 0
    return 1 if (first[0] > 0) == (first[1] > 0) else -1


def _coprime(C: list[int], N: list[int], p: int, q: int) -> bool:
    """C(x-1) and D = x^2 (x+1)^2 (qx+p)^2 N^2 share no factor: C(x-1) is
    nonzero at 0, -1 and -p/q (there q^deg C C(-p/q - 1), homogenized), and
    gcd(C(x-1), N), rechecked as gcd(C, N(x+1)), has degree 0 modulo
    ``PRIME``, which does not divide N's leading coefficient."""
    at_pole = sum(a * (-p - q) ** i * q ** (len(C) - 1 - i) for i, a in enumerate(C))
    return (_at(C, -1) != 0 and _at(C, -2) != 0 and at_pole != 0
            and N[-1] % PRIME != 0 and _gcd_degree_mod(C, _shift_one(N), PRIME) == 0)


def recheck_bound(P: Sequence[int], Q: Sequence[int], side: str,
                  numerator: Sequence[int], certificate: Sequence[int]) -> Recheck:
    """Recheck that P/Q is a strict bound on [1, oo) from ``side`` ('lower'
    or 'upper') with the published cleared numerator and certificate."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', not {side!r}")
    required = 1 if side == "lower" else -1
    P, Q, N, C = map(_strip, (P, Q, numerator, certificate))
    low = Q[next((i for i, v in enumerate(Q) if v), 0):]  # Q over x^K
    pole = _primitive(low) if len(low) == 2 and P and N else None
    sign = 0 if pole is None else _identity_sign(P, Q, N, C, *pole)
    premises = {
        "bound positive": bool(P and Q) and all(
            v > 0 for c in (P, Q) for v in _shift_one(c)),
        "limit at infinity": bool(P) and len(P) == len(Q) and P[-1] == Q[-1],
        "certificate positive": bool(C) and all(v > 0 for v in C),
        "second-derivative identity": sign != 0,
        "side sign": sign in (0, required),
    }
    structure = bool(sign) and _coprime(C, N, *pole)
    return Recheck(
        tuple(name for name, ok in premises.items() if not ok),
        {NUMERATOR_MATCH: bool(P) and _primitive(P) == N,
         STRUCTURE_MATCH: structure,
         CERTIFICATE_MATCH: structure and sign == required and C[-1] > 0
         and math.gcd(*C) == 1})
