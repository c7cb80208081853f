"""Independent mpmath oracle for the ``deep`` requests.

It shares no code with the program: every reference value is recomputed
in mpmath at three times the requested digits (plus guard digits), after
the timed passes.  A reference is converted to an exact rational, and an
enclosure passes when it contains that rational up to the oracle's own
error, which is ``10**-(3 * digits)`` and far below any enclosure width.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import mpmath

GUARD_DIGITS = 20
CARLEMAN_DIGITS = 30  # carleman_sums' default width is 1e-30

# The certified upper bound's corrections, (x + 5/12)/(x + 11/12) + sum c_k/x^k,
# transcribed from the paper rather than imported from the program.
UPPER_CORRECTIONS = ((Fraction(-5, 288), 3), (Fraction(343, 8640), 4),
                     (Fraction(-2621, 41472), 5), (Fraction(300901, 3483648), 6))


def _exact(x) -> Fraction:
    man, exp = mpmath.mpf(x).man_exp
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _normalized(n: Fraction):
    """(1/e)(1+1/n)^n."""
    x = _mp(n)
    return mpmath.exp(x * mpmath.log1p(1 / x) - 1)


def _encloses(iv, value, digits: int) -> Optional[str]:
    ref = _exact(value)
    eps = Fraction(1, 10 ** (3 * digits))
    if not iv.lo - eps <= ref <= iv.hi + eps:
        return f"enclosure [{float(iv.lo)}, {float(iv.hi)}] misses {mpmath.nstr(value, 20)}"
    return None


def _within(iv, digits: int) -> Optional[str]:
    if iv.hi - iv.lo > Fraction(1, 10**digits):
        return f"width exceeds 1e-{digits}"
    return None


def check_deep(params: dict, result) -> Optional[str]:
    """None when the result of one ``deep`` request is right, else why not."""
    kind = params["kind"]
    if kind == "check":
        return None if result.status == "holds" else f"status {result.status}"
    digits = params.get("digits", CARLEMAN_DIGITS)
    with mpmath.workdps(3 * digits + GUARD_DIGITS):
        if kind == "normalized":
            return (_within(result, digits)
                    or _encloses(result, _normalized(params["n"]), digits))
        if kind == "euler":
            return _within(result, digits) or _encloses(result, mpmath.e, digits)
        if kind == "table":
            return _check_table(params["ns"], result, digits)
        if kind == "carleman":
            return _check_carleman(params, result)
    raise ValueError(f"unknown request kind {kind!r}")


def _check_table(ns, rows, digits: int) -> Optional[str]:
    if [row.n for row in rows] != list(ns):
        return "rows do not match the requested indices"
    for row in rows:
        if not row.contained:
            return f"n={row.n}: rate enclosure not inside the sandwich"
        n = Fraction(row.n)
        x_n = (n + 1) * _normalized(n) - n * _normalized(n - 1)
        err = (_within(row.rate, digits)
               or _encloses(row.rate, _mp(n * n) * (x_n - 1), digits))
        if err:
            return f"n={row.n}: {err}"
    return None


def _upper_bound(n: int):
    x = mpmath.mpf(n)
    value = (x + mpmath.mpf(5) / 12) / (x + mpmath.mpf(11) / 12)
    for c, k in UPPER_CORRECTIONS:
        value += _mp(c) / x**k
    return value


def _check_carleman(params: dict, result) -> Optional[str]:
    lhs, rhs = result
    if not lhs.hi <= rhs.lo:
        return "lhs.hi > rhs.lo"
    kind, arg = params["seq"]
    N = params["N"]
    if kind == "geometric":
        r = _mp(arg)
        terms = [r**n for n in range(1, N + 1)]
        means = [mpmath.power(r, mpmath.mpf(n + 1) / 2) for n in range(1, N + 1)]
    else:
        terms = [mpmath.mpf(n) ** -arg for n in range(1, N + 1)]
        means = [mpmath.exp(-arg * mpmath.loggamma(n + 1) / n) for n in range(1, N + 1)]
    if params["scheme"] == "polya":
        weights = [(1 + mpmath.mpf(1) / n) ** n for n in range(1, N + 1)]
    else:
        weights = [mpmath.e * _upper_bound(n) for n in range(1, N + 1)]
    return (_encloses(lhs, mpmath.fsum(means), CARLEMAN_DIGITS)
            or _encloses(rhs, mpmath.fdot(weights, terms), CARLEMAN_DIGITS))
