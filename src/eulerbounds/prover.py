"""Machine-checkable convexity/concavity certificates for the bound gaps.

For a candidate bound B = P/Q (the bound's integer polynomials) the
logarithmic gap is

    f(x) = x ln(1+1/x) - 1 - ln(B(x)),

whose second derivative is an exact rational function:

    f''(x) = -1/(x(x+1)^2) - (B''B - B'^2)/B^2.

If f'' > 0 on [1, oo) and f -> 0 at infinity, then f > 0 on [1, oo)
(a convex function with limit 0 cannot dip below 0, and strict convexity
rules out touching 0), i.e. the bound is a strict lower bound; the
concave mirror image proves strict upper bounds.

Each proof obligation -- P > 0 and Q > 0 on [1, oo), and the sign of
the numerator of f'' -- is certified on one polynomial by one Taylor
shift to x = 1: the boundary multiplicity m is the number of zero low
coefficients, and the others must share one sign (Descartes' rule with
no sign change).  The test is only sufficient, but it is conclusive for
every certified bound here, so it is the one proof form: polynomial =
(x - 1)^m * shifted(x - 1), every coefficient of one sign, which a
reader can recheck by hand.  Mixed signs give no certificate, never a
wrong one; the prover then hunts for an exact numeric refutation
witness instead.  The monic denominator of f'' divides x (x+1)^2 P^2 Q^2,
which is positive on [1, oo) once P and Q are, so it needs no certificate.

The module also owns what ``prove`` prints: ``render_certificate`` writes
certificate-format 1 and a line per published table compared, and
``certificate_json`` the same data as JSON, every rational through
``algebra.rat_str``; the caller checks first that the numbers print.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional

from .algebra import Poly, RatFunc, Scalar, rat_str
from .enclosure import RatInterval, fraction_normalized_euler_interval
from .series import BoundSpec, Variant, log_gap_series, lower_bound, upper_bound

CERTIFICATE_FORMAT_VERSION = 1
REFUTATION_WIDTH = Fraction(1, 10**40)
REFUTATION_GRID = tuple(Fraction(v) for v in
                        (1, Fraction(3, 2), 2, 3, 4, 5, 10, 100))


@dataclass(frozen=True)
class SignCertificate:
    """Proof that a polynomial keeps one sign on [base_point, oo).

    ``cleared_numerator`` is the certified polynomial:  it equals
    (x - base_point)^multiplicity * shifted_poly(x - base_point) with every
    ``shifted_poly`` coefficient of the claimed sign (or zero).  Strict sign
    holds for x > base_point, and at the base point too when multiplicity
    is 0.
    """

    base_point: Fraction
    claimed_sign: int
    cleared_numerator: Poly
    boundary_multiplicity: int
    shifted_poly: Poly
    # always empty; perfbench/tracer.py reads it for its prover.segments metric
    segments: ClassVar[tuple] = ()


def sign_certificate(p: Poly, x0: Scalar) -> Optional[SignCertificate]:
    """Certify that p keeps one strict sign on (x0, oo) (weak at x0 only
    through the (x - x0)^m factor): p(x0 + t) = t^m s(t) with s(0) != 0
    and no sign change in s.  Else None; never a wrong certificate."""
    x0 = Fraction(x0)
    coeffs = p.shift(x0).coeffs
    signs = {c > 0 for c in coeffs if c}
    if len(signs) != 1:  # mixed signs, or the zero polynomial
        return None
    mult = next(i for i, c in enumerate(coeffs) if c)
    return SignCertificate(x0, 1 if signs.pop() else -1, p, mult, Poly(coeffs[mult:]))


def _certified_positive(p: Poly, x0: Fraction) -> bool:
    """p > 0 on the closed ray [x0, oo), by certificate."""
    cert = sign_certificate(p, x0)
    return (cert is not None and cert.claimed_sign == 1
            and cert.boundary_multiplicity == 0)


# ---------------------------------------------------------------------------
# the log-gap second derivative and the proof driver
# ---------------------------------------------------------------------------


def log_gap_second_derivative(bound: BoundSpec) -> RatFunc:
    """Exact second derivative of x ln(1+1/x) - 1 - ln(bound(x)).

    d^2/dx^2 [x ln(1+1/x)] = -1/(x(x+1)) + 1/(x+1)^2 = -1/(x(x+1)^2) is
    rational, so no transcendental terms survive."""
    x = Poly.x()
    base = RatFunc(Poly.constant(-1), x * (x + Poly.one()) ** 2)
    u = RatFunc(*bound.polynomials())
    du = u.derivative()
    ddu = du.derivative()
    return base - (ddu * u - du * du) / (u * u)


@dataclass(frozen=True)
class Refutation:
    """Exact witness: at x the enclosure lies strictly on the wrong side."""

    x: Fraction
    enclosure: RatInterval
    bound_value: Fraction


@dataclass(frozen=True)
class ProofReport:
    """Outcome of prove_bound: conclusion is 'proven' only when the sign
    certificate with the required orientation and the vanishing limit at
    infinity are both in hand."""

    bound: BoundSpec
    side: str  # "lower" | "upper"
    second_derivative: RatFunc
    certificate: Optional[SignCertificate]
    bound_positive: bool
    limit_at_infinity_ok: bool
    conclusion: str  # "proven" | "refuted" | "inconclusive"
    refutation: Optional[Refutation] = None

    @property
    def proven(self) -> bool:
        return self.conclusion == "proven"


def _required_sign(side: str) -> int:
    if side == "lower":
        return 1  # convex gap
    if side == "upper":
        return -1  # concave gap
    raise ValueError(f"side must be 'lower' or 'upper', not {side!r}")


def conclusion_from_checks(required_sign: int,
                           certificate: Optional[SignCertificate],
                           bound_positive: bool,
                           limit_ok: bool) -> bool:
    """The convexity-plus-vanishing-limit implication, as one guarded test.

    All three premises are needed: the certified sign with the right
    orientation, positivity of the bound (so the logarithm is defined on
    the whole ray), and the exact vanishing of the gap at infinity.
    """
    return (certificate is not None
            and certificate.claimed_sign == required_sign
            and bound_positive
            and limit_ok)


def refute_bound(bound: BoundSpec, side: str) -> Optional[Refutation]:
    """The first point of ``REFUTATION_GRID`` at which (1/e)(1+1/x)^x is
    enclosed strictly on the wrong side of bound(x) for the claimed side,
    as an exact witness, or None.  A witness refutes the claim by itself:
    no certificate attempt is needed, or made, to find one."""
    _required_sign(side)
    for x in REFUTATION_GRID:
        try:
            value = bound.eval(x)
        except ZeroDivisionError:  # a pole of the bound decides nothing
            continue
        env = fraction_normalized_euler_interval(x, REFUTATION_WIDTH)
        if side == "upper" and env.lo >= value:
            return Refutation(x, env, value)
        if side == "lower" and env.hi <= value:
            return Refutation(x, env, value)
    return None


def prove_bound(bound: BoundSpec, side: str) -> ProofReport:
    """Prove or refute that bound(x) brackets (1/e)(1+1/x)^x on [1, oo).

    side='lower' claims bound(x) < (1/e)(1+1/x)^x, side='upper' the
    reverse.  'proven' needs the sign certificate of the right orientation
    plus the exact limit check; otherwise a fixed grid of rational sample
    points is scanned for an enclosure that strictly violates the claimed
    inequality, giving 'refuted' with an exact witness, else
    'inconclusive'.
    """
    required = _required_sign(side)
    one = Fraction(1)
    h = log_gap_second_derivative(bound)

    P, Q = bound.polynomials()
    bound_positive = _certified_positive(P, one) and _certified_positive(Q, one)

    # ln(bound) must exist before its curvature means anything.  Then
    # h = -1/(x(x+1)^2) - (log P)'' + (log Q)'', so the monic h.den divides
    # x (x+1)^2 P^2 Q^2, which has no root in [1, oo): h has the sign of h.num.
    certificate = sign_certificate(h.num, one) if bound_positive else None

    order = max(2, bound.max_power())
    limit_ok = log_gap_series(bound, order)[0] == 0

    if conclusion_from_checks(required, certificate, bound_positive, limit_ok):
        return ProofReport(bound, side, h, certificate, bound_positive,
                           limit_ok, "proven")
    refutation = refute_bound(bound, side)
    if refutation is not None:
        return ProofReport(bound, side, h, certificate, bound_positive,
                           limit_ok, "refuted", refutation)
    return ProofReport(bound, side, h, certificate, bound_positive,
                       limit_ok, "inconclusive")


# ---------------------------------------------------------------------------
# cross-checks against the published coefficient tables
# ---------------------------------------------------------------------------

# Cleared numerator of the lower bound over 207360 x^5 (12x+11)
# (degree 6; note the absent x^4 term).
REFERENCE_LOWER_NUMERATOR = Poly(
    [-144155, -66708, 59184, -43200, 0, 1036800, 2488320])

# Cleared numerator of the deduplicated upper bound over
# 17418240 x^6 (12x+11) (degree 7; absent x^5 term).
REFERENCE_UPPER_NUMERATOR = Poly(
    [16549555, 5945040, -5603472, 4971456, -3628800, 0, 87091200, 209018880])

# Shifted numerator of the lower gap's second derivative: f''(x) equals
# this polynomial evaluated at x-1, over x^2 (x+1)^2 (12x+11)^2 P(x)^2.
REFERENCE_LOWER_CERT_NUMERATOR = Poly(
    [48685659681079707, 387888768643091163, 1374068561183884363,
     2856411438418498368, 3861333058156847712, 3547125026642062080,
     2242448726942859264, 963345615805707264, 269162452894408704,
     44174729709158400, 3234548057702400])

# Shifted numerator of the upper gap's second derivative, negated:
# g''(x) = -(this at x-1) / (x^2 (x+1)^2 (12x+11)^2 N(x)^2), where N is
# the upper bound's cleared numerator, REFERENCE_UPPER_NUMERATOR.
REFERENCE_UPPER_CERT_NUMERATOR = Poly(
    [621810333384191039953, 5495336279092271136793, 22015820845590210733374,
     52587526363654958754048, 83107983906845638539984, 91197790053279643410048,
     70886916929730329339904, 39022307420738572320768, 14907444982230536515584,
     3763807019677591584768, 565244311814774194176, 38255330631116390400])


def _denominator_structure_ok(report: ProofReport, cleared: Poly) -> bool:
    """den(f'') must be x^2 (x+1)^2 (12x+11)^2 * cleared^2 up to scale."""
    x = Poly.x()
    target = (x**2) * ((x + Poly.one()) ** 2) * (Poly((11, 12)) ** 2) * cleared**2
    return report.second_derivative.den.primitive() == target.primitive()


def match_reference_polynomials(report: ProofReport) -> dict[str, bool]:
    """Compare the recomputed proof polynomials with the published tables.

    Entries: the bound's cleared numerator, the squared-denominator
    structure of the second derivative, and the second derivative's
    shifted numerator.  The tables describe the lower bound u and the
    upper bound v (either variant), so every other bound gets {}.  They
    follow the bound, not the side claimed: u is compared with the lower
    tables, v with the upper ones.  The lower tables carry a positive
    overall sign and the upper tables a negative one, so the sign of the
    cleared content is part of the match.
    """
    if report.bound == lower_bound():
        ref_num, ref_cert, ref_sign = (REFERENCE_LOWER_NUMERATOR,
                                       REFERENCE_LOWER_CERT_NUMERATOR, 1)
    elif report.bound in map(upper_bound, Variant):
        ref_num, ref_cert, ref_sign = (REFERENCE_UPPER_NUMERATOR,
                                       REFERENCE_UPPER_CERT_NUMERATOR, -1)
    else:
        return {}
    bound_num = report.bound.polynomials()[0].primitive()
    content, shifted = report.second_derivative.num.shift(1).content_and_primitive()
    return {
        "bound numerator (cleared)": bound_num == ref_num,
        "second-derivative denominator structure":
            _denominator_structure_ok(report, ref_num),
        "certificate shifted numerator": content * ref_sign > 0 and shifted == ref_cert,
    }


# ---------------------------------------------------------------------------
# what ``prove`` prints: certificate-format text and its JSON form
# ---------------------------------------------------------------------------


def render_certificate(report: ProofReport) -> str:
    """Versioned plain-text form of a proof report, then one line per
    published table the bound is compared with."""
    cert, wit = report.certificate, report.refutation
    lines = [f"certificate-format {CERTIFICATE_FORMAT_VERSION}",
             f"bound: {report.bound.describe()}", f"side: {report.side}"]
    lines += ["sign-certificate: none"] if cert is None else [
        f"sign: {'+1' if cert.claimed_sign > 0 else '-1'}",
        f"boundary-multiplicity: {cert.boundary_multiplicity}",
        "shifted-coefficients: " + " ".join(map(rat_str, cert.shifted_poly.coeffs))]
    lines.append(f"bound-positive: {'yes' if report.bound_positive else 'no'}")
    lines.append("limit-at-infinity: "
                 + ("0 (exact)" if report.limit_at_infinity_ok else "nonzero"))
    if wit is not None:
        lines.append(f"witness: x = {rat_str(wit.x)}, bound value {rat_str(wit.bound_value)}, "
                     f"enclosure [{rat_str(wit.enclosure.lo)}, {rat_str(wit.enclosure.hi)}]")
    lines.append(f"conclusion: {report.conclusion}")
    lines += (f"reference {name}: {'match' if ok else 'mismatch'}"
              for name, ok in match_reference_polynomials(report).items())
    return "\n".join(lines)


def certificate_json(report: ProofReport) -> dict:
    """The JSON form of a proof report, the same data as the text form."""
    cert, wit = report.certificate, report.refutation
    return {
        "bound": report.bound.describe(),
        "side": report.side,
        "conclusion": report.conclusion,
        "limit_at_infinity_ok": report.limit_at_infinity_ok,
        "certificate": None if cert is None else {
            "sign": cert.claimed_sign,
            "boundary_multiplicity": cert.boundary_multiplicity,
            "shifted_coefficients": list(map(rat_str, cert.shifted_poly.coeffs)),
        },
        "witness": None if wit is None else {
            "x": rat_str(wit.x),
            "bound_value": rat_str(wit.bound_value),
            "enclosure": [rat_str(wit.enclosure.lo), rat_str(wit.enclosure.hi)],
        },
        "reference_matches": match_reference_polynomials(report),
    }
