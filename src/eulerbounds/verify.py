"""The verify-all gate: every headline claim re-checked from scratch.

Each check is a pure function returning (ok, detail); ``run_all`` prints
one deterministic PASS/FAIL line per check so repeated runs are
byte-identical.  The checks mirror the library's test suite, packaged so
the command line can run the whole gate in one shot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, TextIO

from .algebra import rat_str
from .carleman import (TestSequence, WeightScheme, geometric_mean_sum,
                       telescoping_weight, termwise_weight_chain, weighted_sum)
from .enclosure import check_certified_at, normalized_below
from .keller import (DISPLAY_DENOMINATOR_CONSTANT, convergence_table,
                     display_forms, sandwich_limits)
from .prover import match_reference_polynomials, prove_bound
from .series import (Variant, bare_optimal_bound, expand_bound_gap,
                     expand_relative_error, lower_bound, solve_optimal_params,
                     upper_bound)

WIDTH_12 = Fraction(1, 10**12)
WIDTH_30 = Fraction(1, 10**30)


def sci_str(q: Fraction) -> str:
    """q >= 0 as ``format(x, ".3e")`` prints it, rounded half to even from
    the exact value: the first exponent, counting up from one below
    log10(q), at which q rounds to at most four digits."""
    if q == 0:
        return "0.000e+00"
    exp = len(str(q.numerator)) - len(str(q.denominator)) - 1
    while (mantissa := round(q / Fraction(10) ** (exp - 3))) >= 10**4:
        exp += 1
    digits = str(mantissa)
    return f"{digits[0]}.{digits[1:]}e{exp:+03d}"


def check_relative_error_expansion() -> tuple[bool, str]:
    """The symbolic error expansion has the expected first three coefficients."""
    w = expand_relative_error(3)
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    expected = [
        {(1, 0): -1, (0, 1): 1, (0, 0): -half},
        {(2, 0): half, (0, 2): -half, (0, 0): third},
        {(0, 3): third, (3, 0): -third, (0, 0): -quarter},
    ]
    ok = [w[k + 1] == expected[k] for k in range(3)]
    return all(ok), f"t^1..t^3 structural equality: {ok}"


def check_optimal_parameters() -> tuple[bool, str]:
    """Killing the two leading error terms gives (5/12, 11/12), residual -5/288."""
    got = solve_optimal_params()
    ok = (got.a, got.b, got.residual_third_coefficient) == (
        Fraction(5, 12), Fraction(11, 12), Fraction(-5, 288))
    return ok, (f"a={rat_str(got.a)} b={rat_str(got.b)} "
                f"residual={rat_str(got.residual_third_coefficient)}")


def check_gap_coefficients() -> tuple[bool, str]:
    """Bound-gap series: bare coefficients, and full cancellation through t^5."""
    bare = expand_bound_gap(bare_optimal_bound(), 6)
    full = expand_bound_gap(lower_bound(), 7)
    ok = (bare[3] == Fraction(-5, 288) and bare[4] == Fraction(343, 8640)
          and all(full[k] == 0 for k in range(6)) and full[6] != 0)
    return ok, (f"bare t^3={rat_str(bare[3])} t^4={rat_str(bare[4])}; "
                f"lower-bound gap t^0..t^5 zero, t^6={rat_str(full[6])}")


def check_lower_certificate() -> tuple[bool, str]:
    """The lower bound is proven and reproduces the published polynomials."""
    report = prove_bound(lower_bound(), "lower")
    matches = match_reference_polynomials(report)
    ok = report.proven and all(m.matches for m in matches)
    return ok, (f"conclusion={report.conclusion}; "
                + "; ".join(f"{m.name}: {'match' if m.matches else 'MISMATCH'}"
                            for m in matches))


def check_variant_adjudication() -> tuple[bool, str]:
    """The doubled-term upper bound is refuted, the single-term one proven."""
    bad = prove_bound(upper_bound(Variant.AS_WRITTEN), "upper")
    bad_check = check_certified_at(1, Variant.AS_WRITTEN, WIDTH_30)
    good = prove_bound(upper_bound(Variant.DEDUP), "upper")
    lower, upper = lower_bound(), upper_bound(Variant.DEDUP)
    holds = all(normalized_below(n, lower.eval_pair(n), upper.eval_pair(n))
                == [False, True] for n in range(1, 101))
    ok = (not bad.proven
          and bad_check.status == "fails" and bad_check.side == "upper"
          and good.proven and holds)
    return ok, (f"as-written: {bad.conclusion}, check at 1 -> "
                f"{bad_check.status}({bad_check.side}); "
                f"dedup: {good.conclusion}, holds for n=1..100: {holds}")


def check_classical_bracket() -> tuple[bool, str]:
    """2n/(2n+1) < (1/e)(1+1/n)^n < (2n+1)/(2n+2) for n = 1..1000."""
    bad = [n for n in range(1, 1001) if normalized_below(
        n, (2 * n, 2 * n + 1), (2 * n + 1, 2 * n + 2)) != [False, True]]
    return not bad, f"violations in 1..1000: {bad if bad else 'none'}"


def check_limit_symbolics() -> tuple[bool, str]:
    """Sandwich limits (1, 1/24) and the published display leading terms."""
    ok = True
    details = []
    for variant in (Variant.DEDUP, Variant.AS_WRITTEN):
        limit, rate = sandwich_limits(variant)
        ok &= (limit, rate) == (1, Fraction(1, 24))
        details.append(f"{variant.value}: limit={rat_str(limit)} rate={rat_str(rate)}")
    forms = {f.name: f for f in display_forms(Variant.DEDUP)}
    low = forms["sandwich lower"].numerator
    ok &= low.degree() == 13 and low.leading() == 2508226560
    ok &= forms["sandwich upper"].numerator.leading() == 2508226560
    details.append(f"lower display: degree {low.degree()}, "
                   f"lead {low.leading()} over {DISPLAY_DENOMINATOR_CONSTANT} * ...")
    return ok, "; ".join(details)


def check_limit_numerics() -> tuple[bool, str]:
    """Rigorous n^2(x_n - 1) intervals sit inside the exact sandwich."""
    rows = convergence_table([10, 100, 1000], WIDTH_12)
    contained = all(row.contained for row in rows)
    final = rows[-1].rate
    near = abs(final.midpoint - Fraction(1, 24)) < Fraction(1, 1000)
    return contained and near, (
        "containment at n=10,100,1000: "
        f"{[row.contained for row in rows]}; "
        f"|midpoint(1000) - 1/24| = {sci_str(abs(final.midpoint - Fraction(1, 24)))}")


def _equals(q: Fraction, num: int, den: int) -> bool:
    """q == num/den, den > 0, with no gcd of num and den: as q is in lowest
    terms, exactly when den = k q.denominator and num = k q.numerator."""
    k, rem = divmod(den, q.denominator)
    return not rem and k * q.numerator == num


def check_telescoping_identities() -> tuple[bool, str]:
    """Exact product and tail identities for the telescoping weights, n <= 1000:
    c_n = (n+1)^n / n^(n-1) given the product up to n-1, and c_n x_n."""
    previous = 1  # c_1...c_(n-1) = n^(n-1)
    for n in range(1, 1001):
        weight = telescoping_weight(n)
        power = (n + 1) ** n
        if not _equals(weight, power, previous):
            return False, f"product identity broke at n={n}"
        if Fraction(1, n * (n + 1)) != Fraction(1, n) - Fraction(1, n + 1):
            return False, f"telescoping step broke at n={n}"
        if not _equals(weight / n, power, previous * n):
            return False, f"effective weight broke at n={n}"
        previous = power
    return True, "product, tail, and effective-weight identities exact for n=1..1000"


def check_weight_chains() -> tuple[bool, str]:
    """The 10^4-term weight chain and the finite-N inequality sums.

    Each sum is decided as lhs.hi <= rhs.lo with lhs enclosed to WIDTH_12.
    The lhs brackets nest as the width shrinks, so a PASS here is a PASS at
    DEFAULT_WIDTH; the smallest margin is about 0.46.
    """
    report = termwise_weight_chain(10**4, Variant.DEDUP)
    details = [f"chain N=10^4 passed={report.passed} "
               f"non-improving={list(report.non_improving)}"]
    ok = report.passed and report.non_improving == (1,)
    sequences = [TestSequence.geometric(Fraction(1, 2)),
                 TestSequence.geometric(Fraction(9, 10)),
                 TestSequence.power_law(2)]
    schemes = [WeightScheme.polya(), WeightScheme.simple(),
               WeightScheme.refined(Variant.DEDUP)]
    for seq in sequences:
        lhs = geometric_mean_sum(seq, 200, WIDTH_12)
        for scheme in schemes:
            if not lhs.hi <= weighted_sum(seq, scheme, 200).lo:
                ok = False
                details.append(f"{seq.describe()}/{scheme.describe()}: VIOLATED")
    details.append("sums at N=200: lhs.hi <= rhs.lo for 3 sequences x 3 schemes")
    return ok, "; ".join(details)


ALL_CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("relative-error-expansion", check_relative_error_expansion),
    ("optimal-parameters", check_optimal_parameters),
    ("gap-coefficients", check_gap_coefficients),
    ("lower-certificate", check_lower_certificate),
    ("variant-adjudication", check_variant_adjudication),
    ("classical-bracket", check_classical_bracket),
    ("limit-symbolics", check_limit_symbolics),
    ("limit-numerics", check_limit_numerics),
    ("telescoping-identities", check_telescoping_identities),
    ("weight-chains", check_weight_chains),
)


def run_all(stream: TextIO) -> bool:
    """Run every check, print one line per check, return overall success."""
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        all_ok &= ok
        stream.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    stream.write(f"{'ALL CHECKS PASSED' if all_ok else 'CHECKS FAILED'} "
                 f"({len(ALL_CHECKS)} checks)\n")
    return all_ok
