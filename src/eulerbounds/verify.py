"""The verify-all gate: every headline claim re-checked from scratch.

Each check is a pure function returning (ok, detail); ``run_all`` prints
one deterministic PASS/FAIL line per check so repeated runs are
byte-identical.  The checks mirror the library's test suite, packaged so
the command line can run the whole gate in one shot.

The paper's two bounds are proven here from their published certificates
by ``recheck``, an integer checker that shares no code with the prover,
so the gate builds no f'' and no ``RatFunc``; ``prove`` runs the prover.

As the checks are pure and independent, ``run_all`` may run them at once
in forked child processes.  Either way its output, and the error that
stops a run, follow the order of ``ALL_CHECKS``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from fractions import Fraction
from typing import Callable, TextIO

from .algebra import rat_str
from .carleman import (TestSequence, WeightScheme, geometric_mean_sum,
                       telescoping_weight, termwise_weight_chain, weighted_sum)
from .enclosure import check_certified_at, normalized_below
from .keller import (DISPLAY_DENOMINATOR_CONSTANT, convergence_table,
                     display_forms, sandwich_limits)
from .prover import (REFERENCE_LOWER_CERT_NUMERATOR, REFERENCE_LOWER_NUMERATOR,
                     REFERENCE_UPPER_CERT_NUMERATOR, REFERENCE_UPPER_NUMERATOR,
                     refute_bound)
from .recheck import Recheck, recheck_bound
from .series import (BoundSpec, Variant, bare_optimal_bound, classical_bracket,
                     expand_bound_gap, expand_relative_error, lower_bound,
                     solve_optimal_params, upper_bound)

WIDTH_12 = Fraction(1, 10**12)
WIDTH_30 = Fraction(1, 10**30)
# weight-chains encloses each lhs at these widths, coarsest first, until
# one decides every scheme
SUM_WIDTHS = (Fraction(1), Fraction(1, 10**6), WIDTH_12)


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
    w, l = expand_relative_error(3)
    # t^k: w_k + l_k (b^k - a^k)
    expected = [(Fraction(-1, 2), 1), (Fraction(1, 3), Fraction(-1, 2)),
                (Fraction(-1, 4), Fraction(1, 3))]
    ok = [(w[k], l[k]) == expected[k - 1] for k in (1, 2, 3)]
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


def _published_recheck(bound: BoundSpec, side: str) -> Recheck:
    """``recheck.recheck_bound`` on the bound's integer P and Q with the
    side's published tables: the lower ones for u, the upper ones for v."""
    tables = ((REFERENCE_LOWER_NUMERATOR, REFERENCE_LOWER_CERT_NUMERATOR) if side == "lower"
              else (REFERENCE_UPPER_NUMERATOR, REFERENCE_UPPER_CERT_NUMERATOR))
    P, Q, numerator, certificate = ([int(c) for c in poly.coeffs]
                                    for poly in (*bound.polynomials(), *tables))
    return recheck_bound(P, Q, side, numerator, certificate)


def check_lower_certificate() -> tuple[bool, str]:
    """The lower bound is proven by its published certificate and
    reproduces the published polynomials, all rechecked in integers by
    ``recheck``; a failed proof names the premises that failed."""
    result = _published_recheck(lower_bound(), "lower")
    ok = result.proven and all(result.matches.values())
    return ok, (f"conclusion={result.conclusion}; "
                + "; ".join(f"{name}: {'match' if match else 'MISMATCH'}"
                            for name, match in result.matches.items()))


def check_variant_adjudication() -> tuple[bool, str]:
    """The doubled-term upper bound is refuted, the single-term one proven.

    An exact witness refutes the as-written bound by itself: the prover's
    witness search, with no certificate attempt, and ``check_certified_at``
    at n = 1.  The dedup bound is proven by ``recheck`` from the published
    upper certificate, with no f'' built; ``prove`` still runs the full
    prover on both.
    """
    bad = refute_bound(upper_bound(Variant.AS_WRITTEN), "upper")
    bad_check = check_certified_at(1, Variant.AS_WRITTEN, WIDTH_30)
    good = _published_recheck(upper_bound(Variant.DEDUP), "upper")
    lower, upper = lower_bound(), upper_bound(Variant.DEDUP)
    holds = all(normalized_below(n, lower.eval_pair(n), upper.eval_pair(n))
                == [False, True] for n in range(1, 101))
    ok = (bad is not None
          and bad_check.status == "fails" and bad_check.side == "upper"
          and good.proven and holds)
    return ok, (f"as-written: {'refuted' if bad else 'no witness'}, check at 1 -> "
                f"{bad_check.status}({bad_check.side}); "
                f"dedup: {good.conclusion}, holds for n=1..100: {holds}")


def check_classical_bracket() -> tuple[bool, str]:
    """The pair of ``classical_bracket`` brackets (1/e)(1+1/n)^n, n = 1..1000."""
    lower, upper = classical_bracket()
    bad = [n for n in range(1, 1001) if normalized_below(
        n, lower.eval_pair(n), upper.eval_pair(n)) != [False, True]]
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

    Each sum is decided as lhs.hi <= rhs.lo, with lhs enclosed at each of
    SUM_WIDTHS in turn until one decides all three schemes.  The lhs
    brackets nest as the width shrinks, so a PASS at a coarser width is a
    PASS at WIDTH_12 and at DEFAULT_WIDTH; a sum that no width decides
    fails on its WIDTH_12 enclosure.  The smallest margin is about 0.365
    at width 1, so every sum is decided there.
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
        rhs_lo = [weighted_sum(seq, scheme, 200).lo for scheme in schemes]
        for width in SUM_WIDTHS:
            lhs_hi = geometric_mean_sum(seq, 200, width).hi
            if all(lhs_hi <= lo for lo in rhs_lo):
                break
        else:
            ok = False
            details.extend(f"{seq.describe()}/{scheme.describe()}: VIOLATED"
                           for scheme, lo in zip(schemes, rhs_lo) if not lhs_hi <= lo)
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


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_check(fn: Callable[[], tuple[bool, str]]) -> tuple[int, int]:
    """Fork a child that runs ``fn``, writes its (ok, detail) to a pipe as
    JSON and exits; return the child's pid and the pipe's read end.

    The child leaves by ``os._exit``, so it runs none of the parent's
    clean-up and flushes none of its buffers, and a check that raises
    there writes nothing, not even a traceback.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "w", encoding="utf-8") as pipe:
                json.dump(fn(), pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    return pid, read_end


def _child_result(fd: int) -> tuple[bool, str] | None:
    """What a child wrote to its pipe, or None if it ended without a result."""
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    try:
        ok, detail = json.loads(data)
    except ValueError:
        return None
    return ok, detail


def run_all(stream: TextIO) -> bool:
    """Run every check, print one line per check, return overall success.

    When fork exists, the process may use more than one CPU and no other
    thread is alive, each check runs in a child of its own, all at once;
    otherwise they run here, one after another.  The lines are written in
    ``ALL_CHECKS`` order either way.  A check whose child ended without a
    result is run again here, so an error it raises, and which error ends
    the run, are the same as in a run without children.  Every child is
    reaped before this returns or raises.
    """
    children: list[tuple[int, int]] = []
    try:
        # fork copies only the calling thread: a lock that another thread
        # held would stay locked in the child
        if hasattr(os, "fork") and usable_cpus() > 1 and threading.active_count() == 1:
            for _, fn in ALL_CHECKS:
                try:
                    children.append(_fork_check(fn))
                except OSError:  # out of processes or descriptors: the rest run here
                    break
        all_ok = True
        for i, (name, fn) in enumerate(ALL_CHECKS):
            result = _child_result(children[i][1]) if i < len(children) else None
            ok, detail = fn() if result is None else result
            all_ok &= ok
            stream.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    finally:
        # a child still running (this run was interrupted) is killed; the
        # others have closed their pipes and are exiting
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    stream.write(f"{'ALL CHECKS PASSED' if all_ok else 'CHECKS FAILED'} "
                 f"({len(ALL_CHECKS)} checks)\n")
    return all_ok
