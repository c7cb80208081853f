"""Acceptance gate: every headline claim at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and then asserts, so the suite doubles as a human-
readable report.  Exact claims carry zero tolerance; the rigorous-numeric
claims pin their enclosure widths explicitly.
"""

import io
from fractions import Fraction as F

from eulerbounds.carleman import (TestSequence, WeightScheme,
                                  polya_identities, telescoping_weight,
                                  termwise_weight_chain)
from eulerbounds.cli import main
from eulerbounds.enclosure import check_classic_at, check_certified_at
from eulerbounds.keller import convergence_table, display_forms, sandwich_limits
from eulerbounds.prover import (REFERENCE_LOWER_CERT_NUMERATOR,
                                REFERENCE_LOWER_NUMERATOR,
                                match_reference_polynomials, prove_bound)
from eulerbounds.series import (Variant, bare_optimal_bound,
                                expand_bound_gap, expand_relative_error,
                                lower_bound, solve_optimal_params, upper_bound)

WIDTH_30 = F(1, 10**30)


def record(name: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion failed: {name} {detail}"


def test_01_symbolic_expansion_regression():
    # the t^k coefficient is w_k + l_k (b^k - a^k)
    w, l = expand_relative_error(3)
    ok = (w[1:] == (F(-1, 2), F(1, 3), F(-1, 4))
          and l[1:] == (F(1), F(-1, 2), F(1, 3)))
    record("symbolic-expansion", ok, "three leading coefficients, exact")


def test_02_optimal_parameters():
    got = solve_optimal_params()
    ok = (got.a == F(5, 12) and got.b == F(11, 12)
          and got.residual_third_coefficient == F(-5, 288))
    record("optimal-parameters", ok,
           f"a={got.a} b={got.b} residual={got.residual_third_coefficient}")


def test_03_correction_coefficients():
    bare = expand_bound_gap(bare_optimal_bound(), 6)
    full = expand_bound_gap(lower_bound(), 7)
    ok = (bare[3] == F(-5, 288) and bare[4] == F(343, 8640)
          and all(full[k] == 0 for k in range(6)) and full[6] != 0)
    record("correction-coefficients", ok,
           "bare gap t^3, t^4 exact; corrected gap vanishes through t^5")


def test_04_proof_certificates():
    report = prove_bound(lower_bound(), "lower")
    matches = match_reference_polynomials(report)
    ok = (report.proven
          and list(matches) == ["bound numerator (cleared)",
                                "second-derivative denominator structure",
                                "certificate shifted numerator"]
          and matches["bound numerator (cleared)"]
          and matches["certificate shifted numerator"]
          and REFERENCE_LOWER_NUMERATOR.coeff(4) == 0
          and report.certificate.shifted_poly.primitive()
          == REFERENCE_LOWER_CERT_NUMERATOR)
    record("proof-certificates", ok,
           f"lower bound {report.conclusion}; published tables reproduced exactly")


def test_05_variant_adjudication():
    bad = prove_bound(upper_bound(Variant.AS_WRITTEN), "upper")
    bad_point = check_certified_at(1, Variant.AS_WRITTEN, WIDTH_30)
    good = prove_bound(upper_bound(Variant.DEDUP), "upper")
    holds = all(check_certified_at(n, Variant.DEDUP, WIDTH_30).holds
                for n in range(1, 101))
    ok = (not bad.proven and bad_point.status == "fails"
          and bad_point.side == "upper" and good.proven and holds)
    record("variant-adjudication", ok,
           f"as-written: {bad.conclusion}/fails(upper) at width 1e-30; "
           f"dedup: proven and holds on 1..100")


def test_06_classical_inequality():
    ok = all(check_classic_at(n, WIDTH_30).holds for n in range(1, 1001))
    record("classical-inequality", ok, "n = 1..1000 at width 1e-30")


def test_07_keller_symbolics():
    limits_ok = sandwich_limits(Variant.DEDUP) == (1, F(1, 24))
    forms = {f.name: f for f in display_forms(Variant.DEDUP)}
    low = forms["sandwich lower"]
    display_ok = (low.numerator.degree() == 13
                  and low.numerator.leading() == 2508226560
                  and low.denominator.leading() == 17418240 * 144)
    record("keller-symbolics", limits_ok and display_ok,
           "limits (1, 1/24); degree-13 lead 2508226560 over 17418240 * shape")


def test_08_keller_numerics():
    rows = convergence_table([10, 100, 1000], F(1, 10**12))
    contained = all(row.contained for row in rows)
    drift = abs(rows[-1].rate.midpoint - F(1, 24))
    ok = contained and drift < F(1, 1000)
    record("keller-numerics", ok,
           f"containment at n=10,100,1000; |midpoint - 1/24| = {float(drift):.2e}")


def test_09_polya_identities():
    ok = True
    product = F(1)
    for n in range(1, 1001):
        product *= telescoping_weight(n)
        geo, tail = polya_identities(n)
        ok &= product == F(n + 1) ** n
        ok &= geo == n + 1 and tail == F(1, n)
        ok &= telescoping_weight(n) * tail == F((n + 1) ** n, n**n)
        if not ok:
            break
    record("polya-identities", ok, "exact for all n <= 1000")


def test_10_carleman_chains():
    report = termwise_weight_chain(10**4, Variant.DEDUP)
    ok = report.passed
    detail = [f"chain N=10^4 passed={report.passed}"]
    for seq in (TestSequence.geometric(F(1, 2)), TestSequence.geometric(F(9, 10)),
                TestSequence.power_law(2)):
        for scheme in (WeightScheme.polya(), WeightScheme.simple(),
                       WeightScheme.refined(Variant.DEDUP)):
            from eulerbounds.carleman import carleman_sums

            lhs, rhs = carleman_sums(seq, scheme, 200)
            ok &= lhs.hi <= rhs.lo
    detail.append("sums: lhs.hi <= rhs.lo at N=200, 3 sequences x 3 schemes")
    record("carleman-chains", ok, "; ".join(detail))


def test_11_verify_all_deterministic():
    first, second = io.StringIO(), io.StringIO()
    code1 = main(["verify-all"], out=first)
    code2 = main(["verify-all"], out=second)
    ok = (code1 == 0 and code2 == 0
          and first.getvalue() == second.getvalue()
          and first.getvalue().strip() != "")
    record("verify-all-determinism", ok,
           f"exit codes ({code1}, {code2}); byte-identical output")
