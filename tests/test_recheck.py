"""The integer checker against the prover, and the mutants it must reject."""

import pytest

from eulerbounds.prover import (REFERENCE_LOWER_CERT_NUMERATOR,
                                REFERENCE_LOWER_NUMERATOR,
                                REFERENCE_UPPER_CERT_NUMERATOR,
                                REFERENCE_UPPER_NUMERATOR,
                                match_reference_polynomials, prove_bound)
from eulerbounds.recheck import (PRIME, _coprime, _gcd_degree_mod,
                                 recheck_bound)
from eulerbounds.series import Variant, lower_bound, truncated_bound, upper_bound


def ints(poly):
    return [int(c) for c in poly.coeffs]


def published(bound, side):
    """recheck_bound's arguments for a bound and the side's published tables."""
    P, Q = bound.polynomials()
    tables = ((REFERENCE_LOWER_NUMERATOR, REFERENCE_LOWER_CERT_NUMERATOR) if side == "lower"
              else (REFERENCE_UPPER_NUMERATOR, REFERENCE_UPPER_CERT_NUMERATOR))
    return [ints(P), ints(Q), side, *map(ints, tables)]


U, V = published(lower_bound(), "lower"), published(upper_bound(Variant.DEDUP), "upper")


@pytest.mark.parametrize("bound, side", [(lower_bound(), "lower"),
                                         (upper_bound(Variant.DEDUP), "upper")])
def test_agrees_with_the_prover_on_the_published_tables(bound, side):
    result = recheck_bound(*published(bound, side))
    report = prove_bound(bound, side)
    assert result.proven == report.proven is True
    assert result.conclusion == "proven"
    assert result.matches == match_reference_polynomials(report)


@pytest.mark.parametrize("K", [5, 6, 7, 8])
def test_agrees_with_the_prover_on_its_own_certificates(K):
    """Each truncation order, rechecked against tables made from the
    prover's report: its primitive P and its shifted f'' numerator."""
    bound, side = truncated_bound(K), "lower" if K % 2 else "upper"
    report = prove_bound(bound, side)
    assert report.proven
    P, Q = bound.polynomials()
    certificate = ints(report.certificate.shifted_poly.primitive())
    result = recheck_bound(ints(P), ints(Q), side, ints(P.primitive()), certificate)
    assert result.proven and all(result.matches.values())


def mutant(args, index, k, change):
    args = [list(a) if isinstance(a, list) else a for a in args]
    args[index][k] = change(args[index][k])
    return args


ALL_MISMATCH = {"bound numerator (cleared)": False,
                "second-derivative denominator structure": False,
                "certificate shifted numerator": False}
CERTIFICATE_MISMATCH = {"bound numerator (cleared)": True,
                        "second-derivative denominator structure": False,
                        "certificate shifted numerator": False}


@pytest.mark.parametrize("args, failed, matches", [
    (mutant(U, 4, 3, lambda c: c + 1), ("second-derivative identity",), CERTIFICATE_MISMATCH),
    (mutant(V, 4, 0, lambda c: c + 1), ("second-derivative identity",), CERTIFICATE_MISMATCH),
    (mutant(U, 4, 5, lambda c: -c), ("certificate positive", "second-derivative identity"),
     CERTIFICATE_MISMATCH),
    (mutant(V, 4, 11, lambda c: -c), ("certificate positive", "second-derivative identity"),
     CERTIFICATE_MISMATCH),
    (mutant(U, 0, 2, lambda c: c + 1), ("second-derivative identity",), ALL_MISMATCH),
    (mutant(V, 0, 7, lambda c: c - 1), ("limit at infinity", "second-derivative identity"),
     ALL_MISMATCH),
    ([*V[:2], "lower", *V[3:]], ("side sign",), {
        "bound numerator (cleared)": True, "second-derivative denominator structure": True,
        "certificate shifted numerator": False}),
    (published(upper_bound(Variant.AS_WRITTEN), "upper"), ("second-derivative identity",),
     ALL_MISMATCH),
], ids=["u certificate +1", "v certificate +1", "u certificate negated",
        "v certificate negated", "u P changed", "v P changed", "v as lower",
        "as-written v on the dedup table"])
def test_mutants_are_rejected(args, failed, matches):
    result = recheck_bound(*args)
    assert not result.proven
    assert result.failed == failed
    assert result.conclusion == f"unproven (failed: {', '.join(failed)})"
    assert result.matches == matches


def test_a_certificate_with_a_content_proves_but_does_not_match():
    # 2 C(x-1) is as good a certificate, but the published one is primitive
    result = recheck_bound(*mutant(U, 4, slice(None), lambda c: [2 * v for v in c]))
    assert result.proven
    assert result.matches == {"bound numerator (cleared)": True,
                              "second-derivative denominator structure": True,
                              "certificate shifted numerator": False}


def test_a_denominator_not_of_the_paper_shape_proves_nothing():
    # Q = x^K (qx + p) is what fixes D; Q (x + 1) leaves no single pole
    P, Q, side, N, C = U
    result = recheck_bound(P, [*Q[:5], Q[5], Q[5] + Q[6], Q[6]], side, N, C)
    assert "second-derivative identity" in result.failed
    with pytest.raises(ValueError, match="side"):
        recheck_bound(P, Q, "both", N, C)


class TestCoprime:
    N = ints(REFERENCE_LOWER_NUMERATOR)

    @pytest.mark.parametrize("C", [
        [1, 1],  # C(x-1) = x vanishes at 0
        [2, 1],  # x + 1, at -1
        [23, 12],  # 12x + 11, at the pole -11/12
        [-v for v in ints(REFERENCE_LOWER_NUMERATOR.shift(1))],  # shares N
    ])
    def test_a_shared_factor_is_found(self, C):
        assert not _coprime(C, self.N, 11, 12)

    def test_the_published_certificates_are_coprime(self):
        assert _coprime(U[4], U[3], 11, 12) and _coprime(V[4], V[3], 11, 12)
        assert _coprime([1], self.N, 11, 12)

    def test_a_leading_coefficient_the_prime_divides_is_refused(self):
        assert not _coprime([1], [1, PRIME], 11, 12)

    def test_gcd_degree_modulo_a_prime(self):
        # (x-1)(x-2) and (x-1)(x+3) share x - 1; x and x + 1 share nothing
        assert _gcd_degree_mod([2, -3, 1], [-3, 2, 1], PRIME) == 1
        assert _gcd_degree_mod([0, 1], [1, 1], PRIME) == 0
        assert _gcd_degree_mod([0, 2, 4], [0, 1, 2], PRIME) == 2
