"""Command line front end: derivations, proofs, checks, tables.

Every command writes deterministic output (identical flags give
byte-identical bytes) and exits with

    0  success / proven / holds,
    1  refuted / a check failed,
    2  inconclusive / undecided,
    64 usage error.

Decimal renderings never overstate precision: plain rationals are
truncated toward zero and printed next to their exact value, interval
endpoints are rounded outward.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import carleman as carl
from . import keller as kel
from .algebra import rat_str
from .enclosure import (DEFAULT_WIDTH, RefinementExhausted, SoundnessError,
                        check_classic_at, check_certified_at)
from .prover import match_reference_polynomials, prove_bound, render_certificate
from .series import (Variant, bare_optimal_bound, expand_bound_gap,
                     expand_relative_error, lower_bound, solve_optimal_params,
                     upper_bound)
from .verify import run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _scaled_digits(value: int, digits: int) -> str:
    sign = "-" if value < 0 else ""
    text = str(abs(value)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def dec_floor(q: Fraction, digits: int) -> str:
    scaled = q.numerator * 10**digits
    return _scaled_digits(scaled // q.denominator, digits)


def dec_ceil(q: Fraction, digits: int) -> str:
    scaled = -q.numerator * 10**digits
    return _scaled_digits(-(scaled // q.denominator), digits)


def dec_trunc(q: Fraction, digits: int) -> str:
    scaled = abs(q.numerator) * 10**digits // q.denominator
    return _scaled_digits(-scaled if q < 0 else scaled, digits)


def fmt_interval(iv, digits: int) -> str:
    return f"[{dec_floor(iv.lo, digits)}, {dec_ceil(iv.hi, digits)}]"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r} ({exc})")


def parse_indices(items: Sequence[str]) -> list[int]:
    """Integers and inclusive ranges: 3 7 10..20."""
    out: list[int] = []
    for item in items:
        if ".." in item:
            lo_s, hi_s = item.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise UsageError(f"bad range {item!r}")
            if hi < lo:
                raise UsageError(f"empty range {item!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(item))
            except ValueError:
                raise UsageError(f"bad index {item!r}")
    return out


def parse_sequence(text: str) -> carl.TestSequence:
    kind, _, arg = text.partition(":")
    try:
        if kind == "geometric":
            return carl.TestSequence.geometric(parse_rational(arg))
        if kind == "powerlaw":
            return carl.TestSequence.power_law(parse_rational(arg))
        if kind == "custom":
            return carl.TestSequence.custom(
                [parse_rational(v) for v in arg.split(",")])
    except ValueError as exc:
        raise UsageError(str(exc))
    raise UsageError(f"unknown sequence {text!r} "
                     "(use geometric:R, powerlaw:P, custom:a1,a2,...)")


def parse_scheme(text: str, variant: Variant) -> carl.WeightScheme:
    if text == "polya":
        return carl.WeightScheme.polya()
    if text == "simple":
        return carl.WeightScheme.simple()
    if text == "refined":
        return carl.WeightScheme.refined(variant)
    raise UsageError(f"unknown scheme {text!r}")


_BOUNDS = {
    "bare": lambda variant: bare_optimal_bound(),
    "u": lambda variant: lower_bound(),
    "v": upper_bound,
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_expand(args, out) -> int:
    if args.bound is None:
        if args.order < 3:
            raise UsageError("the symbolic expansion needs --order >= 3")
        w = expand_relative_error(args.order)
        out.write("relative error expansion in t = 1/n over Q[a,b]\n")
        for k in range(1, args.order + 1):
            triples = w[k].to_triples()
            body = " + ".join(f"{c}*a^{i}*b^{j}" for i, j, c in triples) or "0"
            out.write(f"t^{k}: {body}\n")
        return EXIT_OK
    bound = _BOUNDS[args.bound](Variant.parse(args.variant))
    order = max(args.order, bound.max_power())
    gap = expand_bound_gap(bound, order)
    out.write(f"gap series (1/e)(1+1/x)^x - bound, bound = {bound.describe()}\n")
    for k in range(order + 1):
        out.write(f"t^{k}: {rat_str(gap[k])}\n")
    return EXIT_OK


def cmd_optimize(args, out) -> int:
    got = solve_optimal_params()
    out.write(f"a = {rat_str(got.a)}\n")
    out.write(f"b = {rat_str(got.b)}\n")
    out.write(f"residual t^3 coefficient = {rat_str(got.residual_third_coefficient)} "
              f"({dec_trunc(got.residual_third_coefficient, args.digits)})\n")
    return EXIT_OK


def cmd_prove(args, out) -> int:
    variant = Variant.parse(args.variant)
    bound = _BOUNDS[args.bound](variant)
    side = args.side or {"bare": "upper", "u": "lower", "v": "upper"}[args.bound]
    report = prove_bound(bound, side)
    matches = (match_reference_polynomials(report)
               if args.bound in ("u", "v") else [])
    if args.format == "json":
        cert = report.certificate
        payload = {
            "bound": report.bound.describe(),
            "side": report.side,
            "conclusion": report.conclusion,
            "limit_at_infinity_ok": report.limit_at_infinity_ok,
            "certificate": None if cert is None else {
                "sign": cert.claimed_sign,
                "boundary_multiplicity": cert.boundary_multiplicity,
                "shifted_coefficients": cert.shifted_poly.to_strings(),
            },
            "witness": None if report.refutation is None else {
                "x": rat_str(report.refutation.x),
                "bound_value": rat_str(report.refutation.bound_value),
                "enclosure": report.refutation.enclosure.to_strings(),
            },
            "reference_matches": {m.name: m.matches for m in matches},
        }
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
    else:
        out.write(render_certificate(report) + "\n")
        for m in matches:
            out.write(f"reference {m.name}: "
                      f"{'match' if m.matches else 'mismatch'}\n")
    return {"proven": EXIT_OK, "refuted": EXIT_FAIL,
            "inconclusive": EXIT_UNDECIDED}[report.conclusion]


def cmd_check(args, out) -> int:
    width = parse_rational(args.width)
    if width <= 0:
        raise UsageError("width must be positive")
    ns = parse_indices(args.n)
    if not ns or min(ns) < 1:
        raise UsageError("indices must be >= 1")
    variant = Variant.parse(args.variant)
    worst = EXIT_OK
    results = []
    for n in ns:
        if args.target == "classic":
            res = check_classic_at(n, width)
        else:
            res = check_certified_at(n, variant, width)
        results.append(res)
        if res.status == "fails":
            worst = EXIT_FAIL
        elif res.status == "undecided" and worst == EXIT_OK:
            worst = EXIT_UNDECIDED
    if args.format == "json":
        payload = [{"n": str(res.n), "status": res.status, "side": res.side,
                    "lower": rat_str(res.lower_value),
                    "upper": rat_str(res.upper_value),
                    "enclosure": res.enclosure.to_strings()}
                   for res in results]
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
        return worst
    for res in results:
        line = f"n={res.n}: {res.status}"
        if res.side:
            line += f"({res.side})"
        line += (f"  bounds [{rat_str(res.lower_value)}, {rat_str(res.upper_value)}]"
                 f"  enclosure {fmt_interval(res.enclosure, args.digits)}")
        out.write(line + "\n")
    return worst


_CONTAINED_TEXT = {"contained": "yes", "outside": "NO", "undecided": "undecided"}


def cmd_keller(args, out) -> int:
    variant = Variant.parse(args.variant)
    if args.symbolic:
        limit, rate = kel.sandwich_limits(variant)
        out.write(f"sandwich limit = {rat_str(limit)}, "
                  f"n^2 rate = {rat_str(rate)} ({dec_trunc(rate, args.digits)})\n")
        out.write("display numerators over "
                  f"{kel.DISPLAY_DENOMINATOR_CONSTANT} n^a (n-1)^b (12n-1)(12n+11):\n")
        for form in kel.display_forms(variant):
            top = form.numerator
            out.write(f"{form.name}: degree {top.degree()}, "
                      f"lead {rat_str(top.leading())}, "
                      f"next {rat_str(top.coeff(top.degree() - 1))}\n")
        return EXIT_OK
    width = parse_rational(args.width)
    if width <= 0:
        raise UsageError("width must be positive")
    ns = parse_indices(args.n)
    if not ns or min(ns) < 2:
        raise UsageError("difference-sequence indices must be >= 2")
    rows = kel.convergence_table(ns, width, variant)
    outcomes = {row.outcome for row in rows}
    code = (EXIT_FAIL if "outside" in outcomes
            else EXIT_UNDECIDED if "undecided" in outcomes else EXIT_OK)
    target = Fraction(1, 24)
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "lo", "hi", "sandwich_lo", "sandwich_hi", "target"])
        for row in rows:
            if args.exact:
                writer.writerow([row.n, rat_str(row.rate.lo), rat_str(row.rate.hi),
                                 rat_str(row.sandwich_lo), rat_str(row.sandwich_hi),
                                 rat_str(target)])
            else:
                writer.writerow([row.n, dec_floor(row.rate.lo, args.digits),
                                 dec_ceil(row.rate.hi, args.digits),
                                 dec_floor(row.sandwich_lo, args.digits),
                                 dec_ceil(row.sandwich_hi, args.digits),
                                 dec_trunc(target, args.digits)])
        return code
    if args.format == "json":
        payload = [{"n": row.n,
                    "rate": {"lo": rat_str(row.rate.lo), "hi": rat_str(row.rate.hi)},
                    "sandwich": {"lo": rat_str(row.sandwich_lo),
                                 "hi": rat_str(row.sandwich_hi)},
                    "contained": row.contained, "outcome": row.outcome}
                   for row in rows]
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
        return code
    out.write(f"n^2 (x_n - 1) with the exact sandwich; target 1/24 "
              f"= {dec_trunc(target, args.digits)}\n")
    for row in rows:
        out.write(f"n={row.n}: enclosure {fmt_interval(row.rate, args.digits)} "
                  f"sandwich [{dec_floor(row.sandwich_lo, args.digits)}, "
                  f"{dec_ceil(row.sandwich_hi, args.digits)}] "
                  f"contained={_CONTAINED_TEXT[row.outcome]}\n")
    return code


def cmd_carleman(args, out) -> int:
    variant = Variant.parse(args.variant)
    if args.mode == "polya":
        n = args.N
        geo, tail = carl.polya_identities(n)
        out.write(f"(c_1...c_{n})^(1/{n}) = {rat_str(geo)}\n")
        out.write(f"tail x_{n} = {rat_str(tail)}\n")
        out.write(f"effective weight c_{n} x_{n} = "
                  f"{rat_str(carl.telescoping_weight(n) * tail)}\n")
        return EXIT_OK
    if args.mode == "chain":
        report = carl.termwise_weight_chain(args.N, variant)
        for name, idx in report.first_failures:
            out.write(f"link {name}: "
                      f"{'ok' if idx is None else f'first failure at n={idx}'}\n")
        out.write(f"non-improving indices (eps_n <= 0): "
                  f"{list(report.non_improving) if report.non_improving else 'none'}\n")
        out.write(f"chain N={report.N} variant={report.variant.value}: "
                  f"{'passed' if report.passed else 'FAILED'}\n")
        return EXIT_OK if report.passed else EXIT_FAIL
    seq = parse_sequence(args.seq)
    if seq.values is not None and args.N > len(seq.values):
        raise UsageError(f"--N {args.N} exceeds the {len(seq.values)} terms "
                         "of the custom sequence")
    scheme = parse_scheme(args.scheme, variant)
    lhs, rhs = carl.carleman_sums(seq, scheme, args.N)
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "a_n", "lhs_term_lo", "lhs_term_hi",
                         "weight_lo", "weight_hi"])
        per_term = DEFAULT_WIDTH / args.N
        for n in range(1, args.N + 1):
            term = seq.geometric_mean_enclosure(n, per_term)
            w = carl.weight(scheme, n)
            w_lo, w_hi = (w, w) if isinstance(w, Fraction) else (w.lo, w.hi)
            writer.writerow([n, rat_str(seq.term(n)),
                             dec_floor(term.lo, args.digits),
                             dec_ceil(term.hi, args.digits),
                             dec_floor(w_lo, args.digits),
                             dec_ceil(w_hi, args.digits)])
        writer.writerow(["total", "", dec_floor(lhs.lo, args.digits),
                         dec_ceil(lhs.hi, args.digits),
                         dec_floor(rhs.lo, args.digits),
                         dec_ceil(rhs.hi, args.digits)])
        return EXIT_OK if lhs.hi <= rhs.lo else EXIT_FAIL
    out.write(f"sequence {seq.describe()}, scheme {scheme.describe()}, N={args.N}\n")
    out.write(f"lhs  = {fmt_interval(lhs, args.digits)}\n")
    out.write(f"rhs  = {fmt_interval(rhs, args.digits)}\n")
    ok = lhs.hi <= rhs.lo
    out.write(f"lhs <= rhs rigorously: {'yes' if ok else 'NO'}\n")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_all(args, out) -> int:
    return EXIT_OK if run_all(out) else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


# One parser per process: parse_args leaves it unchanged, and no handler
# mutates the list defaults it puts into the namespace.
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="eulerbounds",
                     description="Exact derivation, certification and rigorous "
                                 "numerics for rational bounds of (1+1/n)^n.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the shared flags its handler reads
    def add(name, fn, *, digits=True, variant=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if digits:
            p.add_argument("--digits", type=int, default=12,
                           help="decimal digits in rendered output")
        if variant:
            p.add_argument("--variant", choices=["as-written", "dedup"],
                           default="dedup",
                           help="doubled or single 1/x^5 correction in the upper bound")
        return p

    p = add("expand", cmd_expand, digits=False,
            help="series expansions of the error and bound gaps")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--bound", choices=sorted(_BOUNDS), default=None,
                   help="expand the value gap of this bound instead of the "
                        "symbolic relative error")

    add("optimize", cmd_optimize, variant=False,
        help="solve for the optimal rational approximation")

    p = add("prove", cmd_prove, digits=False,
            help="prove or refute a bound via sign certificates")
    p.add_argument("--bound", choices=sorted(_BOUNDS), default="u")
    p.add_argument("--side", choices=["lower", "upper"], default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("check", cmd_check, help="rigorous pointwise inequality checks")
    p.add_argument("--target", choices=["certified", "classic"], default="certified")
    p.add_argument("--n", nargs="+", default=["1..20"],
                   help="indices or ranges, e.g. --n 1 2 10..20")
    p.add_argument("--width", default="1e-30")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("keller", cmd_keller, help="difference-sequence limits and tables")
    p.add_argument("--n", nargs="+", default=["10", "100", "1000"])
    p.add_argument("--width", default="1e-20")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--exact", action="store_true", help="CSV with exact p/q entries")
    p.add_argument("--symbolic", action="store_true",
                   help="print limits and display-form leading coefficients")

    p = add("carleman", cmd_carleman, help="weighted-mean inequality reports")
    p.add_argument("--mode", choices=["sums", "chain", "polya"], default="sums")
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--seq", default="geometric:1/2")
    p.add_argument("--scheme", choices=["polya", "simple", "refined"],
                   default="refined")
    p.add_argument("--format", choices=["text", "csv"], default="text")

    add("verify-all", cmd_verify_all, digits=False, variant=False,
        help="run the whole verification gate")
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "N", 1) < 1:
            raise UsageError("--N must be >= 1")
        if getattr(args, "order", 1) < 1:
            raise UsageError("--order must be >= 1")
        if getattr(args, "digits", 1) < 1:
            raise UsageError("--digits must be >= 1")
        return args.fn(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SoundnessError as exc:
        # a ValueError, but a fault of the enclosures, not of the input
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RefinementExhausted as exc:
        # the last stage could not decide; nothing was refuted
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ArithmeticError as exc:
        # e.g. the doubled-term variant's inverted sandwich: a failed
        # mathematical claim, not a usage problem
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
