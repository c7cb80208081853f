"""Command line front end: derivations, proofs, checks, tables.

Every command writes deterministic output (identical flags give
byte-identical bytes) and exits with

    0  success / proven / holds,
    1  refuted / a check failed,
    2  inconclusive / undecided,
    64 usage error.

Usage errors are found before any work: argparse types check each flag's
value, ``main`` refuses what ``MODES`` says a mode does not take, and a
handler checks only what depends on the data (--N against custom terms,
``printable`` output, else found after the work).  Then the exception type
alone sets the exit code: an exhausted refinement exits 2, any other failure 1.

Decimal renderings never overstate precision: plain rationals are
truncated toward zero and printed next to their exact value, interval
endpoints are rounded outward.

Each handler imports the library layers it runs when it is called, so
start-up and every command pay only for the layers they use.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64

# --digits and the decimal exponent of a rational flag are at most this
MAX_PRINTED_DIGITS = 4000
TOO_LONG = "more digits than this Python prints (sys.set_int_max_str_digits)"
# --n names at most this many indices (10^5 rows take seconds); a longer
# table is refused before any work instead of running out of memory
MAX_INDICES = 10**5
# expand --bound v --order 400 takes about 1 s, and the cost grows as the
# order cubed, so a higher order is refused before any work
MAX_ORDER = 400
# --digits and --variant are None until main fills these in, so MODES can refuse them
DEFAULTS = {"digits": 12, "variant": "dedup"}


class UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """Carries the help text from the parser to ``main``'s ``out``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)

    def print_help(self, file=None):  # argparse would print to sys.stdout and exit 0
        raise _HelpRequested(self.format_help())


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def printable(q: Fraction | int, power: int = 1) -> bool:
    """Whether rat_str(q ** power) prints: no integer of more than L digits does,
    L = sys.get_int_max_str_digits() (0, or before 3.10.7: none).  m = max(|p|, q)
    of b bits has 2^(power (b-1)) <= m^power < 2^(power b), and 8^L < 10^L < 16^L."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    top = max(abs(q.numerator), q.denominator)
    return (not limit or power * top.bit_length() <= 3 * limit
            or power * (top.bit_length() - 1) < 4 * limit and top**power < 10**limit)


def require_printable(*values: Fraction | int) -> None:
    if not all(map(printable, values)):
        raise UsageError(f"a printed number would have {TOO_LONG}")


def rat_str(q: Fraction) -> str:
    """'p/q', as algebra.rat_str writes it, for a value that prints."""
    require_printable(q)
    return f"{q.numerator}/{q.denominator}"


def _scaled_digits(value: int, digits: int) -> str:
    # at most --digits <= L digits each: the fraction, and a whole < 2^(3 digits)
    whole, fraction = divmod(abs(value), 10**digits)
    if whole.bit_length() > 3 * digits:
        require_printable(whole)
    return f"{'-' if value < 0 else ''}{whole}.{str(fraction).zfill(digits)}"


def dec_floor(q: Fraction, digits: int) -> str:
    return _scaled_digits(q.numerator * 10**digits // q.denominator, digits)


def dec_ceil(q: Fraction, digits: int) -> str:
    return _scaled_digits(-(-q.numerator * 10**digits // q.denominator), digits)


def dec_trunc(q: Fraction, digits: int) -> str:
    return _scaled_digits(int(q * 10**digits), digits)


def fmt_interval(iv, digits: int) -> str:
    return f"[{dec_floor(iv.lo, digits)}, {dec_ceil(iv.hi, digits)}]"


def _csv_writer(out):
    # imported on first use: loading it with the CLI costs every command 0.3-0.5 MB
    import csv
    return csv.writer(out, lineterminator="\n")


def bounded_int(least: int, most: Optional[int] = None):
    """An argparse type: an integer in [least, most].  argparse reports the
    ValueError of a malformed value as an invalid value."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least or most is not None and value > most:
            raise argparse.ArgumentTypeError(
                f"must be >= {least}" if most is None else f"must be in {least}..{most}")
        return value
    return integer


def digit_count(text: str) -> int:
    """--digits: 1..MAX_PRINTED_DIGITS and at most the digit limit, read here."""
    value = bounded_int(1, MAX_PRINTED_DIGITS)(text)
    if not printable(10, value - 1):
        raise argparse.ArgumentTypeError(f"a fraction of {value} digits has {TOO_LONG}")
    return value


def rational(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent beyond MAX_PRINTED_DIGITS
    before Fraction builds 10^exponent (1e-10000000000 would never end)."""
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_PRINTED_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{text!r}: decimal exponent of magnitude > {MAX_PRINTED_DIGITS}")
    return Fraction(text)


def positive_rational(text: str) -> Fraction:
    """An argparse type: a rational > 0 such as 1e-30 or 1/3."""
    try:
        value = rational(text)
    except ZeroDivisionError as exc:  # "1/0": argparse catches only ValueError
        raise ValueError(text) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def index_range(least: int):
    """An argparse type: an index n or an inclusive range a..b, as a range
    of indices >= least."""
    def index(text: str) -> range:
        lo, dots, hi = text.partition("..")
        indices = range(int(lo), int(hi if dots else lo) + 1)
        if not indices:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        if indices.start < least:
            raise argparse.ArgumentTypeError(f"indices must be >= {least}")
        return indices
    return index


class _IndexCount(argparse.Action):
    """Stores the --n ranges; refuses more than MAX_INDICES indices in all,
    counted as stop - start since len() overflows past sys.maxsize."""

    def __call__(self, parser, namespace, ranges, option_string=None):
        if sum(r.stop - r.start for r in ranges) > MAX_INDICES:
            raise argparse.ArgumentError(self, f"more than {MAX_INDICES} indices")
        setattr(namespace, self.dest, ranges)


def parse_sequence(text: str):
    """An argparse type: a TestSequence from geometric:R, powerlaw:P or
    custom:a1,a2,..."""
    from .carleman import TestSequence
    kind, _, arg = text.partition(":")
    try:
        if kind == "geometric":
            return TestSequence.geometric(rational(arg))
        if kind == "powerlaw":
            return TestSequence.power_law(rational(arg))
        if kind == "custom":
            return TestSequence.custom(map(rational, arg.split(",")))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")
    raise argparse.ArgumentTypeError(f"unknown sequence {text!r} "
                                     "(use geometric:R, powerlaw:P, custom:a1,a2,...)")


def _bound(args):
    """The --bound named; only the upper bound v reads --variant."""
    from .series import Variant, bare_optimal_bound, lower_bound, upper_bound
    if args.bound == "v":
        return upper_bound(Variant(args.variant))
    return lower_bound() if args.bound == "u" else bare_optimal_bound()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_expand(args, out) -> int:
    from .series import expand_bound_gap, expand_relative_error
    if args.bound is None:
        w, l = expand_relative_error(args.order)
        out.write("relative error expansion in t = 1/n over Q[a,b]\n")
        for k in range(1, args.order + 1):
            out.write(f"t^{k}: {rat_str(w[k])}*a^0*b^0 + {rat_str(l[k])}*a^0*b^{k}"
                      f" + {rat_str(-l[k])}*a^{k}*b^0\n")
        return EXIT_OK
    bound = _bound(args)
    order = max(args.order, bound.max_power())
    gap = expand_bound_gap(bound, order)
    out.write(f"gap series (1/e)(1+1/x)^x - bound, bound = {bound.describe()}\n")
    for k in range(order + 1):
        out.write(f"t^{k}: {rat_str(gap[k])}\n")
    return EXIT_OK


def cmd_optimize(args, out) -> int:
    from .series import solve_optimal_params
    got = solve_optimal_params()
    out.write(f"a = {rat_str(got.a)}\n")
    out.write(f"b = {rat_str(got.b)}\n")
    residual = got.residual_third_coefficient
    out.write(f"residual t^3 coefficient = {rat_str(residual)} "
              f"({dec_trunc(residual, args.digits)})\n")
    return EXIT_OK


def cmd_prove(args, out) -> int:
    from .prover import certificate_json, prove_bound, render_certificate
    side = args.side or {"bare": "upper", "u": "lower", "v": "upper"}[args.bound]
    report = prove_bound(_bound(args), side)
    cert, wit = report.certificate, report.refutation  # both printed whole
    shown = (wit.x, wit.bound_value, wit.enclosure.lo, wit.enclosure.hi) if wit else ()
    require_printable(*(cert.shifted_poly.coeffs if cert else ()), *shown)
    if args.format == "json":
        json.dump(certificate_json(report), out, sort_keys=True, indent=2)
        out.write("\n")
    else:
        out.write(render_certificate(report) + "\n")
    return {"proven": EXIT_OK, "refuted": EXIT_FAIL,
            "inconclusive": EXIT_UNDECIDED}[report.conclusion]


def cmd_check(args, out) -> int:
    from .enclosure import check_certified_at, check_classic_at
    from .series import Variant, classical_bracket, lower_bound, upper_bound
    if args.target == "classic":
        bounds, check = classical_bracket(), check_classic_at
    else:
        variant = Variant(args.variant)
        bounds = (lower_bound(), upper_bound(variant))
        check = functools.partial(check_certified_at, variant=variant)
    polys = [p for b in bounds for p in b.polynomials()]
    if not all(printable(b.eval(n)) for n in indices_to_test(polys, args.n)
               for b in bounds):
        raise UsageError(f"an --n index would print an exact value with {TOO_LONG}")
    results = [check(n, width=args.width) for n in itertools.chain.from_iterable(args.n)]
    statuses = {res.status for res in results}
    worst = (EXIT_FAIL if "fails" in statuses
             else EXIT_UNDECIDED if "undecided" in statuses else EXIT_OK)
    if args.format == "json":
        payload = [{"n": str(res.n), "status": res.status, "side": res.side,
                    "lower": rat_str(res.lower_value), "upper": rat_str(res.upper_value),
                    "enclosure": list(map(rat_str, (res.enclosure.lo, res.enclosure.hi)))}
                   for res in results]
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
        return worst
    for res in results:
        side = f"({res.side})" if res.side else ""
        out.write(f"n={res.n}: {res.status}{side}  bounds [{rat_str(res.lower_value)}, "
                  f"{rat_str(res.upper_value)}]  enclosure "
                  f"{fmt_interval(res.enclosure, args.digits)}\n")
    return worst


def indices_to_test(polys, ranges):
    """The indices of ``ranges`` from 10^((L - digits(S)) // d) on, least over the
    integer ``polys`` (S: absolute coefficient sum, d: degree, L: digit limit; m digits
    print iff 10^(m-1) does).  Below it |P(n)| <= S n^d < 10^L, and reducing only
    shrinks; past it each index is tested, as each cancels its own factor."""
    sizes = [(len(str(sum(map(abs, p.coeffs)))), p.degree()) for p in polys]
    k = next((k for k in range(len(str(max(r[-1] for r in ranges))), 0, -1)
              if all(printable(10, s + k * d - 1) for s, d in sizes)), 0)
    return itertools.chain.from_iterable(r[max(10**k - r.start, 0):] for r in ranges)


_CONTAINED_TEXT = {"contained": "yes", "outside": "NO", "undecided": "undecided"}


def cmd_keller(args, out) -> int:
    from . import keller as kel
    from .series import Variant
    variant, digits = Variant(args.variant), args.digits
    if args.symbolic:
        limit, rate = kel.sandwich_limits(variant)
        out.write(f"sandwich limit = {rat_str(limit)}, "
                  f"n^2 rate = {rat_str(rate)} ({dec_trunc(rate, digits)})\n")
        out.write("display numerators over "
                  f"{kel.DISPLAY_DENOMINATOR_CONSTANT} n^a (n-1)^b (12n-1)(12n+11):\n")
        for form in kel.display_forms(variant):
            top = form.numerator
            out.write(f"{form.name}: degree {top.degree()}, "
                      f"lead {rat_str(top.leading())}, "
                      f"next {rat_str(top.coeff(top.degree() - 1))}\n")
        return EXIT_OK
    ns = [10, 100, 1000] if args.n is None else itertools.chain.from_iterable(args.n)
    if args.n is not None and (args.exact or args.format == "json"):
        # these forms print the exact sandwich rates n^2 (N - D) / D whole
        polys = [p for pair in kel.rate_sides(variant) for p in pair]
        if not all(printable(rate) for n in indices_to_test(polys, args.n)
                   for rate in kel.sandwich_rates(n, variant)):
            raise UsageError(f"an --n index would print an exact value with {TOO_LONG}")
    rows = kel.convergence_table(ns, args.width or kel.DEFAULT_TABLE_WIDTH, variant)
    outcomes = {row.outcome for row in rows}
    code = (EXIT_FAIL if "outside" in outcomes
            else EXIT_UNDECIDED if "undecided" in outcomes else EXIT_OK)
    target = Fraction(1, 24)
    if args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["n", "lo", "hi", "sandwich_lo", "sandwich_hi", "target"])
        lo, hi, cut = ((rat_str,) * 3 if args.exact else
                       (functools.partial(f, digits=digits)
                        for f in (dec_floor, dec_ceil, dec_trunc)))
        for row in rows:
            writer.writerow([row.n, lo(row.rate.lo), hi(row.rate.hi),
                             lo(row.sandwich_lo), hi(row.sandwich_hi), cut(target)])
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
              f"= {dec_trunc(target, digits)}\n")
    for row in rows:
        out.write(f"n={row.n}: enclosure {fmt_interval(row.rate, digits)} "
                  f"sandwich [{dec_floor(row.sandwich_lo, digits)}, "
                  f"{dec_ceil(row.sandwich_hi, digits)}] "
                  f"contained={_CONTAINED_TEXT[row.outcome]}\n")
    return code


def cmd_carleman(args, out) -> int:
    from . import carleman as carl
    from .series import Variant
    if args.mode == "polya":
        n = args.N
        if not printable(Fraction(n + 1, n), n):
            raise UsageError(f"--N {n} would print (N+1)^N with {TOO_LONG}")
        geo, tail = carl.polya_identities(n)
        out.write(f"(c_1...c_{n})^(1/{n}) = {rat_str(geo)}\n")
        out.write(f"tail x_{n} = {rat_str(tail)}\n")
        out.write(f"effective weight c_{n} x_{n} = "
                  f"{rat_str(carl.telescoping_weight(n) * tail)}\n")
        return EXIT_OK
    if args.mode == "chain":
        report = carl.termwise_weight_chain(args.N, Variant(args.variant))
        for name, idx in report.first_failures:
            out.write(f"link {name}: "
                      f"{'ok' if idx is None else f'first failure at n={idx}'}\n")
        out.write(f"non-improving indices (eps_n <= 0): "
                  f"{list(report.non_improving) if report.non_improving else 'none'}\n")
        out.write(f"chain N={report.N} variant={report.variant.value}: "
                  f"{'passed' if report.passed else 'FAILED'}\n")
        return EXIT_OK if report.passed else EXIT_FAIL
    seq = args.seq or carl.TestSequence.geometric(Fraction(1, 2))
    if seq.values is not None and args.N > len(seq.values):
        raise UsageError(f"--N {args.N} exceeds the {len(seq.values)} custom terms")
    scheme = (getattr(carl.WeightScheme, args.scheme)() if args.scheme in ("polya", "simple")
              else carl.WeightScheme.refined(Variant(args.variant)))
    digits = args.digits
    if args.format == "csv" and not terms_printable(seq, args.N):
        raise UsageError(f"--N {args.N} would print an a_n with {TOO_LONG}")
    # the report names r or p; sums stay below 3 N max a_n: weights < e, means <= max a_n
    top = max(seq.values[:args.N]) if seq.values else seq.term(1)
    require_printable(seq.ratio or 0, seq.exponent or 0, 3 * args.N * top // 1)
    if args.format == "csv":
        # the rows' enclosures summed in order are geometric_mean_sum's lhs
        terms = carl.geometric_means(seq, args.N)
        lhs, rhs = sum(terms), carl.weighted_sum(seq, scheme, args.N)
        writer = _csv_writer(out)
        writer.writerow(["n", "a_n", "lhs_term_lo", "lhs_term_hi",
                         "weight_lo", "weight_hi"])
        for n, (term, w) in enumerate(zip(terms, carl.weights(scheme, args.N)), 1):
            writer.writerow([n, rat_str(seq.term(n)), dec_floor(term.lo, digits),
                             dec_ceil(term.hi, digits), dec_floor(w.lo, digits),
                             dec_ceil(w.hi, digits)])
        writer.writerow(["total", "", dec_floor(lhs.lo, digits), dec_ceil(lhs.hi, digits),
                         dec_floor(rhs.lo, digits), dec_ceil(rhs.hi, digits)])
        return _sums_verdict(lhs, rhs)
    lhs, rhs = carl.carleman_sums(seq, scheme, args.N)
    out.write(f"sequence {seq.describe()}, scheme {scheme.describe()}, N={args.N}\n")
    out.write(f"lhs  = {fmt_interval(lhs, digits)}\n")
    out.write(f"rhs  = {fmt_interval(rhs, digits)}\n")
    code = _sums_verdict(lhs, rhs)
    out.write(f"lhs <= rhs rigorously: {_SUMS_TEXT[code]}\n")
    return code


def terms_printable(seq, n: int) -> bool:
    """Whether a CSV's exact a_1..a_n print; r^n or 1/n^p is the largest."""
    if seq.values is not None:
        return all(map(printable, seq.values[:n]))
    if seq.kind == "geometric":
        return printable(seq.ratio, n)
    return printable(Fraction(n), seq.exponent)


_SUMS_TEXT = {EXIT_OK: "yes", EXIT_FAIL: "NO", EXIT_UNDECIDED: "undecided"}


def _sums_verdict(lhs, rhs) -> int:
    """lhs <= rhs is proven when the enclosures are ordered, refuted when
    they are ordered the other way, and undecided while they overlap."""
    return (EXIT_OK if lhs.hi <= rhs.lo
            else EXIT_FAIL if rhs.hi < lhs.lo else EXIT_UNDECIDED)


def cmd_verify_all(args, out) -> int:
    from .verify import run_all
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
            p.add_argument("--digits", type=digit_count,
                           help=f"decimal digits in rendered output "
                                f"(default {DEFAULTS['digits']})")
        if variant:
            p.add_argument("--variant", choices=["as-written", "dedup"],
                           help="doubled or single 1/x^5 correction in the upper bound")
        return p

    p = add("expand", cmd_expand, digits=False,
            help="series expansions of the error and bound gaps")
    p.add_argument("--order", type=bounded_int(1, MAX_ORDER), default=10)
    p.add_argument("--bound", choices=["bare", "u", "v"], default=None,
                   help="expand the value gap of this bound instead of the "
                        "symbolic relative error")

    add("optimize", cmd_optimize, variant=False,
        help="solve for the optimal rational approximation")

    p = add("prove", cmd_prove, digits=False,
            help="prove or refute a bound via sign certificates")
    p.add_argument("--bound", choices=["bare", "u", "v"], default="u")
    p.add_argument("--side", choices=["lower", "upper"], default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("check", cmd_check, help="rigorous pointwise inequality checks")
    p.add_argument("--target", choices=["certified", "classic"], default="certified")
    p.add_argument("--n", nargs="+", type=index_range(1), action=_IndexCount,
                   default=[range(1, 21)], help="indices or ranges, e.g. --n 1 2 10..20")
    p.add_argument("--width", type=positive_rational, default="1e-30")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("keller", cmd_keller, help="difference-sequence limits and tables")
    p.add_argument("--n", nargs="+", type=index_range(2), action=_IndexCount)
    p.add_argument("--width", type=positive_rational)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--exact", action="store_true", help="CSV with exact p/q entries")
    p.add_argument("--symbolic", action="store_true",
                   help="print limits and display-form leading coefficients")

    p = add("carleman", cmd_carleman, help="weighted-mean inequality reports")
    p.add_argument("--mode", choices=["sums", "chain", "polya"], default="sums")
    p.add_argument("--N", type=bounded_int(1), default=200)
    p.add_argument("--seq", type=parse_sequence)
    p.add_argument("--scheme", choices=["polya", "refined", "simple"])
    p.add_argument("--format", choices=["text", "csv"], default="text")

    add("verify-all", cmd_verify_all, digits=False, variant=False,
        help="run the whole verification gate")
    return parser


# The modes of each command: one flag's parsed values ("True": a switch given,
# "None": left out), the flags they do not read, the one format they write ("":
# any), a bound on another flag and, if not "--flag value", their refusals' name.
# The --N caps take about 1 s, as MAX_ORDER does (polya with no digit limit).
MODES = {
    "expand": [("bound", "None", "variant", "", "--order >= 3", "the symbolic expansion"),
               ("bound", "u bare", "variant", "", "")],
    "prove": [("bound", "u bare", "variant", "", "")],
    "check": [("target", "classic", "variant", "", ""), ("format", "json", "digits", "", "")],
    "keller": [("symbolic", "True", "n width", "text", ""),
               ("exact", "True", "digits", "csv", ""), ("format", "json", "digits", "", "")],
    "carleman": [("mode", "chain", "seq scheme digits", "text", "--N <= 50000"),
                 ("mode", "polya", "variant seq scheme digits", "text", "--N <= 30000"),
                 ("scheme", "polya simple", "variant", "", "")],
}


def refuse_modes(args) -> None:
    """Refuses, in MODES order, what a mode that ``args`` select does not take."""
    for flag, values, unread, fmt, bound, *name in MODES.get(args.command, ()):
        value = str(getattr(args, flag))
        if value not in values.split():
            continue
        name = name[0] if name else f"--{flag}" if value == "True" else f"--{flag} {value}"
        if fmt and args.format != fmt:
            raise UsageError(f"{name} writes text only" if fmt == "text"
                             else f"{name} needs --format {fmt}")
        for other in unread.split():
            if getattr(args, other) is not None:
                raise UsageError(f"{name} does not read --{other}")
        if bound:
            other, op, limit = bound.split()
            if (getattr(args, other[2:]) - int(limit)) * (1 if op == ">=" else -1) < 0:
                raise UsageError(f"{name} needs {bound}")


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        refuse_modes(args)
        vars(args).update((k, v) for k, v in DEFAULTS.items() if vars(args).get(k, v) is None)
        # written only once the handler returns: a failure prints nothing
        buf = io.StringIO()
        code = args.fn(args, buf)
    except _HelpRequested as exc:
        out.write(exc.args[0])
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError) as exc:
        from .enclosure import RefinementExhausted  # not loaded at start-up
        # an exhausted refinement could not decide and refuted nothing; every
        # input was checked while parsing, so any other error is a failed
        # claim (the doubled-term variant's inverted sandwich) or a fault
        undecided = isinstance(exc, RefinementExhausted)
        print(f"{'undecided' if undecided else 'failed'}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED if undecided else EXIT_FAIL
    out.write(buf.getvalue())
    return code
