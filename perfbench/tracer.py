"""Outside-in tracer: spans around the public functions of the eight layers.

Nothing in ``src/`` knows about it.  ``Tracer.install`` rebinds each traced
function in its defining module and in every ``eulerbounds`` module that
imported it by name, patches ``Poly``, ``RatFunc``, ``BoundSpec`` and
``TestSequence`` methods on the class, and swaps the ``verify.ALL_CHECKS``
table; ``Tracer.uninstall`` puts every original back.

Spans live in memory as ``[name, parent, start_ns, end_ns, nested, attrs]``
with the parent's index as the link.  Operand sizes (bit lengths, widths)
are recorded into ``attrs`` after a call returns; the time that takes is
subtracted from the span clock, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("algebra", "series", "prover", "enclosure", "keller", "carleman",
          "verify", "cli")


def _frac_bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _poly_bits(p) -> int:
    return max((_frac_bits(c) for c in p.coeffs), default=0)


def _log2(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


def _interval_sizes(iv) -> dict:
    lo, hi = iv.lo, iv.hi
    # hi - lo without the gcd a Fraction subtraction would pay
    gap = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    return {"bits": max(_frac_bits(lo), _frac_bits(hi)),
            "log2_width": (math.log2(gap) - math.log2(lo.denominator)
                           - math.log2(hi.denominator)) if gap > 0 else None}


# -- per-call accounting: (args, kwargs, result) -> attrs -------------------

def _acct_poly(args, kwargs, result):
    if isinstance(result, tuple):  # divmod
        return {"coeff_bits": max(_poly_bits(p) for p in result)}
    return {"coeff_bits": _poly_bits(result)} if hasattr(result, "coeffs") else None


def _acct_gcd(args, kwargs, result):
    return {"coeff_bits": _poly_bits(result), "degree": result.degree()}


def _acct_ratfunc(args, kwargs, result):
    self = args[0]
    return {"coeff_bits": max(_poly_bits(self.num), _poly_bits(self.den))}


def _acct_enclosure(args, kwargs, result):
    return _interval_sizes(result)


def _acct_normalized(args, kwargs, result):
    from eulerbounds.enclosure import DEFAULT_WIDTH

    target = args[1] if len(args) > 1 else kwargs.get("target_width", DEFAULT_WIDTH)
    attrs = _interval_sizes(result)
    attrs["log2_target"] = _log2(Fraction(target))
    return attrs


def _acct_root(args, kwargs, result):
    q = Fraction(args[0])
    attrs = _interval_sizes(result)
    attrs.update(arg_num_bits=q.numerator.bit_length(),
                 arg_den_bits=q.denominator.bit_length())
    return attrs


def _acct_certificate(args, kwargs, result):
    if result is None:
        return None
    polys = [result.cleared_numerator, result.shifted_poly]
    polys += [s.transformed for s in result.segments]
    return {"degree": result.shifted_poly.degree(),
            "coeff_bits": max(_poly_bits(p) for p in polys),
            "segments": len(result.segments)}


def _acct_prove(args, kwargs, result):
    return {"side": result.side}


def _acct_chain(args, kwargs, result):
    return {"N": result.N}


# (span name, defining module, attribute, accounting)
FUNCTIONS = (
    ("algebra.poly_gcd", "algebra", "poly_gcd", _acct_gcd),
    ("series.expand_relative_error", "series", "expand_relative_error", None),
    ("series.expand_bound_gap", "series", "expand_bound_gap", None),
    ("series.log_gap_series", "series", "log_gap_series", None),
    ("series.solve_optimal_params", "series", "solve_optimal_params", None),
    ("prover.prove_bound", "prover", "prove_bound", _acct_prove),
    ("prover.log_gap_second_derivative", "prover", "log_gap_second_derivative", None),
    ("prover.sign_certificate", "prover", "sign_certificate", _acct_certificate),
    ("prover.match_reference_polynomials", "prover", "match_reference_polynomials", None),
    ("enclosure.normalized_euler_interval", "enclosure", "normalized_euler_interval",
     _acct_normalized),
    ("enclosure.euler_number_interval", "enclosure", "euler_number_interval",
     _acct_enclosure),
    ("enclosure.nth_root_interval", "enclosure", "nth_root_interval", _acct_root),
    ("enclosure.ln1p_to_width", "enclosure", "ln1p_to_width", _acct_enclosure),
    ("enclosure.check", "enclosure", "check_certified_at", None),
    ("enclosure.check", "enclosure", "check_classic_at", None),
    ("keller.sandwich_limits", "keller", "sandwich_limits", None),
    ("keller.display_forms", "keller", "display_forms", None),
    ("keller.keller_term", "keller", "keller_term", None),
    ("keller.convergence_table", "keller", "convergence_table", None),
    ("carleman.termwise_weight_chain", "carleman", "termwise_weight_chain", _acct_chain),
    ("carleman.epsilon_term", "carleman", "epsilon_term", None),
    ("carleman.weight_over_e", "carleman", "weight_over_e", None),
    ("carleman.carleman_sums", "carleman", "carleman_sums", None),
    ("cli.main", "cli", "main", None),
)

# (span name, defining module, class, method, accounting)
METHODS = (
    ("algebra.poly_mul", "algebra", "Poly", "__mul__", _acct_poly),
    ("algebra.poly_divmod", "algebra", "Poly", "__divmod__", _acct_poly),
    ("algebra.poly_shift", "algebra", "Poly", "shift", _acct_poly),
    ("algebra.ratfunc_init", "algebra", "RatFunc", "__init__", _acct_ratfunc),
    ("series.bound_eval", "series", "BoundSpec", "eval", None),
    ("series.boundspec_init", "series", "BoundSpec", "__init__", None),
    ("carleman.geometric_mean_enclosure", "carleman", "TestSequence",
     "geometric_mean_enclosure", None),
)

# Metrics beyond per-span counts and times: operand sizes and ratios taken
# from the spans' attributes, and the run's tracing overhead.
DERIVED = (
    "algebra.poly_gcd.trivial_ratio", "algebra.max_coeff_bits",
    "prover.certificate_degree", "prover.certificate_max_bits", "prover.segments",
    "prover.prove_bound.upper_over_lower",
    "enclosure.stages_per_call", "enclosure.bits_per_target_bit",
    "enclosure.width_overshoot_bits", "enclosure.max_endpoint_bits",
    "carleman.chain_refinements", "carleman.root_operand_bits",
    "trace.overhead_ratio", "trace.wall_s",
)

ITEM = "bench.item"
NAME, PARENT, START, END, NESTED, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._excluded = 0
        self._restore: list[tuple[object, str, object]] = []

    def clock(self) -> int:
        return perf_counter_ns() - self._excluded

    def wrap(self, name, fn, account=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, active = tracer._stack, tracer._active
            span = [name, stack[-1] if stack else -1, 0, 0, active[name] > 0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            active[name] += 1
            span[START] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = tracer.clock()
                active[name] -= 1
                stack.pop()
            if account is not None:
                t0 = perf_counter_ns()
                span[ATTRS] = account(args, kwargs, result)
                tracer._excluded += perf_counter_ns() - t0
            return result

        return traced

    def item(self, label: str, call):
        """Run one benchmark item under a root span that names it."""
        index = len(self.spans)
        try:
            return self.wrap(ITEM, call)()
        finally:
            self.spans[index][ATTRS] = {"label": label}

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"eulerbounds.{layer}")
        package = [m for k, m in sorted(sys.modules.items())
                   if k == "eulerbounds" or k.startswith("eulerbounds.")]
        for name, mod, attr, account in FUNCTIONS:
            original = getattr(importlib.import_module(f"eulerbounds.{mod}"), attr)
            wrapper = self.wrap(name, original, account)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for name, mod, cls_name, method, account in METHODS:
            cls = getattr(importlib.import_module(f"eulerbounds.{mod}"), cls_name)
            self._set(cls, method, self.wrap(name, cls.__dict__[method], account))
        verify = sys.modules["eulerbounds.verify"]
        self._set(verify, "ALL_CHECKS", tuple(
            (check, self.wrap(f"verify.{check}", fn)) for check, fn in verify.ALL_CHECKS))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def reset(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    # -- output ---------------------------------------------------------

    @staticmethod
    def write(spans: list[list], path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, nested, attrs) in enumerate(spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start_ns": start, "dur_ns": end - start,
                                     "attrs": attrs}, separators=(",", ":")) + "\n")


def known_metrics() -> set[str]:
    """Every per-layer metric name the tracer can report."""
    from eulerbounds.verify import ALL_CHECKS

    spans = ({f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}
             | {f"verify.{check}" for check, _ in ALL_CHECKS})
    return ({f"{span}.{kind}" for span in spans for kind in ("calls", "s", "self_s")}
            | set(DERIVED))


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, inclusive and self times, and operand sizes of one pass."""
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(int)
    child_time: defaultdict = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_time: defaultdict = defaultdict(int)
    by_name: defaultdict = defaultdict(list)
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        by_name[name].append(span)
        dur = span[END] - span[START]
        self_time[name] += dur - child_time[i]
        if not span[NESTED]:
            inclusive[name] += dur

    m: dict[str, float] = {}
    for name in set(calls) - {ITEM}:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = inclusive[name] / 1e9
        m[f"{name}.self_s"] = self_time[name] / 1e9

    def attrs(name):
        return [s[ATTRS] for s in by_name[name] if s[ATTRS]]

    gcds = attrs("algebra.poly_gcd")
    m["algebra.poly_gcd.trivial_ratio"] = (
        sum(a["degree"] <= 0 for a in gcds) / len(gcds) if gcds else 0.0)
    m["algebra.max_coeff_bits"] = max(
        (a["coeff_bits"] for name in ("algebra.poly_mul", "algebra.poly_divmod",
                                      "algebra.poly_shift", "algebra.poly_gcd",
                                      "algebra.ratfunc_init")
         for a in attrs(name)), default=0)

    certs = attrs("prover.sign_certificate")
    m["prover.certificate_degree"] = max((a["degree"] for a in certs), default=0)
    m["prover.certificate_max_bits"] = max((a["coeff_bits"] for a in certs), default=0)
    m["prover.segments"] = sum(a["segments"] for a in certs)
    per_side = defaultdict(list)
    for s in by_name["prover.prove_bound"]:
        if s[ATTRS]:
            per_side[s[ATTRS]["side"]].append(s[END] - s[START])
    m["prover.prove_bound.upper_over_lower"] = (
        statistics.mean(per_side["upper"]) / statistics.mean(per_side["lower"])
        if per_side["upper"] and per_side["lower"] else 0.0)

    nei = attrs("enclosure.normalized_euler_interval")
    m["enclosure.stages_per_call"] = (
        calls["enclosure.ln1p_to_width"] / len(nei) if nei else 0.0)
    m["enclosure.bits_per_target_bit"] = _median(
        [a["bits"] / -a["log2_target"] for a in nei])
    m["enclosure.width_overshoot_bits"] = _median(
        [a["log2_target"] - a["log2_width"] for a in nei if a["log2_width"] is not None])
    m["enclosure.max_endpoint_bits"] = max(
        (a["bits"] for name in ("enclosure.normalized_euler_interval",
                                "enclosure.euler_number_interval",
                                "enclosure.nth_root_interval",
                                "enclosure.ln1p_to_width")
         for a in attrs(name)), default=0)

    chain_ids = {i for i, s in enumerate(spans) if s[NAME] == "carleman.termwise_weight_chain"}
    in_chain = 0
    for s in by_name["enclosure.normalized_euler_interval"]:
        parent = s[PARENT]
        while parent >= 0 and parent not in chain_ids:
            parent = spans[parent][PARENT]
        in_chain += parent >= 0
    m["carleman.chain_refinements"] = in_chain - sum(
        a["N"] for a in attrs("carleman.termwise_weight_chain"))
    m["carleman.root_operand_bits"] = max(
        (max(a["arg_num_bits"], a["arg_den_bits"])
         for a in attrs("enclosure.nth_root_interval")), default=0)
    return m
