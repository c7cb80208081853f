"""The benchmark's workloads: two fixed CLI jobs and the seeded ``deep`` requests.

A job yields the requests of one pass.  Every request is one item: a CLI
invocation for ``gate`` and ``certify``, one library call for ``deep``.
Requests look their target up on the module object at call time, so the
tracer's rebinding takes effect without any change to the program.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The numeric CLI path at default arguments: what a reader runs to
# re-certify the paper.  Dominated by enclosure and Carleman-chain work
# that repeats identical computations, so caching or kernel changes show.
GATE = (
    ("verify-all",),
    ("check",),
    ("keller",),
    ("carleman",),
    ("carleman", "--mode", "polya"),
)

# The symbolic CLI path: algebra, series and prover do almost all the
# work; enclosures run only for the refutation witness at x = 1.
CERTIFY = (
    ("optimize",),
    ("expand",),
    ("expand", "--bound", "bare"),
    ("expand", "--bound", "u"),
    ("expand", "--bound", "v"),
    ("prove", "--bound", "u"),
    ("prove", "--bound", "v"),
    ("prove", "--bound", "bare"),
    ("prove", "--bound", "v", "--variant", "as-written"),
    ("prove", "--bound", "u", "--format", "json"),
    ("prove", "--bound", "v", "--format", "json"),
    ("keller", "--symbolic"),
)

CLI_JOBS = {"gate": GATE, "certify": CERTIFY}


@dataclass
class Request:
    """One item: ``call`` does the work and returns what ``verify`` checks."""

    label: str
    call: Callable[[], Any]
    params: dict


class CliJob:
    """A fixed list of CLI invocations run in-process through ``cli.main``,
    each compared byte-for-byte with the stdout and exit code recorded
    from the seed commit."""

    def __init__(self, workload: str):
        from eulerbounds import cli

        self.cli = cli
        self.golden = []
        for entry in json.loads((GOLDEN_DIR / workload / "manifest.json").read_text()):
            data = (GOLDEN_DIR / workload / entry["stdout"]).read_bytes()
            self.golden.append((tuple(entry["argv"]), entry["exit"], data))
        if tuple(g[0] for g in self.golden) != CLI_JOBS[workload]:
            raise RuntimeError(f"golden manifest for {workload} does not match the job")

    def requests(self) -> list[Request]:
        return [Request(" ".join(argv), self._invoke(argv),
                        {"argv": list(argv), "exit": code, "stdout": data})
                for argv, code, data in self.golden]

    def _invoke(self, argv):
        def call():
            out = io.StringIO()
            code = self.cli.main(list(argv), out=out)
            return code, out.getvalue()
        return call

    def verify(self, request: Request, result) -> Optional[str]:
        code, text = result
        if code != request.params["exit"]:
            return f"exit code {code}, expected {request.params['exit']}"
        if text.encode() != request.params["stdout"]:
            return "stdout differs from the golden output"
        return None


# ---------------------------------------------------------------------------
# deep: seeded high-precision requests
# ---------------------------------------------------------------------------

BANDS = ((1, 2), (2, 100), (100, 10**4))
WIDTH_DIGITS = (40, 80, 120)
CHECK_DIGITS = 40
EULER_DIGITS = (150, 300)
TABLE_DIGITS = 60
TABLE_DECADES = ((10, 100), (100, 1000), (1000, 10**4 + 1))
POWERLAW_N = (200, 260)
GEOMETRIC_N = (300, 400)
MAX_DENOMINATOR = 16


class DeepJob:
    """Seeded requests where operand size, not call count, sets the cost.

    Each pass draws one point n = p/q (q <= 16) per n-band and target
    width.  No (n, width) pair repeats within a run until a cell runs out
    of candidates, so caches help little.  The cells that dominate a
    pass's cost draw from narrowed ranges, so that a pass costs about the
    same whatever the seed (see ``_random_point``).
    """

    def __init__(self, seed: int):
        from eulerbounds import carleman, enclosure, keller

        self.enc, self.kel, self.carl = enclosure, keller, carleman
        self.rng = random.Random(seed)
        self.seen: dict[tuple[int, int], set[Fraction]] = {}

    def _random_point(self, band: int, digits: int) -> Fraction:
        """A random n for (band, width).

        At widths 1e-80 and 1e-120 the cost of one enclosure varies by 3x
        with the denominator and with where n sits in [1, 2), enough to
        make pass times depend more on the seed than on the code.  So
        there n has denominator exactly 16, and in [1, 2) the two widths
        split the band: 1e-80 takes [1, 3/2), 1e-120 takes [3/2, 2).
        At 1e-40 the denominator is any q <= 16, over the whole band.
        """
        lo, hi = BANDS[band]
        if digits == WIDTH_DIGITS[0]:
            q = self.rng.randint(1, MAX_DENOMINATOR)
            closed = band == len(BANDS) - 1  # the last band includes 10^4
            return Fraction(self.rng.randrange(lo * q, hi * q + closed), q)
        q = MAX_DENOMINATOR
        if band == 0:
            lo, hi = (1, Fraction(3, 2)) if digits == WIDTH_DIGITS[1] else (Fraction(3, 2), 2)
        odd = self.rng.randrange(int(lo * q) // 2, int(hi * q) // 2)
        return Fraction(2 * odd + 1, q)

    def _draw_point(self, band: int, digits: int) -> Fraction:
        """A point the (band, width) cell has not handed out in this run;
        a cell whose few candidates are all used starts over."""
        seen = self.seen.setdefault((band, digits), set())
        for _ in range(64):
            n = self._random_point(band, digits)
            if n not in seen:
                break
        else:
            seen.clear()
        seen.add(n)
        return n

    def requests(self) -> list[Request]:
        rng, enc, kel, carl = self.rng, self.enc, self.kel, self.carl
        out: list[Request] = []
        points = []
        for band in range(len(BANDS)):
            for digits in WIDTH_DIGITS:
                n = self._draw_point(band, digits)
                points.append(n)
                width = Fraction(1, 10**digits)
                out.append(Request(
                    f"normalized_euler_interval({n}, 1e-{digits})",
                    lambda n=n, w=width: enc.normalized_euler_interval(n, w),
                    {"kind": "normalized", "n": n, "digits": digits}))
        check_width = Fraction(1, 10**CHECK_DIGITS)
        for n in points:
            out.append(Request(
                f"check_certified_at({n}, 1e-{CHECK_DIGITS})",
                lambda n=n: enc.check_certified_at(n, width=check_width),
                {"kind": "check", "n": n}))
        for digits in EULER_DIGITS:
            out.append(Request(
                f"euler_number_interval(1e-{digits})",
                lambda w=Fraction(1, 10**digits): enc.euler_number_interval(w),
                {"kind": "euler", "digits": digits}))
        ns = [rng.randrange(lo, hi) for lo, hi in TABLE_DECADES]
        out.append(Request(
            f"convergence_table({ns}, 1e-{TABLE_DIGITS})",
            lambda: kel.convergence_table(ns, Fraction(1, 10**TABLE_DIGITS)),
            {"kind": "table", "ns": ns, "digits": TABLE_DIGITS}))
        # One uniform draw sets both sums' sizes in opposite directions, so
        # the two largest non-enclosure items balance within a pass.
        u = rng.random()
        n_pow = POWERLAW_N[0] + round(u * (POWERLAW_N[1] - POWERLAW_N[0]))
        n_geo = GEOMETRIC_N[1] - round(u * (GEOMETRIC_N[1] - GEOMETRIC_N[0]))
        ratio = Fraction(rng.randint(1, MAX_DENOMINATOR - 1), MAX_DENOMINATOR)
        seq_pow = carl.TestSequence.power_law(2)
        refined = carl.WeightScheme.refined()
        seq_geo = carl.TestSequence.geometric(ratio)
        polya = carl.WeightScheme.polya()
        out.append(Request(
            f"carleman_sums(powerlaw(2), refined, N={n_pow})",
            lambda: carl.carleman_sums(seq_pow, refined, n_pow),
            {"kind": "carleman", "seq": ("powerlaw", 2), "scheme": "refined", "N": n_pow}))
        out.append(Request(
            f"carleman_sums(geometric({ratio}), polya, N={n_geo})",
            lambda: carl.carleman_sums(seq_geo, polya, n_geo),
            {"kind": "carleman", "seq": ("geometric", ratio), "scheme": "polya", "N": n_geo}))
        return out

    def verify(self, request: Request, result) -> Optional[str]:
        from oracle import check_deep

        return check_deep(request.params, result)


def make_job(workload: str, seed: int):
    if workload in CLI_JOBS:
        return CliJob(workload)
    if workload == "deep":
        return DeepJob(seed)
    raise ValueError(f"unknown workload {workload!r}")
