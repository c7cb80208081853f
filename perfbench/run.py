"""eulerbounds benchmark: the ``gate``, ``certify`` and ``deep`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload gate --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

One process, one thread, a closed loop with one caller: each item (a CLI
invocation through ``eulerbounds.cli.main``, or one library call) starts
only after the previous one returned.  Passes of the workload's job repeat
until the next pass would end past ``--seconds``; at least one pass runs.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported.  With ``--trace 1`` the first half of the time runs untraced
passes and the second half traced ones (see ``tracer.py``); the per-layer
metrics are medians over the traced passes, and the tracing overhead is
traced ``wall_s`` over untraced ``wall_s``.  The spans of the last traced
pass are written to ``perfbench/out/``.

Every output is checked after the timed passes: ``gate`` and ``certify``
against the goldens recorded from the seed commit, ``deep`` against an
mpmath oracle.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("gate", "certify", "deep")
SETUP_REPEATS = 6  # before the timed passes, and again after them
SETUP_CODE = "import eulerbounds.cli as cli; cli.build_parser()"
MAX_REPORTED_FAILURES = 5


def percentile(samples: list[float], q: float) -> float:
    """The sample at rank ceil(q (n - 1)), counting from 0: an observed
    value, never an interpolation between two item kinds."""
    ordered = sorted(samples)
    return ordered[math.ceil(q * (len(ordered) - 1))]


def measure_setup() -> list[float]:
    """Times from a fresh interpreter to eulerbounds.cli imported and its
    parser built, one per fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_pass(job, tracer):
    """One pass: (wall seconds, [(request, result, error, seconds)])."""
    records = []
    start = time.perf_counter()
    for request in job.requests():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = request.call()
            else:
                result = tracer.item(request.label, request.call)
            error = None
        except Exception:  # one failed item must not stop the run
            result, error = None, traceback.format_exc()
        records.append((request, result, error, time.perf_counter() - t0))
    return time.perf_counter() - start, records


def run_phase(job, budget: float, tracer=None, on_pass=None):
    walls, records = [], []
    start = time.perf_counter()
    while True:
        wall, recs = run_pass(job, tracer)
        walls.append(wall)
        records.extend(recs)
        if on_pass is not None:
            on_pass()
        if time.perf_counter() - start + wall > budget:
            return walls, records


def verify(job, records) -> int:
    failed = 0
    for request, result, error, _ in records:
        if error is None:
            error = job.verify(request, result)
        if error is not None:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {request.label}: {error}", file=sys.stderr)
    return failed


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_lines(metrics: dict, units: dict) -> list[str]:
    return [f"  {name:48s} {metrics[name]:.6g} {unit}" for name, unit in units.items()]


def emit(lines: list[str], correct: bool, attempted: int, failed: int,
         metrics: dict, spec_entries: list[dict]) -> None:
    """Print the report, then the result line with the metrics BENCHMARK.json lists."""
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                                  for e in spec_entries}}))


def bench(workload: str, seed: int, seconds: float, trace: bool) -> None:
    from jobs import make_job

    spec = load_spec()
    job = make_job(workload, seed)
    header = [f"workload {workload} seed {seed} trace {int(trace)}"]

    if not trace:
        setup_times = measure_setup()
        walls, records = run_phase(job, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Set-up samples on both sides of the passes see more of the
        # machine's speed swings than a burst at one end would.
        setup_s = statistics.median(setup_times + measure_setup())
        failed = verify(job, records)
        items_ms = [rec[3] * 1e3 for rec in records]
        metrics = {"wall_s": statistics.median(walls),
                   "item_p50_ms": percentile(items_ms, 0.5),
                   "item_p90_ms": percentile(items_ms, 0.9),
                   "peak_rss_mb": peak_rss_mb,
                   "setup_s": setup_s,
                   "error_rate": failed / len(records)}
        header.append(f"  passes {len(walls)}, items {len(records)}, {failed} failed")
        header += metric_lines(metrics, {"wall_s": "s", "item_p50_ms": "ms",
                                         "item_p90_ms": "ms", "peak_rss_mb": "MB",
                                         "setup_s": "s", "error_rate": "ratio"})
        emit(header, failed == 0, len(records), failed, metrics, spec["end_to_end"])
        return

    from tracer import Tracer, known_metrics, layer_metrics

    unknown = [e["name"] for e in spec["per_layer"] if e["name"] not in known_metrics()]
    if unknown:
        raise SystemExit(f"BENCHMARK.json names unknown per-layer metrics: {unknown}")
    plain_walls, plain_records = run_phase(job, seconds / 2)
    tracer = Tracer()
    per_pass: list[dict] = []
    last_spans: list = []

    def collect():
        nonlocal last_spans
        last_spans = tracer.reset()
        per_pass.append(layer_metrics(last_spans))

    tracer.install()
    try:
        traced_walls, traced_records = run_phase(job, seconds / 2, tracer, collect)
    finally:
        tracer.uninstall()
    records = plain_records + traced_records
    failed = verify(job, records)
    metrics = {name: statistics.median(m.get(name, 0) for m in per_pass)
               for name in known_metrics()}
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls))
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    Tracer.write(last_spans, spans_path)
    header.append(f"  passes {len(plain_walls)} untraced + {len(traced_walls)} traced, "
                  f"items {len(records)}, {failed} failed, "
                  f"error_rate {failed / len(records):.6g} ratio")
    header.append(f"  untraced wall_s {statistics.median(plain_walls):.6g} s, "
                  f"traced wall_s {metrics['trace.wall_s']:.6g} s, "
                  f"overhead {metrics['trace.overhead_ratio']:.4f}x")
    header.append(f"  spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    if workload == "gate":
        header.extend(sanity_gate(metrics))
    header += metric_lines(metrics, {e["name"]: e["unit"] for e in spec["per_layer"]})
    emit(header, failed == 0, len(records), failed, metrics, spec["per_layer"])


def sanity_gate(m: dict) -> list[str]:
    """The shape of the one-shot timings the roadmap reports for the gate."""
    others = sum(v for k, v in m.items() if k.startswith("verify.") and k.endswith(".s")
                 and k != "verify.weight-chains.s")
    checks = [
        ("verify.weight-chains.s dominates the other nine checks together",
         m["verify.weight-chains.s"] > others),
        ("normalized_euler_interval runs at least 10^4 times",
         m["enclosure.normalized_euler_interval.calls"] >= 10**4),
        ("upper prove_bound costs about twice lower (1.5x to 3x)",
         1.5 <= m["prover.prove_bound.upper_over_lower"] <= 3),
    ]
    return [f"  sanity {'ok' if ok else 'NOT MET'}: {text}" for text, ok in checks]


def bench_all(seed: int, seconds: float, trace: bool) -> None:
    """Each workload in its own process, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eulerbounds" / "__init__.py").is_file():
        print(f"no eulerbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        bench_all(args.seed, args.seconds, bool(args.trace))
    else:
        bench(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
