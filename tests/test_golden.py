"""Every ``gate`` and ``certify`` command of the benchmark, run in process,
against the stdout bytes and exit code recorded in ``perfbench/golden``.
The golden files are only read."""

import io
import json
from pathlib import Path

import pytest

from eulerbounds.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def golden_cases():
    for workload in ("gate", "certify"):
        for entry in json.loads((GOLDEN / workload / "manifest.json").read_text()):
            yield pytest.param(entry["argv"], entry["exit"],
                               GOLDEN / workload / entry["stdout"],
                               id=f"{workload}:{' '.join(entry['argv'])}")


@pytest.mark.parametrize("argv, code, stdout", golden_cases())
def test_matches_the_golden_output(argv, code, stdout):
    out = io.StringIO()
    assert main(list(argv), out=out) == code
    assert out.getvalue().encode() == stdout.read_bytes()


@pytest.mark.parametrize("argv, code, stdout",
                         [case for case in golden_cases() if case.id.startswith("gate:")])
def test_gate_output_is_unchanged_at_the_lowest_digit_limit(argv, code, stdout, digit_limit):
    # the longest integer these print has 461 digits: a limit of 640, the
    # lowest the interpreter takes, must refuse none of them
    digit_limit(640)
    out = io.StringIO()
    assert main(list(argv), out=out) == code
    assert out.getvalue().encode() == stdout.read_bytes()
