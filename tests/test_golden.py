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
