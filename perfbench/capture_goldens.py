"""Record the stdout bytes and exit code of every ``gate`` and ``certify``
command as the reference the benchmark compares each pass against.

Run from the repository root:  python3 perfbench/capture_goldens.py

Each command runs in a fresh interpreter through ``python -m eulerbounds``.
Existing goldens are never overwritten: a difference from them is a change
in behaviour to be explained, not a file to regenerate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from jobs import CLI_JOBS, GOLDEN_DIR  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def capture(workload: str, argvs) -> None:
    target = GOLDEN_DIR / workload
    if target.exists():
        print(f"{target} exists; not overwriting", file=sys.stderr)
        return
    target.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    manifest = []
    for i, argv in enumerate(argvs):
        proc = subprocess.run([sys.executable, "-m", "eulerbounds", *argv],
                              cwd=ROOT, env=env, capture_output=True, check=False)
        if proc.stderr:
            raise SystemExit(f"{' '.join(argv)} wrote to stderr:\n{proc.stderr.decode()}")
        name = f"{i:02d}.out"
        (target / name).write_bytes(proc.stdout)
        manifest.append({"argv": list(argv), "exit": proc.returncode, "stdout": name})
        print(f"{workload} {' '.join(argv)}: exit {proc.returncode}, "
              f"{len(proc.stdout)} bytes")
    (target / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    for workload, argvs in CLI_JOBS.items():
        capture(workload, argvs)
