"""Repository checks: no floating point in the library, and the benchmark
tracer still finds every name it wraps."""

import ast
import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "eulerbounds").glob("*.py"))


def float_uses(path: Path) -> list[str]:
    """Every float() call and float or complex literal in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            found.append(f"{path.name}:{node.lineno}: float()")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_floating_point_in_the_library(path):
    assert float_uses(path) == []


def test_float_scan_sees_calls_and_literals(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x = float(1)\ny = 0.5\nz = 2j\nw = 3\n")
    assert [f.split(": ")[1] for f in float_uses(sample)] == [
        "float()", "literal 0.5", "literal 2j"]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores():
    tracer_module = load_tracer()
    from eulerbounds import enclosure

    owners = [m for k, m in sys.modules.items() if k.split(".")[0] == "eulerbounds"]
    owners += [getattr(sys.modules[f"eulerbounds.{mod}"], cls)
               for _, mod, cls, _, _ in tracer_module.METHODS]
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        enclosure.euler_number_interval(F(1, 10**8))
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["enclosure.euler_number_interval"]
    for owner, attrs in before:
        assert all(vars(owner)[key] is value for key, value in attrs.items()), owner
