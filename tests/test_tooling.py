"""Repository checks: no floating point in the library, no public library
code that only the tests use, no library module importing another's
private names, rational functions only in algebra and the prover, one
reader of the integer digit limit and no hand-sized thresholds, a CLI
modes table that agrees with the parser, and the benchmark tracer still
finds every name it wraps."""

import argparse
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


def private_imports(path: Path) -> list[str]:
    """Every underscore name one source file imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "eulerbounds"):
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_private_names_imported_across_library_modules(path):
    assert private_imports(path) == []


def test_private_import_scan_sees_package_imports_only(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from __future__ import annotations\nfrom os import _exit\n"
                      "from .enclosure import _kernel, public\n"
                      "from eulerbounds.series import _horner\nfrom . import _module\n")
    assert private_imports(sample) == [
        "sample.py:3: _kernel", "sample.py:4: _horner", "sample.py:5: _module"]


def name_uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) for every name, attribute, imported name and
    identifier-like string literal in a tree; the benchmark tracer names
    its targets by string."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses.extend((alias.name, node.lineno) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            uses.append((node.value, node.lineno))
    return uses


def public_definitions(tree: ast.Module):
    """(name, first line, last line) of every public top-level function,
    class and constant, and of every public method or property of a public
    class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def unreferenced_public_names(modules: list[Path], others: list[Path]) -> list[str]:
    """Public definitions of ``modules`` that nothing references: not their
    own module outside their definition, not another of ``modules``, not
    one of ``others``.  A method counts as used when any attribute of its
    name is read."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in modules + others}
    uses = {path: name_uses(tree) for path, tree in trees.items()}
    found = []
    for path in modules:
        for name, first, last in public_definitions(trees[path]):
            used = any(used_name == name and not (where == path and first <= line <= last)
                       for where, items in uses.items() for used_name, line in items)
            if not used:
                found.append(f"{path.name}:{name}")
    return found


def test_no_public_library_code_only_the_tests_use():
    modules = [p for p in LIBRARY if p.name != "__init__.py"]
    perfbench = sorted((ROOT / "perfbench").glob("*.py"))
    assert unreferenced_public_names(modules, perfbench) == []


def test_only_the_tracer_keeps_epsilon_term_alive():
    # with perfbench/ left out, the library's own callers alone: a new name
    # that only the benchmark tracer binds shows up here
    modules = [p for p in LIBRARY if p.name != "__init__.py"]
    assert unreferenced_public_names(modules, []) == ["carleman.py:epsilon_term"]


def test_reference_scan_sees_uses_outside_the_definition(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n"
                   "def only_recursive():\n    return only_recursive()\n\n"
                   "def named_by_string():\n    pass\n\n"
                   "class Unused:\n    pass\n\n"
                   "class Kept:\n"
                   "    def called(self):\n        return self.property_read\n\n"
                   "    @property\n    def property_read(self):\n        return 1\n\n"
                   "    def dead_method(self):\n        return self.dead_method()\n\n"
                   "    def _private(self):\n        pass\n\n"
                   "class _Hidden:\n    def hook(self):\n        pass\n\n"
                   "def _private():\n    pass\n\n"
                   "VALUE = used()\n"
                   "LIMIT: int = 3\n"
                   "_INTERNAL = 4\n")
    other = tmp_path / "other.py"
    other.write_text("getattr(lib, 'named_by_string')\nlib.Kept().called()\n"
                     "print(lib.VALUE)\n")
    assert unreferenced_public_names([lib], [other]) == [
        "lib.py:only_recursive", "lib.py:Unused", "lib.py:dead_method", "lib.py:LIMIT"]


def test_ratfunc_serves_only_the_prover():
    # every proof obligation but f'' reads the bound's integer P and Q;
    # the rational-function field stays behind algebra and the prover
    users = {path.name for path in LIBRARY
             if any(name == "RatFunc" for name, _ in name_uses(ast.parse(path.read_text())))}
    assert users == {"algebra.py", "prover.py"}


def test_the_cli_renders_what_the_library_computes():
    # a CLI that names no polynomial, interval or width can only print
    # what a library call returned, not recompute it beside the library
    cli = ROOT / "src" / "eulerbounds" / "cli.py"
    names = {name for name, _ in name_uses(ast.parse(cli.read_text()))}
    assert names.isdisjoint({"Poly", "RatInterval", "DEFAULT_WIDTH"})


def limit_readers(path: Path) -> list[str]:
    """"file:owner" for every use of get_int_max_str_digits in one source
    file, owner the enclosing top-level function or class, or <module>."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(node, "name", "<module>")
        found += [f"{path.name}:{owner}" for name, _ in name_uses(node)
                  if name == "get_int_max_str_digits"]
    return found


def test_only_printable_reads_the_digit_limit():
    # every size refusal asks cli.printable, so the limit has one reader
    assert [found for path in LIBRARY for found in limit_readers(path)] == [
        "cli.py:printable"]


def large_constants(path: Path) -> list[str]:
    """Every integer literal above 10^100, and every power with a literal
    exponent above 100, in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value > 10**100:
            found.append(f"{path.name}:{node.lineno}: literal")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.Constant) and type(node.right.value) is int
              and node.right.value > 100):
            found.append(f"{path.name}:{node.lineno}: **{node.right.value}")
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_hand_sized_thresholds_in_the_library(path):
    # size thresholds are derived from the polynomials and the digit limit
    assert large_constants(path) == []


def test_large_constant_scan_sees_literals_and_powers(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(f"a = {10**101}\nb = 10**612\nc = 10**100\nd = 2**64\ne = x**200\n")
    assert [f.split(": ")[1] for f in large_constants(sample)] == [
        "literal", "**612", "**200"]


def command_parsers() -> dict[str, argparse.ArgumentParser]:
    from eulerbounds import cli
    return next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def modes_table_mismatches(modes: dict) -> list[str]:
    """Every flag, selecting value, format and bound of a MODES-shaped table
    that its command's parser does not define; an unread flag must default
    to None, or its presence could not be seen."""
    found = []
    parsers = command_parsers()
    for command, rows in modes.items():
        actions = {action.dest: action for action in parsers[command]._actions}
        for flag, values, unread, fmt, bound, *_ in rows:
            action = actions.get(flag)
            allowed = (set() if action is None else
                       {str(v) for v in (*(action.choices or [action.const]), action.default)})
            found += [f"{command} --{flag} {v}" for v in values.split() if v not in allowed]
            found += [f"{command} unread --{f}" for f in unread.split()
                      if f not in actions or actions[f].default is not None]
            if fmt and fmt not in actions["format"].choices:
                found.append(f"{command} format {fmt}")
            if bound:
                other, op, limit = bound.split()
                if other[2:] not in actions or op not in (">=", "<=") or not limit.isdigit():
                    found.append(f"{command} bound {bound}")
    return found


def test_modes_table_names_what_the_parser_defines():
    from eulerbounds import cli
    assert modes_table_mismatches(cli.MODES) == []


def test_modes_scan_sees_misspelt_entries():
    rows = [("mode", "chian", "seq", "text", "--N <= 5"), ("mode", "polya", "sequence", "", ""),
            ("mode", "sums", "N", "json", "--M <= 5"), ("exact", "True", "", "", ""),
            ("bound", "None", "variant", "", "")]
    assert modes_table_mismatches({"carleman": rows[:3], "keller": rows[3:4],
                                   "prove": rows[4:]}) == [
        "carleman --mode chian", "carleman unread --sequence", "carleman unread --N",
        "carleman format json", "carleman bound --M <= 5", "prove --bound None"]


def args_reads(function: ast.FunctionDef) -> set[str]:
    """The attributes read off ``args`` in one function."""
    return {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_each_command_reads_exactly_the_flags_its_parser_defines():
    # a flag nothing reads would be silently ignored; the handler's helpers
    # that take ``args`` (such as _bound) read for it
    tree = ast.parse((ROOT / "src" / "eulerbounds" / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    helpers = {name for name, f in functions.items()
               if f.args.args and f.args.args[0].arg == "args"}
    for command, parser in command_parsers().items():
        handler = functions[parser.get_default("fn").__name__]
        called = helpers & {node.func.id for node in ast.walk(handler)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        reads = args_reads(handler).union(*(args_reads(functions[name]) for name in called))
        flags = {action.dest for action in parser._actions if action.dest != "help"}
        assert reads == flags, command


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores():
    tracer_module = load_tracer()
    from eulerbounds import enclosure

    # every layer the tracer patches, so that its restore is checked on all
    for layer in tracer_module.LAYERS:
        importlib.import_module(f"eulerbounds.{layer}")
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
