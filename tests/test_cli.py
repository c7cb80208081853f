"""Command line behaviour: dispatch, exit codes, formats, determinism."""

import importlib
import io
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eulerbounds
from eulerbounds import carleman, cli, enclosure, keller, verify
from eulerbounds.algebra import Poly
from eulerbounds.carleman import TestSequence, WeightScheme, carleman_sums
from eulerbounds.cli import (EXIT_FAIL, EXIT_OK, EXIT_UNDECIDED, EXIT_USAGE,
                             dec_ceil, dec_floor, dec_trunc, index_range, main)
from eulerbounds.enclosure import RatInterval, RefinementExhausted
from eulerbounds.series import Variant
from fractions import Fraction as F


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestRendering:
    def test_truncation_toward_zero(self):
        assert dec_trunc(F(1, 24), 6) == "0.041666"
        assert dec_trunc(F(-5, 288), 6) == "-0.017361"

    def test_outward_rounding(self):
        assert dec_floor(F(1, 3), 3) == "0.333"
        assert dec_ceil(F(1, 3), 3) == "0.334"
        assert dec_floor(F(-1, 3), 3) == "-0.334"
        assert dec_ceil(F(-1, 3), 3) == "-0.333"

    def test_exact_values_round_cleanly(self):
        assert dec_floor(F(1, 4), 2) == dec_ceil(F(1, 4), 2) == "0.25"

    def test_parse_indices(self):
        index = index_range(1)
        assert ([n for item in ["3", "7", "10..12"] for n in index(item)]
                == [3, 7, 10, 11, 12])


class TestCommands:
    def test_optimize(self):
        code, out = run("optimize")
        assert code == EXIT_OK
        assert "a = 5/12" in out and "b = 11/12" in out
        assert "-5/288" in out

    def test_expand_symbolic(self):
        code, out = run("expand", "--order", "3")
        assert code == EXIT_OK
        assert "t^1" in out and "-1/2" in out

    def test_expand_gap(self):
        code, out = run("expand", "--bound", "bare", "--order", "6")
        assert code == EXIT_OK
        assert "t^3: -5/288" in out and "t^4: 343/8640" in out

    def test_prove_lower(self):
        code, out = run("prove", "--bound", "u")
        assert code == EXIT_OK
        assert "conclusion: proven" in out
        assert out.count(": match") == 3

    def test_prove_as_written_refuted(self):
        code, out = run("prove", "--bound", "v", "--variant", "as-written")
        assert code == EXIT_FAIL
        assert "witness: x = 1/1" in out

    def test_prove_dedup_proven(self):
        code, out = run("prove", "--bound", "v", "--variant", "dedup")
        assert code == EXIT_OK

    @pytest.mark.parametrize("bound, side", [("u", "upper"), ("v", "lower")])
    def test_prove_opposite_side_keeps_the_bound_tables(self, bound, side):
        # the published tables belong to the bound, whatever side it is
        # claimed for; both claims are refuted at x = 1
        import json

        code, out = run("prove", "--bound", bound, "--side", side)
        assert code == EXIT_FAIL
        assert "conclusion: refuted" in out
        assert out.count(": match") == 3
        code, out = run("prove", "--bound", bound, "--side", side, "--format", "json")
        assert code == EXIT_FAIL
        assert list(json.loads(out)["reference_matches"].values()) == [True] * 3

    def test_check_classic(self):
        code, out = run("check", "--target", "classic", "--n", "1..5")
        assert code == EXIT_OK
        assert out.count("holds") == 5

    def test_check_certified_as_written_fails(self):
        code, out = run("check", "--n", "1", "--variant", "as-written")
        assert code == EXIT_FAIL
        assert "fails(upper)" in out

    def test_keller_table(self):
        code, out = run("keller", "--n", "10", "--width", "1e-8")
        assert code == EXIT_OK
        assert "contained=yes" in out

    def test_keller_csv(self):
        code, out = run("keller", "--n", "10", "20", "--width", "1e-8",
                        "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,lo,hi,sandwich_lo,sandwich_hi,target"
        assert len(lines) == 3

    def test_keller_exact_csv(self):
        code, out = run("keller", "--n", "10", "--width", "1e-8",
                        "--format", "csv", "--exact")
        assert code == EXIT_OK
        assert "/" in out.splitlines()[1]

    def test_keller_json(self):
        import json

        code, out = run("keller", "--n", "10", "--width", "1e-8",
                        "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload[0]["n"] == 10 and payload[0]["contained"] is True

    def test_prove_json(self):
        import json

        code, out = run("prove", "--bound", "v", "--variant", "as-written",
                        "--format", "json")
        assert code == EXIT_FAIL
        payload = json.loads(out)
        assert payload["conclusion"] == "refuted"
        assert payload["witness"]["x"] == "1/1"
        assert payload["reference_matches"] == {
            "bound numerator (cleared)": False,
            "second-derivative denominator structure": False,
            "certificate shifted numerator": False,
        }

    def test_check_json(self):
        import json

        code, out = run("check", "--target", "classic", "--n", "2",
                        "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload[0]["status"] == "holds"
        assert payload[0]["lower"] == "4/5" and payload[0]["upper"] == "5/6"

    def test_keller_symbolic(self):
        code, out = run("keller", "--symbolic")
        assert code == EXIT_OK
        assert "rate = 1/24" in out
        assert "2508226560" in out and "104509440" in out

    def test_carleman_sums(self):
        code, out = run("carleman", "--mode", "sums", "--seq", "geometric:1/2",
                        "--scheme", "refined", "--N", "40")
        assert code == EXIT_OK
        assert "lhs <= rhs rigorously: yes" in out

    def test_carleman_sums_csv(self):
        code, out = run("carleman", "--mode", "sums", "--N", "5",
                        "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,a_n,lhs_term_lo")
        assert lines[-1].startswith("total,")

    def test_carleman_chain(self):
        code, out = run("carleman", "--mode", "chain", "--N", "50")
        assert code == EXIT_OK
        assert "non-improving indices (eps_n <= 0): [1]" in out
        assert "passed" in out

    def test_carleman_chain_as_written(self):
        code, out = run("carleman", "--mode", "chain", "--N", "3",
                        "--variant", "as-written")
        assert code == EXIT_FAIL
        assert "first failure at n=1" in out

    def test_carleman_polya(self):
        code, out = run("carleman", "--mode", "polya", "--N", "3")
        assert code == EXIT_OK
        assert "= 4/1" in out and "= 1/3" in out

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_keller_overlap_is_undecided_in_every_format(self, fmt):
        # at width 1e-20 the rate enclosure (~1e-24 wide) overlaps the
        # ~1e-28-wide sandwich at n = 10^9 without fitting inside it
        code, out = run("keller", "--n", "1000000000", "--format", fmt)
        assert code == EXIT_UNDECIDED
        if fmt == "text":
            assert "contained=undecided" in out

    def test_keller_narrow_width_decides_containment(self):
        code, out = run("keller", "--n", "1000000000", "--width", "1e-30")
        assert code == EXIT_OK
        assert "contained=yes" in out

    def test_keller_json_names_each_row_outcome(self):
        import json

        code, out = run("keller", "--n", "1000000000", "--format", "json")
        assert code == EXIT_UNDECIDED
        [row] = json.loads(out)
        assert row["outcome"] == "undecided" and row["contained"] is False
        code, out = run("keller", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [10, 100, 1000]
        assert all(row["outcome"] == "contained" and row["contained"] for row in rows)

    def test_inverted_as_written_sandwich_fails_cleanly(self, capsys):
        code, _ = run("keller", "--n", "5", "--variant", "as-written",
                      "--width", "1e-8")
        assert code == EXIT_FAIL
        assert "out of order" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("argv", [("--help",), ("-h",), ("carleman", "--help"),
                                      ("verify-all", "-h")])
    def test_help_is_written_to_out_and_exits_0(self, argv, monkeypatch, capsys):
        with monkeypatch.context() as m:  # argparse's own help: stdout, then exit 0
            m.delattr(cli._Parser, "print_help")
            with pytest.raises(SystemExit, match="^0$"):
                cli.build_parser().parse_args(argv)
        expected = capsys.readouterr().out
        assert expected.startswith("usage: ")
        assert run(*argv) == (EXIT_OK, expected)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("command", ["expand", "prove", "check", "keller", "carleman"])
    def test_variant_choices_are_the_variants(self, command):
        # the parser lists them literally so that start-up loads no series
        choices = "{" + ",".join(v.value for v in Variant) + "}"
        assert f"--variant {choices}\n" in run(command, "--help")[1]


class TestCarlemanBytes:
    """Printed sums, pinned byte for byte."""

    @pytest.mark.parametrize("argv, expected", [
        (("carleman", "--seq", "geometric:9/10", "--scheme", "polya", "--N", "5"),
         "sequence geometric(9/10), scheme polya, N=5\n"
         "lhs  = [4.061248439666, 4.061248439667]\n"
         "rhs  = [8.421634717425, 8.421634717425]\n"
         "lhs <= rhs rigorously: yes\n"),
        (("carleman", "--seq", "powerlaw:2", "--N", "200"),
         "sequence powerlaw(2), scheme refined(dedup), N=200\n"
         "lhs  = [3.060565323241, 3.060565323242]\n"
         "rhs  = [3.670492072621, 3.670492072622]\n"
         "lhs <= rhs rigorously: yes\n"),
        # the exact sum 2/3 + 1/3 = 1 comes from inexact decimal terms, so
        # the Polya bracket shows one unit of the last digit on each side
        (("carleman", "--seq", "custom:1/3,4/27", "--scheme", "polya", "--N", "2"),
         "sequence custom[2], scheme polya, N=2\n"
         "lhs  = [0.555555555555, 0.555555555556]\n"
         "rhs  = [0.999999999999, 1.000000000001]\n"
         "lhs <= rhs rigorously: yes\n"),
    ])
    def test_text_output(self, argv, expected):
        assert run(*argv) == (EXIT_OK, expected)

    def test_polya_csv_total(self):
        code, out = run("carleman", "--seq", "geometric:7/16", "--scheme", "polya",
                        "--N", "350", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            "total,,1.292229421595,1.292229421596,1.665130214055,1.665130214056")

    def test_csv_encloses_each_mean_once(self, monkeypatch):
        calls = []
        enclose = TestSequence.geometric_mean_enclosure
        monkeypatch.setattr(TestSequence, "geometric_mean_enclosure",
                            lambda seq, n, width: calls.append(n) or enclose(seq, n, width))
        code, out = run("carleman", "--seq", "powerlaw:2", "--N", "20", "--format", "csv")
        assert code == EXIT_OK and len(out.splitlines()) == 22
        assert calls == list(range(1, 21))

    def test_polya_bracket_around_an_exact_one(self):
        seq = TestSequence.custom([F(1, 3), F(4, 27)])
        lhs, rhs = carleman_sums(seq, WeightScheme.polya(), 2)
        assert rhs.lo < 1 < rhs.hi
        assert lhs == RatInterval.point(F(5, 9))
        assert lhs.hi <= rhs.lo


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("keller", "--n", "10", "50", "--width", "1e-10", "--format", "csv"),
        ("expand", "--bound", "u", "--order", "8"),
        ("prove", "--bound", "v", "--variant", "as-written"),
        ("carleman", "--mode", "sums", "--seq", "powerlaw:2", "--N", "25"),
    ])
    def test_repeat_runs_byte_identical(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second

    def test_no_parse_state_leaks_between_calls(self):
        first = run("check", "--n", "3")
        run("check", "--n", "1", "2", "--target", "classic", "--format", "json",
            "--digits", "5", "--width", "1e-8")
        run("keller", "--n", "10", "--width", "1e-8", "--format", "csv", "--exact")
        run("carleman", "--mode", "polya", "--N", "4", "--variant", "as-written")
        run("nonsense")
        assert run("check", "--n", "3") == first
        assert run("check") == run("check", "--n", "1..20")


def fresh_python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this checkout's
    eulerbounds; outlasting the timeout fails the test instead of hanging it."""
    src = str(Path(eulerbounds.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=src))


def test_only_the_csv_formats_load_csv():
    code = ("import io, sys; from eulerbounds import cli; "
            "cli.main(['check', '--n', '2'], out=io.StringIO()); before = 'csv' in sys.modules; "
            "cli.main(['keller', '--n', '10', '--format', 'csv'], out=io.StringIO()); "
            "print(before, 'csv' in sys.modules)")
    assert fresh_python("-c", code).stdout == "False True\n"


def test_verify_all_loads_no_process_pool_or_pickle():
    code = ("import io, sys; from eulerbounds import cli, verify; "
            "verify.usable_cpus = lambda: 2; "
            "print(cli.main(['verify-all'], out=io.StringIO()), *[m for m in "
            "('multiprocessing', 'concurrent.futures', 'pickle') if m in sys.modules])")
    assert fresh_python("-c", code).stdout == "0\n"


def loaded_package_modules(code: str) -> list[str]:
    """The eulerbounds modules a new interpreter holds after running ``code``."""
    proc = fresh_python("-c", code + "; import sys; print(*sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'eulerbounds'))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_start_up_loads_no_library_layer():
    assert loaded_package_modules("import eulerbounds.cli as cli; cli.build_parser()") == [
        "eulerbounds", "eulerbounds.cli"]


SYMBOLIC = ["algebra", "series"]


@pytest.mark.parametrize("argv, layers", [
    (["optimize"], SYMBOLIC),
    (["expand"], SYMBOLIC),
    (["check"], SYMBOLIC + ["enclosure"]),
    (["prove"], SYMBOLIC + ["enclosure", "prover"]),
    (["keller"], SYMBOLIC + ["enclosure", "keller"]),
    (["carleman"], SYMBOLIC + ["enclosure", "carleman"]),
    (["verify-all"], SYMBOLIC + ["enclosure", "prover", "keller", "carleman", "verify"]),
    # refused while parsing: only a --seq value, parsed first, loads a layer
    (["carleman", "--N", "0"], []),
    (["carleman", "--seq", "geometric:1/2", "--N", "0"], SYMBOLIC + ["enclosure", "carleman"]),
], ids=" ".join)
def test_each_command_loads_only_its_layers(argv, layers):
    code = f"import io; from eulerbounds import cli; cli.main({argv}, out=io.StringIO())"
    assert loaded_package_modules(code) == sorted(
        ["eulerbounds", "eulerbounds.cli"] + [f"eulerbounds.{m}" for m in layers])


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("nonsense",),
        ("check", "--n", "0"),
        ("check", "--n", "abc"),
        ("check", "--width", "bogus", "--n", "1"),
        ("keller", "--n", "1"),
        ("carleman", "--mode", "sums", "--seq", "geometric:2"),
        ("carleman", "--mode", "sums", "--seq", "unknown:1"),
        ("expand", "--order", "2"),
        ("carleman", "--N", "0"),
        ("keller", "--width", "0"),
        ("keller", "--width", "-1"),
        ("carleman", "--seq", "custom:1,2,3", "--N", "5"),
        ("verify-all", "--digits", "5"),
        ("optimize", "--variant", "dedup"),
        ("prove", "--digits", "3"),
        ("keller", "--symbolic", "--format", "json"),
        ("keller", "--symbolic", "--format", "csv"),
        ("keller", "--exact"),
        ("keller", "--exact", "--format", "json"),
        ("carleman", "--mode", "chain", "--format", "csv"),
        ("carleman", "--mode", "polya", "--format", "csv"),
        ("keller", "--width="),
        ("carleman", "--seq="),
        ("check", "--width", "1/0", "--n", "1"),
        ("keller", "--width", "1/0"),
        ("carleman", "--seq", "custom:1/0"),
        ("check", "--n", "3.."),
        ("check", "--n", "..5"),
        ("check", "--n", "5..3"),
        ("keller", "--n", "0"),
    ])
    def test_exit_64(self, argv, capsys):
        assert main(list(argv), out=io.StringIO()) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("keller", "--symbolic", "--n", "5", "--width", "1e-3"), "--n"),
        (("keller", "--symbolic", "--width", "1e-3"), "--width"),
        (("carleman", "--mode", "chain", "--N", "3", "--seq", "geometric:1/3",
          "--scheme", "polya"), "--seq"),
        (("carleman", "--mode", "chain", "--N", "3", "--scheme", "polya"), "--scheme"),
        (("carleman", "--mode", "polya", "--N", "3", "--variant", "as-written"),
         "--variant"),
        (("check", "--target", "classic", "--n", "1", "--variant", "as-written"),
         "--variant"),
        (("expand", "--variant", "dedup"), "--variant"),
        (("expand", "--bound", "u", "--variant", "as-written"), "--variant"),
        (("expand", "--bound", "bare", "--variant", "dedup"), "--variant"),
        (("prove", "--bound", "u", "--variant", "as-written"), "--variant"),
        (("prove", "--bound", "bare", "--variant", "dedup"), "--variant"),
        (("carleman", "--N", "3", "--scheme", "polya", "--variant", "dedup"),
         "--variant"),
        (("carleman", "--N", "3", "--scheme", "simple", "--variant", "dedup"),
         "--variant"),
        (("carleman", "--mode", "chain", "--N", "3", "--digits", "5"), "--digits"),
        (("carleman", "--mode", "polya", "--N", "3", "--digits", "5"), "--digits"),
        (("check", "--n", "2", "--format", "json", "--digits", "5"), "--digits"),
        (("keller", "--n", "10", "--format", "json", "--digits", "5"), "--digits"),
        (("keller", "--n", "10", "--format", "csv", "--exact", "--digits", "5"),
         "--digits"),
    ])
    def test_unread_flag_is_refused(self, argv, flag, capsys):
        assert run(*argv) == (EXIT_USAGE, "")
        assert f"does not read {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("carleman", "--mode", "polya", "--N", "2000"), "--N"),
        (("carleman", "--mode", "polya", "--N", "1001"), "--N"),
        (("carleman", "--mode", "polya", "--N", str(10**20)), "--N"),
        (("check", "--digits", "5000"), "--digits"),
        (("keller", "--digits", "5000"), "--digits"),
        (("optimize", "--digits", "4001"), "--digits"),
        # above MAX_ORDER: the gap series costs about the order cubed
        (("expand", "--bound", "u", "--order", "1000"), "--order"),
        (("expand", "--bound", "v", "--order", str(cli.MAX_ORDER + 1)), "--order"),
    ])
    def test_oversize_output_is_refused_before_any_work(self, argv, flag, capsys):
        start = time.perf_counter()
        assert run(*argv) == (EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("check", "--n", "2", "--width", "1e-10000000000"), "--width"),
        (("keller", "--width", "1E-4001"), "--width"),
        (("carleman", "--seq", "geometric:1e-10000000000"), "--seq"),
        (("carleman", "--seq", "powerlaw:1e+10_000_000_000"), "--seq"),
        (("carleman", "--seq", "custom:1,1e10000000000", "--N", "2"), "--seq"),
    ])
    def test_huge_decimal_exponents_are_refused_before_they_are_read(self, argv, flag):
        # Fraction would build 10^(10^10) in one C call that no signal
        # interrupts, so the 1 s budget is a child process's timeout
        proc = fresh_python("-m", "eulerbounds", *argv, timeout=1)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert f"{flag}: " in proc.stderr and "decimal exponent" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("check", "--n", "1..10000000000"),
        ("keller", "--n", "2..60000", "60001..120000"),
    ])
    def test_too_many_indices_are_refused_before_any_work(self, argv, capsys):
        start = time.perf_counter()
        assert run(*argv) == (EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert "--n" in capsys.readouterr().err

    def test_largest_printable_sizes_still_print(self):
        # 1000 * len("1001") = 4000: (1001)^1000 has 3001 digits
        code, out = run("carleman", "--mode", "polya", "--N", "1000")
        assert code == EXIT_OK and len(out.splitlines()) == 3
        code, out = run("optimize", "--digits", "4000")
        assert code == EXIT_OK and len(out) > 4000
        code, out = run("expand", "--order", str(cli.MAX_ORDER))
        assert code == EXIT_OK and out.splitlines()[-1].startswith(f"t^{cli.MAX_ORDER}: ")

    def test_a_failing_handler_writes_nothing(self, monkeypatch):
        # the polya report writes two lines before it needs the weight
        def fail(n):
            raise ArithmeticError("weight refused")
        monkeypatch.setattr(carleman, "telescoping_weight", fail)
        assert run("carleman", "--mode", "polya", "--N", "3") == (EXIT_FAIL, "")


class TestEnclosureFailures:
    def test_soundness_failure_is_not_a_usage_error(self, monkeypatch, capsys):
        disjoint = [enclosure.RatInterval(0, 1), enclosure.RatInterval(2, 3)]
        monkeypatch.setattr(enclosure, "_normalized_stage",
                            lambda p, q, stage: disjoint[min(stage, 1)])
        assert main(["check", "--n", "1"], out=io.StringIO()) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("failed:") and "soundness" in err

    @pytest.mark.parametrize("argv", [("check", "--n", "2"), ("keller", "--n", "10")])
    def test_inverted_enclosure_is_a_soundness_failure(self, argv, monkeypatch, capsys):
        fixed = enclosure._normalized_fixed
        monkeypatch.setattr(enclosure, "_normalized_fixed",
                            lambda p, q, prec: fixed(p, q, prec)[::-1])
        assert main(list(argv), out=io.StringIO()) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("failed:") and "soundness" in err

    def test_exhausted_stages_are_undecided(self, capsys):
        # the last stage reaches 1e-512, so 1e-600 cannot be decided, nor
        # 1e-4000, the finest width --width accepts
        for width in ("1e-600", "1e-4000"):
            assert main(["check", "--n", "1", "--width", width],
                        out=io.StringIO()) == EXIT_UNDECIDED
            assert capsys.readouterr().err.startswith("undecided:")


def library_errors():
    """Every ValueError or ArithmeticError subclass the library defines."""
    found = set()
    for info in pkgutil.iter_modules(eulerbounds.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"eulerbounds.{info.name}")
            found |= {cls for cls in vars(module).values()
                      if isinstance(cls, type) and cls.__module__ == module.__name__
                      and issubclass(cls, (ValueError, ArithmeticError))}
    return sorted(found, key=lambda cls: cls.__name__)


def raising(exc):
    def fail(*args):
        raise exc
    return fail


class TestExitCodeFollowsTheExceptionType:
    """Every input is checked while parsing, so an exception a handler
    raises is a failure or an exhausted refinement, never a usage error."""

    def test_the_sweep_sees_the_library_errors(self):
        assert {enclosure.DomainError, enclosure.SoundnessError,
                RefinementExhausted} <= set(library_errors())

    @pytest.mark.parametrize("error", library_errors() + [ValueError, ZeroDivisionError],
                             ids=lambda cls: cls.__name__)
    def test_raised_from_a_handler(self, error, monkeypatch, capsys):
        monkeypatch.setattr(verify, "run_all", raising(error("injected")))
        code, prefix = ((EXIT_UNDECIDED, "undecided:") if error is RefinementExhausted
                        else (EXIT_FAIL, "failed:"))
        assert run("verify-all") == (code, "")
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("module, name, fault, argv", [
        # a display denominator that no longer clears the sandwich
        (keller, "_display_denominator", lambda pow_n, pow_nm1: Poly.one(),
         ("keller", "--symbolic")),
        (enclosure, "_normalized_fixed", raising(enclosure.DomainError("injected")),
         ("verify-all",)),
        (carleman, "telescoping_weight", raising(ZeroDivisionError("injected")),
         ("carleman", "--mode", "polya")),
    ], ids=["keller-display", "verify-all-domain", "polya-weight"])
    def test_library_fault(self, module, name, fault, argv, monkeypatch, capsys):
        monkeypatch.setattr(module, name, fault)
        assert run(*argv) == (EXIT_FAIL, "")
        assert capsys.readouterr().err.startswith("failed:")
