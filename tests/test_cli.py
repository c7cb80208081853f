"""Command line behaviour: dispatch, exit codes, formats, determinism."""

import functools
import hashlib
import importlib
import io
import itertools
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eulerbounds
from eulerbounds import carleman, cli, enclosure, keller, prover, verify
from eulerbounds.algebra import Poly
from eulerbounds.carleman import TestSequence, WeightScheme, carleman_sums
from eulerbounds.cli import (EXIT_FAIL, EXIT_OK, EXIT_UNDECIDED, EXIT_USAGE,
                             dec_ceil, dec_floor, dec_trunc, index_range, main)
from eulerbounds.enclosure import RatInterval, RefinementExhausted
from eulerbounds.series import (Variant, bare_optimal_bound, classical_bracket,
                                lower_bound, upper_bound)
from fractions import Fraction as F


# the exact bound values at this index have at most 4299 digits; at the
# index before it, 4301
CANCELLING = 16328125 * 10**606


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

    @pytest.mark.parametrize("seq, scheme, N", [
        ("geometric:1/2", "refined", 200), ("powerlaw:2", "simple", 50),
        ("geometric:7/16", "polya", 350), ("custom:1e500", "refined", 1),
    ])
    def test_csv_total_is_the_text_report(self, seq, scheme, N):
        # at 40 digits a per-term width other than the text report's shows
        argv = ("carleman", "--seq", seq, "--scheme", scheme, "--N", str(N), "--digits", "40")
        code, text = run(*argv)
        csv_code, csv = run(*argv, "--format", "csv")
        assert code == csv_code == EXIT_OK
        lhs, rhs = (line.split(" = ")[1].strip("[]").split(", ")
                    for line in text.splitlines()[1:3])
        assert csv.splitlines()[-1].split(",") == ["total", "", *lhs, *rhs]

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("scheme", ["refined", "simple"])
    @pytest.mark.parametrize("seq", ["custom:1e500", "custom:1e4000"])
    def test_huge_sums_are_decided(self, seq, scheme, fmt):
        # the rhs width is relative to the sum: an absolute 1e-30 asked e
        # for more stages than it has, and these ended undecided
        code, out = run("carleman", "--seq", seq, "--N", "1", "--scheme", scheme,
                        "--format", fmt)
        assert code == EXIT_OK
        if fmt == "text":
            assert out.splitlines()[-1] == "lhs <= rhs rigorously: yes"

    def test_csv_encloses_each_mean_once(self, monkeypatch):
        calls = []
        enclose = TestSequence.geometric_mean_enclosure
        monkeypatch.setattr(TestSequence, "geometric_mean_enclosure",
                            lambda seq, n, width: calls.append(n) or enclose(seq, n, width))
        code, out = run("carleman", "--seq", "powerlaw:2", "--N", "20", "--format", "csv")
        assert code == EXIT_OK and len(out.splitlines()) == 22
        assert calls == list(range(1, 21))

    def test_overlapping_sums_are_undecided(self, monkeypatch):
        monkeypatch.setattr(carleman, "weighted_sum",
                            lambda seq, scheme, N: RatInterval(0, 100))
        code, out = run("carleman", "--N", "5")
        assert code == EXIT_UNDECIDED
        assert out.splitlines()[-1] == "lhs <= rhs rigorously: undecided"
        code, out = run("carleman", "--N", "5", "--format", "csv")
        assert code == EXIT_UNDECIDED
        assert out.splitlines()[-1].endswith(",0.000000000000,100.000000000000")

    @pytest.mark.parametrize("argv", [
        ("--seq", "geometric:1e-100"),
        ("--seq", "geometric:1e-45", "--N", "5"),
        ("--seq", "custom:1e-50,1e-50", "--N", "2"),
    ])
    def test_tiny_sequences_are_decided(self, argv):
        # the Polya grid follows a_1 down: on a fixed 10^-43 grid every term
        # of these rhs sums rounds down to 0 and the verdict was undecided
        code, out = run("carleman", "--scheme", "polya", *argv)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "lhs <= rhs rigorously: yes"

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_sums_ordered_the_other_way_are_refuted(self, fmt, monkeypatch):
        monkeypatch.setattr(carleman, "weighted_sum",
                            lambda seq, scheme, N: RatInterval.point(0))
        code, out = run("carleman", "--N", "5", "--format", fmt)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1].endswith(
            "rigorously: NO" if fmt == "text" else ",0.000000000000,0.000000000000")

    def test_polya_bracket_around_an_exact_one(self):
        seq = TestSequence.custom([F(1, 3), F(4, 27)])
        lhs, rhs = carleman_sums(seq, WeightScheme.polya(), 2)
        assert rhs.lo < 1 < rhs.hi
        assert lhs == RatInterval.point(F(5, 9))
        assert lhs.hi <= rhs.lo


class TestProveBytes:
    """The prove invocations that no golden covers, pinned by the SHA-256
    of their stdout and their exit code."""

    @pytest.mark.parametrize("argv, code, digest", [
        (("--bound", "bare", "--format", "json"), EXIT_OK,
         "706d336837c81edede320952169d742f380a486ebe61c663d84fba7e4c237def"),
        (("--bound", "bare", "--side", "lower"), EXIT_FAIL,
         "5a75b25a9bc3846aecdf6470ef33030b56a799eddb1132b55c0c37db1271c06a"),
        (("--bound", "bare", "--side", "lower", "--format", "json"), EXIT_FAIL,
         "c65daca5ada6e23c0c446b3f6a19e73d9caa6bf9eb3e4fcc524ac0ae18a90f9a"),
        (("--bound", "u", "--side", "upper"), EXIT_FAIL,
         "2c6ea1de48463311513698dc19268ba424b4530d77081ea5395602dd50597b13"),
        (("--bound", "u", "--side", "upper", "--format", "json"), EXIT_FAIL,
         "7e6aec6182af2a6a1fb568af452cc9dafe555f382fd00d494f95c0416f88e45d"),
        (("--bound", "v", "--side", "lower"), EXIT_FAIL,
         "e77f18f8baad70754cbea79f8ea6543d111bdf7df2d55dc93782d97652431ac1"),
        (("--bound", "v", "--side", "lower", "--format", "json"), EXIT_FAIL,
         "95e4bd0f5402b9875bb0039595a8045ef42557bd522011845f0a6515cf4a14ce"),
        (("--bound", "v", "--variant", "as-written", "--format", "json"), EXIT_FAIL,
         "9990957af0ecef19e242396fd2d0cd74419a2fe44221e3242d0ffb34d2b30a31"),
        (("--bound", "v", "--variant", "as-written", "--side", "lower"), EXIT_UNDECIDED,
         "e1c0f0d20352dd1b54cc5a57be4a8bb5473b655c456bbae8982e75b5ec466853"),
        (("--bound", "v", "--variant", "as-written", "--side", "lower",
          "--format", "json"), EXIT_UNDECIDED,
         "6ab91f283b1534a960940a003aed71b295e1b02ba220d971d78338949a2f74f7"),
    ])
    def test_stdout_digest(self, argv, code, digest):
        got, out = run("prove", *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# one proof per bound and side, shared by the CLI and the expected output
cached_prove = functools.cache(prover.prove_bound)


def prove_invocations():
    """Every prove argument list the parser accepts, with the bound, the
    side and the format it names; only --bound v reads --variant."""
    for bound, variant, side, fmt in itertools.product(
            (None, "bare", "u", "v"), (None, "as-written", "dedup"),
            (None, "lower", "upper"), (None, "text", "json")):
        if variant and bound != "v":
            continue
        flags = (("--bound", bound), ("--variant", variant), ("--side", side),
                 ("--format", fmt))
        argv = [arg for flag in flags if flag[1] for arg in flag]
        spec = {None: lower_bound(), "u": lower_bound(), "bare": bare_optimal_bound(),
                "v": upper_bound(Variant(variant or "dedup"))}[bound]
        side = side or ("lower" if bound in (None, "u") else "upper")
        yield pytest.param(argv, spec, side, fmt or "text", id=" ".join(argv) or "defaults")


class TestProveOutput:
    """prove prints what the prover renders and nothing else, in either format."""

    @pytest.mark.parametrize("argv, bound, side, fmt", prove_invocations())
    def test_stdout_is_the_rendered_report(self, argv, bound, side, fmt, monkeypatch):
        import json

        monkeypatch.setattr(prover, "prove_bound", cached_prove)
        report = cached_prove(bound, side)
        expected = (prover.render_certificate(report) + "\n" if fmt == "text" else
                    json.dumps(prover.certificate_json(report), sort_keys=True, indent=2)
                    + "\n")
        assert run("prove", *argv) == ({"proven": EXIT_OK, "refuted": EXIT_FAIL,
                                        "inconclusive": EXIT_UNDECIDED}[report.conclusion],
                                       expected)


class TestExpandBytes:
    """The symbolic expansion beyond the golden's order 10, pinned by the
    SHA-256 of its stdout and its exit code."""

    @pytest.mark.parametrize("order, digest", [
        (3, "8886a336ec295a15dc8b1a5da831a6c017af7f89e95426307575a8801f8d65d8"),
        (400, "b53932979d8acd9501ee215c623d5f50fdd2a5663091c6b17fb0f375fee68a8e"),
    ])
    def test_stdout_digest(self, order, digest):
        got, out = run("expand", "--order", str(order))
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (EXIT_OK, digest)


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


def fresh_python(*args: str, timeout: float = 60, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this checkout's
    eulerbounds, with ``env`` added to the environment; outlasting the
    timeout fails the test instead of hanging it."""
    src = str(Path(eulerbounds.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=src, **env))


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
    (["verify-all"], SYMBOLIC + ["enclosure", "prover", "keller", "carleman", "recheck",
                                "verify"]),
    # refused while parsing: only a --seq value, parsed first, loads a layer
    (["carleman", "--N", "0"], []),
    (["carleman", "--seq", "geometric:1/2", "--N", "0"], SYMBOLIC + ["enclosure", "carleman"]),
], ids=" ".join)
def test_each_command_loads_only_its_layers(argv, layers):
    code = f"import io; from eulerbounds import cli; cli.main({argv}, out=io.StringIO())"
    assert loaded_package_modules(code) == sorted(
        ["eulerbounds", "eulerbounds.cli"] + [f"eulerbounds.{m}" for m in layers])


# (argv, the mode refused, the flag it does not read)
UNREAD = [
    (("keller", "--symbolic", "--n", "5", "--width", "1e-3"), "--symbolic", "--n"),
    (("keller", "--symbolic", "--width", "1e-3"), "--symbolic", "--width"),
    (("carleman", "--mode", "chain", "--N", "3", "--seq", "geometric:1/3",
      "--scheme", "polya"), "--mode chain", "--seq"),
    (("carleman", "--mode", "chain", "--N", "3", "--scheme", "polya"), "--mode chain",
     "--scheme"),
    (("carleman", "--mode", "polya", "--N", "3", "--variant", "as-written"), "--mode polya",
     "--variant"),
    (("check", "--target", "classic", "--n", "1", "--variant", "as-written"),
     "--target classic", "--variant"),
    (("expand", "--variant", "dedup"), "the symbolic expansion", "--variant"),
    (("expand", "--bound", "u", "--variant", "as-written"), "--bound u", "--variant"),
    (("expand", "--bound", "bare", "--variant", "dedup"), "--bound bare", "--variant"),
    (("prove", "--bound", "u", "--variant", "as-written"), "--bound u", "--variant"),
    (("prove", "--bound", "bare", "--variant", "dedup"), "--bound bare", "--variant"),
    (("carleman", "--N", "3", "--scheme", "polya", "--variant", "dedup"), "--scheme polya",
     "--variant"),
    (("carleman", "--N", "3", "--scheme", "simple", "--variant", "dedup"), "--scheme simple",
     "--variant"),
    (("carleman", "--mode", "chain", "--N", "3", "--digits", "5"), "--mode chain", "--digits"),
    (("carleman", "--mode", "polya", "--N", "3", "--digits", "5"), "--mode polya", "--digits"),
    (("check", "--n", "2", "--format", "json", "--digits", "5"), "--format json", "--digits"),
    (("keller", "--n", "10", "--format", "json", "--digits", "5"), "--format json",
     "--digits"),
    (("keller", "--n", "10", "--format", "csv", "--exact", "--digits", "5"), "--exact",
     "--digits"),
    (("carleman", "--mode", "polya", "--N", "3", "--seq", "geometric:1/3"), "--mode polya",
     "--seq"),
    (("carleman", "--mode", "polya", "--N", "3", "--scheme", "simple"), "--mode polya",
     "--scheme"),
]


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

    @pytest.mark.parametrize("argv, mode, flag", UNREAD,
                             ids=[f"argv{i}-{flag}" for i, (_, _, flag) in enumerate(UNREAD)])
    def test_unread_flag_is_refused(self, argv, mode, flag, capsys):
        assert run(*argv) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"usage error: {mode} does not read {flag}\n"

    @pytest.mark.parametrize("mode, cap", [("chain", 50_000), ("polya", 30_000)])
    def test_n_past_the_cap_is_refused_before_any_work(self, mode, cap, digit_limit, capsys):
        # with no digit limit, nothing but the cap refuses polya's (N+1)^N
        for limit in (sys.int_info.default_max_str_digits, 0):
            digit_limit(limit)
            for n in (cap + 1, 10**20):
                start = time.perf_counter()
                assert run("carleman", "--mode", mode, "--N", str(n)) == (EXIT_USAGE, "")
                assert time.perf_counter() - start < 1
                assert capsys.readouterr().err == (
                    f"usage error: --mode {mode} needs --N <= {cap}\n")

    @pytest.mark.parametrize("mode, cap, last", [
        ("chain", 50_000, "chain N=50000 variant=dedup: passed"),
        ("polya", 30_000, "effective weight c_30000 x_30000 = "),
    ], ids=["chain", "polya"])
    def test_n_at_the_cap_prints(self, mode, cap, last, digit_limit):
        digit_limit(0)
        code, out = run("carleman", "--mode", mode, "--N", str(cap))
        assert code == EXIT_OK and out.splitlines()[-1].startswith(last)

    @pytest.mark.parametrize("argv, flag", [
        (("carleman", "--mode", "polya", "--N", "2000"), "--N"),
        # 1372^1371 has 4302 digits
        (("carleman", "--mode", "polya", "--N", "1371"), "--N"),
        (("carleman", "--mode", "polya", "--N", str(10**20)), "--N"),
        (("check", "--digits", "5000"), "--digits"),
        (("keller", "--digits", "5000"), "--digits"),
        (("optimize", "--digits", "4001"), "--digits"),
        # above MAX_ORDER: the gap series costs about the order cubed
        (("expand", "--bound", "u", "--order", "1000"), "--order"),
        (("expand", "--bound", "v", "--order", str(cli.MAX_ORDER + 1)), "--order"),
        # the exact bound values at 10^614 have 4305 and 4307 digits
        (("check", "--n", str(10**614)), "--n"),
        (("check", "--n", "1..3", str(10**614), "--format", "json"), "--n"),
        (("check", "--n", str(10**614), "--variant", "as-written"), "--n"),
        # the largest index alone does not decide: see below
        (("check", "--n", str(CANCELLING - 1), str(CANCELLING)), "--n"),
        # the exact a_n column: 10^-4300 has a denominator of 4301 digits
        (("carleman", "--seq", "geometric:1e-100", "--scheme", "polya",
          "--format", "csv", "--N", "43"), "--N"),
        (("carleman", "--seq", "geometric:1/3", "--format", "csv",
          "--N", str(10**20)), "--N"),
        (("carleman", "--seq", "powerlaw:2", "--format", "csv",
          "--N", str(10**2150)), "--N"),
        (("carleman", "--seq", "custom:1/2," + "9" * 4300 + "e4000",
          "--format", "csv", "--N", "2"), "--N"),
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
        # 1371^1370 has 4298 digits
        code, out = run("carleman", "--mode", "polya", "--N", "1370")
        assert code == EXIT_OK and len(out.splitlines()) == 3
        code, out = run("optimize", "--digits", "4000")
        assert code == EXIT_OK and len(out) > 4000
        code, out = run("expand", "--order", str(cli.MAX_ORDER))
        assert code == EXIT_OK and out.splitlines()[-1].startswith(f"t^{cli.MAX_ORDER}: ")
        # the exact bound values at 10^600 have 4208 and 4209 digits
        code, out = run("check", "--n", str(10**600))
        assert code == EXIT_UNDECIDED and out.startswith(f"n={10**600}: undecided")
        # past 10^613 an index prints when its values cancel a large enough
        # common factor, as CANCELLING's do and CANCELLING - 1's do not
        code, out = run("check", "--n", str(CANCELLING))
        assert code == EXIT_UNDECIDED and out.startswith(f"n={CANCELLING}: undecided")
        code, out = run("carleman", "--seq", "geometric:1e-100", "--scheme", "polya",
                        "--format", "csv", "--N", "42")
        assert code == EXIT_OK and f",1/1{'0' * 4200}," in out.splitlines()[42]

    @staticmethod
    def starts_below_which_all_print(groups, digit_limit):
        # the first index tested is 10^((L - digits(S)) // d) at the tightest
        # polynomial: below it |P(n)| <= S n^d < 10^L, S the absolute
        # coefficient sum and d the degree; each group is (polys, values at n)
        starts = {}
        for limit in (640, 4300):
            digit_limit(limit)
            for name, (polys, values) in groups.items():
                starts[name] = start = next(cli.indices_to_test(polys, [range(2, 10**limit)]))
                sizes = [(sum(abs(c) for c in p.coeffs), p.degree()) for p in polys]
                assert start == 10 ** min((limit - len(str(s))) // d for s, d in sizes)
                assert all(s * start**d < 10**limit for s, d in sizes), (name, limit)
                assert all(map(cli.printable, values(start - 1))), (name, limit)
        return starts

    @pytest.mark.parametrize("variant", list(Variant))
    def test_check_tests_every_index_that_can_reach_the_limit(self, variant, digit_limit):
        def exact(bounds):
            return ([p for b in bounds for p in b.polynomials()],
                    lambda n: [b.eval(n) for b in bounds])

        groups = {"classic": exact(classical_bracket()),
                  "certified": exact((lower_bound(), upper_bound(variant)))}
        assert self.starts_below_which_all_print(groups, digit_limit) == {
            "classic": 10**4299, "certified": 10**613}

    @pytest.mark.parametrize("variant", list(Variant))
    def test_keller_tests_every_index_that_can_reach_the_limit(self, variant, digit_limit):
        # n^2 (N - D) / D, evaluated whole: the as-written sides cross
        pairs = [((num - den) * Poly((0, 0, 1)), den)
                 for num, den in keller.sandwich_sides(variant)]

        def at(p, n):
            return sum(c * n**k for k, c in enumerate(p.coeffs))

        groups = {"keller": ([p for pair in pairs for p in pair],
                             lambda n: [at(top, n) / at(den, n) for top, den in pairs])}
        assert self.starts_below_which_all_print(groups, digit_limit) == {"keller": 10**329}

    def test_indices_to_test_skips_only_the_indices_below_the_derived_index(self):
        polys = [p for b in (lower_bound(), upper_bound()) for p in b.polynomials()]
        ranges = [range(1, 2001), range(10**613 - 2, 10**613 + 2), range(10**700, 10**700 + 1)]
        assert list(cli.indices_to_test(polys, ranges)) == [10**613, 10**613 + 1, 10**700]
        assert list(cli.indices_to_test(polys, ranges[:1])) == []

    def test_classic_target_is_refused_past_the_limit(self, capsys):
        import json

        # 2n + 2 = 10^4300 at the first index, whose upper value does not print
        start = time.perf_counter()
        assert run("check", "--target", "classic", "--n", str(5 * 10**4299 - 1)) == (
            EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert "--n" in capsys.readouterr().err
        n = 5 * 10**4299 - 2
        code, out = run("check", "--target", "classic", "--n", str(n), "--format", "json")
        assert code == EXIT_UNDECIDED
        assert json.loads(out)[0]["upper"] == f"{2 * n + 1}/{2 * n + 2}"

    @pytest.mark.parametrize("form", [("--format", "json"), ("--format", "csv", "--exact")])
    def test_keller_exact_forms_are_refused_past_the_limit(self, form, capsys):
        # n^2 (side - 1) has 4298 digits at 10^390 and 4301 at 2 * 10^390
        for n in (2 * 10**390, 10**1000):
            start = time.perf_counter()
            assert run("keller", "--n", str(n), "--width", "1e4000", *form) == (EXIT_USAGE, "")
            assert time.perf_counter() - start < 1
            assert "--n" in capsys.readouterr().err
        code, out = run("keller", "--n", str(10**390), "--width", "1e4000", *form)
        assert code == EXIT_UNDECIDED and len(out) > 2 * 4290

    @pytest.mark.parametrize("seq, largest", [
        ("geometric:1e-100", 42),  # 10^4200 < 10^4300
        ("geometric:1/3", 9012),  # 3^9012 < 10^4300 <= 3^9013
        ("powerlaw:2", 10**2150 - 1),
        ("powerlaw:4300", 9),
    ])
    def test_csv_terms_printable_up_to_the_limit(self, seq, largest):
        # the rule alone: a CSV of 9012 rows would take most of a minute
        seq = cli.parse_sequence(seq)
        assert cli.terms_printable(seq, largest)
        assert not cli.terms_printable(seq, largest + 1)

    def test_a_failing_handler_writes_nothing(self, monkeypatch):
        # the polya report writes two lines before it needs the weight
        def fail(n):
            raise ArithmeticError("weight refused")
        monkeypatch.setattr(carleman, "telescoping_weight", fail)
        assert run("carleman", "--mode", "polya", "--N", "3") == (EXIT_FAIL, "")


def argv_id(argv) -> str:
    """A test id naming a long argument by its first digits and its length."""
    return " ".join(a if len(a) <= 12 else f"{a[:3]}..({len(a)})" for a in argv)


PRINTED_AT_640 = [
    (("check", "--n", str(10**90)), EXIT_UNDECIDED, f"n={10**90}: undecided"),
    (("check", "--target", "classic", "--n", str(5 * 10**639 - 2), "--format", "json"),
     EXIT_UNDECIDED, "["),
    (("keller", "--n", str(2 * 10**57), "--width", "1e4000", "--format", "json"),
     EXIT_UNDECIDED, "["),
    (("keller", "--n", str(2 * 10**57), "--width", "1e4000", "--format", "csv", "--exact"),
     EXIT_UNDECIDED, "n,lo,hi,"),
    (("carleman", "--mode", "polya", "--N", "264"), EXIT_OK, "(c_1...c_264)"),
    (("carleman", "--seq", "geometric:1e-100", "--scheme", "polya", "--format", "csv",
      "--N", "6"), EXIT_OK, "n,a_n,"),
    (("optimize", "--digits", "640"), EXIT_OK, "a = 5/12"),
]


class TestDigitLimit:
    """Every size refusal tests the exact values a command prints against the
    interpreter's own integer digit limit, read at each call: 640 is the
    lowest it takes, 0 sets none."""

    @pytest.mark.parametrize("argv", [
        # the bound values have 645 digits here and 638 at 10^90
        ("check", "--n", str(10**91)),
        ("check", "--target", "classic", "--n", str(5 * 10**639 - 1)),
        ("keller", "--n", str(5 * 10**57), "--width", "1e4000", "--format", "json"),
        ("keller", "--n", str(5 * 10**57), "--width", "1e4000", "--format", "csv",
         "--exact"),
        # 266^265 has 643 digits
        ("carleman", "--mode", "polya", "--N", "265"),
        ("carleman", "--seq", "geometric:1e-100", "--scheme", "polya", "--format", "csv",
         "--N", "7"),
        ("optimize", "--digits", "641"),
    ], ids=argv_id)
    def test_refused_before_any_work_at_the_lowest_limit(self, argv, digit_limit, capsys):
        digit_limit(640)
        start = time.perf_counter()
        assert run(*argv) == (EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("usage error")

    @pytest.mark.parametrize("argv, code, head", PRINTED_AT_640,
                             ids=[argv_id(argv) for argv, _, _ in PRINTED_AT_640])
    def test_printed_up_to_the_lowest_limit(self, argv, code, head, digit_limit):
        digit_limit(640)
        got, out = run(*argv)
        assert (got, out[:len(head)]) == (code, head)

    def test_a_value_found_too_long_after_the_work_is_a_usage_error(self, digit_limit,
                                                                      capsys):
        # the as-written refutation's witness bound value has 2514 digits
        digit_limit(640)
        for form in ("text", "json"):
            assert run("prove", "--bound", "v", "--variant", "as-written",
                       "--format", form) == (EXIT_USAGE, "")
            assert "more digits than this Python prints" in capsys.readouterr().err

    def test_no_limit_refuses_nothing(self, digit_limit):
        digit_limit(0)
        code, out = run("carleman", "--mode", "polya", "--N", "1500")
        assert code == EXIT_OK and len(out.splitlines()) == 3
        code, out = run("check", "--n", str(10**614))
        assert code == EXIT_UNDECIDED and out.startswith(f"n={10**614}: undecided")

    @pytest.mark.parametrize("limit, argv, code", [
        ("1000", ("check", "--n", str(10**200)), EXIT_USAGE),
        ("1000", ("carleman", "--mode", "polya", "--N", "900"), EXIT_USAGE),
        ("0", ("carleman", "--mode", "polya", "--N", "1500"), EXIT_OK),
        ("0", ("carleman", "--mode", "polya", "--N", str(10**20)), EXIT_USAGE),
    ], ids=lambda item: argv_id(item) if isinstance(item, tuple) else None)
    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no integer digit limit")
    def test_the_environment_sets_the_limit(self, limit, argv, code):
        proc = fresh_python("-m", "eulerbounds", *argv, timeout=10,
                            PYTHONINTMAXSTRDIGITS=limit)
        assert proc.returncode == code
        assert (proc.stdout == "") == (code == EXIT_USAGE)

    @pytest.mark.parametrize("form", [(), ("--format", "csv")], ids=["text", "csv"])
    def test_decimals_print_whenever_their_integer_part_does(self, form):
        # 2000 fraction digits after an integer part of 3001 digits
        code, out = run("carleman", "--seq", "custom:1e3000", "--N", "1", "--scheme", "polya",
                        "--digits", "2000", *form)
        assert code == EXIT_OK and f"1{'0' * 3000}.{'0' * 2000}" in out

    @pytest.mark.parametrize("seq", [
        # a sum of more than 4300 digits
        "custom:" + "9" * 4299 + "e4000",
        # a ratio whose denominator has 4301 digits, named by the report
        "geometric:0." + "9" * 300 + "e-4000",
    ], ids=["sum", "ratio"])
    def test_sums_report_too_long_to_print_is_refused_before_any_work(self, seq, capsys):
        start = time.perf_counter()
        assert run("carleman", "--seq", seq, "--N", "1", "--scheme", "polya") == (
            EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert "more digits than this Python prints" in capsys.readouterr().err


class TestEnclosureFailures:
    def test_soundness_failure_is_not_a_usage_error(self, monkeypatch, capsys):
        # the first stage that runs gives [0, 1], the second [2, 3]
        disjoint = iter([(0, 1, 0), (2, 3, 0)])
        monkeypatch.setattr(enclosure, "_normalized_stage",
                            lambda p, q, stage: next(disjoint))
        assert main(["check", "--n", "1"], out=io.StringIO()) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("failed:") and "soundness" in err

    @pytest.mark.parametrize("seam, argv, inverted", [
        # at n = 2 stage 3 is the first that can reach 1e-35 and misses it,
        # so the second stage run, inside the first's bracket, is swapped
        ("_normalized_stage", ("check", "--n", "2", "--width", "1e-35"), 1),
        # e at the default 1e-30 runs one stage: that one is swapped
        ("_euler_stage", ("carleman", "--scheme", "simple", "--N", "3"), 0),
    ], ids=["normalized", "e"])
    def test_inverted_stage_is_a_soundness_failure(self, seam, argv, inverted,
                                                   monkeypatch, capsys):
        stage_bracket = getattr(enclosure, seam)
        runs = itertools.count()

        def inverted_run(*args):
            lo, hi, shift = stage_bracket(*args)
            return (hi, lo, shift) if next(runs) == inverted else (lo, hi, shift)

        monkeypatch.setattr(enclosure, seam, inverted_run)
        assert main(list(argv), out=io.StringIO()) == EXIT_FAIL
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
        # the last stage reaches 1e-513 at n = 1 but not 1e-514, so neither
        # 1e-514 nor 1e-4000, the finest width --width accepts, is decided
        assert main(["check", "--n", "1", "--width", "1e-513"],
                    out=io.StringIO()) == EXIT_OK
        for width in ("1e-514", "1e-600", "1e-4000"):
            assert main(["check", "--n", "1", "--width", width],
                        out=io.StringIO()) == EXIT_UNDECIDED
            assert capsys.readouterr().err.startswith("undecided:")


    def test_an_inseparable_comparison_is_undecided(self, monkeypatch, capsys):
        # a bracket of [0, 4] straddles every bound value at every precision
        monkeypatch.setattr(enclosure, "_normalized_fixed",
                            lambda p, q, prec: (0, 4 << prec))
        assert run("carleman", "--mode", "chain", "--N", "1") == (EXIT_UNDECIDED, "")
        assert capsys.readouterr().err.startswith("undecided: could not separate")


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
