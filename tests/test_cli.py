"""Command line behaviour: dispatch, exit codes, formats, determinism."""

import io

import pytest

from eulerbounds import enclosure
from eulerbounds.cli import (EXIT_FAIL, EXIT_OK, EXIT_UNDECIDED, EXIT_USAGE,
                             dec_ceil, dec_floor, dec_trunc, main,
                             parse_indices)
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
        assert parse_indices(["3", "7", "10..12"]) == [3, 7, 10, 11, 12]


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
    ])
    def test_exit_64(self, argv, capsys):
        assert main(list(argv), out=io.StringIO()) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err


class TestEnclosureFailures:
    def test_soundness_failure_is_not_a_usage_error(self, monkeypatch, capsys):
        disjoint = [enclosure.RatInterval(0, 1), enclosure.RatInterval(2, 3)]
        monkeypatch.setattr(enclosure, "_normalized_stage",
                            lambda p, q, stage: disjoint[min(stage, 1)])
        assert main(["check", "--n", "1"], out=io.StringIO()) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("failed:") and "soundness" in err

    def test_exhausted_stages_are_undecided(self, capsys):
        # the last stage reaches 1e-512, so 1e-600 cannot be decided
        assert main(["check", "--n", "1", "--width", "1e-600"],
                    out=io.StringIO()) == EXIT_UNDECIDED
        assert capsys.readouterr().err.startswith("undecided:")
