"""The verify-all gate's exact detail formatting, and that it still fails."""

import io
import os
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerbounds import verify
from eulerbounds.carleman import TestSequence, geometric_mean_sum
from eulerbounds.cli import EXIT_FAIL, main
from eulerbounds.enclosure import DEFAULT_WIDTH, RatInterval, RefinementExhausted
from eulerbounds.verify import (WIDTH_12, check_limit_numerics,
                                check_weight_chains, sci_str)


class TestSciStr:
    @pytest.mark.parametrize("q, text", [
        (F(12345, 10**4), "1.234e+00"),  # ties go to the even digit
        (F(12355, 10**4), "1.236e+00"),
        (F(12345, 10**8), "1.234e-04"),
        (F(99995, 10**9), "1.000e-04"),  # 9.9995e-5 rounds up into the next decade
        (F(1), "1.000e+00"),
        (F(1, 1000), "1.000e-03"),
        (F(10**5), "1.000e+05"),
        (F(1, 10**100), "1.000e-100"),
        (F(0), "0.000e+00"),
        (F(1, 3), "3.333e-01"),
    ])
    def test_examples(self, q, text):
        assert sci_str(q) == text

    @given(st.floats(min_value=0, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_float_formatting_on_binary_values(self, x):
        # format() rounds a float's exact binary value half to even too
        assert sci_str(F(x)) == format(x, ".3e")

    def test_limit_numerics_detail(self):
        ok, detail = check_limit_numerics()
        assert ok and detail.endswith("|midpoint(1000) - 1/24| = 1.719e-08")


class Recorded:
    """A list kept as lines of a file, so that what a forked child appends
    reaches the parent; it equals a list whose items print as its lines."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def append(self, value):
        with open(self.path, "a") as log:  # one short O_APPEND write
            log.write(f"{value}\n")

    def lines(self) -> list[str]:
        return self.path.read_text().splitlines()

    def __eq__(self, other):
        return self.lines() == [str(item) for item in other]

    def __repr__(self):
        return f"Recorded({self.lines()})"


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_gate(monkeypatch, cpus):
    """verify-all through the CLI with ``cpus`` usable CPUs: (exit code,
    stdout).  One CPU keeps the checks in process; more fork them."""
    monkeypatch.setattr(verify, "usable_cpus", lambda: cpus)
    out = io.StringIO()
    code = main(["verify-all"], out=out)
    assert no_child_left()
    return code, out.getvalue()


def raising(exc):
    def fail(*args):
        raise exc
    return fail


def wrong_telescoping_weight(monkeypatch):
    weight = verify.telescoping_weight
    monkeypatch.setattr(verify, "telescoping_weight", lambda n: (
        weight(n) * F(n + 2, n + 1) if n == 37 else weight(n)))


def comparator_reporting_one_violation(monkeypatch):
    below = verify.normalized_below
    monkeypatch.setattr(verify, "normalized_below",
                        lambda n, *pairs: [True, True] if pairs[0] == (1000, 1001)
                        else below(n, *pairs))


class TestGateFails:
    def run_gate(self):
        out = io.StringIO()
        return main(["verify-all"], out=out), out.getvalue()

    def test_wrong_telescoping_weight(self, monkeypatch):
        wrong_telescoping_weight(monkeypatch)
        code, out = self.run_gate()
        assert code == EXIT_FAIL
        assert "FAIL telescoping-identities: product identity broke at n=37\n" in out
        assert out.endswith("CHECKS FAILED (10 checks)\n")

    def test_comparator_reporting_one_violation(self, monkeypatch):
        comparator_reporting_one_violation(monkeypatch)
        code, out = self.run_gate()
        assert code == EXIT_FAIL
        assert "FAIL classical-bracket: violations in 1..1000: [500]\n" in out
        assert out.endswith("CHECKS FAILED (10 checks)\n")


@pytest.fixture(scope="module")
def in_process_gate():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return run_gate(monkeypatch, 1)


class TestForkedChecks:
    """With more than one CPU the checks run in forked children; the bytes,
    the exit code and the error that ends a run stay the in-process run's,
    and no child outlives the run."""

    def test_each_check_runs_in_a_child_of_its_own(self, monkeypatch, tmp_path):
        pids = Recorded(tmp_path / "pids")

        def check():
            pids.append(os.getpid())
            return True, "ok"
        monkeypatch.setattr(verify, "ALL_CHECKS", tuple((f"c{i}", check) for i in range(10)))
        monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
        out = io.StringIO()
        assert verify.run_all(out)
        assert out.getvalue() == "".join(f"PASS c{i}: ok\n" for i in range(10)) + (
            "ALL CHECKS PASSED (10 checks)\n")
        assert len(set(pids.lines())) == 10 and str(os.getpid()) not in pids.lines()
        assert no_child_left()

    def test_passing_gate_matches_in_process(self, monkeypatch, in_process_gate):
        assert in_process_gate[0] == 0
        assert run_gate(monkeypatch, 2) == in_process_gate

    @pytest.mark.parametrize("fault", [wrong_telescoping_weight,
                                       comparator_reporting_one_violation])
    def test_failing_gate_matches_in_process(self, fault, monkeypatch):
        fault(monkeypatch)
        forked = run_gate(monkeypatch, 2)
        assert forked[0] == EXIT_FAIL
        assert forked == run_gate(monkeypatch, 1)

    def test_the_earlier_checks_error_ends_the_run(self, monkeypatch, capsys):
        # gap-coefficients is the third check, limit-numerics the eighth
        monkeypatch.setattr(verify, "expand_bound_gap", raising(ZeroDivisionError("gap")))
        monkeypatch.setattr(verify, "convergence_table",
                            raising(RefinementExhausted("table")))
        runs = []
        for cpus in (2, 1):
            runs.append((run_gate(monkeypatch, cpus), capsys.readouterr().err))
        assert runs[0] == runs[1] == ((EXIT_FAIL, ""), "failed: gap\n")

    def test_no_child_outlives_a_run_that_raises(self, monkeypatch):
        # the first check raises here while the later children still run
        checks = (("fails", raising(ZeroDivisionError("first"))),) + verify.ALL_CHECKS[1:]
        monkeypatch.setattr(verify, "ALL_CHECKS", checks)
        monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
        with pytest.raises(ZeroDivisionError, match="first"):
            verify.run_all(io.StringIO())
        assert no_child_left()

    def test_a_child_that_dies_has_its_check_rerun_here(self, monkeypatch, tmp_path,
                                                          in_process_gate):
        parent = os.getpid()
        runs = Recorded(tmp_path / "runs")
        name, fn = verify.ALL_CHECKS[4]

        def dies_in_a_child():
            here = os.getpid() == parent
            runs.append("parent" if here else "child")
            if not here:
                os._exit(3)
            return fn()
        checks = list(verify.ALL_CHECKS)
        checks[4] = (name, dies_in_a_child)
        monkeypatch.setattr(verify, "ALL_CHECKS", tuple(checks))
        assert run_gate(monkeypatch, 2) == in_process_gate
        assert runs == ["child", "parent"]

    def test_a_live_thread_keeps_the_checks_in_process(self, monkeypatch, in_process_gate):
        ran = []

        def spy(name, fn):
            def check():
                ran.append(name)  # a child's append would not reach this list
                return fn()
            return check
        names = [name for name, _ in verify.ALL_CHECKS]
        monkeypatch.setattr(verify, "ALL_CHECKS",
                            tuple((name, spy(name, fn)) for name, fn in verify.ALL_CHECKS))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            result = run_gate(monkeypatch, 2)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert result == in_process_gate
        assert ran == names


SUMS_PASS = ("chain N=10^4 passed=True non-improving=[1]; "
             "sums at N=200: lhs.hi <= rhs.lo for 3 sequences x 3 schemes")
HALF = TestSequence.geometric(F(1, 2))


class TestWeightChainSums:
    """The sums are decided at WIDTH_12 alone."""

    @pytest.fixture
    def widths(self, monkeypatch, tmp_path):
        seen = Recorded(tmp_path / "widths")

        def spy(seq, N, width=DEFAULT_WIDTH):
            seen.append(width)
            return geometric_mean_sum(seq, N, width)
        monkeypatch.setattr(verify, "geometric_mean_sum", spy)
        return seen

    def test_passing_sums_stay_coarse(self, widths):
        assert check_weight_chains() == (True, SUMS_PASS)
        assert widths == [WIDTH_12] * 3

    def test_a_violation_fails_verify_all(self, widths, monkeypatch):
        """geometric(1/2) under the simple weights gets an rhs.lo below
        the coarse lhs.hi."""
        lo = geometric_mean_sum(HALF, 200, WIDTH_12).lo
        weighted = verify.weighted_sum
        monkeypatch.setattr(verify, "weighted_sum", lambda seq, scheme, N: (
            RatInterval(lo, lo + 1) if (seq, scheme.kind) == (HALF, "simple")
            else weighted(seq, scheme, N)))
        out = io.StringIO()
        assert main(["verify-all"], out=out) == EXIT_FAIL
        assert ("FAIL weight-chains: chain N=10^4 passed=True non-improving=[1]; "
                "geometric(1/2)/simple: VIOLATED; sums at N=200: "
                "lhs.hi <= rhs.lo for 3 sequences x 3 schemes\n") in out.getvalue()
        assert out.getvalue().endswith("CHECKS FAILED (10 checks)\n")
        assert widths == [WIDTH_12] * 3
