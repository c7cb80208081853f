"""Fixtures shared by the test modules."""

import sys

import pytest

from eulerbounds import cli


@pytest.fixture(autouse=True)
def default_digit_limit():
    """Runs every test at CPython's default integer digit limit, whatever
    PYTHONINTMAXSTRDIGITS the suite started with, and restores it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def digit_limit(default_digit_limit):
    """The setter of the integer digit limit (0: none), which the CLI reads at
    every call; the autouse fixture restores the limit after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer digit limit")
    return sys.set_int_max_str_digits


@pytest.fixture(autouse=True)
def no_output_ends_on_the_digit_limit(monkeypatch):
    """Fails a test in which the CLI reports the interpreter's own digit
    limit error: output that would not print is refused as a usage error."""
    def checked_print(*args, **kwargs):
        assert not any("Exceeds the limit" in str(arg) for arg in args), args
        print(*args, **kwargs)
    monkeypatch.setattr(cli, "print", checked_print, raising=False)
