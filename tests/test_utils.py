"""Tests for the shared utility helpers."""

import numpy as np
import pytest

from repro.store.cliutil import subcommand_errors
from repro.utils import (
    ensure_array, ensure_positive, periodic_delta, spawn_rngs,
)


class TestValidation:
    def test_ensure_positive_accepts_positive(self):
        assert ensure_positive(2.5) == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_ensure_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            ensure_positive(bad)

    def test_ensure_array_checks_ndim_and_finiteness(self):
        arr = ensure_array([[1.0, 2.0]], ndim=2)
        assert arr.shape == (1, 2)
        with pytest.raises(ValueError):
            ensure_array([1.0, np.nan])
        with pytest.raises(ValueError):
            ensure_array([1.0, 2.0], ndim=2)


class TestRng:
    def test_spawn_rngs_independent_and_reproducible(self):
        a1, b1 = spawn_rngs(7, 2)
        a2, b2 = spawn_rngs(7, 2)
        assert np.allclose(a1.random(5), a2.random(5))
        assert not np.allclose(a1.random(5), b1.random(5))

    def test_spawn_rngs_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestMathUtils:
    def test_periodic_delta_minimum_image(self):
        box = np.array([10.0, 10.0, 10.0])
        delta = periodic_delta(np.array([9.5, 0, 0]), np.array([0.5, 0, 0]), box)
        assert np.allclose(delta, [-1.0, 0.0, 0.0])


class TestSubcommandErrors:
    """The one shared CLI error path (``repro store``/``repro analytics``)."""

    def test_declared_exception_becomes_exit_code_and_stderr(self, capsys):
        @subcommand_errors(ValueError)
        def cmd():
            raise ValueError("bad input")

        assert cmd() == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bad input\n"
        assert captured.out == ""

    def test_custom_exit_code(self, capsys):
        @subcommand_errors(RuntimeError, exit_code=5)
        def cmd():
            raise RuntimeError("boom")

        assert cmd() == 5
        assert "error: boom" in capsys.readouterr().err

    def test_keyerror_message_is_unwrapped(self, capsys):
        # str(KeyError("x")) is "'x'"; operators should not see the quotes.
        @subcommand_errors(KeyError)
        def cmd():
            raise KeyError("unknown column 'energy'")

        assert cmd() == 2
        assert capsys.readouterr().err == "error: unknown column 'energy'\n"

    def test_undeclared_exceptions_still_propagate(self):
        @subcommand_errors(ValueError)
        def cmd():
            raise RuntimeError("a genuine bug")

        with pytest.raises(RuntimeError):
            cmd()

    def test_success_value_passes_through(self, capsys):
        @subcommand_errors(ValueError)
        def cmd(value):
            return value

        assert cmd(0) == 0
        assert capsys.readouterr().err == ""

    def test_requires_at_least_one_exception_type(self):
        with pytest.raises(ValueError):
            subcommand_errors()
