"""Validation helpers used across the library.

Keeping these in one place makes error messages consistent and keeps the
numerical code free of repetitive argument checking boilerplate.
"""

from __future__ import annotations

import numpy as np


def validate_run_args(num_steps: int, record_every: int = 1) -> None:
    """Validate the step/record arguments of a run or a multi-step call.

    The adapter run loop (:mod:`repro.api`) and the MD integrators' ``step``
    raise the same ``ValueError`` text, so callers can rely on one contract:
    ``num_steps`` — the number of native steps/exchanges — and
    ``record_every`` — the recording stride — must both be at least 1.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")


def ensure_positive(value: float, name: str = "value") -> float:
    """Return ``value`` if strictly positive, otherwise raise ``ValueError``."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def ensure_array(
    data,
    dtype=None,
    ndim: int | None = None,
    name: str = "array",
) -> np.ndarray:
    """Convert ``data`` to an ndarray and optionally check dimensionality."""
    arr = np.asarray(data, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got ndim={arr.ndim}")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr
