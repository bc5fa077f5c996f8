"""Small mathematical helpers shared by several subpackages."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


@lru_cache(maxsize=None)
def periodic_shift(length: int, shift: int) -> np.ndarray:
    """Gather indices of a periodic shift along one axis (read-only).

    ``a.take(periodic_shift(a.shape[axis], s), axis=axis)`` equals
    ``np.roll(a, s, axis=axis)`` value for value; the gather skips
    ``np.roll``'s per-call slicing overhead, which dominates on the small
    lattices the local-mode and topology kernels see.
    """
    index = np.roll(np.arange(length), shift)
    index.flags.writeable = False
    return index


def finite_difference_coefficients(order: int) -> np.ndarray:
    """Central finite-difference coefficients for the second derivative.

    Parameters
    ----------
    order:
        Accuracy order of the stencil; one of 2, 4, or 6.

    Returns
    -------
    ndarray
        Symmetric coefficient vector of length ``order + 1`` such that
        ``f''(x) ~ sum_k c[k] f(x + (k - order/2) h) / h**2``.
    """
    if order == 2:
        return np.array([1.0, -2.0, 1.0])
    if order == 4:
        return np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    if order == 6:
        return np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    raise ValueError(f"unsupported finite-difference order {order}; use 2, 4, or 6")


def relative_error(value: np.ndarray, reference: np.ndarray) -> float:
    """Relative L2 error ``||value - reference|| / ||reference||``.

    Falls back to the absolute error when the reference norm is (numerically)
    zero, so callers can use it uniformly in tests and benchmarks.
    """
    value = np.asarray(value)
    reference = np.asarray(reference)
    ref_norm = float(np.linalg.norm(reference))
    diff_norm = float(np.linalg.norm(value - reference))
    if ref_norm < 1e-300:
        return diff_norm
    return diff_norm / ref_norm


def periodic_delta(a: np.ndarray, b: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Minimum-image displacement ``a - b`` in an orthorhombic periodic box."""
    delta = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    box = np.asarray(box, dtype=float)
    return delta - box * np.round(delta / box)


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Simple trailing moving average with a window of ``window`` samples."""
    if window < 1:
        raise ValueError("window must be >= 1")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr
    kernel = np.ones(min(window, arr.size)) / float(min(window, arr.size))
    return np.convolve(arr, kernel, mode="valid")


def soft_clip(values: np.ndarray, limit: float) -> np.ndarray:
    """Smoothly clip values to ``[-limit, limit]`` using tanh.

    Used by the fidelity-scaling machinery to model how force outliers are
    tamed without introducing hard discontinuities.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    values = np.asarray(values, dtype=float)
    return limit * np.tanh(values / limit)
