"""Small mathematical helpers shared by several subpackages."""

from __future__ import annotations

from functools import lru_cache

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


def periodic_delta(a: np.ndarray, b: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Minimum-image displacement ``a - b`` in an orthorhombic periodic box."""
    delta = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    box = np.asarray(box, dtype=float)
    return delta - box * np.round(delta / box)
