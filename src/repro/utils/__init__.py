"""Small shared utilities: validation helpers, RNG management, math helpers."""

from repro.utils.validation import ensure_array, ensure_positive
from repro.utils.rng import spawn_rngs
from repro.utils.mathutils import periodic_delta

__all__ = [
    "ensure_array",
    "ensure_positive",
    "spawn_rngs",
    "periodic_delta",
]
