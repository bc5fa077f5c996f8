"""Random-number-generator helpers.

Every stochastic component of the library (surface hopping, Langevin
thermostats, NN weight initialisation, synthetic dataset generation) takes an
explicit ``numpy.random.Generator`` so results are reproducible.
:func:`spawn_rngs` splits one seed into independent generators, mirroring the
per-rank RNG streams an MPI code would use.
"""

from __future__ import annotations

from typing import List

import numpy as np


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    This mimics the per-MPI-rank random streams of the parallel code: each
    virtual rank gets its own child generator derived from a common seed
    sequence, so simulations are reproducible regardless of the number of
    ranks touching a given subdomain.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
