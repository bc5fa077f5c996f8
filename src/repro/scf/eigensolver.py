"""Eigensolvers for the discretised Kohn-Sham Hamiltonian.

Two paths are provided:

* a dense path that materialises the Hamiltonian matrix and calls LAPACK —
  robust, used for the small grids of the unit tests and the per-domain
  problems of the examples.  The ground-state problem is field-free
  (:func:`lowest_eigenstates` never takes a vector potential), so its kinetic
  matrix is real symmetric (``k^2`` is even in ``k``); with the real local
  potential on the diagonal the whole matrix is, and it is assembled and
  diagonalised in ``float64`` — about a quarter of the cost of the same
  ``eigh`` in ``complex128``.  The kinetic part is written straight from the
  three per-axis matrices of :meth:`LocalHamiltonian.kinetic_matrices`;
* a matrix-free path using scipy's LOBPCG on a ``LinearOperator`` built from
  :meth:`LocalHamiltonian.apply` — the form that scales to the larger grids of
  the benchmark runs (this is the per-domain "locally dense" solve of the
  GSLF/GSLD decomposition; the global problem never needs diagonalising).
  ``scipy.sparse`` is imported only when this path runs.

Orbitals are returned as ``complex128`` on either path, with a deterministic
sign (see :func:`lowest_eigenstates`).
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np
import scipy.linalg

from repro.qd.hamiltonian import LocalHamiltonian
from repro.telemetry import metrics as _telemetry

# Cache of dense real kinetic matrices keyed by the grid geometry.  Inside an
# SCF loop only the local potential changes between iterations, so rebuilding
# the kinetic matrix (an (n, n) assembly and a symmetrised copy) every
# iteration would be wasted work.  Entries are shared by every thread that
# solves in this process (inline daemons, concurrent ``BatchRunner``
# callers) and never written after insertion.
# Reads are lock-free; insert and evict hold the lock, because evicting
# iterates the dict and another thread's insert would resize it mid-iteration.
_KINETIC_CACHE: Dict[tuple, np.ndarray] = {}
_KINETIC_LOCK = threading.Lock()


def _dense_kinetic(hamiltonian: LocalHamiltonian) -> np.ndarray:
    """Dense real-symmetric kinetic-energy matrix for the grid (cached)."""
    grid = hamiltonian.grid
    key = (grid.shape, grid.lengths)
    kinetic = _KINETIC_CACHE.get(key)
    if kinetic is None:
        n = grid.num_points
        # T = K_x (x) 1 (x) 1 + 1 (x) K_y (x) 1 + 1 (x) 1 (x) K_z: each axis's
        # matrix lands where the other two grid indices agree (an einsum
        # with repeated indices is a writeable view of those entries).  The
        # spectral matrices leave a round-off (1e-16) imaginary part on a
        # matrix that is real analytically; only the real part is written,
        # summed in apply_kinetic's order (x + y) + z so that every entry
        # equals that operator's column bit for bit, then symmetrised once.
        k_x, k_y, k_z = hamiltonian.kinetic_matrices()
        matrix = np.zeros((n, n))
        blocks = matrix.reshape(*grid.shape, *grid.shape)
        np.einsum("ibcabc->bcia", blocks)[...] += k_x.real
        np.einsum("ajcabc->acjb", blocks)[...] += k_y.real
        np.einsum("abkabc->abkc", blocks)[...] += k_z.real
        kinetic = matrix + matrix.T
        kinetic *= 0.5
        kinetic.setflags(write=False)
        _telemetry.incr("repro_scf_kinetic_builds_total", 1,
                        "dense kinetic matrices assembled (cache misses)")
        with _KINETIC_LOCK:
            _KINETIC_CACHE[key] = kinetic
            if len(_KINETIC_CACHE) > 8:
                # This may evict the key just stored; the caller still gets
                # the matrix through the local.
                _KINETIC_CACHE.pop(next(iter(_KINETIC_CACHE)))
    return kinetic


def _dense_hamiltonian(hamiltonian: LocalHamiltonian) -> np.ndarray:
    """A fresh dense ``float64`` Hamiltonian matrix the caller may overwrite.

    The cached kinetic matrix is exactly symmetric and a diagonal add keeps
    it so, which is why nothing is re-symmetrised per call.
    """
    n = hamiltonian.grid.num_points
    matrix = _dense_kinetic(hamiltonian).copy()
    matrix[np.diag_indices(n)] += hamiltonian.local_potential().reshape(-1)
    return matrix


def _fix_gauge(eigenvectors: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-magnitude component is real positive.

    Components within 1e-6 of the largest count as tied and the first index
    wins: a symmetry-related pair of peaks (an antibonding orbital) differs
    only by round-off, which must not pick the sign.  For a real eigenvector
    the factor is exactly +-1; for a complex one it is a unit phase.
    """
    magnitudes = np.abs(eigenvectors)
    pivots = np.argmax(magnitudes >= (1.0 - 1e-6) * magnitudes.max(axis=0), axis=0)
    columns = np.arange(eigenvectors.shape[1])
    return eigenvectors * (
        magnitudes[pivots, columns] / eigenvectors[pivots, columns]
    )


def lowest_eigenstates(
    hamiltonian: LocalHamiltonian,
    n_states: int,
    method: str = "auto",
    rng: np.random.Generator | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lowest ``n_states`` eigenpairs of the (current) Kohn-Sham Hamiltonian.

    Returns ``(eigenvalues, orbitals)`` with ``orbitals`` a ``complex128``
    array of shape ``(n_states, nx, ny, nz)`` normalised with the grid volume
    element.  On the dense path of a real-symmetric Hamiltonian (every
    field-free cell) their imaginary part is exactly zero.

    ``method`` is one of ``dense``, ``lobpcg`` or ``auto`` (dense below 4,096
    grid points, LOBPCG above).

    Gauge: each orbital is scaled so that its largest-magnitude component
    (the first grid index among components tied to within 1e-6 of it) is
    real and positive, which removes the LAPACK-build-dependent sign of a
    real eigenvector.  Rotations *inside* a degenerate subspace (the top
    pair of ``quickstart-tddft``) remain gauge-free: only subspace-invariant
    quantities (density, total norm, eigenvalues) are reproducible there.
    """
    grid = hamiltonian.grid
    n_points = grid.num_points
    if n_states < 1 or n_states > n_points:
        raise ValueError("n_states must be between 1 and the number of grid points")
    if method == "auto":
        method = "dense" if n_points <= 4096 else "lobpcg"
    if method == "dense":
        # Only the lowest n_states eigenpairs are needed; the range driver
        # (syevr/heevr) is much cheaper than a full diagonalisation for that.
        # scipy's finiteness check stays on (1% of the solve): a NaN potential
        # must raise here, not come back from LAPACK as an empty spectrum.
        eigenvalues, eigenvectors = scipy.linalg.eigh(
            _dense_hamiltonian(hamiltonian),
            subset_by_index=[0, n_states - 1],
            overwrite_a=True,
        )
    elif method == "lobpcg":
        # Imported here: no registry grid is large enough to take this path,
        # and scipy.sparse.linalg adds ~3.7 MB to every process that loads it.
        from scipy.sparse.linalg import LinearOperator, lobpcg

        rng = rng if rng is not None else np.random.default_rng(7)

        def matvec(vec: np.ndarray) -> np.ndarray:
            psi = vec.reshape(grid.shape)
            return hamiltonian.apply(psi).reshape(-1)

        operator = LinearOperator(
            (n_points, n_points), matvec=matvec, dtype=np.complex128
        )
        guess = rng.standard_normal((n_points, n_states)) + 1j * rng.standard_normal(
            (n_points, n_states)
        )
        guess, _ = np.linalg.qr(guess)
        eigenvalues, eigenvectors = lobpcg(
            operator,
            guess,
            largest=False,
            maxiter=max_iterations,
            tol=tolerance,
        )
        order = np.argsort(eigenvalues)[:n_states]
        eigenvalues = np.asarray(eigenvalues)[order]
        eigenvectors = eigenvectors[:, order]
    else:
        raise ValueError(f"unknown eigensolver method {method!r}")
    orbitals = _fix_gauge(eigenvectors).T.reshape(n_states, *grid.shape)
    # Normalise with the grid measure (eigh/lobpcg give unit-vector norm).
    norms = np.sqrt(np.sum(np.abs(orbitals) ** 2, axis=(1, 2, 3)) * grid.dv)
    orbitals = orbitals / norms[:, None, None, None]
    return np.asarray(eigenvalues, dtype=float), orbitals.astype(np.complex128)
