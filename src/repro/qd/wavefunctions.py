"""Stacked Kohn-Sham orbital container.

The paper stores the complex values of all Norb orbitals contiguously per grid
point (structure of arrays) so stencil coefficients are reused across the
orbital loop (Sec. V.B.2).  In NumPy the analogous layout is a single
``(n_orbitals, nx, ny, nz)`` complex array on which vectorised stencil and
diagonal operations broadcast over the orbital axis — that array, together
with the grid and a handful of linear-algebra helpers, is what
:class:`WaveFunctions` wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.grid3d import Grid3D


@dataclass
class WaveFunctions:
    """A block of complex Kohn-Sham orbitals on a real-space grid.

    Attributes
    ----------
    grid:
        The real-space grid.
    psi:
        Complex array of shape ``(n_orbitals, nx, ny, nz)``.
    """

    grid: Grid3D
    psi: np.ndarray

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi)
        if psi.ndim != 4 or psi.shape[1:] != self.grid.shape:
            raise ValueError(
                f"psi must have shape (n_orb, {self.grid.shape}), got {psi.shape}"
            )
        self.psi = np.ascontiguousarray(psi, dtype=np.complex128)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, grid: Grid3D, n_orbitals: int, rng: np.random.Generator) -> "WaveFunctions":
        """Random orthonormal orbitals (used to seed ground-state solvers)."""
        if n_orbitals < 1:
            raise ValueError("need at least one orbital")
        if n_orbitals > grid.num_points:
            raise ValueError("cannot have more orbitals than grid points")
        data = rng.standard_normal((n_orbitals, *grid.shape)) + 1j * rng.standard_normal(
            (n_orbitals, *grid.shape)
        )
        wf = cls(grid, data)
        wf.orthonormalize()
        return wf

    @classmethod
    def from_plane_waves(cls, grid: Grid3D, n_orbitals: int) -> "WaveFunctions":
        """The ``n_orbitals`` lowest periodic plane waves (analytic test states)."""
        kx, ky, kz = grid.kvectors()
        k2 = grid.k_squared()
        flat_order = np.argsort(k2, axis=None, kind="stable")[:n_orbitals]
        x, y, z = grid.meshgrid()
        psi = np.zeros((n_orbitals, *grid.shape), dtype=np.complex128)
        for i, flat_index in enumerate(flat_order):
            ix, iy, iz = np.unravel_index(flat_index, grid.shape)
            phase = kx[ix] * x + ky[iy] * y + kz[iz] * z
            psi[i] = np.exp(1j * phase)
        wf = cls(grid, psi)
        wf.normalize_each()
        return wf

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n_orbitals(self) -> int:
        return self.psi.shape[0]

    def as_matrix(self) -> np.ndarray:
        """Return the ``(N_grid, N_orb)`` matrix view used by the GEMM kernels.

        This is the Psi matrix of paper Eq. (5): each column is one orbital
        flattened over grid points.  The returned array is a reshaped view
        whenever possible (no copy), which matters for the GEMMified hotspots.
        """
        return self.psi.reshape(self.n_orbitals, self.grid.num_points).T

    def copy(self) -> "WaveFunctions":
        return WaveFunctions(self.grid, self.psi.copy())

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def overlap_matrix(self) -> np.ndarray:
        """S_ij = <psi_i | psi_j> over the grid."""
        mat = self.as_matrix()
        return (mat.conj().T @ mat) * self.grid.dv

    def orthonormalize(self) -> None:
        """Symmetric (Loewdin) orthonormalisation of the orbital block."""
        overlap = self.overlap_matrix()
        eigval, eigvec = np.linalg.eigh(overlap)
        if np.any(eigval <= 1e-14):
            raise np.linalg.LinAlgError("orbital block is numerically rank deficient")
        inv_sqrt = (eigvec * (1.0 / np.sqrt(eigval))) @ eigvec.conj().T
        mat = self.as_matrix() @ inv_sqrt
        self.psi = np.ascontiguousarray(
            mat.T.reshape(self.n_orbitals, *self.grid.shape)
        )

    def normalize_each(self) -> None:
        """Normalise every orbital to unit norm individually."""
        norms = np.sqrt(
            np.sum(np.abs(self.psi) ** 2, axis=(1, 2, 3)) * self.grid.dv
        )
        if np.any(norms == 0):
            raise ValueError("cannot normalise a zero orbital")
        self.psi /= norms[:, None, None, None]

    def density(self, occupations: np.ndarray | None = None) -> np.ndarray:
        """Electron density n(r) = sum_s f_s |psi_s(r)|^2.

        ``occupations`` defaults to 2.0 per orbital (spin-degenerate filling),
        matching the paper's "spin-degenerate electronic wave functions".
        """
        if occupations is None:
            occupations = np.full(self.n_orbitals, 2.0)
        occupations = np.asarray(occupations, dtype=float)
        if occupations.shape != (self.n_orbitals,):
            raise ValueError("occupations must have one entry per orbital")
        return np.einsum("s,sxyz->xyz", occupations, np.abs(self.psi) ** 2)

    def norms(self) -> np.ndarray:
        """Per-orbital L2 norms (should stay 1 under unitary propagation)."""
        return np.sqrt(np.sum(np.abs(self.psi) ** 2, axis=(1, 2, 3)) * self.grid.dv)
