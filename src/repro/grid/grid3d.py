"""Uniform orthorhombic real-space grid.

All LFD wave functions, densities and potentials live on instances of
:class:`Grid3D`.  Lengths are in Bohr (atomic units) because the quantum
dynamics modules work in Hartree atomic units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class Grid3D:
    """A periodic, uniform grid on an orthorhombic cell.

    Parameters
    ----------
    shape:
        Number of grid points along x, y, z.
    lengths:
        Cell edge lengths along x, y, z in Bohr.
    """

    shape: Tuple[int, int, int]
    lengths: Tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or len(self.lengths) != 3:
            raise ValueError("shape and lengths must have three entries")
        for n in self.shape:
            if int(n) < 2:
                raise ValueError("each grid dimension needs at least 2 points")
        for length in self.lengths:
            ensure_positive(length, "cell length")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def spacing(self) -> Tuple[float, float, float]:
        """Grid spacing (hx, hy, hz) in Bohr."""
        return tuple(length / n for length, n in zip(self.lengths, self.shape))

    @property
    def num_points(self) -> int:
        """Total number of grid points."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def volume(self) -> float:
        """Cell volume in Bohr^3."""
        lx, ly, lz = self.lengths
        return lx * ly * lz

    @property
    def dv(self) -> float:
        """Volume element per grid point."""
        return self.volume / self.num_points

    def axes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D coordinate arrays along each axis (cell-centred at 0 origin)."""
        return tuple(
            np.arange(n) * h for n, h in zip(self.shape, self.spacing)
        )

    def meshgrid(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full 3-D coordinate arrays with ``indexing='ij'``.

        Built once per grid and shared by every caller, so the arrays are
        read-only: writing into one raises.
        """
        return _coordinates(self)

    def kvectors(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Angular wave-vector arrays (2*pi*FFT frequencies) along each axis."""
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=h)
            for n, h in zip(self.shape, self.spacing)
        )

    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full grid, used by the spectral Poisson solver."""
        kx, ky, kz = self.kvectors()
        return (
            kx[:, None, None] ** 2
            + ky[None, :, None] ** 2
            + kz[None, None, :] ** 2
        )

    # ------------------------------------------------------------------
    # Field helpers
    # ------------------------------------------------------------------
    def integrate(self, field: np.ndarray) -> float | complex:
        """Trapezoid-free periodic integral: sum(field) * dv."""
        field = np.asarray(field)
        if field.shape[-3:] != self.shape:
            raise ValueError(
                f"field shape {field.shape} incompatible with grid shape {self.shape}"
            )
        total = field.reshape(*field.shape[:-3], -1).sum(axis=-1) * self.dv
        if np.ndim(total) == 0:
            return complex(total) if np.iscomplexobj(field) else float(total)
        return total

    def gaussian(self, center: Tuple[float, float, float], width: float,
                 dtype=np.float64) -> np.ndarray:
        """A normalised periodic Gaussian blob centred at ``center``.

        Tests use it for model densities.  The Gaussian respects
        minimum-image periodicity so blobs near the cell boundary wrap
        smoothly.
        """
        ensure_positive(width, "width")
        x, y, z = self.meshgrid()
        lx, ly, lz = self.lengths
        dx = x - center[0]
        dy = y - center[1]
        dz = z - center[2]
        dx -= lx * np.round(dx / lx)
        dy -= ly * np.round(dy / ly)
        dz -= lz * np.round(dz / lz)
        r2 = dx ** 2 + dy ** 2 + dz ** 2
        blob = np.exp(-0.5 * r2 / width ** 2).astype(dtype)
        return blob / float(np.sqrt(np.vdot(blob, blob).real * self.dv))


@lru_cache(maxsize=16)
def _coordinates(grid: Grid3D) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    for array in (x, y, z):
        array.setflags(write=False)
    return x, y, z


def apply_separable(array: np.ndarray, operators,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """``(U_x (x) U_y (x) U_z) array`` over the last three axes, as three
    matrix products; the result is written into ``out`` when given.

    ``array`` has shape ``(..., nx, ny, nz)``; ``out``, if given, must be
    C-contiguous with the result's shape (it may be ``array`` itself).  Each
    operator is either one ``(n_i, n_i)`` matrix shared by the whole batch or
    a ``(D, 1, n_i, n_i)`` stack for a ``(D, n_orb, nx, ny, nz)`` batch, one
    operator per leading slice.  Every slice goes through the same matrix
    products whatever the batch size, so a stacked call is bit-identical to
    per-slice calls.
    """
    u_x, u_y, u_z = operators
    *lead, nx, ny, nz = array.shape
    if u_y.ndim > 2:
        u_y = u_y[..., None, :, :]
    work = np.matmul(u_x, array.reshape(*lead, nx, ny * nz))
    work = np.matmul(u_y, work.reshape(work.shape[:-2] + (nx, ny, nz)))
    work = work.reshape(work.shape[:-3] + (nx * ny, nz))
    u_z = np.swapaxes(u_z, -1, -2)
    if out is None:
        return np.matmul(work, u_z).reshape(work.shape[:-2] + (nx, ny, nz))
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    np.matmul(work, u_z, out=out.reshape(*out.shape[:-3], nx * ny, nz))
    return out
