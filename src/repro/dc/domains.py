"""Divide-and-conquer domains: core + buffer decomposition of a global grid.

Each domain owns a contiguous block of global grid points (its *core*); the
*buffer* extends the domain by a configurable number of points along every
divided axis (periodically wrapped) so the local Kohn-Sham problem sees enough
of its surroundings for the quantum-nearsightedness truncation to be accurate.
An undivided axis gets no buffer: its core is already the global period.
The paper uses a buffer equal to half the core length per direction, which
makes each overlapping domain (1 + 2*(1/2))^3 = 8 times larger than its core —
that factor shows up in the electron-count bookkeeping of Sec. VII.A and is
reproduced by :meth:`DomainDecomposition.overlap_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.grid.grid3d import Grid3D


@dataclass(frozen=True)
class DCDomain:
    """One divide-and-conquer domain of a global grid.

    Attributes
    ----------
    index:
        Linear domain index (also the virtual MPI communicator colour).
    core_start, core_stop:
        Global index ranges of the core block along x, y, z (stop exclusive).
    buffer_points:
        Buffer thickness in grid points per direction.
    """

    index: int
    core_start: Tuple[int, int, int]
    core_stop: Tuple[int, int, int]
    buffer_points: Tuple[int, int, int]

    @property
    def core_shape(self) -> Tuple[int, int, int]:
        return tuple(stop - start for start, stop in zip(self.core_start, self.core_stop))

    @property
    def local_shape(self) -> Tuple[int, int, int]:
        """Shape of the core + buffer region the local problem is solved on."""
        return tuple(
            c + 2 * b for c, b in zip(self.core_shape, self.buffer_points)
        )

    def global_indices(self, global_shape: Tuple[int, int, int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Periodic global indices of the local (core+buffer) region per axis."""
        indices = []
        for axis in range(3):
            start = self.core_start[axis] - self.buffer_points[axis]
            count = self.local_shape[axis]
            idx = (np.arange(start, start + count)) % global_shape[axis]
            indices.append(idx)
        return tuple(indices)

    def core_slice(self) -> Tuple[slice, slice, slice]:
        """Slices selecting the core region *within the local array*."""
        return tuple(
            slice(b, b + c) for b, c in zip(self.buffer_points, self.core_shape)
        )

    def extract(self, global_field: np.ndarray, global_shape: Tuple[int, int, int]) -> np.ndarray:
        """Extract the local (core+buffer) region of a global field."""
        ix, iy, iz = self.global_indices(global_shape)
        return global_field[np.ix_(ix, iy, iz)]

    def center_fraction(self, global_shape: Tuple[int, int, int]) -> Tuple[float, float, float]:
        """Fractional coordinates of the core centre within the global cell."""
        return tuple(
            ((start + stop) / 2.0) / n
            for start, stop, n in zip(self.core_start, self.core_stop, global_shape)
        )


@dataclass
class DomainDecomposition:
    """Partition of a global grid into a regular array of DC domains.

    Parameters
    ----------
    grid:
        The global grid.
    domains_per_axis:
        Number of domains along x, y, z (each axis length must be divisible).
    buffer_fraction:
        Buffer thickness as a fraction of the core length per divided
        direction; the paper's choice is 0.5.
    """

    grid: Grid3D
    domains_per_axis: Tuple[int, int, int]
    buffer_fraction: float = 0.5

    def __post_init__(self) -> None:
        if len(self.domains_per_axis) != 3:
            raise ValueError("domains_per_axis must have three entries")
        if self.buffer_fraction < 0:
            raise ValueError("buffer_fraction must be non-negative")
        for n, d in zip(self.grid.shape, self.domains_per_axis):
            if d < 1:
                raise ValueError("need at least one domain per axis")
            if n % d:
                raise ValueError(
                    f"grid dimension {n} not divisible by domain count {d}"
                )
        self._core_shape = tuple(
            n // d for n, d in zip(self.grid.shape, self.domains_per_axis)
        )
        # An axis with one division is already the global period: a buffer
        # there would only replicate the cell (a (2,1,1) split of 8^3 made
        # every domain an (8,16,16) supercell, 4x the global problem).
        self._buffer = tuple(
            0 if d == 1 else int(round(self.buffer_fraction * c))
            for c, d in zip(self._core_shape, self.domains_per_axis)
        )
        self._domains = self._build_domains()

    def _build_domains(self) -> List[DCDomain]:
        domains: List[DCDomain] = []
        dx, dy, dz = self.domains_per_axis
        cx, cy, cz = self._core_shape
        index = 0
        for i in range(dx):
            for j in range(dy):
                for k in range(dz):
                    start = (i * cx, j * cy, k * cz)
                    stop = ((i + 1) * cx, (j + 1) * cy, (k + 1) * cz)
                    domains.append(DCDomain(index, start, stop, self._buffer))
                    index += 1
        return domains

    # ------------------------------------------------------------------
    @property
    def domains(self) -> List[DCDomain]:
        return list(self._domains)

    @property
    def num_domains(self) -> int:
        return len(self._domains)

    @property
    def core_shape(self) -> Tuple[int, int, int]:
        return self._core_shape

    @property
    def buffer_points(self) -> Tuple[int, int, int]:
        return self._buffer

    def overlap_factor(self) -> float:
        """Ratio of (sum of overlapping domain volumes) to the global volume.

        With the paper's half-core buffer this equals 8: the total problem
        size excluding overlap is 8x smaller than the product of per-domain
        electron counts and the number of domains (Sec. VII.A).
        """
        core = np.prod(self._core_shape)
        local = np.prod([c + 2 * b for c, b in zip(self._core_shape, self._buffer)])
        return float(local / core)

    def local_grid(self, domain: DCDomain) -> Grid3D:
        """The local Grid3D (core + buffer) of a domain."""
        spacing = self.grid.spacing
        shape = domain.local_shape
        lengths = tuple(s * n for s, n in zip(spacing, shape))
        return Grid3D(shape, lengths)

    def extract_local(self, domain: DCDomain, global_field: np.ndarray) -> np.ndarray:
        """Restrict a global field to a domain's core+buffer region."""
        if global_field.shape != self.grid.shape:
            raise ValueError("global field must live on the global grid")
        return domain.extract(global_field, self.grid.shape)

    def scatter_core(self, domain: DCDomain, local_field: np.ndarray,
                     global_field: np.ndarray) -> None:
        """Write a domain's *core* values of a local field into a global field.

        Because cores tile the global grid exactly (mutually exclusive), no
        partition-of-unity weighting is needed; this is the "recombine" step
        of divide-conquer-recombine for cell-local quantities such as the
        electron density.
        """
        if local_field.shape != domain.local_shape:
            raise ValueError("local field has the wrong shape for this domain")
        if global_field.shape != self.grid.shape:
            raise ValueError("global field must live on the global grid")
        core = local_field[domain.core_slice()]
        sx = slice(domain.core_start[0], domain.core_stop[0])
        sy = slice(domain.core_start[1], domain.core_stop[1])
        sz = slice(domain.core_start[2], domain.core_stop[2])
        global_field[sx, sy, sz] = core

    def assemble_density(self, local_densities: List[np.ndarray]) -> np.ndarray:
        """Assemble the global density from per-domain local densities."""
        if len(local_densities) != self.num_domains:
            raise ValueError("need one local density per domain")
        global_density = self.grid.zeros()
        for domain, local in zip(self._domains, local_densities):
            self.scatter_core(domain, np.asarray(local), global_density)
        return global_density

    def domain_positions(self, axis: int = 0) -> np.ndarray:
        """Physical coordinates of domain centres along one axis (Bohr).

        Used to anchor each domain on the macroscopic Maxwell grid.
        """
        spacing = self.grid.spacing[axis]
        return np.array([
            0.5 * (d.core_start[axis] + d.core_stop[axis]) * spacing
            for d in self._domains
        ])
