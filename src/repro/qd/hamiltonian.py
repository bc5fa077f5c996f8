"""Assembly and application of the local Kohn-Sham Hamiltonian (paper Eq. 3).

The per-domain electronic Hamiltonian is

    h = (1/2) (p + A(X_alpha, t)/c)^2 + v_loc(r, R, t) + v_nl

with the local potential v_loc = v_ext(r; R) + v_Hartree[n] + v_xc[n].  This
module builds v_loc, applies the local Hamiltonian to orbital blocks (needed
by the ground-state solver and by energy evaluation), and computes the
macroscopic current density that feeds back into Maxwell's equations.  The
nonlocal v_nl acts only as the scissors correction of
:mod:`repro.qd.nlp_prop`, applied by the propagator.

The kinetic energy and the momentum act through the cached per-axis
spectral matrices of :meth:`~repro.perf.workspace.KernelWorkspace.dft_basis`,
applied along each axis as matrix products, and the Hartree solve of
:mod:`repro.grid.poisson` through real matrices built from them: nothing
here runs an FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.grid.grid3d import Grid3D
from repro.grid.poisson import solve_poisson
from repro.perf.workspace import get_workspace
from repro.qd.xc import lda_exchange_correlation
from repro.units import SPEED_OF_LIGHT_AU


def gaussian_external_potential(
    grid: Grid3D,
    centers: Sequence[Sequence[float]],
    depths: Sequence[float],
    widths: Sequence[float],
) -> np.ndarray:
    """Sum of periodic Gaussian wells modelling the local pseudopotential.

    Each atom contributes ``-depth * exp(-|r - R|^2 / (2 width^2))`` with
    minimum-image periodicity; soft Gaussian wells are the standard local
    pseudopotential stand-in for real-space model calculations.
    """
    centers = np.asarray(centers, dtype=float)
    depths = np.asarray(depths, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ValueError("centers must have shape (n_atoms, 3)")
    if depths.shape != (centers.shape[0],) or widths.shape != (centers.shape[0],):
        raise ValueError("depths and widths must have one entry per center")
    x, y, z = grid.meshgrid()
    lx, ly, lz = grid.lengths
    potential = np.zeros(grid.shape)
    for center, depth, width in zip(centers, depths, widths):
        dx = x - center[0]
        dy = y - center[1]
        dz = z - center[2]
        dx -= lx * np.round(dx / lx)
        dy -= ly * np.round(dy / ly)
        dz -= lz * np.round(dz / lz)
        r2 = dx ** 2 + dy ** 2 + dz ** 2
        potential -= depth * np.exp(-0.5 * r2 / width ** 2)
    return potential


#: The fields v_loc is summed from: assigning any of them drops the cached
#: half-step phase ``exp(-i dt/2 v_loc)``.
_V_LOC_FIELDS = frozenset({"external_potential", "hartree", "xc_potential"})


@dataclass
class LocalHamiltonian:
    """The local Kohn-Sham potential plus kinetic application helpers.

    Parameters
    ----------
    grid:
        Real-space grid.
    external_potential:
        Static (ionic) local potential v_ext(r) in Hartree.
    """

    grid: Grid3D
    external_potential: np.ndarray
    hartree: np.ndarray = field(init=False, repr=False)
    xc_potential: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ext = np.asarray(self.external_potential, dtype=float)
        if ext.shape != self.grid.shape:
            raise ValueError("external potential must live on the grid")
        self.external_potential = ext
        self.hartree = np.zeros(self.grid.shape)
        self.xc_potential = np.zeros(self.grid.shape)
        self._xc_energy_density = np.zeros(self.grid.shape)
        self._axes = tuple(
            get_workspace().dft_basis(n, length)
            for n, length in zip(self.grid.shape, self.grid.lengths)
        )
        self._half_phase = None

    def __setattr__(self, name: str, value) -> None:
        # Every writer of v_loc (update_potentials, load_potentials_state, the
        # MESH ions moving v_ext) assigns one of these fields.
        if name in _V_LOC_FIELDS:
            object.__setattr__(self, "_half_phase", None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Potential updates
    # ------------------------------------------------------------------
    def update_potentials(self, density: np.ndarray) -> None:
        """Recompute Hartree and xc potentials from the electron density."""
        density = np.asarray(density, dtype=float)
        if density.shape != self.grid.shape:
            raise ValueError("density must live on the grid")
        update_potentials_stacked([self], density[None])

    def local_potential(self) -> np.ndarray:
        """v_loc = v_ext + v_H + v_xc on the grid."""
        return self.external_potential + self.hartree + self.xc_potential

    def half_step_phase(self, dt: float) -> np.ndarray:
        """``exp(-i dt/2 v_loc)``, the split-operator local half step.

        Built once per change of v_loc (and of ``dt``) and replayed between
        changes; the returned array is read-only.
        """
        cached = self._half_phase
        if cached is None or cached[0] != dt:
            phase = np.exp(-0.5j * dt * self.local_potential())
            phase.setflags(write=False)
            cached = self._half_phase = (dt, phase)
        return cached[1]

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def potentials_state(self) -> dict:
        """The mutable density-dependent potentials as a snapshot dict.

        ``update_potentials`` refreshes these only every few propagation steps
        (the shadow-dynamics amortisation), so a mid-run restore cannot simply
        recompute them from the instantaneous density — they are checkpointed
        verbatim instead.
        """
        return {
            "hartree": self.hartree.copy(),
            "xc_potential": self.xc_potential.copy(),
            "xc_energy_density": self._xc_energy_density.copy(),
        }

    def load_potentials_state(self, state: dict) -> None:
        """Inverse of :meth:`potentials_state`."""
        loaded = {}
        for name in ("hartree", "xc_potential", "xc_energy_density"):
            value = np.asarray(state[name], dtype=float)
            if value.shape != self.grid.shape:
                raise ValueError(
                    f"checkpointed {name} has shape {value.shape}, "
                    f"expected {self.grid.shape}"
                )
            loaded[name] = value
        self.hartree = loaded["hartree"]
        self.xc_potential = loaded["xc_potential"]
        self._xc_energy_density = loaded["xc_energy_density"]

    # ------------------------------------------------------------------
    # Operator application
    # ------------------------------------------------------------------
    def kinetic_matrices(self) -> tuple:
        """The three per-axis ``(n_i, n_i)`` field-free kinetic matrices
        ``p_i^2/2`` (complex, read-only) that :meth:`apply_kinetic` applies
        along x, y and z."""
        return tuple(basis.kinetic for basis in self._axes)

    def apply_kinetic(self, psi: np.ndarray,
                      vector_potential: Optional[np.ndarray] = None) -> np.ndarray:
        """(1/2)(p + A/c)^2 psi for a stacked orbital array.

        The kinetic energy is a sum of per-axis terms
        ``(1/2)(p_i + a_i)^2 = p_i^2/2 + a_i p_i + a_i^2/2`` (``a = A/c``), each
        applied along its axis with the cached spectral matrices.
        """
        psi = np.asarray(psi, dtype=np.complex128)
        single = psi.ndim == 3
        if single:
            psi = psi[None]
        if vector_potential is None:
            matrices = self.kinetic_matrices()
            shift = 0.0
        else:
            a = np.asarray(vector_potential, dtype=float).reshape(3) / SPEED_OF_LIGHT_AU
            matrices = [basis.kinetic + a_i * basis.momentum
                        for basis, a_i in zip(self._axes, a)]
            shift = 0.5 * float(a @ a)
        along_x, along_y, along_z = _along_axes(psi, matrices)
        out = along_x + along_y
        out += along_z
        if shift:
            out += shift * psi
        return out[0] if single else out

    def apply(self, psi: np.ndarray,
              vector_potential: Optional[np.ndarray] = None) -> np.ndarray:
        """H psi = T psi + v_loc psi."""
        psi = np.asarray(psi, dtype=np.complex128)
        single = psi.ndim == 3
        if single:
            psi = psi[None]
        out = self.apply_kinetic(psi, vector_potential)
        out = out + self.local_potential()[None] * psi
        return out[0] if single else out

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    def orbital_energies(self, psi: np.ndarray,
                         vector_potential: Optional[np.ndarray] = None) -> np.ndarray:
        """<psi_s|H|psi_s> for each orbital of a stacked array."""
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.ndim == 3:
            psi = psi[None]
        h_psi = self.apply(psi, vector_potential)
        return np.real(
            np.sum(psi.conj() * h_psi, axis=(1, 2, 3)) * self.grid.dv
        )

    def total_energy(self, psi: np.ndarray, occupations: np.ndarray,
                     vector_potential: Optional[np.ndarray] = None) -> float:
        """Kohn-Sham total energy with double-counting corrections.

        E = sum_s f_s <psi_s|T + v_ext|psi_s> + E_H[n] + E_xc[n]
        computed from the current density; the Hartree and xc terms are added
        once (not via the eigenvalue sum) to avoid double counting.
        """
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.ndim == 3:
            psi = psi[None]
        occupations = np.asarray(occupations, dtype=float)
        density = np.einsum("s,sxyz->xyz", occupations, np.abs(psi) ** 2)
        kinetic = self.apply_kinetic(psi, vector_potential)
        e_kinetic = float(
            np.real(np.sum(occupations[:, None, None, None] * psi.conj() * kinetic))
            * self.grid.dv
        )
        e_external = float(self.grid.integrate(density * self.external_potential))
        e_hartree = 0.5 * float(self.grid.integrate(density * self.hartree))
        e_xc = float(self.grid.integrate(self._xc_energy_density))
        return e_kinetic + e_external + e_hartree + e_xc

    def dipole_moment(self, density: np.ndarray) -> np.ndarray:
        """Electronic dipole moment -integral r n(r) d^3r relative to the cell centre."""
        density = np.asarray(density, dtype=float)
        x, y, z = self.grid.meshgrid()
        cx, cy, cz = (l / 2.0 for l in self.grid.lengths)
        return -np.array([
            float(self.grid.integrate(density * (x - cx))),
            float(self.grid.integrate(density * (y - cy))),
            float(self.grid.integrate(density * (z - cz))),
        ])

    def current_density_average(self, psi: np.ndarray, occupations: np.ndarray,
                                vector_potential: Optional[np.ndarray] = None) -> np.ndarray:
        """Cell-averaged macroscopic current density (3-vector).

        J = -(1/V) sum_s f_s <psi_s| (p + A/c) |psi_s>, the quantity each DC
        domain returns to the Maxwell solver (within TDCDFT the nonlocal
        correction to the current is handled by the same GEMMified machinery;
        here the dominant paramagnetic + diamagnetic terms are included).

        A stack of D domains on this grid is evaluated in one call: ``psi``
        ``(D, n_orb, nx, ny, nz)``, ``occupations`` ``(D, n_orb)`` and
        ``vector_potential`` ``(D, 3)`` give a ``(D, 3)`` result whose rows
        equal one call per domain.
        """
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.ndim == 3:
            psi = psi[None]
        occupations = np.asarray(occupations, dtype=float)
        conj = psi.conj()
        # Momentum expectation values per orbital, <p_i> = <psi|p_i psi> /
        # <psi|psi>, with p_i the spectral momentum along axis i.
        norms = np.einsum("...xyz,...xyz->...", conj, psi).real
        terms = np.stack(
            _along_axes(psi, [basis.momentum for basis in self._axes]), axis=-4)
        momentum = np.einsum("...xyz,...kxyz->...k", conj, terms).real / norms[..., None]
        if vector_potential is not None:
            a = np.asarray(vector_potential, dtype=float).reshape(*psi.shape[:-4], 3)
            momentum = momentum + a[..., None, :] / SPEED_OF_LIGHT_AU
        total = np.einsum("...s,...sk->...k", occupations, momentum)
        return -total / self.grid.volume


def _along_axes(psi: np.ndarray, matrices):
    """Each of the three ``(n_i, n_i)`` ``matrices`` applied to ``psi``
    (``(..., nx, ny, nz)``) along its own axis alone, as three arrays."""
    m_x, m_y, m_z = matrices
    *lead, nx, ny, nz = psi.shape
    along_x = np.matmul(m_x, psi.reshape(*lead, nx, ny * nz)).reshape(psi.shape)
    along_y = np.matmul(m_y, psi)
    along_z = np.matmul(psi, m_z.T)
    return along_x, along_y, along_z


def update_potentials_stacked(hamiltonians: Sequence[LocalHamiltonian],
                              densities: np.ndarray) -> None:
    """Recompute Hartree and xc potentials of D Hamiltonians on one grid.

    ``densities`` is ``(D, nx, ny, nz)``, one density per Hamiltonian.  The
    spectral Hartree solve (matrix products, no FFT) and the LDA run once
    over the whole stack; both act on each slice independently, so slice
    ``d`` gets exactly the potentials a solve of ``densities[d]`` alone
    would give.
    """
    grid = hamiltonians[0].grid
    densities = np.asarray(densities, dtype=float)
    if densities.shape != (len(hamiltonians), *grid.shape):
        raise ValueError("densities must stack one density per Hamiltonian")
    if any(h.grid != grid for h in hamiltonians[1:]):
        raise ValueError("stacked Hamiltonians must share one grid")
    hartree = solve_poisson(densities, grid)
    energy_density, potential = lda_exchange_correlation(densities)
    for d, h in enumerate(hamiltonians):
        h.hartree = hartree[d]
        h._xc_energy_density = energy_density[d]
        h.xc_potential = potential[d]
