"""Effective ferroelectric local-mode Hamiltonian ("second principles").

The paper points out that device-scale topotronics is beyond first-principles
NAQMD and has historically been treated with "second-principles" models whose
classical equations of motion are derived from first-principles calculations
(Sec. III, Ref. [13]).  This module provides that substrate for the
reproduction: each perovskite unit cell carries a 3-component local mode u_i
(proportional to its polarisation), with the energy

    E = sum_i [ A |u_i|^2 + B |u_i|^4 + C u_{i,z}^2 ]                (on-site)
      + (J/2) sum_<ij> |u_i - u_j|^2                                  (coupling)
      - sum_i E_field . u_i                                           (field)

A < 0 and B > 0 give the ferroelectric double well; the nearest-neighbour
coupling J penalises polarisation gradients (domain walls cost energy); C < 0
adds easy-axis anisotropy along z.  On top of the short-range terms an
*optional* long-range depolarisation (dipolar) energy

    E_dep = (D/N) sum_k f(k) |u_z(k)|^2 ,   f(k) = 1 / (1 + (|k| xi)^2)

penalises long-wavelength modulations of the out-of-plane polarisation (the
uncompensated bound charge of uniform domains) — the physical mechanism that
stabilises flux-closure / polar-skyrmion textures in PbTiO3 superlattices.
It is off by default (D = 0): the photo-switching pipeline relies on the
metastability of the prepared texture under overdamped dynamics (domain walls
pinned by the discrete lattice), which is sufficient for the Fig. 3 contrast
between pumped and unpumped runs and keeps the default dynamics simple.

Photo-excitation does two things, both proportional to the excitation weight
w: it flattens the double well (A_eff = A * (1 - screening * w)) and it
screens the depolarising field (D_eff = D * (1 - w)), because free carriers
compensate the bound charge.  That combination is the physically motivated
mechanism by which the laser pulse destabilises the polar texture.  The
ground-state and excited-state variants of this model are the data generators
for the GS / XS Allegro-lite models and the direct drivers of the
photo-switching benchmark.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.mathutils import periodic_shift


@dataclass(frozen=True)
class LocalModeModel:
    """Parameters of the effective ferroelectric Hamiltonian.

    The defaults give a well-developed double well with |u|_min = 1 and a
    domain-wall energy comparable to the well depth, which is all the
    topological dynamics needs qualitatively.
    """

    quadratic: float = -0.2      # A, eV per |u|^2
    quartic: float = 0.1         # B, eV per |u|^4
    anisotropy: float = -0.02    # C, eV per u_z^2 (easy axis along z)
    coupling: float = 0.08       # J, eV per |u_i - u_j|^2
    depolarization: float = 0.0  # D, eV per cell weighting the optional long-range dipolar term
    screening_cells: float = 3.0  # xi, dipolar screening length in unit cells
    excitation_screening: float = 2.5  # how strongly excitation flattens the well

    def effective_quadratic(self, excitation_weight: float) -> float:
        """A_eff(w): the double well flattens (and flips sign) with excitation."""
        if not (0.0 <= excitation_weight <= 1.0):
            raise ValueError("excitation_weight must lie in [0, 1]")
        return self.quadratic * (1.0 - self.excitation_screening * excitation_weight)

    def effective_depolarization(self, excitation_weight: float) -> float:
        """D_eff(w): photo-excited carriers screen the depolarising field.

        The depolarisation energy D * N * <u_z>^2 is what stabilises the
        flux-closure / skyrmion textures of PbTiO3 superlattices against a
        uniform monodomain state (it penalises any net out-of-plane
        polarisation whose bound charge is uncompensated).  Free carriers
        generated by the pump screen that bound charge, so the term is scaled
        by (1 - w).
        """
        if not (0.0 <= excitation_weight <= 1.0):
            raise ValueError("excitation_weight must lie in [0, 1]")
        return self.depolarization * (1.0 - excitation_weight)

    def well_minimum(self, excitation_weight: float = 0.0) -> float:
        """|u| at the minimum of the on-site potential (0 when the well closes)."""
        a_eff = self.effective_quadratic(excitation_weight)
        if a_eff >= 0:
            return 0.0
        return float(np.sqrt(-a_eff / (2.0 * self.quartic)))


@dataclass
class LocalModeLattice:
    """A lattice of local modes with energy/force evaluation and dynamics.

    Parameters
    ----------
    modes:
        Array of shape ``(nx, ny, nz, 3)`` with the local mode of each cell.
    model:
        The effective Hamiltonian parameters.
    mode_mass:
        Effective mass of the local mode (eV fs^2 / A^2-like units; only the
        time scale depends on it).
    """

    modes: np.ndarray
    model: LocalModeModel
    mode_mass: float = 50.0

    def __post_init__(self) -> None:
        modes = np.asarray(self.modes, dtype=float)
        if modes.ndim != 4 or modes.shape[-1] != 3:
            raise ValueError("modes must have shape (nx, ny, nz, 3)")
        self.modes = modes.copy()
        self.velocities = np.zeros_like(self.modes)
        if self.mode_mass <= 0:
            raise ValueError("mode_mass must be positive")
        # Precompute the dipolar kernel f(k) = 1 / (1 + (|k| xi)^2) on the
        # in-plane (x, y) Fourier grid; it only depends on the lattice shape.
        nx, ny = self.modes.shape[0], self.modes.shape[1]
        kx = 2.0 * np.pi * np.fft.fftfreq(nx)
        ky = 2.0 * np.pi * np.fft.fftfreq(ny)
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        xi = self.model.screening_cells
        self._dipolar_kernel = 1.0 / (1.0 + k2 * xi ** 2)

    def _dipolar_field(self, excitation_weight: float) -> np.ndarray:
        """Re[IFFT2(f(k) u_z(k))] per layer, used by both energy and force."""
        uz = self.modes[..., 2]
        uz_k = np.fft.fft2(uz, axes=(0, 1))
        return np.real(np.fft.ifft2(self._dipolar_kernel[:, :, None] * uz_k, axes=(0, 1)))

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.modes.shape[:3]

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable lattice state: the mode field and its velocities."""
        return {
            "modes": self.modes.copy(),
            "velocities": self.velocities.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`: restore a snapshot in place."""
        modes = np.asarray(state["modes"], dtype=float)
        velocities = np.asarray(state["velocities"], dtype=float)
        if modes.shape != self.modes.shape or velocities.shape != self.velocities.shape:
            raise ValueError(
                f"checkpointed texture has shape {modes.shape}, "
                f"expected {self.modes.shape}"
            )
        self.modes[...] = modes
        self.velocities[...] = velocities

    # ------------------------------------------------------------------
    def energy(self, excitation_weight: float = 0.0,
               electric_field: np.ndarray | None = None) -> float:
        """Total energy of the texture on the effective surface.

        The short-range part comes from the shared :func:`stacked_energy`
        kernel with a leading axis of one; the depolarization and field
        terms, which that kernel does not vectorize, are added here, in that
        order (as :meth:`_force_of` does for the force).
        """
        quadratic_eff = np.full((1, 1, 1, 1, 1),
                                self.model.effective_quadratic(excitation_weight))
        energy = float(stacked_energy(self.modes[None], self.model,
                                      quadratic_eff)[0])
        u = self.modes
        d_eff = self.model.effective_depolarization(excitation_weight)
        if d_eff != 0.0:
            energy += d_eff * float(np.sum(u[..., 2] * self._dipolar_field(excitation_weight)))
        if electric_field is not None:
            field = np.asarray(electric_field, dtype=float).reshape(3)
            energy -= float(np.sum(u @ field))
        return energy

    def forces(self, excitation_weight: float = 0.0,
               electric_field: np.ndarray | None = None) -> np.ndarray:
        """-dE/du for every local mode (same shape as ``modes``)."""
        force = self._force_of(excitation_weight, electric_field)(self.modes[None])[0]
        return force if force.flags.writeable else force.copy()

    def _force_of(self, excitation_weight: float,
                  electric_field: np.ndarray | None):
        """The force as a function of the ``(1, nx, ny, nz, 3)`` mode stack.

        The short-range part comes from the shared :func:`stacked_forces`
        kernel (and its memo); the depolarization and field terms, which
        that kernel does not vectorize, are added here on a copy, in that
        order.
        """
        quadratic_eff = np.full((1, 1, 1, 1, 1),
                                self.model.effective_quadratic(excitation_weight))
        d_eff = self.model.effective_depolarization(excitation_weight)
        field = (None if electric_field is None
                 else np.asarray(electric_field, dtype=float).reshape(3))

        def force_of(modes: np.ndarray) -> np.ndarray:
            force = stacked_forces(modes, self.model, quadratic_eff)
            if d_eff == 0.0 and field is None:
                return force
            force = force.copy()
            if d_eff != 0.0:
                force[..., 2] -= 2.0 * d_eff * self._dipolar_field(excitation_weight)
            if field is not None:
                force += field
            return force

        return force_of

    # ------------------------------------------------------------------
    def step(self, dt: float, excitation_weight: float = 0.0,
             damping: float = 0.0,
             electric_field: np.ndarray | None = None,
             noise_amplitude: float = 0.0,
             rng: np.random.Generator | None = None) -> None:
        """One damped velocity-Verlet step of the mode dynamics.

        ``noise_amplitude`` adds Langevin-like random velocity kicks (per
        step, in mode units) modelling the finite lattice temperature of the
        pumped sample; without it an overdamped quench would preserve the
        orientation pattern even after the amplitude has collapsed.  Noise
        needs ``rng``: a fixed fallback generator would repeat one kick.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        _verlet_step(self.modes[None], self.velocities[None], dt,
                     self.mode_mass,
                     self._force_of(excitation_weight, electric_field),
                     damping, noise_amplitude,
                     None if rng is None else (rng,))

    def relax(self, num_steps: int = 200, dt: float = 0.5,
              excitation_weight: float = 0.0, damping: float = 0.2) -> None:
        """Damped relaxation toward the nearest local minimum of the texture.

        ``num_steps=0`` is a no-op (the texture is used as prepared).  The
        same relax loop as :func:`relax_stacked`, on a stack of one, with
        this lattice's force (depolarization included).
        """
        _relax(self.modes[None], self.velocities[None], num_steps, dt,
               self.mode_mass,
               self._force_of(excitation_weight, None), damping)

    def mean_polarization(self) -> np.ndarray:
        """Average local mode (proportional to the net polarisation)."""
        return self.modes.reshape(-1, 3).mean(axis=0)


# ----------------------------------------------------------------------
# The stacked kernels: M lattices along a leading axis
# ----------------------------------------------------------------------
# The step, relax and energy kernels treat M same-shape lattices through ONE
# vectorized numpy call per operation instead of M serial calls, amortising
# the per-call dispatch overhead that dominates small textures (the paper's
# kin_prop ladder logic applied to the local-mode substrate).  A single
# LocalModeLattice is the M = 1 case.  Every arithmetic step is elementwise,
# a periodic-neighbour gather (``take`` with cached indices, value-identical
# to ``np.roll``), an explicit left-to-right sum of the 3 components or a
# per-member row sum — all value-identical under a leading batch axis — so
# the stacked trajectory and energies are bit-identical to treating each
# member serially.  Long-range depolarisation (model.depolarization != 0)
# and external fields are added only by the lattice wrapper; stacked callers
# fall back to per-member stepping and relaxing for those (the registry
# scenarios all run with D = 0).
#
# The force at the end of step n is the start force of step n + 1 whenever
# the modes and A_eff are unchanged (damping and noise touch only
# velocities), so the kernel keeps a one-entry memo per thread, validated by
# value: a restore, a restack or an in-place edit of the modes simply misses.

class _ForceMemo(threading.local):
    """The last short-range force this thread computed, and its inputs
    (shapes and dtypes as ``key``, the arrays as their raw bytes, so the
    comparison is bitwise: it tells -0.0 from 0.0)."""

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.model: LocalModeModel | None = None
        self.quadratic_eff: bytes = b""
        self.modes: bytes = b""
        self.force: np.ndarray | None = None
        self.evaluations = 0


_MEMO = _ForceMemo()


def force_evaluations() -> int:
    """Short-range force evaluations this thread has computed (memo misses)."""
    return _MEMO.evaluations


def _squared_norm(u: np.ndarray) -> np.ndarray:
    """``|u|^2`` over the last axis as ``(u0^2 + u1^2) + u2^2``.

    The same additions, in the same order, as numpy's 3-element last-axis
    ``np.sum(u ** 2, axis=-1)``, without the reduction machinery.
    """
    sq = u ** 2
    return (sq[..., 0] + sq[..., 1]) + sq[..., 2]


def stacked_forces(modes: np.ndarray, model: LocalModeModel,
                   quadratic_eff: np.ndarray) -> np.ndarray:
    """-dE/du (short-range terms) for a stack of ``(M, nx, ny, nz, 3)`` modes.

    ``quadratic_eff`` is the per-member ``A_eff`` broadcastable as
    ``(M, 1, 1, 1, 1)`` — members may sit at different excitation weights
    (the MLMD pipeline decays its weight over each member's own clock).
    The result is **read-only**: it may be the memoised force of an
    earlier call with bit-identical inputs, returned to every such caller.
    """
    memo = _MEMO
    key = (modes.shape, modes.dtype, quadratic_eff.shape, quadratic_eff.dtype)
    coefficients, state = quadratic_eff.tobytes(), modes.tobytes()
    if (memo.key == key
            and (memo.model is model or memo.model == model)
            and memo.quadratic_eff == coefficients
            and memo.modes == state):
        return memo.force
    u = modes
    u2 = _squared_norm(u)[..., None]
    force = -(2.0 * quadratic_eff * u + 4.0 * model.quartic * u2 * u)
    force[..., 2] -= 2.0 * model.anisotropy * u[..., 2]
    for axis in range(1, 4):
        n = u.shape[axis]
        if n < 2:
            continue
        laplacian = (
            u.take(periodic_shift(n, 1), axis=axis)
            + u.take(periodic_shift(n, -1), axis=axis)
            - 2.0 * u
        )
        force += model.coupling * laplacian
    force.flags.writeable = False
    memo.key, memo.model = key, model
    memo.quadratic_eff, memo.modes, memo.force = coefficients, state, force
    memo.evaluations += 1
    return force


def stacked_energy(modes: np.ndarray, model: LocalModeModel,
                   quadratic_eff: np.ndarray) -> np.ndarray:
    """Short-range energy of each lattice in a ``(M, nx, ny, nz, 3)`` stack.

    ``quadratic_eff`` is the per-member ``A_eff`` shaped as for
    :func:`stacked_forces`.  Every sum is a per-member row sum, the same
    pairwise additions ``np.sum`` makes over one member, so each entry is
    bit-identical to the energy of that member alone.
    """
    u = modes
    rows = u.shape[0]
    u2 = _squared_norm(u)
    onsite = (quadratic_eff[..., 0] * u2 + model.quartic * u2 ** 2
              + model.anisotropy * u[..., 2] ** 2)
    energy = onsite.reshape(rows, -1).sum(axis=1)
    for axis in range(1, 4):
        n = u.shape[axis]
        if n < 2:
            continue
        diff = u - u.take(periodic_shift(n, 1), axis=axis)
        energy += 0.5 * model.coupling * (diff ** 2).reshape(rows, -1).sum(axis=1)
    return energy


def _verlet_step(modes: np.ndarray, velocities: np.ndarray, dt: float,
                 mode_mass: float, force_of, damping: float,
                 noise_amplitude: float, rngs) -> None:
    """Damped velocity Verlet on a mode stack, in place (see step_stacked)."""
    if noise_amplitude > 0.0 and (rngs is None or len(rngs) != modes.shape[0]):
        raise ValueError("need one rng per stacked member for noise")
    force = force_of(modes)
    velocities += 0.5 * dt * force / mode_mass
    modes += dt * velocities
    force = force_of(modes)
    velocities += 0.5 * dt * force / mode_mass
    if damping > 0.0:
        velocities *= max(0.0, 1.0 - damping * dt)
    if noise_amplitude > 0.0:
        noise = np.empty_like(velocities)
        for member_noise, rng in zip(noise, rngs):
            rng.standard_normal(out=member_noise)
        velocities += noise_amplitude * noise


def step_stacked(modes: np.ndarray, velocities: np.ndarray,
                 model: LocalModeModel, dt: float,
                 excitation_weights, damping: float = 0.0,
                 noise_amplitude: float = 0.0, rngs=None,
                 mode_mass: float = 50.0) -> None:
    """One damped velocity-Verlet step for M stacked lattices, in place.

    ``modes`` / ``velocities`` have shape ``(M, nx, ny, nz, 3)`` and are
    updated in place (members that hold views into the stack see the step
    immediately).  ``excitation_weights`` is a length-M sequence;
    ``rngs`` a length-M sequence of per-member generators, required when
    ``noise_amplitude > 0`` — noise is drawn member by member, in member
    order, so each generator advances exactly as it would serially.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    quadratic_eff = np.array(
        [model.effective_quadratic(float(w)) for w in excitation_weights],
        dtype=float,
    ).reshape(-1, 1, 1, 1, 1)
    if quadratic_eff.shape[0] != modes.shape[0]:
        raise ValueError("need one excitation weight per stacked member")
    _verlet_step(modes, velocities, dt, mode_mass,
                 lambda u: stacked_forces(u, model, quadratic_eff),
                 damping, noise_amplitude, rngs)


def _relax(modes: np.ndarray, velocities: np.ndarray, num_steps: int,
           dt: float, mode_mass: float, force_of, damping: float) -> None:
    """Damped, noiseless Verlet steps on a mode stack, then zero velocities."""
    if num_steps > 0 and dt <= 0:
        raise ValueError("dt must be positive")
    for _ in range(num_steps):
        _verlet_step(modes, velocities, dt, mode_mass, force_of, damping,
                     0.0, None)
    velocities[...] = 0.0


def relax_stacked(modes: np.ndarray, velocities: np.ndarray,
                  model: LocalModeModel, num_steps: int = 200,
                  dt: float = 0.5, damping: float = 0.2,
                  mode_mass: float = 50.0) -> None:
    """Relax M stacked lattices toward their nearest local minima, in place.

    :meth:`LocalModeLattice.relax` on the ground-state surface for every
    member at once: ``num_steps`` damped, noiseless steps at zero excitation
    weight (one short-range force evaluation per step, as
    :func:`step_stacked`), after which the velocities are zeroed.
    Short-range terms only, like :func:`step_stacked`; each member ends
    bit-identical to relaxing it alone.
    """
    quadratic_eff = np.full((modes.shape[0], 1, 1, 1, 1),
                            model.effective_quadratic(0.0))
    _relax(modes, velocities, num_steps, dt, mode_mass,
           lambda u: stacked_forces(u, model, quadratic_eff), damping)
