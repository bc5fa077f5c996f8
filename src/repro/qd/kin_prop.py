"""Local kinetic time-propagation: the ``kin_prop`` kernel of Table III.

The paper's LFD propagates each Kohn-Sham orbital under the *local* part of
the Hamiltonian with a finite-difference split-operator solver; ``kin_prop()``
— the kinetic sweep — is the kernel whose optimisation ladder (baseline →
data/loop reordering → blocking/tiling → GPU offload) is reported in
Table III.  This module reproduces that ladder with four implementations that
compute the same propagation:

``baseline``
    Orbital-by-orbital propagation with a naive Python triple-loop Laplacian —
    the unoptimised reference.
``reordered``
    Orbital-by-orbital propagation with the vectorised (roll-based) stencil;
    this corresponds to the structure-of-arrays data/loop reordering of
    Sec. V.B.2 (the stencil coefficients become unit-stride array sweeps).
``blocked``
    The stencil sweep is applied to blocks of orbitals at once so the working
    set per sweep fits cache and the sweep is amortised over the block
    (Sec. V.B.3 blocking/tiling).
``device``
    The whole orbital batch is propagated with the exact exponential,
    factored into three dense per-axis operators ``U_x (x) U_y (x) U_z``
    (``U_i = F_i^-1 diag(exp(-i dt (k_i + A_i/c)^2 / 2)) F_i``) applied as
    three batched matrix products.  This stands in for the GPU-offloaded
    hierarchical-parallel-regions variant of Sec. V.B.4: in this pure-NumPy
    reproduction, "offloading" means mapping the kernel onto dense GEMMs —
    the hardware's fastest path — for the entire batch in one call.  The
    FFT form survives as :meth:`KineticPropagator.propagate_exact_reference`,
    the oracle the operators are tested against.

All stencil variants evaluate the same truncated Taylor expansion of
``exp(-i dt T)`` (T = -nabla^2 / 2).  ``baseline`` always uses the 2nd-order
stencil (its point is to be the naive reference), so when the propagator is
constructed with ``stencil_order=2`` the three stencil variants agree to
machine precision (the tests assert exactly that); with higher stencil orders
``reordered``/``blocked`` are more accurate but still identical to each other.
``device`` applies the exact exponential and therefore differs from the
stencil variants at the O(dt^{order+1}) truncation level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.grid.grid3d import Grid3D, apply_separable
from repro.grid.stencil import laplacian, laplacian_naive
from repro.perf.flops import FlopCounter, stencil_flops
from repro.perf.workspace import KernelWorkspace, get_workspace
from repro.units import SPEED_OF_LIGHT_AU

IMPLEMENTATIONS = ("baseline", "reordered", "blocked", "device")


@dataclass
class KineticPropagator:
    """Propagator for the kinetic (local, momentum-space diagonal) Hamiltonian.

    Parameters
    ----------
    grid:
        Real-space grid the orbitals live on.
    dt:
        Quantum-dynamics time step in atomic units (~1 attosecond = 0.0413 a.u.
        in the paper).
    taylor_order:
        Truncation order of the exponential for the stencil-based variants.
    stencil_order:
        Finite-difference accuracy order for the vectorised stencil variants.
    block_size:
        Orbital block size for the ``blocked`` implementation.
    workspace:
        Kernel workspace holding the cached per-axis kinetic operators.
        Defaults to the process-wide workspace so repeated propagator
        constructions share one cache.
    """

    grid: Grid3D
    dt: float
    taylor_order: int = 4
    stencil_order: int = 4
    block_size: int = 16
    flops: FlopCounter = None  # type: ignore[assignment]
    workspace: KernelWorkspace = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.taylor_order < 1:
            raise ValueError("taylor_order must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.flops is None:
            self.flops = FlopCounter()
        if self.workspace is None:
            self.workspace = get_workspace()
        self._k2 = self.grid.k_squared()
        self._kvecs = self.grid.kvectors()

    # ------------------------------------------------------------------
    # Exact propagation — production path and the "device" variant
    # ------------------------------------------------------------------
    def operators(self, vector_potential: Optional[np.ndarray] = None):
        """The cached per-axis ``(U_x, U_y, U_z)`` for this grid, dt and A."""
        return self.workspace.kinetic_operators(self.grid, self.dt, vector_potential)

    def propagate_exact(self, psi: np.ndarray,
                        vector_potential: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply exp(-i dt (k + A/c)^2 / 2) to a block of orbitals.

        ``psi`` has shape ``(n_orb, nx, ny, nz)``.  A spatially uniform vector
        potential ``vector_potential`` (3-vector, atomic units) enters through
        the velocity-gauge minimal coupling, which is exact for a uniform A —
        precisely the situation inside one DC domain where A(X_alpha) is a
        single number per step (paper Eq. 3).

        The per-axis operators are replayed from the kernel workspace, so at
        fixed ``(dt, A)`` every call after the first costs three batched
        matrix products and no FFT.
        """
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.ndim == 3:
            psi = psi[None]
        if psi.shape[1:] != self.grid.shape:
            raise ValueError("psi grid shape does not match the propagator grid")
        out = np.empty(psi.shape, dtype=np.complex128)
        apply_separable(psi, self.operators(vector_potential), out)
        # One complex multiply-add (8 real flops) per point and axis entry.
        self.flops.add(
            "kin_prop_gemm",
            8 * psi.shape[0] * self.grid.num_points * sum(self.grid.shape),
        )
        return out

    def propagate_exact_reference(self, psi: np.ndarray,
                                  vector_potential: Optional[np.ndarray] = None) -> np.ndarray:
        """The FFT form of ``propagate_exact``: builds the 3-D phase
        ``exp(-i dt (k + A/c)^2 / 2)`` and applies it between two FFTs.

        Retained as the "old" rung for the kernel-speedup benchmark and as the
        machine-precision oracle of the per-axis operators.
        """
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.ndim == 3:
            psi = psi[None]
        if psi.shape[1:] != self.grid.shape:
            raise ValueError("psi grid shape does not match the propagator grid")
        if vector_potential is None:
            kinetic = 0.5 * self._k2
        else:
            a = np.asarray(vector_potential, dtype=float).reshape(3)
            kx, ky, kz = self._kvecs
            kin = (
                (kx[:, None, None] + a[0] / SPEED_OF_LIGHT_AU) ** 2
                + (ky[None, :, None] + a[1] / SPEED_OF_LIGHT_AU) ** 2
                + (kz[None, None, :] + a[2] / SPEED_OF_LIGHT_AU) ** 2
            )
            kinetic = 0.5 * kin
        phase = np.exp(-1j * self.dt * kinetic)
        psi_k = np.fft.fftn(psi, axes=(1, 2, 3))
        psi_k *= phase[None]
        return np.fft.ifftn(psi_k, axes=(1, 2, 3))

    # ------------------------------------------------------------------
    # Stencil (Taylor) propagation — the Table III ladder
    # ------------------------------------------------------------------
    def _taylor_apply(self, psi_block: np.ndarray, use_naive: bool) -> np.ndarray:
        """Truncated Taylor expansion of exp(-i dt T) using FD stencils.

        The vectorised path ping-pongs the Taylor term between two buffers
        and scales each fused-stencil sweep in place; the naive path keeps
        its per-orbital Python loop on purpose (it is the Table III baseline).
        """
        coeff = -1j * self.dt
        result = psi_block.copy()
        if use_naive:
            term = psi_block
            for n in range(1, self.taylor_order + 1):
                lap = np.empty_like(term)
                for s in range(term.shape[0]):
                    lap[s] = (
                        laplacian_naive(term[s].real, self.grid)
                        + 1j * laplacian_naive(term[s].imag, self.grid)
                    )
                term = (-0.5) * lap * (coeff / n)
                result = result + term
            return result
        term = psi_block
        target = np.empty_like(psi_block)
        spare = np.empty_like(psi_block)
        for n in range(1, self.taylor_order + 1):
            lap = laplacian(term, self.grid, order=self.stencil_order, out=target)
            np.multiply(lap, -0.5 * (coeff / n), out=lap)
            result += lap
            term = lap
            target, spare = spare, target
        return result

    def kin_prop(self, psi: np.ndarray, implementation: str = "blocked") -> np.ndarray:
        """Propagate an orbital block with the named implementation variant."""
        if implementation not in IMPLEMENTATIONS:
            raise ValueError(
                f"unknown implementation {implementation!r}; expected one of {IMPLEMENTATIONS}"
            )
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.ndim == 3:
            psi = psi[None]
        if psi.shape[1:] != self.grid.shape:
            raise ValueError("psi grid shape does not match the propagator grid")
        n_orb = psi.shape[0]
        width = (2 if implementation == "baseline" else self.stencil_order) + 1
        self.flops.add(
            f"kin_prop_{implementation}",
            self.taylor_order * stencil_flops(self.grid.num_points, n_orb, 3 * width),
        )
        if implementation == "device":
            return self.propagate_exact(psi)
        if implementation == "baseline":
            out = np.empty_like(psi)
            for s in range(n_orb):
                out[s] = self._taylor_apply(psi[s:s + 1], use_naive=True)[0]
            return out
        if implementation == "reordered":
            out = np.empty_like(psi)
            for s in range(n_orb):
                out[s] = self._taylor_apply(psi[s:s + 1], use_naive=False)[0]
            return out
        # blocked
        out = np.empty_like(psi)
        for start in range(0, n_orb, self.block_size):
            stop = min(start + self.block_size, n_orb)
            out[start:stop] = self._taylor_apply(psi[start:stop], use_naive=False)
        return out

