"""Performance models of DC-MESH and XS-NNQMD on a virtual cluster.

The models are deliberately simple — per-rank compute time plus an alpha-beta
communication term — because that is all that is needed to reproduce the
*shape* of the paper's scaling results: near-perfect weak scaling (the
communication per rank is a halo exchange plus a handful of O(log P) global
reductions, both tiny next to the per-domain compute) and strong-scaling
efficiencies that degrade as the per-rank workload shrinks relative to the
fixed communication cost.

The per-rank compute constants can either be supplied directly (e.g. measured
with the in-repo kernels and rescaled by the ratio of the modelled
accelerator's throughput to the local machine's) or left at the defaults,
which are calibrated so the full-machine Aurora predictions land on the
paper's reported wall-clock times (1.705 s per QD step for 15.36 M electrons;
1590 s per MD step for 1.23 T atoms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.parallel.machines import MachineSpec, aurora


@dataclass
class CommunicationCost:
    """Alpha-beta cost model of one message: alpha + bytes / bandwidth."""

    latency_s: float = 2.0e-6
    bandwidth_bytes_per_s: float = 25.0e9

    def message(self, num_bytes: float) -> float:
        if num_bytes < 0:
            raise ValueError("message size must be non-negative")
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s

    def tree_collective(self, num_bytes: float, num_ranks: int) -> float:
        """Cost of a tree-based collective (reduce/bcast/gather): log2(P) rounds."""
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        rounds = max(1.0, np.ceil(np.log2(num_ranks)))
        return rounds * self.message(num_bytes)


@dataclass
class CommunicationModel:
    """Communication volumes of one MD step, charged with an alpha-beta model."""

    cost: CommunicationCost
    halo_bytes: float
    global_reduction_bytes: float = 8.0 * 1024
    reductions_per_step: int = 4

    def time_per_step(self, num_ranks: int) -> float:
        """Halo exchange (P-independent) + tree reductions (log P)."""
        halo = 2.0 * self.cost.message(self.halo_bytes)
        reductions = self.reductions_per_step * self.cost.tree_collective(
            self.global_reduction_bytes, max(num_ranks, 1)
        )
        return halo + reductions


@dataclass
class DCMESHCostModel:
    """Wall-clock model of the DC-MESH module (quantum dynamics).

    Parameters
    ----------
    machine:
        Hardware model (defaults to Aurora).
    electrons_per_rank_reference:
        Granularity at which ``seconds_per_qd_step_reference`` was measured
        (the paper's production granularity is 128 electrons per rank).
    seconds_per_qd_step_reference:
        Per-rank compute time of one QD step at the reference granularity.
        The default reproduces the paper's 1.705 s per QD step on 120,000
        ranks for 15.36 M electrons once communication is added.
    gemm_fraction:
        Fraction of the compute that is the O(n_orb^2) GEMMified nonlocal
        correction (the rest scales linearly with electrons per rank).
    halo_bytes:
        Bytes exchanged with spatial neighbours per rank per MD step (domain
        boundary potentials / densities).
    """

    machine: MachineSpec = field(default_factory=aurora)
    electrons_per_rank_reference: float = 128.0
    seconds_per_qd_step_reference: float = 1.70
    gemm_fraction: float = 0.55
    halo_bytes: float = 4.0e6
    qd_steps_per_md_step: int = 1000
    #: Per-rank, per-QD-step work that does not shrink when a domain's orbitals
    #: are split among more ranks (band decomposition): each rank still sweeps
    #: the full domain grid for the local potential and joins the domain-wide
    #: orthonormalisation/overlap reductions.  Calibrated so the strong-scaling
    #: efficiency at 4x the base rank count reproduces the paper's 0.843.
    band_overhead_seconds_per_qd_step: float = 0.45

    def __post_init__(self) -> None:
        if self.electrons_per_rank_reference <= 0:
            raise ValueError("electrons_per_rank_reference must be positive")
        if not (0.0 <= self.gemm_fraction <= 1.0):
            raise ValueError("gemm_fraction must lie in [0, 1]")
        self._comm = CommunicationModel(
            CommunicationCost(
                self.machine.network_latency_s,
                self.machine.network_bandwidth_bytes_per_s,
            ),
            halo_bytes=self.halo_bytes,
        )

    # ------------------------------------------------------------------
    def compute_seconds_per_qd_step(self, electrons_per_rank: float) -> float:
        """Per-rank compute time of one QD step at a given granularity.

        The linear part (local propagation, Hartree) scales with the electron
        count; the GEMM part scales quadratically (overlap matrices between
        all orbital pairs of the domain).
        """
        if electrons_per_rank <= 0:
            raise ValueError("electrons_per_rank must be positive")
        x = electrons_per_rank / self.electrons_per_rank_reference
        linear = (1.0 - self.gemm_fraction) * x
        quadratic = self.gemm_fraction * x ** 2
        return self.seconds_per_qd_step_reference * (linear + quadratic)

    def weak_scaling_time(self, num_ranks: int, electrons_per_rank: float) -> float:
        """Wall-clock seconds per MD step with fixed per-rank workload."""
        compute = self.qd_steps_per_md_step * self.compute_seconds_per_qd_step(
            electrons_per_rank
        )
        comm = self._comm.time_per_step(num_ranks)
        return compute + comm

    def strong_scaling_time(self, num_ranks: int, total_electrons: float,
                            base_ranks: Optional[int] = None) -> float:
        """Wall-clock seconds per MD step with fixed total problem size.

        Adding ranks to a fixed problem subdivides the orbitals of each domain
        among more ranks (hybrid band-space decomposition), so per-rank
        compute shrinks ~1/P while the per-rank communication — which now also
        includes the intra-domain reductions of the band decomposition — stays
        essentially constant and grows slowly as log P.
        """
        if num_ranks < 1 or total_electrons <= 0:
            raise ValueError("num_ranks must be >= 1 and total_electrons positive")
        del base_ranks
        electrons_per_rank = total_electrons / num_ranks
        # Band decomposition splits a domain's orbitals among ranks: the GEMM
        # work per rank falls linearly (each rank owns a slab of the overlap
        # matrix), so the scalable part of the per-rank time uses the linear
        # formula; the grid-wide sweeps and intra-domain collectives do not
        # shrink and appear as the band overhead.
        compute = self.qd_steps_per_md_step * (
            self.seconds_per_qd_step_reference
            * (electrons_per_rank / self.electrons_per_rank_reference)
            + self.band_overhead_seconds_per_qd_step
        )
        comm = self._comm.time_per_step(num_ranks)
        return compute + comm

    def time_to_solution(self, num_ranks: int, electrons_per_rank: float) -> float:
        """T2S per electron per QD step (the Table I metric).

        ``electrons_per_rank`` counts the rank's *core* (non-overlapping)
        electrons — the paper's 15.36 M-electron count is 128 core electrons
        per rank times 120,000 ranks; the 8x buffer overlap is already folded
        into the per-rank compute time.
        """
        seconds_per_md = self.weak_scaling_time(num_ranks, electrons_per_rank)
        seconds_per_qd = seconds_per_md / self.qd_steps_per_md_step
        total_electrons = num_ranks * electrons_per_rank
        return seconds_per_qd / total_electrons


@dataclass
class NNQMDCostModel:
    """Wall-clock model of the XS-NNQMD module (neural-network MD).

    Parameters
    ----------
    seconds_per_atom_step:
        Per-rank compute time per atom per MD step (GS + XS inference).  The
        default reproduces the paper's 1590 s per MD step for 1.2288 T atoms
        on 120,000 ranks (10.24 M atoms per rank).
    halo_bytes_per_surface_atom:
        Communication volume per boundary atom exchanged with neighbours.
    """

    machine: MachineSpec = field(default_factory=aurora)
    seconds_per_atom_step: float = 1.55e-4
    halo_bytes_per_surface_atom: float = 64.0
    global_reduction_bytes: float = 64.0 * 1024
    #: Per-step fixed overhead of one rank: neighbour-list refresh, inference
    #: batching and kernel-launch latency of the ML runtime.  Independent of
    #: the atom count, which is what erodes the efficiency at small
    #: granularities (the paper's 0.957 at 160 k atoms/rank vs 0.997 at
    #: 10.24 M atoms/rank).
    fixed_overhead_seconds: float = 0.6
    #: Coefficient of the O(log P) collective/imbalance overhead per step.
    collective_seconds_per_log2p: float = 0.05

    def __post_init__(self) -> None:
        if self.seconds_per_atom_step <= 0:
            raise ValueError("seconds_per_atom_step must be positive")
        if self.fixed_overhead_seconds < 0 or self.collective_seconds_per_log2p < 0:
            raise ValueError("overhead parameters must be non-negative")
        self._cost = CommunicationCost(
            self.machine.network_latency_s,
            self.machine.network_bandwidth_bytes_per_s,
        )

    # ------------------------------------------------------------------
    def _surface_atoms(self, atoms_per_rank: float) -> float:
        """Number of atoms in one halo shell of a cubic per-rank subdomain."""
        side = atoms_per_rank ** (1.0 / 3.0)
        return 6.0 * side ** 2

    def communication_time(self, num_ranks: int, atoms_per_rank: float) -> float:
        halo_bytes = self._surface_atoms(atoms_per_rank) * self.halo_bytes_per_surface_atom
        halo = 6.0 * self._cost.message(halo_bytes)
        reduction = 2.0 * self._cost.tree_collective(
            self.global_reduction_bytes, max(num_ranks, 1)
        )
        overhead = self.fixed_overhead_seconds + self.collective_seconds_per_log2p * np.log2(
            max(num_ranks, 2)
        )
        return halo + reduction + overhead

    def weak_scaling_time(self, num_ranks: int, atoms_per_rank: float) -> float:
        """Seconds per MD step at fixed atoms per rank."""
        if atoms_per_rank <= 0:
            raise ValueError("atoms_per_rank must be positive")
        compute = self.seconds_per_atom_step * atoms_per_rank
        return compute + self.communication_time(num_ranks, atoms_per_rank)

    def strong_scaling_time(self, num_ranks: int, total_atoms: float) -> float:
        """Seconds per MD step at fixed total atom count."""
        if total_atoms <= 0 or num_ranks < 1:
            raise ValueError("total_atoms must be positive and num_ranks >= 1")
        atoms_per_rank = total_atoms / num_ranks
        compute = self.seconds_per_atom_step * atoms_per_rank
        return compute + self.communication_time(num_ranks, atoms_per_rank)

    def time_to_solution(self, num_ranks: int, atoms_per_rank: float,
                         num_weights: int) -> float:
        """T2S per atom per weight per MD step (the Table II metric)."""
        if num_weights < 1:
            raise ValueError("num_weights must be >= 1")
        seconds = self.weak_scaling_time(num_ranks, atoms_per_rank)
        total_atoms = num_ranks * atoms_per_rank
        return seconds / (total_atoms * num_weights)
