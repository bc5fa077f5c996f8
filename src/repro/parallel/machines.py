"""Hardware models of the machines referenced by the paper.

The numbers are public system characteristics (peak FLOP/s, node counts,
interconnect latency/bandwidth class); they parameterise the communication
and throughput models used by the scaling and time-to-solution benchmarks.
They intentionally stay at the level of detail the paper itself uses (peak
rates and percent-of-peak), not a cycle-accurate simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class MachineSpec:
    """Coarse hardware description of one supercomputer.

    Attributes
    ----------
    name:
        Human-readable machine name.
    num_nodes:
        Node count of the full system (as used in the paper's runs).
    accelerators_per_node:
        GPU tiles (or equivalent accelerator units) per node; 0 for CPU-only.
    peak_flops_fp64_per_accelerator:
        Peak FP64 FLOP/s of one accelerator unit (or one node when CPU-only).
    peak_flops_fp32_per_accelerator:
        Peak FP32 FLOP/s of one accelerator unit.
    network_latency_s:
        Per-message network latency (the alpha of the alpha-beta model).
    network_bandwidth_bytes_per_s:
        Per-link injection bandwidth (the 1/beta of the alpha-beta model).
    ranks_per_node:
        MPI ranks per node used by the paper's runs on this machine.
    """

    name: str
    num_nodes: int
    accelerators_per_node: int
    peak_flops_fp64_per_accelerator: float
    peak_flops_fp32_per_accelerator: float
    network_latency_s: float
    network_bandwidth_bytes_per_s: float
    ranks_per_node: int = 1


def aurora() -> MachineSpec:
    """ALCF Aurora: 10,624 nodes, 6 PVC GPUs x 2 tiles each; the paper uses
    10,000 nodes with 12 ranks per node (one per tile), 23 TFLOP/s FP64 peak
    per tile (restricted to ~11 TFLOP/s by power throttling; the unthrottled
    number is used for percent-of-peak exactly as the paper does)."""
    return MachineSpec(
        name="Aurora",
        num_nodes=10_000,
        accelerators_per_node=12,
        peak_flops_fp64_per_accelerator=23.0e12,
        peak_flops_fp32_per_accelerator=26.7e12,
        network_latency_s=2.0e-6,
        network_bandwidth_bytes_per_s=25.0e9,
        ranks_per_node=12,
    )


def fugaku() -> MachineSpec:
    """RIKEN Fugaku (A64FX CPUs, Tofu-D interconnect); SALMON's 27,648 nodes."""
    return MachineSpec(
        name="Fugaku",
        num_nodes=27_648,
        accelerators_per_node=0,
        peak_flops_fp64_per_accelerator=3.07e12,
        peak_flops_fp32_per_accelerator=6.14e12,
        network_latency_s=1.0e-6,
        network_bandwidth_bytes_per_s=6.8e9,
        ranks_per_node=4,
    )


def summit() -> MachineSpec:
    """OLCF Summit (V100 GPUs); the PWDFT run used 768 GPUs."""
    return MachineSpec(
        name="Summit",
        num_nodes=128,
        accelerators_per_node=6,
        peak_flops_fp64_per_accelerator=7.8e12,
        peak_flops_fp32_per_accelerator=15.7e12,
        network_latency_s=1.5e-6,
        network_bandwidth_bytes_per_s=12.5e9,
        ranks_per_node=6,
    )


def theta() -> MachineSpec:
    """ALCF Theta (KNL); the 2022 XS-NNQMD SOTA machine."""
    return MachineSpec(
        name="Theta",
        num_nodes=4_392,
        accelerators_per_node=0,
        peak_flops_fp64_per_accelerator=2.6e12,
        peak_flops_fp32_per_accelerator=5.2e12,
        network_latency_s=3.0e-6,
        network_bandwidth_bytes_per_s=10.0e9,
        ranks_per_node=1,
    )


def bluegene_q() -> MachineSpec:
    """LLNL Sequoia-class IBM BlueGene/Q; the Qb@ll 2016 run used 98,304 nodes."""
    return MachineSpec(
        name="BlueGene/Q",
        num_nodes=98_304,
        accelerators_per_node=0,
        peak_flops_fp64_per_accelerator=0.2048e12,
        peak_flops_fp32_per_accelerator=0.2048e12,
        network_latency_s=2.5e-6,
        network_bandwidth_bytes_per_s=2.0e9,
        ranks_per_node=1,
    )


#: Registry of machine models keyed by lower-case name.
MACHINES: Dict[str, MachineSpec] = {
    "aurora": aurora(),
    "fugaku": fugaku(),
    "summit": summit(),
    "theta": theta(),
    "bluegene/q": bluegene_q(),
}
