"""Hardware models of the machines referenced by the paper.

The numbers are public system characteristics (interconnect latency and
bandwidth class); they parameterise the communication models used by the
scaling and time-to-solution benchmarks.  They intentionally stay at the
level of detail the paper itself uses, not a cycle-accurate simulation.
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
    network_latency_s:
        Per-message network latency (the alpha of the alpha-beta model).
    network_bandwidth_bytes_per_s:
        Per-link injection bandwidth (the 1/beta of the alpha-beta model).
    """

    name: str
    network_latency_s: float
    network_bandwidth_bytes_per_s: float


def aurora() -> MachineSpec:
    """ALCF Aurora: 10,624 nodes, 6 PVC GPUs x 2 tiles each; the paper uses
    10,000 nodes with 12 ranks per node (one per tile)."""
    return MachineSpec(
        name="Aurora",
        network_latency_s=2.0e-6,
        network_bandwidth_bytes_per_s=25.0e9,
    )


def fugaku() -> MachineSpec:
    """RIKEN Fugaku (A64FX CPUs, Tofu-D interconnect); SALMON's 27,648 nodes."""
    return MachineSpec(
        name="Fugaku",
        network_latency_s=1.0e-6,
        network_bandwidth_bytes_per_s=6.8e9,
    )


def summit() -> MachineSpec:
    """OLCF Summit (V100 GPUs); the PWDFT run used 768 GPUs."""
    return MachineSpec(
        name="Summit",
        network_latency_s=1.5e-6,
        network_bandwidth_bytes_per_s=12.5e9,
    )


def theta() -> MachineSpec:
    """ALCF Theta (KNL); the 2022 XS-NNQMD SOTA machine."""
    return MachineSpec(
        name="Theta",
        network_latency_s=3.0e-6,
        network_bandwidth_bytes_per_s=10.0e9,
    )


def bluegene_q() -> MachineSpec:
    """LLNL Sequoia-class IBM BlueGene/Q; the Qb@ll 2016 run used 98,304 nodes."""
    return MachineSpec(
        name="BlueGene/Q",
        network_latency_s=2.5e-6,
        network_bandwidth_bytes_per_s=2.0e9,
    )


#: Registry of machine models keyed by lower-case name.
MACHINES: Dict[str, MachineSpec] = {
    "aurora": aurora(),
    "fugaku": fugaku(),
    "summit": summit(),
    "theta": theta(),
    "bluegene/q": bluegene_q(),
}
