"""Divide-conquer-recombine (DCR) decomposition bookkeeping.

The paper's central algorithmic claim is that dividing the multiscale problem
into *physical* subproblems — not just spatial ones — produces pieces with
small dynamic ranges and minimal mutual information, each of which maps onto
the hardware unit whose characteristics match it best (Fig. 1).  This module
provides the registry that records that mapping: which subproblem runs where,
in which precision, and how many bytes cross each interface per MD step.  The
interface-size report is the quantitative form of the "minimal mutual
information" claim, and the tests check that the shadow-dynamics interfaces
are orders of magnitude smaller than the state they shadow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class HardwareUnit(str, Enum):
    """The hardware unit classes a subproblem can be mapped onto."""

    CPU = "cpu"
    GPU = "gpu"
    AI_ACCELERATOR = "ai_accelerator"
    QPU = "qpu"


@dataclass(frozen=True)
class Subproblem:
    """One physical or spatial subproblem of the DCR decomposition.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"lfd"``, ``"qxmd"``, ``"maxwell"``, ``"xs_nnqmd"``.
    hardware:
        The best-matching hardware unit class.
    precision:
        Arithmetic precision the subproblem runs in.
    state_bytes:
        Size of the subproblem's internal state (resident on its unit).
    description:
        One-line description for reports.
    """

    name: str
    hardware: HardwareUnit
    precision: str
    state_bytes: float
    description: str = ""


@dataclass
class DCRDecomposition:
    """Registry of subproblems and the data exchanged between them."""

    subproblems: Dict[str, Subproblem] = field(default_factory=dict)
    interfaces: Dict[Tuple[str, str], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add_subproblem(self, subproblem: Subproblem) -> None:
        if subproblem.name in self.subproblems:
            raise ValueError(f"subproblem {subproblem.name!r} already registered")
        self.subproblems[subproblem.name] = subproblem

    def add_interface(self, source: str, target: str, bytes_per_step: float) -> None:
        """Record the per-MD-step data volume flowing from source to target."""
        for name in (source, target):
            if name not in self.subproblems:
                raise KeyError(f"unknown subproblem {name!r}")
        if bytes_per_step < 0:
            raise ValueError("bytes_per_step must be non-negative")
        self.interfaces[(source, target)] = float(bytes_per_step)

    # ------------------------------------------------------------------
    def interface_bytes(self, source: str, target: str) -> float:
        return self.interfaces.get((source, target), 0.0)

    def mutual_information_ratio(self, source: str, target: str) -> float:
        """Interface size relative to the source's internal state.

        The shadow-dynamics design goal is that this ratio is tiny (the
        occupation numbers are negligible next to the wave-function arrays);
        the ratio is what the DCR ablation benchmark tabulates.
        """
        state = self.subproblems[source].state_bytes
        if state <= 0:
            return float("inf")
        return self.interface_bytes(source, target) / state

    def report(self) -> List[dict]:
        """Serialisable summary: one row per subproblem plus its outgoing links."""
        rows = []
        for name, sub in self.subproblems.items():
            outgoing = {
                f"{src}->{dst}": size
                for (src, dst), size in self.interfaces.items()
                if src == name
            }
            rows.append(
                {
                    "subproblem": name,
                    "hardware": sub.hardware.value,
                    "precision": sub.precision,
                    "state_bytes": sub.state_bytes,
                    "outgoing_interfaces": outgoing,
                    "description": sub.description,
                }
            )
        return rows


def mlmd_decomposition(
    num_domains: int,
    orbitals_per_domain: int,
    grid_points_per_domain: int,
    atoms_total: int,
    nn_weights: int,
    precision_policy: Optional[object] = None,
) -> DCRDecomposition:
    """Build the paper's MLMD decomposition with realistic state/interface sizes.

    The numbers follow Fig. 2: the LFD wave-function state is
    ``2 * 16 bytes * N_grid * N_orb`` per domain (complex128, Psi(t) and
    Psi(0)); what crosses the CPU-GPU boundary is only the occupation vector
    and the local-potential increment; what crosses DC-MESH -> XS-NNQMD is one
    number per domain.
    """
    from repro.precision.policy import PrecisionPolicy, default_policy

    policy: PrecisionPolicy = precision_policy or default_policy()  # type: ignore[assignment]
    decomposition = DCRDecomposition()
    wavefunction_bytes = 2.0 * 16.0 * grid_points_per_domain * orbitals_per_domain * num_domains
    decomposition.add_subproblem(
        Subproblem(
            "lfd",
            HardwareUnit.GPU,
            policy.lfd,
            wavefunction_bytes,
            "local field dynamics: real-time TDDFT propagation of KS orbitals",
        )
    )
    decomposition.add_subproblem(
        Subproblem(
            "qxmd",
            HardwareUnit.CPU,
            policy.qxmd,
            8.0 * 3 * atoms_total + 8.0 * grid_points_per_domain * num_domains,
            "electron-atom coupling: forces, SCF chemistry, surface hopping",
        )
    )
    decomposition.add_subproblem(
        Subproblem(
            "maxwell",
            HardwareUnit.CPU,
            "fp64",
            8.0 * 4 * num_domains,
            "macroscopic vector-potential propagation",
        )
    )
    decomposition.add_subproblem(
        Subproblem(
            "xs_nnqmd",
            HardwareUnit.AI_ACCELERATOR,
            policy.nn_inference,
            8.0 * nn_weights + 8.0 * 3 * atoms_total,
            "excited-state neural-network MD at device scale",
        )
    )
    occupations_bytes = 8.0 * orbitals_per_domain * num_domains
    delta_vloc_bytes = 4.0 * grid_points_per_domain * num_domains
    decomposition.add_interface("qxmd", "lfd", delta_vloc_bytes)
    decomposition.add_interface("lfd", "qxmd", occupations_bytes)
    decomposition.add_interface("maxwell", "lfd", 8.0 * 3 * num_domains)
    decomposition.add_interface("lfd", "maxwell", 8.0 * 3 * num_domains)
    decomposition.add_interface("lfd", "xs_nnqmd", 8.0 * num_domains)
    decomposition.add_interface("xs_nnqmd", "qxmd", 8.0 * 3 * atoms_total)
    return decomposition
