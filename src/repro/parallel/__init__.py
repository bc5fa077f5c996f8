"""Virtual cluster: machine models, cost models and scaling studies.

The paper's scalability and time-to-solution results (Figs. 4-5, Tables I-II,
Sec. VII) were measured on 10,000 Aurora nodes; this reproduction has one
laptop-class machine, so the parallel runtime is *modelled*:

* :mod:`repro.parallel.machines` holds calibrated per-machine hardware
  parameters (Aurora PVC tiles, Fugaku, Summit, Theta, BlueGene/Q) used by the
  SOTA-comparison tables.
* :mod:`repro.parallel.costmodel` contains the DC-MESH and XS-NNQMD
  performance models whose single-domain constants are calibrated against the
  *measured* kernels of this repository and whose communication terms come
  from the machine model through an alpha-beta message cost
  (:class:`~repro.parallel.costmodel.CommunicationCost`).
* :mod:`repro.parallel.scaling` turns the cost models into the weak/strong
  scaling curves and parallel efficiencies that Fig. 4 and Fig. 5 report.
"""

from repro.parallel.machines import MachineSpec, MACHINES, aurora, fugaku, summit, theta, bluegene_q
from repro.parallel.costmodel import (
    CommunicationModel,
    DCMESHCostModel,
    NNQMDCostModel,
)
from repro.parallel.scaling import ScalingStudy, ScalingPoint

__all__ = [
    "MachineSpec",
    "MACHINES",
    "aurora",
    "fugaku",
    "summit",
    "theta",
    "bluegene_q",
    "CommunicationModel",
    "DCMESHCostModel",
    "NNQMDCostModel",
    "ScalingStudy",
    "ScalingPoint",
]
