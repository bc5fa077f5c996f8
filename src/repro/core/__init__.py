"""MLMD orchestration: DCR bookkeeping and the pipeline.

This is the "software integration" layer of the paper's Fig. 1: the
divide-conquer-recombine decomposition that maps physical subproblems onto
(virtual) hardware units, and the end-to-end MLMD pipeline (GS-NNQMD
preparation -> DC-MESH laser excitation -> XS-NNQMD topological dynamics)
that produces the photo-switching result of Fig. 3.  The metamodel-space
algebra that runs is Eq. 4's force mixing (:mod:`repro.xsnn.mixing`) and
total energy alignment (:mod:`repro.nn.tea`).
"""

from repro.core.dcr import DCRDecomposition, Subproblem, HardwareUnit
from repro.core.mlmd import MLMDPipeline

__all__ = [
    "DCRDecomposition",
    "Subproblem",
    "HardwareUnit",
    "MLMDPipeline",
]
