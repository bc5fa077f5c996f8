"""MLMD orchestration: DCR bookkeeping, metamodel-space algebra, the pipeline.

This is the "software integration" layer of the paper's Fig. 1: the
divide-conquer-recombine decomposition that maps physical subproblems onto
(virtual) hardware units, the metamodel-space algebra that couples methods of
different fidelity with minimal data exchange, and the end-to-end MLMD
pipeline (GS-NNQMD preparation -> DC-MESH laser excitation -> XS-NNQMD
topological dynamics) that produces the photo-switching result of Fig. 3.
"""

from repro.core.dcr import DCRDecomposition, Subproblem, HardwareUnit
from repro.core.msa import MetamodelExtrapolation, metamodel_combine
from repro.core.mlmd import MLMDPipeline

__all__ = [
    "DCRDecomposition",
    "Subproblem",
    "HardwareUnit",
    "MetamodelExtrapolation",
    "metamodel_combine",
    "MLMDPipeline",
]
