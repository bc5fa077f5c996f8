"""Precision policies: which subproblem runs in which precision (Sec. V.B.7).

The DCR decomposition produces subproblems with small dynamic ranges, which is
what makes low precision safe: occupation numbers live in [0, 1] (FP32 is
plenty), the nonlocal correction is a small perturbative term (BF16 with FP32
accumulation suffices), while the QXMD chemistry keeps FP64.  A
:class:`PrecisionPolicy` bundles those choices so simulation drivers and
benchmarks can switch the whole stack between "accuracy" and "throughput"
configurations with one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.precision.floats import PRECISION_NAMES


@dataclass(frozen=True)
class PrecisionPolicy:
    """Precision assignment for the physical subproblems of MLMD.

    Attributes
    ----------
    qxmd:
        Precision of the CPU-side QXMD chemistry (forces, SCF).  The paper
        keeps this at FP64.
    lfd:
        Precision of the GPU-side local field dynamics (wave-function
        propagation, occupations).
    nonlocal_gemm:
        GEMM compute mode for the GEMMified nonlocal correction.
    nn_inference:
        Precision of Allegro-lite descriptor/latent computations.
    nn_forces:
        Precision of the final NN force assembly (kept FP64 in the paper).
    """

    qxmd: str = "fp64"
    lfd: str = "fp32"
    nonlocal_gemm: str = "bf16"
    nn_inference: str = "fp32"
    nn_forces: str = "fp64"

    def __post_init__(self) -> None:
        for name, value in (
            ("qxmd", self.qxmd),
            ("lfd", self.lfd),
            ("nonlocal_gemm", self.nonlocal_gemm),
            ("nn_inference", self.nn_inference),
            ("nn_forces", self.nn_forces),
        ):
            if value.lower() not in PRECISION_NAMES:
                raise ValueError(
                    f"precision policy field {name}={value!r} not in {PRECISION_NAMES}"
                )


def default_policy() -> PrecisionPolicy:
    """The paper's production configuration: FP64 QXMD, FP32 LFD, BF16 GEMM."""
    return PrecisionPolicy()

