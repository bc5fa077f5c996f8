"""Parameterized mixed-precision arithmetic (paper Sec. V.B.7 and VI.C).

The paper runs the QXMD chemistry in FP64, the LFD shadow dynamics in FP32,
and the GEMMified nonlocal correction in BF16 with FP32 accumulation using the
Intel MKL ``float_to_{BF16,BF16x2,BF16x3}`` compute modes.  This subpackage
provides a software emulation of those modes so the accuracy/throughput
trade-off (Tables IV and V, Sec. VI.C) can be reproduced without the MKL
systolic-array hardware.
"""

from repro.precision.floats import (
    PRECISION_NAMES,
    bf16_round,
    bf16_split,
)
from repro.precision.gemm import (
    GemmMode,
    MixedPrecisionGemm,
    gemm,
    gemm_flops,
)
from repro.precision.policy import PrecisionPolicy, default_policy

__all__ = [
    "PRECISION_NAMES",
    "bf16_round",
    "bf16_split",
    "GemmMode",
    "MixedPrecisionGemm",
    "gemm",
    "gemm_flops",
    "PrecisionPolicy",
    "default_policy",
]
