"""Software emulation of reduced floating-point formats.

BF16 (bfloat16) keeps FP32's 8-bit exponent but truncates the mantissa to
7 explicit bits.  The emulation here rounds an FP32/FP64 array to the nearest
representable BF16 value by zeroing the low 16 bits of the FP32 bit pattern
with round-to-nearest-even, which reproduces the precision loss of hardware
BF16 units exactly.  The ``bf16_split`` helper implements the MKL
``float_to_BF16x2 / x3`` decomposition: a single FP32 value is written as a sum
of 1-3 BF16 components so that multiplying component matrices and accumulating
in FP32 recovers (most of) single-precision accuracy.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Canonical names of the precision modes used throughout the library.
PRECISION_NAMES = ("fp64", "fp32", "bf16", "bf16x2", "bf16x3", "fp16")


def bf16_round(values: np.ndarray) -> np.ndarray:
    """Round an array to bfloat16 precision, returned as float32.

    Complex arrays are rounded component-wise.  NaNs and infinities are
    preserved (their bit patterns already fit in the BF16 exponent range).
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return bf16_round(values.real) + 1j * bf16_round(values.imag)
    f32 = np.ascontiguousarray(values, dtype=np.float32)
    bits = f32.view(np.uint32)
    # Round-to-nearest-even on the upper 16 bits of the FP32 pattern.
    lsb = (bits >> 16) & np.uint32(1)
    rounding_bias = np.uint32(0x7FFF) + lsb
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    out = rounded.view(np.float32).copy()
    # Keep NaN/inf untouched (the rounding above can disturb NaN payloads).
    nonfinite = ~np.isfinite(f32)
    if np.any(nonfinite):
        out[nonfinite] = f32[nonfinite]
    return out.reshape(values.shape)


def bf16_split(values: np.ndarray, components: int) -> List[np.ndarray]:
    """Decompose FP32 values into a sum of ``components`` BF16 terms.

    This mirrors MKL's ``float_to_BF16x{1,2,3}`` modes: the first component is
    the BF16 rounding of the input, the second the BF16 rounding of the
    residual, and so on.  Summing the components recovers the input to roughly
    7 * components mantissa bits.
    """
    if components not in (1, 2, 3):
        raise ValueError("components must be 1, 2, or 3")
    values = np.asarray(values)
    if np.iscomplexobj(values):
        real_parts = bf16_split(values.real, components)
        imag_parts = bf16_split(values.imag, components)
        return [r + 1j * i for r, i in zip(real_parts, imag_parts)]
    residual = np.asarray(values, dtype=np.float32).copy()
    parts: List[np.ndarray] = []
    for _ in range(components):
        part = bf16_round(residual)
        parts.append(part)
        residual = residual - part
    return parts

