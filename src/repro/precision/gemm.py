"""Mixed-precision GEMM emulation (paper Sec. V.B.5, V.B.7, VI.C).

The performance hotspot of DC-MESH is the "GEMMified" nonlocal correction,
Eq. (5) of the paper: ``Psi(t) -= delta * Psi(0) Psi(0)^H Psi(t)``.  On Aurora
this runs through oneMKL BLAS with the ``float_to_BF16*`` compute modes.  The
:class:`MixedPrecisionGemm` here reproduces the numerical behaviour of those
modes in software: operands are decomposed into BF16 components, the component
products are accumulated in FP32 (or FP64), and the result carries exactly the
rounding error the hardware path would produce.  The relative *throughput* of
each mode is modelled with per-mode cost factors taken from the paper's single
tile measurements (Table IV), since this reproduction has no systolic arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.precision.floats import bf16_split


@dataclass(frozen=True)
class GemmMode:
    """A named GEMM compute mode.

    Attributes
    ----------
    name:
        One of ``fp64``, ``fp32``, ``bf16``, ``bf16x2``, ``bf16x3``.
    components:
        Number of BF16 components each operand is decomposed into (0 means the
        operands are used directly in the named IEEE precision).
    accumulate_dtype:
        NumPy dtype used for the accumulation.
    relative_speed:
        Throughput of this mode relative to FP64 GEMM on the modelled
        accelerator.  FP32 is ~2x on PVC only because FP64 is power-throttled;
        BF16 adds the paper's measured ~20% on top of FP32 (Table IV).
    """

    name: str
    components: int
    accumulate_dtype: type
    relative_speed: float

    @staticmethod
    def from_name(name: str) -> "GemmMode":
        try:
            return _GEMM_MODES[name.lower()]
        except KeyError as exc:
            raise ValueError(
                f"unknown GEMM mode {name!r}; expected one of {sorted(_GEMM_MODES)}"
            ) from exc


_GEMM_MODES: Dict[str, GemmMode] = {
    "fp64": GemmMode("fp64", 0, np.float64, 1.0),
    "fp32": GemmMode("fp32", 0, np.float32, 1.948),  # 14.98 / 7.69 from Table IV
    "bf16": GemmMode("bf16", 1, np.float32, 2.334),  # 17.95 / 7.69 from Table IV
    "bf16x2": GemmMode("bf16x2", 2, np.float32, 2.10),
    "bf16x3": GemmMode("bf16x3", 3, np.float32, 1.95),
}


def gemm_flops(m: int, n: int, k: int, complex_valued: bool = False) -> int:
    """Floating-point operation count of a GEMM of shape (m,k) x (k,n).

    A real GEMM performs ``2*m*n*k`` flops (one multiply and one add per inner
    product term); a complex GEMM performs 4 multiplies and 4 adds per term,
    i.e. ``8*m*n*k`` flops, which is the convention used by the paper when it
    reports CGEMM FLOP/s.
    """
    base = 2 * m * n * k
    return 4 * base if complex_valued else base


def _gemm_reduced(a: np.ndarray, b: np.ndarray, mode: GemmMode) -> np.ndarray:
    """Multiply two matrices whose operands are rounded per the GEMM mode."""
    complex_valued = np.iscomplexobj(a) or np.iscomplexobj(b)
    if mode.components == 0:
        if mode.name == "fp64":
            a_r = np.asarray(a, dtype=np.complex128 if complex_valued else np.float64)
            b_r = np.asarray(b, dtype=np.complex128 if complex_valued else np.float64)
            return a_r @ b_r
        # fp32: round operands, accumulate in fp32 (complex64 for complex data)
        if complex_valued:
            a_r = np.asarray(a, dtype=np.complex64)
            b_r = np.asarray(b, dtype=np.complex64)
        else:
            a_r = np.asarray(a, dtype=np.float32)
            b_r = np.asarray(b, dtype=np.float32)
        return a_r @ b_r
    # BF16 component decomposition with FP32 accumulation.  Components are
    # multiplied pairwise in descending significance order, as MKL does, and
    # products whose combined order exceeds the requested component count are
    # skipped (that is what makes BF16x2 cheaper than the full cross product).
    a_parts = bf16_split(np.asarray(a), mode.components)
    b_parts = bf16_split(np.asarray(b), mode.components)
    acc_dtype = np.complex64 if complex_valued else np.float32
    out = None
    for i, a_i in enumerate(a_parts):
        for j, b_j in enumerate(b_parts):
            if i + j >= mode.components:
                continue
            prod = a_i.astype(acc_dtype) @ b_j.astype(acc_dtype)
            out = prod if out is None else out + prod
    assert out is not None
    return out


def gemm(a: np.ndarray, b: np.ndarray, mode: str = "fp64") -> np.ndarray:
    """General matrix-matrix multiply in the named compute mode.

    The result is always returned in float64 / complex128 so callers can mix
    modes freely; the rounding error of the reduced-precision path is already
    baked into the values.
    """
    gemm_mode = GemmMode.from_name(mode)
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gemm expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible GEMM shapes {a.shape} x {b.shape}")
    result = _gemm_reduced(a, b, gemm_mode)
    if np.iscomplexobj(result):
        return np.asarray(result, dtype=np.complex128)
    return np.asarray(result, dtype=np.float64)


@dataclass
class MixedPrecisionGemm:
    """Stateful GEMM engine that counts flops and models per-mode throughput.

    This is the object the LFD nonlocal propagator uses: every call records
    the flop count (complex GEMM convention) and the *modelled* execution time
    on the reference accelerator, so benchmark harnesses can report FLOP/s for
    each precision mode the way Table IV / V do.
    """

    mode: str = "fp64"
    #: FP64 GEMM throughput of the modelled accelerator in FLOP/s.  The default
    #: corresponds to one Aurora PVC tile sustaining ~10 TFLOP/s FP64 on large
    #: CGEMMs (peak 23 TFLOP/s minus power throttling and non-GEMM overhead).
    fp64_gemm_flops_per_second: float = 9.3e12
    total_flops: int = field(default=0, init=False)
    total_model_seconds: float = field(default=0.0, init=False)
    call_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._mode = GemmMode.from_name(self.mode)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        result = gemm(a, b, self._mode.name)
        complex_valued = np.iscomplexobj(a) or np.iscomplexobj(b)
        flops = gemm_flops(a.shape[0], b.shape[1], a.shape[1], complex_valued)
        self.total_flops += flops
        rate = self.fp64_gemm_flops_per_second * self._mode.relative_speed
        self.total_model_seconds += flops / rate
        self.call_count += 1
        return result
