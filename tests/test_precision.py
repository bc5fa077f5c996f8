"""Tests for the mixed-precision emulation (BF16/BF16x2/BF16x3, GEMM modes)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.precision import (
    GemmMode,
    MixedPrecisionGemm,
    PrecisionPolicy,
    bf16_round,
    bf16_split,
    default_policy,
    gemm,
    gemm_flops,
)


class TestBF16Rounding:
    def test_bf16_exactly_representable(self):
        # Powers of two and small integers are exactly representable in BF16.
        values = np.array([1.0, 2.0, 0.5, -4.0, 0.0])
        assert np.array_equal(bf16_round(values), values.astype(np.float32))

    def test_bf16_relative_error_bound(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-100, 100, 1000).astype(np.float32)
        rounded = bf16_round(values)
        rel = np.abs(rounded - values) / np.maximum(np.abs(values), 1e-30)
        assert np.max(rel) <= 2.0 ** -8

    def test_bf16_preserves_nonfinite(self):
        values = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        out = bf16_round(values)
        assert np.isinf(out[0]) and np.isinf(out[1]) and np.isnan(out[2])

    def test_bf16_complex(self):
        z = np.array([1.2345 + 6.789j])
        out = bf16_round(z)
        assert np.iscomplexobj(out)

    @given(st.integers(min_value=1, max_value=3))
    def test_bf16_split_reconstruction_improves(self, components):
        rng = np.random.default_rng(1)
        values = rng.uniform(-10, 10, 200).astype(np.float32)
        parts = bf16_split(values, components)
        assert len(parts) == components
        reconstructed = sum(parts)
        error = np.max(np.abs(reconstructed - values))
        assert error <= 2.0 ** (-7 * components) * 10.0 * 4

    def test_bf16_split_monotone_accuracy(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, 500).astype(np.float32)
        errors = []
        for n in (1, 2, 3):
            rec = sum(bf16_split(values, n))
            errors.append(float(np.max(np.abs(rec - values))))
        assert errors[0] >= errors[1] >= errors[2]



class TestGemm:
    def test_gemm_fp64_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 6))
        b = rng.standard_normal((6, 4))
        assert np.allclose(gemm(a, b, "fp64"), a @ b)

    @pytest.mark.parametrize("mode,tol", [("fp32", 1e-5), ("bf16", 2e-2), ("bf16x2", 1e-4), ("bf16x3", 1e-5)])
    def test_gemm_reduced_precision_error_scales(self, mode, tol):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        exact = a @ b
        approx = gemm(a, b, mode)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < tol

    def test_gemm_complex(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
        b = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        assert np.allclose(gemm(a, b, "fp64"), a @ b)
        rel = np.linalg.norm(gemm(a, b, "bf16") - a @ b) / np.linalg.norm(a @ b)
        assert rel < 3e-2

    def test_gemm_shape_validation(self):
        with pytest.raises(ValueError):
            gemm(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            gemm(np.zeros(3), np.zeros((3, 2)))

    def test_gemm_flops_convention(self):
        assert gemm_flops(2, 3, 4) == 2 * 2 * 3 * 4
        assert gemm_flops(2, 3, 4, complex_valued=True) == 8 * 2 * 3 * 4

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GemmMode.from_name("fp8")

    def test_mixed_precision_engine_counts_flops(self):
        engine = MixedPrecisionGemm(mode="fp32")
        a = np.ones((4, 4), dtype=complex)
        engine(a, a)
        assert engine.total_flops == gemm_flops(4, 4, 4, complex_valued=True)
        assert engine.call_count == 1

    def test_relative_speed_ordering_matches_paper(self):
        # Table IV: BF16 > FP32 > FP64 throughput on the PVC tile.
        assert GemmMode.from_name("bf16").relative_speed > GemmMode.from_name("fp32").relative_speed > 1.0


class TestPrecisionPolicy:
    def test_default_policy_matches_paper(self):
        policy = default_policy()
        assert policy.qxmd == "fp64"
        assert policy.lfd == "fp32"
        assert policy.nonlocal_gemm == "bf16"

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(qxmd="fp8")
