"""Tests for FLOP accounting, kernel workspaces and the paper's derived metrics."""

import numpy as np
import pytest

from repro.grid import Grid3D
from repro.perf import (
    FlopCounter,
    KernelWorkspace,
    LRUCache,
    fft_flops,
    get_workspace,
    me_time_to_solution,
    nnqmd_time_to_solution,
    parallel_efficiency_strong,
    parallel_efficiency_weak,
    stencil_flops,
)


class TestFlopCounter:
    def test_add_accumulates_per_kernel(self):
        counter = FlopCounter()
        counter.add("gemm", 100)
        counter.add("gemm", 50)
        counter.add("stencil", 10)
        assert counter["gemm"] == 150
        assert counter["stencil"] == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FlopCounter().add("x", -1)

    def test_stencil_and_fft_flops_positive(self):
        assert stencil_flops(1000, 8, 9) > 0
        assert fft_flops(4096) > fft_flops(1024) > 0
        assert fft_flops(1) == 0


class TestKernelWorkspace:
    def test_lru_eviction_and_stats(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.hits == 3 and cache.misses == 1
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_kinetic_operators_cached_and_read_only(self):
        ws = KernelWorkspace()
        grid = Grid3D((6, 6, 6), (6.0, 6.0, 6.0))
        operators = ws.kinetic_operators(grid, 0.1)
        assert all(again is operator for again, operator
                   in zip(ws.kinetic_operators(grid, 0.1), operators))
        assert len(operators) == 3
        # Cached per axis: the three axes of a cubic grid share one matrix.
        assert operators[0] is operators[1] is operators[2]
        for operator in operators:
            assert operator.shape == (6, 6)
            assert not operator.flags.writeable
            # The k = 0 mode (constant along the axis) keeps phase 1.
            np.testing.assert_allclose(operator @ np.ones(6), np.ones(6), atol=1e-14)
        assert ws.kinetic_operators(grid, 0.2)[0] is not operators[0]
        # An x-polarised A rebuilds U_x alone.
        moved = ws.kinetic_operators(grid, 0.1, np.array([0.5, 0.0, 0.0]))
        assert moved[0] is not operators[0]
        assert moved[1] is operators[1] and moved[2] is operators[2]
        stats = ws.stats
        # One lookup per axis: three new keys (one miss, two hits each)
        # and one full replay (three hits).
        assert stats["phase_hits"] == 9 and stats["phase_misses"] == 3

    def test_default_workspace_is_a_singleton(self):
        assert get_workspace() is get_workspace()


class TestMetrics:
    def test_me_t2s_matches_paper_value(self):
        # Paper Sec. VII.C.1: 1.705 s for 15,360,000 electrons -> 1.11e-7.
        assert me_time_to_solution(1.705, 15_360_000) == pytest.approx(1.11e-7, rel=1e-2)

    def test_qball_sota_t2s(self):
        # Table I: Qb@ll, 53.2 s / 59,400 electrons = 8.96e-4.
        assert me_time_to_solution(53.2, 59_400) == pytest.approx(8.96e-4, rel=1e-2)

    def test_nnqmd_t2s_matches_paper_value(self):
        # Sec. VII.C.2: 1590.31 s / (1.2288e12 atoms * 690,000 weights).
        value = nnqmd_time_to_solution(1590.31, 1_228_800_000_000, 690_000)
        assert value == pytest.approx(1.876e-15, rel=1e-2)

    def test_linker2022_sota_t2s(self):
        value = nnqmd_time_to_solution(3142.66, 1_007_271_936_000, 440)
        assert value == pytest.approx(7.091e-12, rel=1e-2)

    def test_weak_efficiency_perfect(self):
        ranks = np.array([4, 8, 16])
        work = ranks * 100.0
        seconds = np.full(3, 2.0)
        eff = parallel_efficiency_weak(work, seconds, ranks)
        assert np.allclose(eff, 1.0)

    def test_strong_efficiency_ideal_and_degraded(self):
        ranks = np.array([10, 20, 40])
        ideal = np.array([8.0, 4.0, 2.0])
        assert np.allclose(parallel_efficiency_strong(ideal, ranks), 1.0)
        degraded = np.array([8.0, 4.5, 3.0])
        eff = parallel_efficiency_strong(degraded, ranks)
        assert eff[0] == pytest.approx(1.0)
        assert np.all(np.diff(eff) < 0)

    def test_metric_input_validation(self):
        with pytest.raises(ValueError):
            me_time_to_solution(1.0, 0)
        with pytest.raises(ValueError):
            nnqmd_time_to_solution(1.0, 10, 0)
        with pytest.raises(ValueError):
            parallel_efficiency_weak(np.ones(2), np.ones(3), np.ones(2) + 1)
