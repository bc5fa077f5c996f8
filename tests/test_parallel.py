"""Tests for the machine models, cost models and scaling studies."""

import pytest

from repro.parallel import (
    DCMESHCostModel,
    MACHINES,
    NNQMDCostModel,
    ScalingStudy,
)
from repro.parallel.costmodel import CommunicationCost, CommunicationModel
from repro.parallel.scaling import run_scaling_study


class TestMachines:
    def test_registry_contains_all_paper_machines(self):
        assert set(MACHINES) == {"aurora", "fugaku", "summit", "theta", "bluegene/q"}

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_every_machine_prices_communication(self, name):
        machine = MACHINES[name]
        # Microsecond latencies and GB/s links: an alpha-beta network.
        assert 1e-7 < machine.network_latency_s < 1e-4
        assert 1e9 <= machine.network_bandwidth_bytes_per_s <= 1e11
        ranks = (1, 64, 4096, 262144)
        dcmesh = DCMESHCostModel(machine=machine)
        compute = dcmesh.qd_steps_per_md_step * dcmesh.compute_seconds_per_qd_step(128.0)
        weak = [dcmesh.weak_scaling_time(p, 128.0) for p in ranks]
        assert compute < weak[0]
        assert all(a <= b for a, b in zip(weak, weak[1:]))
        nnqmd = NNQMDCostModel(machine=machine)
        weak = [nnqmd.weak_scaling_time(p, 1e6) for p in ranks]
        assert all(a < b for a, b in zip(weak, weak[1:]))


class TestCostModels:
    def test_communication_cost_model(self):
        cost = CommunicationCost(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert cost.message(1e9) == pytest.approx(1.0 + 1e-6)
        assert cost.tree_collective(0.0, 1024) == pytest.approx(10e-6)

    def test_communication_cost_rejects_invalid_sizes(self):
        cost = CommunicationCost()
        with pytest.raises(ValueError):
            cost.message(-1.0)
        with pytest.raises(ValueError):
            cost.tree_collective(8.0, 0)

    @pytest.mark.parametrize("ranks, rounds", [(1, 1), (2, 1), (3, 2), (1024, 10), (1025, 11)])
    def test_tree_collective_takes_ceil_log2_rounds(self, ranks, rounds):
        cost = CommunicationCost(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert cost.tree_collective(1e3, ranks) == pytest.approx(rounds * cost.message(1e3))

    def test_communication_model_halo_fixed_reductions_grow_as_log_ranks(self):
        cost = CommunicationCost(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        model = CommunicationModel(cost, halo_bytes=1e6, global_reduction_bytes=8.0,
                                   reductions_per_step=3)
        halo = 2.0 * cost.message(1e6)
        assert model.time_per_step(1) == pytest.approx(halo + 3 * cost.message(8.0))
        assert model.time_per_step(0) == model.time_per_step(1)
        growth = model.time_per_step(1024) - model.time_per_step(2)
        assert growth == pytest.approx(3 * 9 * cost.message(8.0))

    def test_dcmesh_t2s_is_weak_time_per_qd_step_per_electron(self):
        model = DCMESHCostModel()
        ranks, electrons = 6144, 128.0
        seconds_per_md = model.weak_scaling_time(ranks, electrons)
        assert model.time_to_solution(ranks, electrons) == pytest.approx(
            seconds_per_md / model.qd_steps_per_md_step / (ranks * electrons))

    def test_dcmesh_parameter_validation(self):
        with pytest.raises(ValueError):
            DCMESHCostModel(electrons_per_rank_reference=0.0)
        with pytest.raises(ValueError):
            DCMESHCostModel(gemm_fraction=1.5)
        model = DCMESHCostModel()
        with pytest.raises(ValueError):
            model.strong_scaling_time(0, 1e6)
        with pytest.raises(ValueError):
            model.strong_scaling_time(8, 0.0)

    def test_nnqmd_halo_grows_with_subdomain_surface(self):
        model = NNQMDCostModel(fixed_overhead_seconds=0.0, collective_seconds_per_log2p=0.0)
        # A cubic subdomain's halo shell holds 6 side^2 atoms: 8x the atoms
        # per rank is 4x the surface, so the halo bytes grow 4x.
        small = model.communication_time(64, 1e6) - model.communication_time(64, 0.0)
        large = model.communication_time(64, 8e6) - model.communication_time(64, 0.0)
        assert large == pytest.approx(4.0 * small)

    def test_nnqmd_t2s_normalises_by_atoms_and_weights(self):
        model = NNQMDCostModel()
        seconds = model.weak_scaling_time(100, 1e5)
        assert model.time_to_solution(100, 1e5, 7) == pytest.approx(seconds / (100 * 1e5 * 7))
        with pytest.raises(ValueError):
            NNQMDCostModel(seconds_per_atom_step=0.0)
        with pytest.raises(ValueError):
            NNQMDCostModel(fixed_overhead_seconds=-1.0)

    def test_dcmesh_t2s_matches_paper(self):
        model = DCMESHCostModel()
        t2s = model.time_to_solution(120_000, 128)
        assert t2s == pytest.approx(1.11e-7, rel=0.05)

    def test_dcmesh_weak_scaling_near_perfect(self):
        model = DCMESHCostModel()
        ranks = [6144, 24576, 120_000]
        study = run_scaling_study(
            "weak", "dcmesh", ranks,
            lambda p: 128.0 * p,
            lambda p: model.weak_scaling_time(p, 128.0),
        )
        assert study.efficiency_at_largest() > 0.98

    def test_dcmesh_strong_scaling_matches_paper_value(self):
        model = DCMESHCostModel()
        ranks = [24576, 49152, 98304]
        study = run_scaling_study(
            "strong", "dcmesh", ranks,
            lambda p: 12_582_912.0,
            lambda p: model.strong_scaling_time(p, 12_582_912.0),
        )
        assert study.efficiency_at_largest() == pytest.approx(0.843, abs=0.03)

    def test_dcmesh_compute_superlinear_in_orbitals(self):
        model = DCMESHCostModel()
        # The GEMM term makes 2x electrons per rank cost more than 2x.
        assert model.compute_seconds_per_qd_step(256) > 2.0 * model.compute_seconds_per_qd_step(128)

    def test_nnqmd_t2s_matches_paper(self):
        model = NNQMDCostModel()
        t2s = model.time_to_solution(120_000, 10_240_000, 690_000)
        assert t2s == pytest.approx(1.876e-15, rel=0.05)

    def test_nnqmd_weak_efficiency_ordering(self):
        model = NNQMDCostModel()
        ranks = [7500, 30_000, 120_000]
        efficiencies = {}
        for granularity in (160_000, 640_000, 10_240_000):
            study = run_scaling_study(
                "weak", str(granularity), ranks,
                lambda p, g=granularity: float(g) * p,
                lambda p, g=granularity: model.weak_scaling_time(p, g),
            )
            efficiencies[granularity] = study.efficiency_at_largest()
        # Smaller granularity -> lower weak-scaling efficiency (paper Fig. 5a ordering).
        assert efficiencies[160_000] < efficiencies[640_000] < efficiencies[10_240_000]
        assert efficiencies[10_240_000] > 0.99
        assert efficiencies[160_000] > 0.9

    def test_nnqmd_strong_efficiency_ordering(self):
        model = NNQMDCostModel()
        ranks = [9225, 18450, 36900, 73800]
        small = run_scaling_study(
            "strong", "small", ranks, lambda p: 221_400_000.0,
            lambda p: model.strong_scaling_time(p, 221_400_000.0),
        ).efficiency_at_largest()
        large = run_scaling_study(
            "strong", "large", ranks, lambda p: 984_000_000.0,
            lambda p: model.strong_scaling_time(p, 984_000_000.0),
        ).efficiency_at_largest()
        # Larger problems scale better (paper: 0.773 vs 0.440).
        assert large > small
        assert 0.2 < small < 0.6
        assert 0.5 < large < 0.9

    def test_cost_model_validation(self):
        model = NNQMDCostModel()
        with pytest.raises(ValueError):
            model.weak_scaling_time(10, -1.0)
        with pytest.raises(ValueError):
            model.time_to_solution(10, 100.0, 0)
        dc = DCMESHCostModel()
        with pytest.raises(ValueError):
            dc.compute_seconds_per_qd_step(0.0)


class TestScalingStudy:
    def test_weak_and_strong_rows(self):
        study = ScalingStudy(kind="weak", label="demo")
        study.add_point(10, 1000.0, 2.0)
        study.add_point(20, 2000.0, 2.1)
        rows = study.as_rows()
        assert len(rows) == 2
        assert rows[-1]["efficiency"] < 1.0
        strong = ScalingStudy(kind="strong", label="demo")
        strong.add_point(10, 100.0, 8.0)
        strong.add_point(40, 100.0, 2.5)
        assert strong.speedups()[-1] == pytest.approx(3.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingStudy(kind="diagonal")
        study = ScalingStudy(kind="weak")
        with pytest.raises(ValueError):
            study.add_point(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            study.efficiencies()
