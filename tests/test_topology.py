"""Tests for the topological-charge machinery and texture analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.md.lattice import skyrmion_displacement_field
from repro.topology import (
    classify_texture,
    switching_time,
    topological_charge,
    topological_charge_density,
)
from repro.topology.polarization import in_plane_slice, normalize_texture


def reference_charge_density(texture):
    """The charge density as first written: ``np.roll`` neighbours and
    ``np.cross`` (the oracle for the gather form in the library)."""
    n = normalize_texture(np.asarray(texture, dtype=float))
    n_right = np.roll(n, -1, axis=0)
    n_up = np.roll(n, -1, axis=1)
    n_diag = np.roll(np.roll(n, -1, axis=0), -1, axis=1)

    def solid_angle(n1, n2, n3):
        numerator = np.einsum("...i,...i->...", n1, np.cross(n2, n3))
        denominator = (
            1.0
            + np.einsum("...i,...i->...", n1, n2)
            + np.einsum("...i,...i->...", n2, n3)
            + np.einsum("...i,...i->...", n3, n1)
        )
        return 2.0 * np.arctan2(numerator, denominator)

    omega1 = solid_angle(n, n_right, n_diag)
    omega2 = solid_angle(n, n_diag, n_up)
    return (omega1 + omega2) / (4.0 * np.pi)


def _single_skyrmion(n=24, sign=-1.0):
    field = skyrmion_displacement_field((n, n, 1), (1, 1),
                                        core_polarization=sign,
                                        background_polarization=-sign)
    return in_plane_slice(field, 0)


class TestTopologicalCharge:
    def test_uniform_texture_has_zero_charge(self):
        texture = np.zeros((16, 16, 3))
        texture[..., 2] = 1.0
        assert topological_charge(texture) == pytest.approx(0.0, abs=1e-12)

    def test_single_skyrmion_charge_is_unit(self):
        texture = _single_skyrmion()
        assert abs(topological_charge(texture)) == pytest.approx(1.0, abs=1e-6)

    def test_charge_sign_flips_with_core_orientation(self):
        up_core = _single_skyrmion(sign=1.0)
        down_core = _single_skyrmion(sign=-1.0)
        assert topological_charge(up_core) == pytest.approx(-topological_charge(down_core), abs=1e-6)

    def test_superlattice_counts_all_skyrmions(self):
        field = skyrmion_displacement_field((30, 30, 1), (3, 2))
        charge = topological_charge(in_plane_slice(field, 0))
        assert abs(charge) == pytest.approx(6.0, abs=0.05)

    def test_charge_density_sums_to_total(self):
        texture = _single_skyrmion()
        density = topological_charge_density(texture)
        assert density.shape == texture.shape[:2]
        assert density.sum() == pytest.approx(topological_charge(texture))

    @given(seed=st.integers(min_value=0, max_value=1000),
           amplitude=st.floats(min_value=0.0, max_value=0.15))
    @settings(max_examples=20, deadline=None)
    def test_charge_is_integer_under_smooth_perturbations(self, seed, amplitude):
        """Topological protection: smooth perturbations cannot change Q."""
        rng = np.random.default_rng(seed)
        texture = _single_skyrmion(20)
        # Smooth (long-wavelength) perturbation: random low-order Fourier modes.
        nx, ny, _ = texture.shape
        x = np.arange(nx)[:, None] / nx
        y = np.arange(ny)[None, :] / ny
        perturbation = np.zeros_like(texture)
        for _ in range(3):
            kx, ky = rng.integers(1, 3, 2)
            phase = rng.uniform(0, 2 * np.pi)
            bump = np.sin(2 * np.pi * (kx * x + ky * y) + phase)
            perturbation += amplitude * bump[..., None] * rng.standard_normal(3)
        perturbed = texture + perturbation
        q = topological_charge(perturbed)
        assert q == pytest.approx(round(q), abs=1e-6)
        assert round(q) == round(topological_charge(texture))

    def test_density_matches_the_roll_and_cross_oracle_bit_for_bit(self):
        rng = np.random.default_rng(7)
        shapes = [(16, 16), (1, 1), (1, 5), (2, 2), (3, 7), (24, 10)]
        for i in range(200):
            nx, ny = shapes[i % len(shapes)]
            texture = rng.standard_normal((nx, ny, 3))
            texture[rng.random((nx, ny)) < 0.05] = 0.0  # zero vectors stay zero
            expected = reference_charge_density(texture)
            assert topological_charge_density(texture).tobytes() == expected.tobytes()

    def test_normalize_texture_handles_zeros(self):
        texture = np.zeros((4, 4, 3))
        texture[0, 0] = [0.0, 0.0, 2.0]
        unit = normalize_texture(texture)
        assert np.allclose(unit[0, 0], [0, 0, 1])
        assert np.allclose(unit[1, 1], 0.0)


class TestTextureAnalysis:
    def test_classify_skyrmion(self):
        field = skyrmion_displacement_field((24, 24, 1), (2, 2))
        analysis = classify_texture(field)
        assert analysis.label == "skyrmion"
        assert abs(analysis.topological_charge) == pytest.approx(4.0, abs=0.05)

    def test_classify_ferroelectric_and_depolarized(self):
        uniform = np.zeros((8, 8, 1, 3))
        uniform[..., 2] = 0.8
        assert classify_texture(uniform).label == "ferroelectric"
        assert classify_texture(np.zeros((8, 8, 1, 3))).label == "depolarized"

    def test_switching_time_detection(self):
        times = np.array([0.0, 10.0, 20.0, 30.0])
        charges = np.array([4.0, 3.9, 1.5, 0.1])
        assert switching_time(times, charges) == pytest.approx(20.0)
        assert switching_time(times, np.full(4, 4.0)) == np.inf
        assert switching_time(times, np.zeros(4)) == np.inf

    def test_switching_time_validation(self):
        with pytest.raises(ValueError):
            switching_time([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            switching_time([0.0], [1.0], threshold_fraction=1.5)


class TestStackedCharge:
    """Leading batch axes: one charge per texture, each bit-identical to the
    texture's own charge and to the per-texture sum of its density."""

    @pytest.mark.parametrize("members", (1, 3, 8))
    def test_stacked_charges_equal_per_texture_charges_bitwise(self, members):
        rng = np.random.default_rng(100 + members)
        shapes = [(16, 16), (2, 2), (3, 7), (24, 10), (1, 5)]
        textures = 0
        while textures < 200:
            nx, ny = shapes[textures % len(shapes)]
            stack = rng.standard_normal((members, nx, ny, 3))
            stack[rng.random((members, nx, ny)) < 0.05] = 0.0
            charges = topological_charge(stack)
            density = topological_charge_density(stack)
            assert charges.shape == (members,)
            for texture, charge, rows in zip(stack, charges, density):
                alone = topological_charge(texture)
                assert isinstance(alone, float)
                assert np.float64(alone).tobytes() == charge.tobytes()
                assert charge.tobytes() == np.float64(
                    np.sum(reference_charge_density(texture))).tobytes()
                assert rows.tobytes() == \
                    reference_charge_density(texture).tobytes()
            textures += members

    def test_extra_leading_axes_and_strided_slices(self):
        # The adapters hand in the middle z layer of a (M, nx, ny, nz, 3)
        # mode stack: a strided view, not a contiguous texture.
        rng = np.random.default_rng(9)
        modes = rng.standard_normal((2, 3, 6, 5, 4, 3))
        layer = modes[..., 2, :]
        charges = topological_charge(layer)
        assert charges.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert np.float64(topological_charge(layer[index])).tobytes() \
                == charges[index].tobytes()

    def test_a_texture_needs_three_components(self):
        with pytest.raises(ValueError, match="nx, ny, 3"):
            topological_charge(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError, match="nx, ny, 3"):
            topological_charge(np.zeros((4, 3)))
