import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullshaper.array import ArrayModel, Direction, WeightVector, gain, gains
from nullshaper.uncertainty import (
    InterfererBelief,
    NullSampleGrid,
    build_grid,
    weighted_interferer_gain,
)

WL = 0.015


def pdf_matrix_form(belief, theta, phi):
    """Reference density via the explicit 2x2 covariance inverse and
    determinant rather than the diagonal shortcut."""
    cov = np.diag([belief.sigma_theta**2, belief.sigma_phi**2])
    diff = np.array([theta - belief.mean_theta, phi - belief.mean_phi])
    quad = diff @ np.linalg.inv(cov) @ diff
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))


def normalised_density(belief, grid):
    """``pdf_matrix_form`` at the grid's directions, divided by its sum."""
    density = np.array([pdf_matrix_form(belief, t, p) for t, p in grid.directions])
    return density / density.sum()


def mesh_build_grid(belief, samples_per_axis, kappa):
    """``build_grid`` in its L x L mesh form: the directions from a
    meshgrid of the two axes' samples, and every weight worked out again
    from the mesh's direction columns."""
    if samples_per_axis == 1 or (belief.sigma_theta == 0.0 and belief.sigma_phi == 0.0):
        return NullSampleGrid.point(belief.mean_theta, belief.mean_phi)
    count = samples_per_axis
    theta_span = kappa * belief.sigma_theta
    phi_span = kappa * belief.sigma_phi
    theta_grid, phi_grid = np.meshgrid(
        belief.mean_theta + np.linspace(-theta_span, theta_span, count),
        belief.mean_phi + np.linspace(-phi_span, phi_span, count),
        indexing="ij",
    )
    directions = np.column_stack([theta_grid.ravel(), phi_grid.ravel()])
    weights = np.ones(count * count)
    for axis_values, mean, sigma in (
        (directions[:, 0], belief.mean_theta, belief.sigma_theta),
        (directions[:, 1], belief.mean_phi, belief.sigma_phi),
    ):
        if sigma > 0.0:
            z = (axis_values - mean) / sigma
            weights = weights * np.exp(-0.5 * z**2)
    return NullSampleGrid(directions, weights / weights.sum())


#: The 3 x 3, kappa = 1 grid's per-axis weight sum, 1 + 2 exp(-1/2).
ONE_SIGMA_AXIS_SUM = 1.0 + 2.0 * math.exp(-0.5)


class TestPdf:
    """Grid weights are the belief's density at the sample directions,
    divided by its sum over the grid."""

    def test_value_at_mean(self):
        belief = InterfererBelief(0.2, 1.0, 0.05, 0.02)
        # the centre sample of an odd grid sits exactly on the mean
        expected = 1.0 / ONE_SIGMA_AXIS_SUM**2
        assert build_grid(belief, 3, 1).weights[4] == pytest.approx(expected, rel=1e-12)

    def test_unit_sigma_one_off(self):
        grid = build_grid(InterfererBelief(0.0, 0.0, 1.0, 1.0), 3, 1)
        assert grid.directions[7].tolist() == [1.0, 0.0]
        expected = math.exp(-0.5) / ONE_SIGMA_AXIS_SUM**2
        assert grid.weights[7] == pytest.approx(expected, rel=1e-12)

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            belief = InterfererBelief(
                rng.uniform(-1, 1), rng.uniform(0, 6), rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.5)
            )
            grid = build_grid(belief, 3, 2)
            assert grid.weights == pytest.approx(normalised_density(belief, grid), rel=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            InterfererBelief(0.0, 0.0, -0.1, 0.1)


class TestBuildGrid:
    def test_three_by_three_one_sigma_axes(self):
        mu_t, mu_p = 0.3, 1.1
        sig = math.radians(1.0)
        grid = build_grid(InterfererBelief(mu_t, mu_p, sig, sig), 3, 1)
        assert len(grid) == 9
        theta_axis = np.unique(grid.thetas)
        phi_axis = np.unique(grid.phis)
        assert theta_axis.tolist() == [mu_t - sig, mu_t, mu_t + sig]
        assert phi_axis.tolist() == [mu_p - sig, mu_p, mu_p + sig]
        # theta varies slowest in the flattened ordering
        assert grid.thetas[:3].tolist() == [mu_t - sig] * 3
        assert grid.phis[:3].tolist() == [mu_p - sig, mu_p, mu_p + sig]

    def test_kappa_zero_collapses_directions(self):
        grid = build_grid(InterfererBelief(0.5, 2.0, 0.1, 0.1), 3, 0)
        assert len(grid) == 9
        assert (grid.thetas == 0.5).all() and (grid.phis == 2.0).all()
        assert np.allclose(grid.weights, grid.weights[0], rtol=1e-15)

    def test_two_by_two_corners_equal_weights(self):
        sig = math.radians(0.5)
        grid = build_grid(InterfererBelief(0.0, 0.0, sig, sig), 2, 2)
        assert len(grid) == 4
        corners = {(round(t, 12), round(p, 12)) for t, p in grid.directions}
        off = round(2 * sig, 12)
        assert corners == {(-off, -off), (-off, off), (off, -off), (off, off)}
        assert grid.weights == pytest.approx(np.full(4, 0.25), rel=1e-12)

    def test_point_mass_single_sample(self):
        grid = build_grid(InterfererBelief(0.4, 0.9, 0.0, 0.0), 5, 3)
        assert len(grid) == 1
        assert grid.directions[0].tolist() == [0.4, 0.9]
        assert grid.weights[0] == 1.0

    def test_single_sample_count(self):
        grid = build_grid(InterfererBelief(0.4, 0.9, 0.1, 0.1), 1, 2)
        assert len(grid) == 1
        assert grid.weights[0] == 1.0

    def test_one_degenerate_axis_uses_marginal_weight(self):
        sig = 0.02
        grid = build_grid(InterfererBelief(0.2, 1.5, 0.0, sig), 3, 1)
        assert len(grid) == 9
        assert (grid.thetas == 0.2).all()
        marginal = np.exp(-0.5 * ((grid.phis - 1.5) / sig) ** 2)
        assert grid.weights == pytest.approx(marginal / marginal.sum(), rel=1e-12)

    def test_weights_match_density(self):
        belief = InterfererBelief(0.1, 0.7, 0.03, 0.05)
        grid = build_grid(belief, 4, 2)
        assert grid.weights == pytest.approx(normalised_density(belief, grid), rel=1e-12)

    def test_symmetry_about_the_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            belief = InterfererBelief(
                rng.uniform(-1, 1), rng.uniform(0, 6), rng.uniform(0.01, 0.2), rng.uniform(0.01, 0.2)
            )
            grid = build_grid(belief, 5, 2)
            offsets = grid.directions - np.array([belief.mean_theta, belief.mean_phi])
            weight_of = {
                (round(dt, 12), round(dp, 12)): w
                for (dt, dp), w in zip(offsets, grid.weights)
            }
            for (dt, dp), w in weight_of.items():
                assert w == pytest.approx(weight_of[(round(-dt, 12), round(-dp, 12))], rel=1e-12)

    def test_weights_decrease_with_mahalanobis_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            belief = InterfererBelief(
                rng.uniform(-1, 1), rng.uniform(0, 6), rng.uniform(0.01, 0.2), rng.uniform(0.01, 0.2)
            )
            grid = build_grid(belief, 4, 3)
            dist = ((grid.thetas - belief.mean_theta) / belief.sigma_theta) ** 2 + (
                (grid.phis - belief.mean_phi) / belief.sigma_phi
            ) ** 2
            order = np.argsort(dist)
            sorted_weights = grid.weights[order]
            assert (np.diff(sorted_weights) <= 1e-12 * sorted_weights[:-1]).all()

    def test_invalid_parameters(self):
        belief = InterfererBelief(0.0, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            build_grid(belief, 0, 1)
        with pytest.raises(ValueError):
            build_grid(belief, 3, -1)

    @settings(max_examples=400, deadline=None)
    @given(
        mean_theta=st.floats(-1.0, 2.0),
        mean_phi=st.floats(-1.0, 7.0),
        sigma_theta=st.one_of(st.just(0.0), st.floats(1e-300, math.pi)),
        sigma_phi=st.one_of(st.just(0.0), st.floats(1e-300, math.pi)),
        same_sigmas=st.booleans(),
        samples=st.integers(1, 20),
        kappa=st.integers(0, 10),
    )
    def test_axis_rules_match_the_mesh_form_bit_for_bit(
            self, mean_theta, mean_phi, sigma_theta, sigma_phi, same_sigmas, samples, kappa):
        # the grid is built from each axis's nodes and factors; every
        # direction and weight must keep the bytes of the L x L mesh form,
        # which takes the same products and sum over the mesh's columns
        belief = InterfererBelief(mean_theta, mean_phi, sigma_theta,
                                  sigma_theta if same_sigmas else sigma_phi)
        grid, mesh = build_grid(belief, samples, kappa), mesh_build_grid(belief, samples, kappa)
        assert grid.directions.tobytes() == mesh.directions.tobytes()
        assert grid.weights.tobytes() == mesh.weights.tobytes()


class TestNormalizeWeights:
    """Grid weights are a probability mass: they sum to one."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        mean_theta=st.floats(0.0, math.pi / 2),
        mean_phi=st.floats(0.0, 2.0 * math.pi),
        sigma_theta=st.floats(1e-300, math.pi),
        sigma_phi=st.floats(1e-300, math.pi),
        samples=st.integers(1, 50),
        kappa=st.integers(0, 10),
    )
    def test_weights_sum_to_one(self, mean_theta, mean_phi, sigma_theta, sigma_phi, samples,
                                kappa):
        # no sigma, however small or large, takes a weight out of double precision
        belief = InterfererBelief(mean_theta, mean_phi, sigma_theta, sigma_phi)
        weights = build_grid(belief, samples, kappa).weights
        assert np.isfinite(weights).all() and (weights > 0.0).all()
        assert abs(weights.sum() - 1.0) <= 4.0 * np.finfo(float).eps * samples**2

    def test_collapsed_grid_uniform_ninths(self):
        weights = build_grid(InterfererBelief(0.1, 0.2, 0.05, 0.05), 3, 0).weights
        assert weights == pytest.approx(np.full(9, 1.0 / 9.0), rel=1e-12)

    def test_center_corner_ratio(self):
        sig = math.radians(1.0)
        weights = build_grid(InterfererBelief(0.0, 0.0, sig, sig), 3, 1).weights
        # unit offsets on both axes cost exp(-1) relative to the centre
        assert weights[4] / weights[0] == pytest.approx(math.e, rel=1e-12)


class TestWeightedInterfererGain:
    def test_point_grid_equals_direct_gain(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        rng = np.random.default_rng(3)
        w = rng.normal(size=16) + 1j * rng.normal(size=16)
        w = WeightVector(w / np.linalg.norm(w))
        grid = NullSampleGrid.point(0.4, 1.0)
        assert weighted_interferer_gain(arr, w, grid) == gain(arr, w, Direction(0.4, 1.0))

    def test_collapsed_normalized_grid_equals_point_gain(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        w = WeightVector.uniform(16)
        grid = build_grid(InterfererBelief(0.3, 0.8, 0.05, 0.05), 3, 0)
        expected = gain(arr, w, Direction(0.3, 0.8))
        assert weighted_interferer_gain(arr, w, grid) == pytest.approx(expected, rel=1e-12)

    def test_zero_weights_zero(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        grid = build_grid(InterfererBelief(0.3, 0.8, 0.02, 0.02), 3, 1)
        assert weighted_interferer_gain(arr, WeightVector(np.zeros(16)), grid) == 0.0

    def test_term_by_term_oracle(self):
        arr = ArrayModel.half_wavelength(3, 5, WL)
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.normal(size=15) + 1j * rng.normal(size=15)
            w = WeightVector(w / np.linalg.norm(w))
            belief = InterfererBelief(
                rng.uniform(0, 1), rng.uniform(0, 6), rng.uniform(0.005, 0.1), rng.uniform(0.005, 0.1)
            )
            grid = build_grid(belief, 3, 2)
            expected = sum(
                p * float(gains(arr, w, t, f))
                for p, (t, f) in zip(grid.weights, grid.directions)
            )
            assert weighted_interferer_gain(arr, w, grid) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_weights(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        w = WeightVector.uniform(16)
        grid = build_grid(InterfererBelief(0.2, 0.5, 0.03, 0.03), 3, 1)
        doubled = NullSampleGrid(grid.directions, grid.weights * 2.0)
        assert weighted_interferer_gain(arr, w, doubled) == pytest.approx(
            2.0 * weighted_interferer_gain(arr, w, grid), rel=1e-12
        )

