import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullshaper.array import ArrayModel, Direction, WeightVector, gain, gains
from nullshaper.optimizer import (
    Objective,
    PolishConfig,
    PsoConfig,
    mitigation_effectiveness,
    optimize,
)
from nullshaper.uncertainty import (
    InterfererBelief,
    NullSampleGrid,
    build_grid,
    normalize_weights,
    weighted_interferer_gain,
)

WL = 0.015

FAST = PsoConfig(iterations=60, seed=0, polish=PolishConfig(sweeps=10))


def linear_array(elements=20):
    return ArrayModel.half_wavelength(elements, 1, WL)


def null_objective(sigma_s_deg=0.0, samples=3, kappa=0, eps_den=1e-18):
    """One user at 30 deg, one interferer centred on boresight."""
    arr = linear_array()
    belief = InterfererBelief.isotropic(0.0, 0.0, math.radians(sigma_s_deg))
    grid = build_grid(belief, samples, kappa)
    return Objective(arr, [Direction(math.radians(30.0), 0.0)], [grid], eps_den=eps_den)


class TestMitigationEffectiveness:
    def test_user_on_interferer_point_is_unity(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        d = Direction(0.4, 1.2)
        obj = Objective(arr, [d], [NullSampleGrid.point(d.theta, d.phi)])
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.normal(size=16) + 1j * rng.normal(size=16)
            w = WeightVector(w / np.linalg.norm(w))
            assert mitigation_effectiveness(obj, w) == pytest.approx(1.0, rel=1e-12)

    def test_zero_weights_give_zero(self):
        obj = null_objective()
        assert mitigation_effectiveness(obj, WeightVector.zeros(20)) == 0.0

    def test_perfect_null_hits_denominator_guard(self):
        arr = linear_array(4)
        user = Direction(math.radians(30.0), 0.0)
        interferer = Direction(0.0, 0.0)
        obj = Objective(arr, [user], [NullSampleGrid.point(0.0, 0.0)], eps_den=1e-18)
        steer = arr.steering(0.0, 0.0)
        matched = np.conj(arr.steering(user.theta, user.phi))
        nulled = matched - steer.conj() * (steer @ matched) / (steer @ steer.conj())
        w = WeightVector(nulled / np.linalg.norm(nulled))
        psi = mitigation_effectiveness(obj, w)
        assert psi == pytest.approx(obj.user_gain_mean(w) / 1e-18, rel=1e-6)

    def test_compositional_oracle(self):
        arr = ArrayModel.half_wavelength(8, 8, WL)
        rng = np.random.default_rng(1)
        users = [Direction(0.3, 1.0), Direction(0.5, 4.0)]
        grids = [
            build_grid(InterfererBelief.isotropic(0.6, 2.0, math.radians(0.8)), 3, 1),
            build_grid(InterfererBelief.isotropic(0.2, 5.0, math.radians(0.4)), 3, 1),
        ]
        obj = Objective(arr, users, grids)
        for _ in range(25):
            w = rng.normal(size=64) + 1j * rng.normal(size=64)
            w = WeightVector(w / np.linalg.norm(w))
            numerator = np.mean([gain(arr, w, d) for d in users])
            denominator = np.mean([weighted_interferer_gain(arr, w, g) for g in grids])
            assert mitigation_effectiveness(obj, w) == pytest.approx(
                numerator / denominator, rel=1e-12
            )

    def test_scale_and_phase_invariance(self):
        obj = null_objective(sigma_s_deg=1.0, samples=3, kappa=1)
        rng = np.random.default_rng(2)
        w = rng.normal(size=20) + 1j * rng.normal(size=20)
        w = w / np.linalg.norm(w)
        base = obj.value(w)
        assert obj.value(0.25 * w) == pytest.approx(base, rel=1e-12)
        assert obj.value(np.exp(1j * 1.9) * w) == pytest.approx(base, rel=1e-12)

    def test_dimension_mismatch(self):
        obj = null_objective()
        with pytest.raises(ValueError):
            obj.value(np.ones(7, dtype=complex))


class TestOptimize:
    def test_matched_gain_without_interferers(self):
        arr = ArrayModel.half_wavelength(8, 8, WL)
        obj = Objective(arr, [Direction(0.35, 1.1)])
        result = optimize(obj, PsoConfig(iterations=60, seed=1, polish=PolishConfig(sweeps=10)))
        assert result.psi >= 0.99 * 64.0

    def test_null_depth_against_projection_reference(self):
        # a projection beamformer proves a perfect null is feasible with
        # near-matched user gain; the search must get within 40 dB of the
        # user lobe at the interferer
        obj = null_objective()
        arr = obj.array
        user = obj.user_directions[0]
        steer = arr.steering(0.0, 0.0)
        matched = np.conj(arr.steering(user.theta, user.phi))
        projected = matched - steer.conj() * (steer @ matched) / (steer @ steer.conj())
        projected /= np.linalg.norm(projected)
        assert abs(steer @ projected) < 1e-9  # exact null achievable
        reference_user_gain = float(np.abs(arr.steering(user.theta, user.phi) @ projected) ** 2)
        assert reference_user_gain > 0.5 * 20.0

        result = optimize(obj, FAST)
        user_gain = gain(arr, result.weights, user)
        interferer_gain = gain(arr, result.weights, Direction(0.0, 0.0))
        assert 10.0 * math.log10(user_gain / max(interferer_gain, 1e-30)) >= 40.0

    def test_deterministic_given_seed(self):
        obj = null_objective(sigma_s_deg=0.5, samples=3, kappa=1)
        first = optimize(obj, FAST)
        second = optimize(obj, FAST)
        assert np.array_equal(first.weights.values, second.weights.values)
        assert first.trace == second.trace
        assert first.evaluations == second.evaluations

    def test_feasible_and_monotone_trace(self):
        obj = null_objective(sigma_s_deg=1.0, samples=3, kappa=2)
        result = optimize(obj, FAST)
        assert result.weights.norm_sq() <= 1.0 + 1e-9
        phases = result.weights.phases()
        assert ((phases >= 0.0) & (phases < 2 * math.pi)).all()
        trace = np.array(result.trace)
        assert (np.diff(trace) >= 0.0).all()
        assert result.psi_db == pytest.approx(10.0 * math.log10(result.psi), rel=1e-9)
        assert result.loading > 0.0 and not result.clamped

    def test_beats_every_initial_particle(self):
        obj = null_objective(sigma_s_deg=0.3, samples=3, kappa=1)
        cfg = PsoConfig(iterations=1, seed=3, polish=None)
        result = optimize(obj, cfg)
        # the first trace entry is the best initial particle; monotone trace
        # plus the final unit-norm re-evaluation (scale invariant up to
        # float noise) means the result cannot fall below it
        assert result.trace[-1] >= result.trace[0]
        assert result.psi_db == pytest.approx(result.trace[-1], abs=1e-6)

    def test_wider_design_lowers_mean_gain_over_uncertainty_band(self):
        sigma = math.radians(1.0)
        scores = {}
        for kappa in (1, 3):
            obj = null_objective(sigma_s_deg=1.0, samples=5, kappa=kappa)
            result = optimize(obj, PsoConfig(iterations=120, seed=4))
            offsets = np.linspace(-3 * sigma, 3 * sigma, 181)
            band = gains(obj.array, result.weights, offsets, np.zeros_like(offsets))
            scores[kappa] = band.mean()
        assert scores[3] < scores[1]

    def test_argmax_invariant_under_weight_normalization_single_interferer(self):
        arr = linear_array()
        user = [Direction(math.radians(30.0), 0.0)]
        grid = build_grid(InterfererBelief.isotropic(0.0, 0.0, math.radians(0.5)), 3, 1)
        raw = optimize(Objective(arr, user, [grid]), FAST)
        normed = optimize(Objective(arr, user, [normalize_weights(grid)]), FAST)
        assert 1.0 - abs(np.vdot(raw.weights.values, normed.weights.values)) <= 1e-12


def loaded_ratio(obj, w, loading):
    """w^H A w / w^H (B + loading I) w, summed direction by direction; B is
    the identity without interferers."""
    norm_sq = float(np.vdot(w, w).real)
    user_gain = np.mean([gain(obj.array, w, d) for d in obj.user_directions])
    if obj.interferer_grids:
        interferer_gain = np.mean(
            [weighted_interferer_gain(obj.array, w, g) for g in obj.interferer_grids]
        )
    else:
        interferer_gain = norm_sq
    return user_gain / (interferer_gain + loading * norm_sq)


def reference_design(obj, loading):
    """Unit-norm top generalized eigenvector of (A, B + loading I), found
    through the K x K reduction U (B + loading I)^-1 U^H, which shares the
    nonzero spectrum of (B + loading I)^-1 A for A = U^H U / K."""
    arr = obj.array
    users = np.array([arr.steering(d.theta, d.phi) for d in obj.user_directions])
    loaded = loading * np.eye(arr.size, dtype=complex)
    if obj.interferer_grids:
        for grid in obj.interferer_grids:
            for theta, phi, p in zip(grid.thetas, grid.phis, grid.weights):
                s = arr.steering(theta, phi)
                loaded += p * np.outer(s.conj(), s) / obj.interferer_count
    else:
        loaded += np.eye(arr.size)
    solved = np.linalg.solve(loaded, users.conj().T)
    reduced = users @ solved / obj.user_count
    _, vectors = np.linalg.eigh(0.5 * (reduced + reduced.conj().T))
    w = solved @ vectors[:, -1]
    return w / np.linalg.norm(w)


DIRECTIONS = st.builds(
    Direction, st.floats(0.05, 1.2), st.floats(0.0, 2.0 * math.pi, exclude_max=True)
)
SIGMAS_DEG = st.just(0.0) | st.floats(0.05, 1.0)


@st.composite
def objectives(draw, users=st.integers(1, 3)):
    arr = ArrayModel.half_wavelength(draw(st.integers(1, 4)), draw(st.integers(2, 4)), WL)
    k = draw(users)
    user_dirs = draw(st.lists(DIRECTIONS, min_size=k, max_size=k))
    grids = [
        build_grid(
            InterfererBelief.isotropic(d.theta, d.phi, math.radians(draw(SIGMAS_DEG))),
            draw(st.integers(1, 3)),
            draw(st.integers(0, 2)),
        )
        for d in draw(st.lists(DIRECTIONS, min_size=0, max_size=2))
    ]
    return Objective(arr, user_dirs, grids)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestClosedForm:
    @PROPERTY
    @given(objectives(), st.data())
    def test_no_feasible_weight_beats_the_design(self, obj, data):
        # candidates are unit-norm steps away from the design, so hypothesis
        # probes both its neighbourhood and arbitrary directions
        result = optimize(obj)
        best = loaded_ratio(obj, result.weights.values, result.loading)
        parts = st.floats(-1.0, 1.0)
        drawn = np.array(
            data.draw(st.lists(st.tuples(parts, parts), min_size=obj.array.size,
                               max_size=obj.array.size))
        )
        direction = drawn[:, 0] + 1j * drawn[:, 1]
        step = data.draw(st.floats(0.0, 1.0))
        candidate = result.weights.values + step * direction
        norm = np.linalg.norm(candidate)
        if norm > 0.0:
            candidate = candidate / norm
            assert loaded_ratio(obj, candidate, result.loading) <= best * (1.0 + 1e-9)

    @PROPERTY
    @given(objectives(users=st.just(1)))
    def test_single_user_is_loaded_inverse_times_steering(self, obj):
        result = optimize(obj)
        reference = reference_design(obj, result.loading)
        assert 1.0 - abs(np.vdot(reference, result.weights.values)) <= 1e-9

    @PROPERTY
    @given(objectives(users=st.just(2)))
    def test_two_users_reach_top_generalized_eigenvalue(self, obj):
        # compared by Rayleigh quotient: the two user directions may leave
        # the top eigenvalue nearly degenerate, and the quotient is
        # second-order accurate in the reference vector's rounding error
        result = optimize(obj)
        top = loaded_ratio(obj, reference_design(obj, result.loading), result.loading)
        assert loaded_ratio(obj, result.weights.values, result.loading) == pytest.approx(
            top, rel=1e-9
        )


class TestConfigValidation:
    def test_swarm_size_resolution(self):
        assert PsoConfig().resolved_swarm_size(128) == math.ceil(8 * math.sqrt(128))
        assert PsoConfig(swarm_size=17).resolved_swarm_size(128) == 17

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PsoConfig(iterations=0)
        with pytest.raises(ValueError):
            PsoConfig(inertia=1.5)
        with pytest.raises(ValueError):
            PsoConfig(swarm_size=1)
        with pytest.raises(ValueError):
            PolishConfig(shrink=1.0)
        with pytest.raises(ValueError):
            Objective(linear_array(), [])
        with pytest.raises(ValueError):
            Objective(linear_array(), [Direction(0.1, 0.0)], eps_den=0.0)

    def test_interferer_gain_needs_interferers(self):
        obj = Objective(linear_array(), [Direction(0.1, 0.0)])
        with pytest.raises(ValueError):
            obj.interferer_gain_mean(WeightVector.uniform(20))
