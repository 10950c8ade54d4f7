import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullshaper.array import ArrayModel, Direction, WeightVector, gain, gains
from nullshaper.optimizer import Objective, mitigation_effectiveness, optimize
from nullshaper.uncertainty import (
    InterfererBelief,
    NullSampleGrid,
    build_grid,
    weighted_interferer_gain,
)

WL = 0.015


def linear_array(elements=20):
    return ArrayModel.half_wavelength(elements, 1, WL)


def null_objective(sigma_s_deg=0.0, samples=3, kappa=0):
    """One user at 30 deg, one interferer centred on boresight."""
    arr = linear_array()
    belief = InterfererBelief.isotropic(0.0, 0.0, math.radians(sigma_s_deg))
    grid = build_grid(belief, samples, kappa)
    return Objective(arr, [Direction(math.radians(30.0), 0.0)], [grid])


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
        assert mitigation_effectiveness(obj, WeightVector(np.zeros(20))) == 0.0

    def test_perfect_null_hits_denominator_guard(self):
        arr = linear_array(4)
        user = Direction(math.radians(30.0), 0.0)
        interferer = Direction(0.0, 0.0)
        obj = Objective(arr, [user], [NullSampleGrid.point(0.0, 0.0)])
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
        with pytest.raises(ValueError):
            obj.value(np.ones((2, 20), dtype=complex) / 20.0)

    def test_row_and_column_weights_score_like_the_vector(self):
        obj = null_objective(sigma_s_deg=1.0, samples=3, kappa=1)
        w = WeightVector.uniform(20)
        base = mitigation_effectiveness(obj, w)
        assert mitigation_effectiveness(obj, w.values.reshape(1, -1)) == base
        assert mitigation_effectiveness(obj, w.values.reshape(-1, 1)) == base
        column_gain = obj.interferer_gain_mean(w.values.reshape(-1, 1))
        assert column_gain == obj.interferer_gain_mean(w)
        grid = obj.interferer_grids[0]
        assert weighted_interferer_gain(obj.array, w.values.reshape(-1, 1), grid) == weighted_interferer_gain(
            obj.array, w, grid
        )

    def test_batch_rows_equal_lone_values_with_ten_users(self):
        # from 8 users numpy sums a (K, S) column in a different order from a
        # lone row, and a (Z,) @ (Z, S) product rounds by S too
        rng = np.random.default_rng(5)
        arr = ArrayModel.half_wavelength(4, 4, WL)
        users = [Direction(t, p) for t, p in zip(rng.uniform(0.0, 1.0, 10),
                                                  rng.uniform(0.0, 2.0 * math.pi, 10))]
        grid = build_grid(InterfererBelief.isotropic(0.2, 1.0, math.radians(1.0)), 3, 1)
        obj = Objective(arr, users, [grid])
        rows = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        assert obj.value_batch(rows).tolist() == [obj.value(row) for row in rows]


class TestOptimize:
    def test_matched_gain_without_interferers(self):
        arr = ArrayModel.half_wavelength(8, 8, WL)
        obj = Objective(arr, [Direction(0.35, 1.1)])
        result = optimize(obj)
        assert result.psi >= 0.99 * 64.0

    def test_identity_form_designs_the_matched_beam(self):
        # without interferers the loaded form is a multiple of the identity,
        # so the design is the matched beam up to one global phase
        arr = ArrayModel.half_wavelength(8, 8, WL)
        d = Direction(0.35, 1.1)
        designed = optimize(Objective(arr, [d])).weights.values
        matched = WeightVector.matched(arr, d).values
        phase = np.vdot(matched, designed)
        assert np.abs(designed - matched * phase / abs(phase)).max() <= 1e-15

    def test_null_depth_against_projection_reference(self):
        # a projection beamformer proves a perfect null is feasible with
        # near-matched user gain; the design must get within 40 dB of the
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

        result = optimize(obj)
        user_gain = gain(arr, result.weights, user)
        interferer_gain = gain(arr, result.weights, Direction(0.0, 0.0))
        assert 10.0 * math.log10(user_gain / max(interferer_gain, 1e-30)) >= 40.0

    def test_repeat_solve_is_bit_identical(self):
        # the design is one linear solve and one eigh, with no random draws
        obj = null_objective(sigma_s_deg=0.5, samples=3, kappa=1)
        first = optimize(obj)
        second = optimize(obj)
        assert np.array_equal(first.weights.values, second.weights.values)
        assert first.trace == second.trace
        assert first.evaluations == second.evaluations

    def test_feasible_and_monotone_trace(self):
        obj = null_objective(sigma_s_deg=1.0, samples=3, kappa=2)
        result = optimize(obj)
        assert np.vdot(result.weights.values, result.weights.values).real <= 1.0 + 1e-9
        phases = result.weights.phases()
        assert ((phases >= 0.0) & (phases < 2 * math.pi)).all()
        trace = np.array(result.trace)
        assert (np.diff(trace) >= 0.0).all()
        assert result.psi_db == pytest.approx(10.0 * math.log10(result.psi), rel=1e-9)
        assert result.loading > 0.0 and not result.clamped

    def test_design_value_is_the_objective_value(self):
        # optimize scores its design with one pass over the grid; psi and
        # clamped must still be what the objective itself reports
        for sigma_s_deg in (0.0, 0.5):
            obj = null_objective(sigma_s_deg=sigma_s_deg, samples=3, kappa=1)
            result = optimize(obj)
            assert result.psi == obj.value(result.weights)
            assert result.clamped == (obj.interferer_gain_mean(result.weights) <= obj.eps_den)

    def test_trace_holds_the_design_value(self):
        obj = null_objective(sigma_s_deg=0.3, samples=3, kappa=1)
        result = optimize(obj)
        # the trace has a single entry, the value of the closed-form design
        # that trace.csv reports, and it agrees with psi_db
        assert result.trace[-1] >= result.trace[0]
        assert result.psi_db == pytest.approx(result.trace[-1], abs=1e-6)

    def test_wider_design_lowers_mean_gain_over_uncertainty_band(self):
        sigma = math.radians(1.0)
        scores = {}
        for kappa in (1, 3):
            obj = null_objective(sigma_s_deg=1.0, samples=5, kappa=kappa)
            result = optimize(obj)
            offsets = np.linspace(-3 * sigma, 3 * sigma, 181)
            band = gains(obj.array, result.weights, offsets, np.zeros_like(offsets))
            scores[kappa] = band.mean()
        assert scores[3] < scores[1]

    def test_argmax_invariant_under_weight_normalization_single_interferer(self):
        arr = linear_array()
        user = [Direction(math.radians(30.0), 0.0)]
        grid = build_grid(InterfererBelief.isotropic(0.0, 0.0, math.radians(0.5)), 3, 1)
        normed = optimize(Objective(arr, user, [grid]))
        # the scale of raw densities, about 1 / (2 pi sigma^2)
        raw_grid = NullSampleGrid(grid.directions, grid.weights * 1.3e4)
        raw = optimize(Objective(arr, user, [raw_grid]))
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


def users_and_loaded_form(obj, loading):
    """The (K, N) user steering rows U and the dense B + loading I, summed
    direction by direction; B is the identity without interferers."""
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
    return users, loaded


def reference_design(obj, loading):
    """Unit-norm top generalized eigenvector of (A, B + loading I), found
    through the K x K reduction U (B + loading I)^-1 U^H, which shares the
    nonzero spectrum of (B + loading I)^-1 A for A = U^H U / K."""
    users, loaded = users_and_loaded_form(obj, loading)
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


class TestDoublePrecisionLimits:
    """Grid weights sum to one, so no sigma_s takes a design out of double
    precision, and a vanishing sigma_s designs as the point design."""

    def test_small_sigma_s_still_designs(self):
        assert np.isfinite(optimize(null_objective(1e-80, 3, 1)).weights.values).all()

    @pytest.mark.parametrize("sigma_s_deg", [1e-9, 1e-80, 1e-300])
    def test_vanishing_sigma_s_reaches_the_point_design(self, sigma_s_deg):
        point = optimize(null_objective(0.0, 3, 1))
        tiny = optimize(null_objective(sigma_s_deg, 3, 1))
        assert point.clamped and tiny.clamped
        assert abs(tiny.psi_db - point.psi_db) <= 1e-9


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


@st.composite
def objectives_with_repeated_user(draw):
    """Three or four users, the last repeating an earlier direction, so the
    K x K user form is singular."""
    obj = draw(objectives(users=st.integers(2, 3)))
    users = obj.user_directions
    repeated = users[draw(st.integers(0, len(users) - 1))]
    return Objective(obj.array, users + (repeated,), obj.interferer_grids)


class TestAgainstDenseReference:
    @PROPERTY
    @given(objectives_with_repeated_user())
    def test_design_reaches_top_eigenvalue_of_dense_pencil(self, obj):
        # an N x N general eigen-solve of (B + delta I)^-1 A, independent of
        # the K x K reduction that optimize and reference_design share. Both
        # sides run at 30 digits: once the design nulls the whole grid its
        # denominator is about delta, and at LOADING = 1e-8 float64 rounding
        # alone moves either side by up to about 1e-8 relative
        mp = pytest.importorskip("mpmath")
        result = optimize(obj)
        users, loaded = users_and_loaded_form(obj, result.loading)
        user_form = users.conj().T @ users / obj.user_count
        with mp.workdps(30):
            a, b = mp.matrix(user_form.tolist()), mp.matrix(loaded.tolist())
            top = max(mp.re(e) for e in mp.eig(mp.inverse(b) * a, left=False, right=False))
            w = mp.matrix(result.weights.values.tolist())
            ratio = mp.re((w.H * a * w)[0]) / mp.re((w.H * b * w)[0])
        assert float(ratio) == pytest.approx(float(top), rel=1e-9)


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            Objective(linear_array(), [])

    def test_interferer_gain_needs_interferers(self):
        obj = Objective(linear_array(), [Direction(0.1, 0.0)])
        with pytest.raises(ValueError):
            obj.interferer_gain_mean(WeightVector.uniform(20))
