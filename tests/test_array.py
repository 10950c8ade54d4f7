import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nullshaper.array
from nullshaper.array import (
    ArrayModel,
    Direction,
    WeightVector,
    gain,
    gains,
    null_width,
    pattern_cut,
)

WL = 0.015


def brute_force_factor(arr, w, theta, phi):
    """Direct double sum over element indices, no vectorisation."""
    w = np.asarray(getattr(w, "values", w), dtype=complex)
    total = 0.0 + 0.0j
    for m in range(arr.m):
        for n in range(arr.n):
            phase = (
                -2.0j
                * math.pi
                / arr.wavelength
                * (m * arr.dx * math.sin(theta) * math.cos(phi)
                   + n * arr.dy * math.sin(theta) * math.sin(phi))
            )
            total += w[m * arr.n + n] * np.exp(phase)
    return total


def random_unit_weights(rng, size):
    w = rng.normal(size=size) + 1j * rng.normal(size=size)
    return WeightVector(w / np.linalg.norm(w))


class TestArrayFactor:
    """|AF|^2 oracles for the array factor, read through gain and gains."""

    def test_boresight_uniform_coherent_sum(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        w = WeightVector.uniform(16)
        phis = np.array([0.0, 1.0, 4.5])
        assert gains(arr, w, np.zeros(3), phis) == pytest.approx(np.full(3, 16.0), rel=1e-12)

    def test_single_element_is_flat(self):
        arr = ArrayModel.half_wavelength(1, 1, WL)
        w = WeightVector(np.array([0.3 + 0.4j]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = Direction(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            assert gain(arr, w, d) == pytest.approx(0.25, rel=1e-12)

    def test_uniform_linear_first_null(self):
        arr = ArrayModel.half_wavelength(20, 1, WL)
        w = WeightVector.uniform(20)
        theta_null = math.asin(arr.wavelength / (20 * arr.dx))
        assert gain(arr, w, Direction(theta_null, 0.0)) < 1e-18

    def test_dimension_mismatch_rejected(self):
        arr = ArrayModel.half_wavelength(2, 2, WL)
        with pytest.raises(ValueError):
            gain(arr, WeightVector.uniform(5), Direction(0.1, 0.2))
        with pytest.raises(ValueError):
            gains(arr, np.ones(3), np.zeros(2), np.zeros(2))


class TestBlockedGains:
    """gains steers directions in blocks; the result must not show it."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        block_rows=st.integers(1, 5),
        full_blocks=st.integers(0, 4),
        remainder=st.sampled_from([0, 1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_shot_product_bit_for_bit(
        self, m, n, block_rows, full_blocks, remainder, seed
    ):
        count = block_rows * full_blocks + remainder
        arr = ArrayModel(m, n, 0.45 * WL, 0.6 * WL, WL)
        rng = np.random.default_rng(seed)
        w = random_unit_weights(rng, arr.size)
        theta = rng.uniform(0.0, math.pi / 2, count)
        phi = rng.uniform(0.0, 2 * math.pi, count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nullshaper.array, "_BLOCK_BYTES", block_rows * 16 * arr.size)
            blocked = gains(arr, w, theta, phi)
        # every direction scored alone, one block of one row
        alone = np.array([gains(arr, w, t, p) for t, p in zip(theta, phi)])
        assert blocked.shape == (count,)
        assert np.array_equal(blocked, alone)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        rows=st.integers(1, 5),
        count=st.integers(0, 12),
        block_bytes=st.integers(1, 1 << 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weight_stack_matches_single_rows_bit_for_bit(
        self, m, n, rows, count, block_bytes, seed
    ):
        arr = ArrayModel(m, n, 0.45 * WL, 0.6 * WL, WL)
        rng = np.random.default_rng(seed)
        stack = np.array([random_unit_weights(rng, arr.size).values for _ in range(rows)])
        theta = rng.uniform(0.0, math.pi / 2, count)
        phi = rng.uniform(0.0, 2 * math.pi, count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nullshaper.array, "_BLOCK_BYTES", block_bytes)
            batch = gains(arr, stack, theta, phi)
            singles = np.array([gains(arr, row, theta, phi) for row in stack]).reshape(rows, count)
        alone = np.array(
            [[gains(arr, row, t, p) for row in stack] for t, p in zip(theta, phi)]
        ).reshape(count, rows)
        assert batch.shape == (count, rows)
        assert np.array_equal(batch, singles.T)
        assert np.array_equal(batch, alone)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 32),
        n=st.integers(1, 32),
        rows=st.integers(1, 3),
        count=st.integers(1, 9),
        block_rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1024, n=1, rows=2, count=5, block_rows=2, seed=0)
    @example(m=1, n=1023, rows=3, count=7, block_rows=3, seed=1)
    @example(m=31, n=33, rows=1, count=4, block_rows=1, seed=2)
    def test_wide_arrays_score_entry_by_entry_bit_for_bit(
        self, m, n, rows, count, block_rows, seed
    ):
        # sizes up to 1024 and off multiples of 8, where dot kernels switch
        # between vector and tail paths
        arr = ArrayModel(m, n, 0.45 * WL, 0.6 * WL, WL)
        rng = np.random.default_rng(seed)
        stack = np.array([random_unit_weights(rng, arr.size).values for _ in range(rows)])
        theta = rng.uniform(0.0, math.pi / 2, count)
        phi = rng.uniform(0.0, 2 * math.pi, count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nullshaper.array, "_BLOCK_BYTES", block_rows * 16 * arr.size)
            batch = gains(arr, stack, theta, phi)
        alone = np.array(
            [[gains(arr, row, t, p) for row in stack] for t, p in zip(theta, phi)]
        ).reshape(count, rows)
        assert np.array_equal(batch, alone)

    def test_gain_is_the_matching_batch_entry(self):
        arr = ArrayModel.half_wavelength(8, 8, WL)
        rng = np.random.default_rng(3)
        stack = np.array([random_unit_weights(rng, 64).values for _ in range(3)])
        theta = rng.uniform(0.0, math.pi / 2, 50)
        phi = rng.uniform(0.0, 2 * math.pi, 50)
        batch = gains(arr, stack, theta, phi)
        for i in (0, 17, 49):
            for s, row in enumerate(stack):
                assert gain(arr, row, Direction(theta[i], phi[i])) == batch[i, s]

    def test_blocks_cover_directions_in_order(self, monkeypatch):
        monkeypatch.setattr(nullshaper.array, "_BLOCK_BYTES", 3 * 16 * 4)
        for count in range(0, 12):
            blocks = list(nullshaper.array._direction_blocks(count, 4))
            assert [i for b in blocks for i in range(count)[b]] == list(range(count))

    def test_scalar_direction_gives_scalar(self):
        arr = ArrayModel.half_wavelength(3, 3, WL)
        assert gains(arr, WeightVector.uniform(9), 0.0, 0.0).shape == ()
        assert gains(arr, np.ones((2, 9)) / 3.0, 0.0, 0.0).shape == (2,)

    def test_row_and_column_weights_score_like_the_vector(self):
        arr = ArrayModel.half_wavelength(3, 3, WL)
        w = WeightVector.uniform(9)
        d = Direction(0.3, 1.0)
        assert gain(arr, w.values.reshape(-1, 1), d) == gain(arr, w, d)
        assert gain(arr, w.values.reshape(1, -1), d) == gain(arr, w, d)
        assert gains(arr, w.values.reshape(-1, 1), 0.3, 1.0).shape == ()

    def test_pattern_cut_memory_stays_bounded(self):
        # the whole 36001 x 64 complex steering matrix alone would be 37 MB
        arr = ArrayModel.half_wavelength(8, 8, WL)
        w = WeightVector.uniform(64)
        tracemalloc.start()
        try:
            pattern_cut(arr, w, phi_cut=0.0, samples=36001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    @pytest.mark.parametrize("m, n", [(20, 1), (1, 20), (1024, 1)])
    def test_one_axis_pattern_cut_memory_counts_the_powers(self, m, n):
        # a one-axis array holds as many bytes of axis powers as of phasors,
        # so a block sized on the phasors alone peaks near 3.1 MB
        arr = ArrayModel.half_wavelength(m, n, WL)
        w = WeightVector.uniform(arr.size)
        tracemalloc.start()
        try:
            pattern_cut(arr, w, phi_cut=0.0, samples=36001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


class TestFactoredGains:
    """gains scores through the row x column factorisation of the phasor;
    it must agree with the phasors multiplied out."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 32),
        n=st.integers(1, 32),
        rows=st.integers(1, 3),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1024, n=1, rows=2, count=9, seed=0)
    @example(m=1, n=1023, rows=2, count=9, seed=1)
    def test_matches_the_multiplied_out_phasors(self, m, n, rows, count, seed):
        arr = ArrayModel(m, n, 0.45 * WL, 0.6 * WL, WL)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi / 2, count)
        phi = rng.uniform(0.0, 2 * math.pi, count)
        stack = np.array([random_unit_weights(rng, arr.size).values for _ in range(rows)])
        # the matched beam toward a scored direction reaches the largest gain, N
        stack[0] = WeightVector.matched(arr, Direction(theta[0], phi[0])).values
        expected = np.abs(arr.steering(theta, phi) @ stack.T) ** 2
        # unit-norm rows keep every gain at or below N, and both sums round
        # it by a few tens of eps relative at most: the worst of 3,000 random
        # arrays up to 32 x 32 was 11.7 eps N, at a matched beam's peak
        bound = 64 * np.finfo(float).eps * arr.size
        assert np.abs(gains(arr, stack, theta, phi) - expected).max() <= bound

    def test_square_array_cut_memory_stays_bounded(self):
        # the whole 36001 x 1024 complex steering matrix alone would be 590 MB
        arr = ArrayModel.half_wavelength(32, 32, WL)
        w = WeightVector.uniform(arr.size)
        tracemalloc.start()
        try:
            pattern_cut(arr, w, phi_cut=0.0, samples=36001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


class TestGain:
    def test_boresight_uniform_sixty_four(self):
        arr = ArrayModel.half_wavelength(8, 8, WL)
        assert gain(arr, WeightVector.uniform(64), Direction(0.0, 0.0)) == pytest.approx(
            64.0, rel=1e-12
        )

    def test_zero_weights_zero_everywhere(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        w = WeightVector(np.zeros(16))
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert gain(arr, w, Direction(rng.uniform(0, 1.5), rng.uniform(0, 6.2))) == 0.0

    def test_matches_brute_force_double_sum(self):
        arr = ArrayModel.half_wavelength(4, 6, WL)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            w = random_unit_weights(rng, 24)
            theta = rng.uniform(0, math.pi / 2)
            phi = rng.uniform(0, 2 * math.pi)
            expected = abs(brute_force_factor(arr, w, theta, phi)) ** 2
            assert gain(arr, w, Direction(theta, phi)) == pytest.approx(
                expected, rel=1e-12, abs=1e-15
            )

    def test_global_phase_invariance(self):
        arr = ArrayModel.half_wavelength(4, 4, WL)
        rng = np.random.default_rng(5)
        w = random_unit_weights(rng, 16)
        rotated = WeightVector(w.values * np.exp(1j * 0.777))
        for _ in range(20):
            d = Direction(rng.uniform(0, 1.5), rng.uniform(0, 6.2))
            assert gain(arr, rotated, d) == pytest.approx(gain(arr, w, d), rel=1e-12)

    def test_azimuth_periodicity(self):
        arr = ArrayModel.half_wavelength(3, 3, WL)
        rng = np.random.default_rng(6)
        w = random_unit_weights(rng, 9)
        # identical stored azimuth evaluates identically; adding a full turn
        # only costs the one-ulp rounding of the float wrap
        assert gain(arr, w, Direction(0.4, 1.3)) == gain(arr, w, Direction(0.4, 1.3))
        assert gain(arr, w, Direction(0.4, 1.3 + 2 * math.pi)) == pytest.approx(
            gain(arr, w, Direction(0.4, 1.3)), rel=1e-12
        )


class TestPatternCut:
    def test_uniform_main_lobe_at_boresight(self):
        arr = ArrayModel.half_wavelength(20, 1, WL)
        angles, levels = pattern_cut(arr, WeightVector.uniform(20), phi_cut=0.0, samples=3601)
        assert angles[int(np.argmax(levels))] == pytest.approx(0.0, abs=1e-12)

    def test_floor_applied(self):
        arr = ArrayModel.half_wavelength(20, 1, WL)
        _, levels = pattern_cut(arr, WeightVector(np.zeros(20)), phi_cut=0.0, samples=11)
        assert (levels == -100.0).all()

    def test_nulls_match_closed_form_set(self):
        # uniform-array nulls fall at sin(theta) = k wl / (N dx)
        arr = ArrayModel.half_wavelength(20, 1, WL)
        angles, levels = pattern_cut(arr, WeightVector.uniform(20), phi_cut=0.0, samples=3601)
        step = angles[1] - angles[0]
        for k in (1, 2, 3, 5, 9):
            target = math.asin(k * arr.wavelength / (20 * arr.dx))
            window = np.abs(angles - target) <= step
            assert levels[window].min() <= -35.0


class TestNullWidth:
    def test_rectangular_notch(self):
        angles = np.linspace(-1.0, 1.0, 201)
        levels = np.zeros(201)
        levels[95:106] = -50.0
        width = null_width(angles, levels, 0.0, depth_db=40.0)
        assert width == pytest.approx(angles[105] - angles[95])

    def test_no_notch_gives_zero(self):
        angles = np.linspace(-1.0, 1.0, 101)
        assert null_width(angles, np.zeros(101), 0.0) == 0.0


class TestWeightVector:
    def test_power_budget_enforced(self):
        with pytest.raises(ValueError):
            WeightVector(np.full(4, 1.0 + 0.0j))

    def test_boundary_tolerance_accepted(self):
        WeightVector.uniform(16)  # exactly unit norm

    def test_phases_canonical_range(self):
        w = WeightVector(np.array([0.5, -0.5, 0.5j, -0.5j]))
        phases = w.phases()
        assert ((phases >= 0.0) & (phases < 2 * math.pi)).all()
        assert phases[1] == pytest.approx(math.pi)
        assert phases[3] == pytest.approx(3 * math.pi / 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([math.nan + 0.0j, 0.0]))

    def test_values_read_only(self):
        w = WeightVector.uniform(4)
        with pytest.raises(ValueError):
            w.values[0] = 1.0

    def test_matched_weights_reach_full_gain(self):
        arr = ArrayModel.half_wavelength(6, 6, WL)
        d = Direction(0.5, 2.0)
        w = WeightVector.matched(arr, d)
        assert gain(arr, w, d) == pytest.approx(36.0, rel=1e-12)


class TestDirection:
    def test_azimuth_wraps(self):
        assert Direction(0.1, 7.0).phi == pytest.approx(7.0 - 2 * math.pi)

    def test_polar_range_enforced(self):
        with pytest.raises(ValueError):
            Direction(2.0, 0.0)
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)


class TestArrayModel:
    def test_from_frequency_sets_half_wave_spacing(self):
        arr = ArrayModel.from_frequency(8, 8, 2.0e10)
        assert arr.wavelength == pytest.approx(299792458.0 / 2.0e10)
        assert arr.dx == pytest.approx(arr.wavelength / 2)
        assert arr.size == 64

    @pytest.mark.parametrize("frequency_hz", [0, 0.0, -0.0, -2.0e10, math.inf, math.nan])
    def test_frequency_not_positive_and_finite_rejected(self, frequency_hz):
        with pytest.raises(ValueError, match="frequency must be positive and finite"):
            ArrayModel.from_frequency(8, 8, frequency_hz)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ArrayModel(0, 4, 0.01, 0.01, WL)
        with pytest.raises(ValueError):
            ArrayModel(4, 4, -0.01, 0.01, WL)
        assert ArrayModel(32, 32, 0.01, 0.01, WL).size == nullshaper.array.MAX_ELEMENTS
        with pytest.raises(ValueError):
            ArrayModel(33, 32, 0.01, 0.01, WL)

    def test_steering_matches_explicit_double_sum(self):
        # rectangular, with unequal spacings, off the principal cuts
        arr = ArrayModel(3, 5, 0.4 * WL, 0.7 * WL, WL)
        thetas = np.array([0.2, 0.9, 1.4, 1.0])
        phis = np.array([0.5, 2.3, 4.0, 5.9])
        batch = arr.steering(thetas, phis)
        assert batch.shape == (4, 15)
        for theta, phi, row in zip(thetas, phis, batch):
            expected = [
                np.exp(-2j * math.pi / WL * (m * arr.dx * math.sin(theta) * math.cos(phi)
                                             + n * arr.dy * math.sin(theta) * math.sin(phi)))
                for m in range(arr.m)
                for n in range(arr.n)
            ]
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(arr.steering(theta, phi), expected, rtol=1e-12, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        geometry=st.one_of(
            st.tuples(
                st.integers(1, 32), st.integers(1, 32), st.floats(0.1, 0.7), st.floats(0.1, 0.7)
            ),
            st.just((1024, 1, 0.5, 0.5)),
        ),
        theta=st.floats(0.0, math.pi / 2),
        phi=st.floats(0.0, 2 * math.pi),
    )
    @example(geometry=(1024, 1, 0.5, 0.5), theta=math.pi / 2, phi=0.0)
    @example(geometry=(17, 31, 0.7, 0.7), theta=1.3, phi=0.8)
    def test_steering_matches_exact_double_sum(self, geometry, theta, phi):
        # each phasor is a product of powers of one exponential per axis; the
        # exact sum starts from the same float64 direction cosines and
        # constants (pi included), so what is left is the kernel's rounding
        mp = pytest.importorskip("mpmath")
        m, n, dx_over_wl, dy_over_wl = geometry
        arr = ArrayModel(m, n, dx_over_wl * WL, dy_over_wl * WL, WL)
        u = float(np.sin(theta) * np.cos(phi))
        v = float(np.sin(theta) * np.sin(phi))
        with mp.workdps(30):
            minus_k = -2 * mp.mpf(math.pi) / mp.mpf(WL)
            x, y = mp.mpf(u) * mp.mpf(arr.dx), mp.mpf(v) * mp.mpf(arr.dy)
            expected = [complex(mp.expj(minus_k * (i * x + j * y))) for i in range(m) for j in range(n)]
        np.testing.assert_allclose(arr.steering(theta, phi), expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m, n", [(3, 4), (1, 5), (5, 1), (1, 1)])
    @pytest.mark.parametrize("count", [1, 6])
    def test_steering_rows_are_c_contiguous(self, m, n, count):
        # weight design multiplies these rows; a direction-fastest layout
        # would make them strided, and strided products round differently
        arr = ArrayModel(m, n, 0.45 * WL, 0.6 * WL, WL)
        rng = np.random.default_rng(count)
        theta = rng.uniform(0.0, math.pi / 2, count)
        phi = rng.uniform(0.0, 2 * math.pi, count)
        phasors = arr.steering(theta, phi)
        assert phasors.shape == (count, arr.size) and phasors.flags.c_contiguous
        scalar = arr.steering(theta[0], phi[0])
        assert scalar.shape == (arr.size,) and scalar.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(1, 1024),
        phase=st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=9),
    )
    @example(count=1, phase=[0.5, 2.0])
    @example(count=1024, phase=[-3.0, 0.0, 1e3])
    def test_powers_match_row_major_doubling_bit_for_bit(self, count, phase):
        phase = 1j * np.array(phase, dtype=float)
        # reference: each direction's powers doubled along its own row
        z = np.exp(phase)
        expected = np.empty((z.size, count), dtype=complex)
        expected[:, 0] = 1.0
        step, k = z[:, None], 1
        while k < count:
            expected[:, k : 2 * k] = expected[:, : min(k, count - k)] * step
            step, k = step * step, 2 * k
        powers = nullshaper.array._powers(phase, count)
        assert powers.shape == (z.size, count)
        assert np.array_equal(np.ascontiguousarray(powers).view(np.int64), expected.view(np.int64))

    def test_powers_allocate_only_the_doubling_steps(self):
        # z^k and its square are the only P-long temporaries; a 2-D multiply
        # of k rows goes through numpy's ufunc buffer, up to 128 KiB more
        p = 2048
        phase = 1j * np.linspace(-3.0, 3.0, p)
        out = np.empty((8, p), dtype=complex)
        nullshaper.array._powers(phase, 8, out)
        tracemalloc.start()
        try:
            nullshaper.array._powers(phase, 8, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * p * 16 + 4096

    def test_steering_batch_matches_scalar(self):
        arr = ArrayModel.half_wavelength(3, 4, WL)
        thetas = np.array([0.1, 0.7, 1.2])
        phis = np.array([0.0, 2.0, 5.0])
        batch = arr.steering(thetas, phis)
        for i in range(3):
            assert np.allclose(batch[i], arr.steering(thetas[i], phis[i]), rtol=1e-15)
