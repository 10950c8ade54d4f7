"""The array-pass CSV speller against Python's float ``repr``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullshaper import _csvtext
from nullshaper._csvtext import repr_lines


def reference_lines(table):
    """The per-value spelling: ``repr`` of each value, rows joined by commas."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def assert_spelled(values, width=1):
    values = np.asarray(values, dtype=np.float64)
    table = values[:values.size - values.size % width].reshape(-1, width)
    got, want = repr_lines(table), reference_lines(table)
    if got != want:
        wrong = [(w, g) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(wrong)} rows differ from repr, first {wrong[:5]}")


def ulp_steps(values, most):
    """``values`` and their neighbours up to ``most`` ulps away on each side."""
    out = [values]
    up = down = values
    for _ in range(most):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


FIXED_NOTATION = st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4)


class TestReprLines:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats() | FIXED_NOTATION, min_size=1, max_size=40),
           st.integers(1, 4))
    @example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
              1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 0.5, 0.1], 1)
    def test_matches_repr(self, values, width):
        assert_spelled(values, width)

    def test_bulk_matches_repr(self):
        rng = np.random.default_rng(20181)
        powers = np.array([float(f"1e{k}") for k in range(-30, 31)] +
                          [math.ldexp(1.0, k) for k in range(-100, 101)])
        db = rng.uniform(1e-12, 1.0, 150_000)
        values = np.concatenate([
            rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
            np.exp(rng.uniform(math.log(1e-6), math.log(1e18), 200_000))
            * rng.choice([-1.0, 1.0], 200_000),
            ulp_steps(np.concatenate([powers, -powers]), 5),
            ulp_steps(np.array([1e16, 1e-4, -1e16, -1e-4]), 1000),
            np.arange(-100_000, 100_000) / 1000,
            10.0 * np.log10(db),
            20.0 * np.log10(np.abs(np.sin(rng.uniform(0.0, 100.0, 150_000)))),
        ])
        assert values.size > 900_000
        assert_spelled(values, 2)

    def test_long_pattern_cut_is_spelled_without_repr(self, monkeypatch):
        angles = np.linspace(0.0, 180.0, 36001)
        table = np.column_stack((angles, 30.0 * np.sin(np.radians(7.0 * angles)) - 20.0))
        calls = []

        def spy(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(_csvtext, "repr", spy, raising=False)
        assert repr_lines(table) == reference_lines(table)
        # the zero and power-of-two angles alone; no gain is either
        assert calls == [0.0] + [2.0**k for k in range(-3, 8)]

    @pytest.mark.parametrize("value", [0.0, -0.0, math.nan, math.inf, 1e-5, 1e16, 0.5, 64.0,
                                       1.0000076293945312])
    def test_values_the_passes_cannot_decide_take_repr(self, monkeypatch, value):
        # an exponent, a zero, a power-of-two significand, an exact tie
        calls = []

        def spy(v):
            calls.append(v)
            return repr(v)

        monkeypatch.setattr(_csvtext, "repr", spy, raising=False)
        table = np.array([[1.25, value]])
        assert repr_lines(table) == reference_lines(table)
        assert np.array_equal(calls, [value], equal_nan=True)
