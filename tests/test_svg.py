"""The array-pass SVG writer against the per-point writer it replaced."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullshaper import _svg
from nullshaper._svg import (
    _COLORS,
    _HEIGHT,
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    _WIDTH,
    _ticks,
    write_line_chart,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def reference_line_chart(path, series, title, x_label, y_label):
    """The per-point writer: every value filtered, bounded and formatted in Python."""
    points = [
        (x, y)
        for xs, ys in series.values()
        for x, y in zip(xs, ys)
        if math.isfinite(x) and math.isfinite(y)
    ]
    if not points:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(p[1] for p in points)
    y_hi = max(p[1] for p in points)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" y2="{_MARGIN_T + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle">{tick:g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        legend_y = _MARGIN_T + 16 + 18 * idx
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w - 150}" y1="{legend_y - 4}" '
            f'x2="{_MARGIN_L + plot_w - 124}" y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_MARGIN_L + plot_w - 118}" y="{legend_y}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("svg")


def assert_same_bytes(out_dir, series, as_arrays=True):
    """Both writers give identical bytes, given lists to the reference and
    numpy arrays (or the same lists) to the writer under test."""
    want, got = out_dir / "want.svg", out_dir / "got.svg"
    reference_line_chart(want, series, "t", "x", "y")
    passed = {
        name: (np.array(xs, dtype=float), np.array(ys, dtype=float)) if as_arrays else (xs, ys)
        for name, (xs, ys) in series.items()
    }
    write_line_chart(got, passed, "t", "x", "y")
    assert got.read_bytes() == want.read_bytes()
    return got.read_text()


FINITE = st.floats(-1e6, 1e6, allow_subnormal=False) | st.integers(-1000, 1000)
# tiny magnitudes and signed zeros around 0, where the sign of a bound is a tie
NEAR_ZERO = st.sampled_from([-0.0, 0.0, -0.004, -0.005, -0.001, 0.004, 1e-9, -1e-9])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
VALUE = FINITE | NEAR_ZERO | NON_FINITE
POINTS = st.lists(st.tuples(VALUE, VALUE), min_size=0, max_size=40)


def as_series(point_lists):
    return {
        f"s{i}": ([p[0] for p in pts], [p[1] for p in pts])
        for i, pts in enumerate(point_lists)
    }


class TestWriteLineChart:
    @PROPERTY
    @given(st.lists(POINTS, min_size=1, max_size=4), st.booleans())
    @example([[(0.0, math.nan), (1.0, 2.0), (math.inf, 3.0), (2.0, -1.0)],
              [(math.nan, math.nan)], [(-0.5, 0.25), (0.5, -math.inf)]], True)
    @example([[(-0.0, -0.004), (0.0, -0.005), (-1e-9, -0.0)], [(0.004, 1e-9)]], False)
    def test_matches_reference_with_non_finite_points(self, out_dir, point_lists, as_arrays):
        series = as_series(point_lists)
        try:
            reference_line_chart(out_dir / "want.svg", series, "t", "x", "y")
        except ValueError:
            with pytest.raises(ValueError, match="nothing to plot"):
                write_line_chart(out_dir / "got.svg", series, "t", "x", "y")
            return
        assert_same_bytes(out_dir, series, as_arrays)

    @PROPERTY
    @given(FINITE | NEAR_ZERO, FINITE | NEAR_ZERO, st.integers(1, 5))
    def test_constant_series_matches_reference(self, out_dir, x, y, size):
        # x_hi == x_lo and y_hi == y_lo both widen the range by 1.0
        assert_same_bytes(out_dir, {"flat": ([x] * size, [y] * size)})

    @PROPERTY
    @given(FINITE | NEAR_ZERO, FINITE | NEAR_ZERO)
    def test_single_point_matches_reference(self, out_dir, x, y):
        text = assert_same_bytes(out_dir, {"one": ([x], [y])})
        assert 'points=""' not in text

    @PROPERTY
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @example(-0.001, -0.0)
    @example(-0.004999, 0.005)
    def test_percent_format_matches_f_string(self, a, b):
        # the polyline is formatted with %; -0.00 must survive as the f-string gives it
        assert "%.2f,%.2f" % (a, b) == f"{a:.2f},{b:.2f}"

    def test_series_without_finite_point_writes_empty_polyline(self, out_dir):
        text = assert_same_bytes(out_dir, {
            "data": ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0]),
            "missing": ([math.nan, 1.0], [0.0, math.inf]),
        })
        assert text.count("<polyline") == 2
        assert 'points=""' in text

    @pytest.mark.parametrize("series", [
        {},
        {"nan": (np.full(4, np.nan), np.arange(4.0))},
        {"a": ([math.inf], [1.0]), "b": ([], [])},
    ])
    def test_nothing_to_plot(self, tmp_path, series):
        with pytest.raises(ValueError, match="nothing to plot"):
            write_line_chart(tmp_path / "c.svg", series, "t", "x", "y")
        assert not (tmp_path / "c.svg").exists()

    def test_length_mismatch_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_line_chart(tmp_path / "c.svg", {"a": ([0.0, 1.0], [1.0])}, "t", "x", "y")


def percent_points(flat):
    """The polyline text as the ``%`` path spells it."""
    return " ".join(["%.2f,%.2f"] * (len(flat) // 2)) % tuple(flat)


# values whose hundredths rounding is a near or exact tie, and the carry
# of 9999.995 into "10000.00"
TIES = [0.005, 0.015, 0.125, 1.005, 2.675, 9.995, 99.995, 9999.994, 9999.995]
PIXEL = st.floats(0.0, 1e4, exclude_max=True) | st.sampled_from(TIES)


class TestArrayPoints:
    @PROPERTY
    @given(st.lists(st.tuples(PIXEL, PIXEL), min_size=1, max_size=60))
    def test_matches_percent_format(self, points):
        flat = [v for point in points for v in point]
        assert _svg._array_points(np.array(flat)) == percent_points(flat)

    def test_ties_and_carry(self):
        flat = TIES + [TIES[0]]
        assert _svg._array_points(np.array(flat)) == percent_points(flat)
        assert percent_points([9999.995, 0.0]) == "10000.00,0.00"

    def test_tie_grid(self):
        # k / 100 + 0.005 over the range, every 37th k and the last ten
        k = np.r_[0:1_000_000:37, 999_990:1_000_000]
        flat = (k / 100 + 0.005).tolist()
        assert _svg._array_points(np.array(flat)) == percent_points(flat)

    @pytest.mark.parametrize("odd", [-0.0, math.nan, math.inf, 1e4, -1.0])
    def test_values_off_the_digit_range_take_the_percent_path(self, monkeypatch, odd):
        calls = []

        def spy(flat):
            calls.append(flat.size)
            return percent_points(flat.tolist())

        monkeypatch.setattr(_svg, "_percent_points", spy)
        flat = [1.0, odd, 2.5, 3.25]
        assert _svg._array_points(np.array(flat)) == percent_points(flat)
        assert calls == [4]

    def test_values_in_range_take_no_percent_path(self, monkeypatch):
        monkeypatch.setattr(_svg, "_percent_points", None)
        assert _svg._array_points(np.array([0.0, 70.004, 829.996, 9999.99])) == (
            "0.00,70.00 830.00,9999.99")


@pytest.fixture(scope="class")
def one_point_chunks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_svg, "_CHUNK", 1)
        yield


@pytest.mark.usefixtures("one_point_chunks")
class TestWriteLineChartOnePointChunks:
    """The ``TestWriteLineChart`` reference comparisons again, with every
    non-empty series spelled in whole-array passes of one point."""

    @PROPERTY
    @given(st.lists(POINTS, min_size=1, max_size=4), st.booleans())
    @example([[(0.0, math.nan), (1.0, 2.0), (math.inf, 3.0), (2.0, -1.0)],
              [(math.nan, math.nan)], [(-0.5, 0.25), (0.5, -math.inf)]], True)
    @example([[(-0.0, -0.004), (0.0, -0.005), (-1e-9, -0.0)], [(0.004, 1e-9)]], False)
    def test_matches_reference_with_non_finite_points(self, out_dir, point_lists, as_arrays):
        series = as_series(point_lists)
        try:
            reference_line_chart(out_dir / "want.svg", series, "t", "x", "y")
        except ValueError:
            return
        assert_same_bytes(out_dir, series, as_arrays)

    @PROPERTY
    @given(FINITE | NEAR_ZERO, FINITE | NEAR_ZERO, st.integers(1, 5))
    def test_constant_series_matches_reference(self, out_dir, x, y, size):
        assert_same_bytes(out_dir, {"flat": ([x] * size, [y] * size)})

    @PROPERTY
    @given(FINITE | NEAR_ZERO, FINITE | NEAR_ZERO)
    def test_single_point_matches_reference(self, out_dir, x, y):
        assert_same_bytes(out_dir, {"one": ([x], [y])})

    def test_series_without_finite_point_writes_empty_polyline(self, out_dir):
        assert_same_bytes(out_dir, {
            "data": ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0]),
            "missing": ([math.nan, 1.0], [0.0, math.inf]),
        })


def test_long_chart_memory_is_bounded(tmp_path):
    x = np.linspace(0.0, 180.0, 36001)
    series = {"gain": (x, 30.0 * np.sin(np.radians(7.0 * x)) - 20.0)}
    write_line_chart(tmp_path / "warm.svg", series, "t", "x", "y")
    tracemalloc.start()
    try:
        write_line_chart(tmp_path / "c.svg", series, "t", "x", "y")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert_same_bytes(tmp_path, {"gain": tuple(c.tolist() for c in series["gain"])})
