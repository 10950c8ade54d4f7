"""The array-pass SVG writer against the per-point writer it replaced, and
the cut-down of series longer than the plot is wide."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
PLOT_W = _WIDTH - _MARGIN_L - _MARGIN_R
PLOT_H = _HEIGHT - _MARGIN_T - _MARGIN_B


def reference_scales(series):
    """The chart's (sx, sy) and x and y bounds, taken from every finite point."""
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

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * PLOT_H

    return sx, sy, (x_lo, x_hi), (y_lo, y_hi)


def reference_line_chart(path, series, title, x_label, y_label):
    """The per-point writer: every value filtered, bounded and formatted in Python."""
    sx, sy, (x_lo, x_hi), (y_lo, y_hi) = reference_scales(series)
    plot_w, plot_h = PLOT_W, PLOT_H

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


def reference_kept(xs, ys, sx):
    """A long series' finite points, and the indices of those it keeps: for
    each run of consecutive points whose ``sx(x)`` falls in one pixel column,
    its first, last, first lowest and first highest point, in order."""
    points = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    runs = []
    for i, (x, _) in enumerate(points):
        column = math.floor(sx(x))
        if runs and runs[-1][0] == column:
            runs[-1][1].append(i)
        else:
            runs.append((column, [i]))
    kept = set()
    for _, run in runs:
        run_ys = [points[i][1] for i in run]
        kept.update((run[0], run[-1], run[run_ys.index(min(run_ys))],
                     run[run_ys.index(max(run_ys))]))
    return points, sorted(kept), len(runs)


def polylines(text):
    """The points of each polyline in an SVG text, as their spelled strings."""
    return [line.split('points="')[1].split('"')[0].split()
            for line in text.splitlines() if line.startswith("<polyline")]


@st.composite
def long_series(draw, low=PLOT_W + 1, high=48 * PLOT_W):
    """A series of ``low`` to ``high`` points: monotone or non-monotone x,
    x and y on few enough levels to tie or not, and a share of NaN points.
    A 36,001-sample pattern cut has about 47 points per pixel column."""
    size = draw(st.integers(low, high))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.uniform(-90.0, 90.0, size)
    x_order = draw(st.sampled_from(["sorted", "shuffled", "walk", "few"]))
    if x_order == "sorted":
        xs.sort()
    elif x_order == "walk":
        xs = np.cumsum(np.cumsum(rng.normal(0.0, 1.0, size)))  # smooth, turning back
    elif x_order == "few":
        xs = rng.integers(0, 5, size).astype(float)
    ys = 30.0 * np.sin(rng.uniform(0.0, 7.0) * xs) + rng.normal(0.0, 1.0, size)
    y_levels = draw(st.sampled_from([None, 2, 7]))
    if y_levels is not None:
        ys = np.round(ys * y_levels / 60.0)
    nan_share = draw(st.sampled_from([0.0, 0.01]))
    ys[rng.uniform(size=size) < nan_share] = np.nan
    return xs.tolist(), ys.tolist()


class TestLongSeries:
    @settings(PROPERTY, max_examples=40)
    @given(long_series(), st.booleans())
    def test_keeps_each_pixel_columns_first_last_lowest_and_highest(
        self, out_dir, series, beside
    ):
        xs, ys = series
        charted = {"long": (xs, ys)}
        if beside:  # a short series beside it widens the bounds
            charted["short"] = ([-200.0, 150.0], [-80.0, 90.0])
        write_line_chart(out_dir / "got.svg", {k: tuple(map(np.array, v))
                                               for k, v in charted.items()}, "t", "x", "y")
        sx, sy, _, _ = reference_scales(charted)
        points, kept, runs = reference_kept(xs, ys, sx)
        if len(points) <= PLOT_W:
            return
        drawn = polylines((out_dir / "got.svg").read_text())[0]
        # the kept points, in the order of the series, and nothing else
        assert drawn == [f"{sx(points[i][0]):.2f},{sy(points[i][1]):.2f}" for i in kept]
        assert len(drawn) <= 4 * runs

    @PROPERTY
    @given(long_series(low=PLOT_W - 3, high=PLOT_W), st.booleans())
    def test_series_up_to_plot_width_matches_reference(self, out_dir, series, as_arrays):
        # NaN points leave a series of more than PLOT_W values uncut
        xs, ys = series
        assert_same_bytes(out_dir, {"s": (xs, ys)}, as_arrays)
        xs, ys = xs + [math.nan] * 5, ys + [1.0] * 5
        assert_same_bytes(out_dir, {"s": (xs, ys)}, as_arrays)


@pytest.mark.memory_bound
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
    # an all-finite series is drawn as given and bounded series by series, so
    # no samples-long copy of it is made (1.3 MB measured; each copy is 0.29 MB)
    assert peak < 1.6e6
    # the kept points span the same bounds, so the per-point writer draws them alike
    xs, ys = (c.tolist() for c in series["gain"])
    points, kept, _ = reference_kept(xs, ys, reference_scales({"gain": (xs, ys)})[0])
    reference_line_chart(tmp_path / "want.svg", {"gain": tuple(zip(*(points[i] for i in kept)))},
                         "t", "x", "y")
    assert (tmp_path / "c.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()
