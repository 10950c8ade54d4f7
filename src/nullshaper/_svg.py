"""Minimal self-contained SVG line charts.

CSV files are the ground-truth artifacts; these charts are a convenience
view with no plotting dependency. Each series is a polyline over a plain
axes box with tick labels. Series may be numpy arrays or lists; each is
filtered and scaled in whole-array passes, not point by point.

Polyline points print as ``"%.2f,%.2f"``. A series with more points than
the plot has pixel columns, such as a long pattern cut, is first cut down
to the first, last, lowest and highest point of each run of consecutive
points that fall in one pixel column (M4 aggregation): the same pixels,
every null and peak kept, in a few points per column. The axes still span
every point.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_WIDTH, _HEIGHT = 860, 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 48, 58
_COLORS = ["#1f77b4", "#d62728", "#e6b417", "#7a3fb5", "#2ca02c", "#8c564b", "#17becf"]


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    out = []
    value = start
    while value <= hi + 1e-9 * step:
        out.append(round(value, 10))
        value += step
    return out or [lo]


def _percent_points(flat: np.ndarray) -> str:
    """Interleaved x, y pixel coordinates as ``"%.2f,%.2f"`` points joined by spaces."""
    return " ".join(["%.2f,%.2f"] * (flat.size // 2)) % tuple(flat.tolist())


def _pixel_extremes(columns: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mask of the first, last, first lowest and first highest point of
    each run of equal consecutive ``columns``."""
    starts = np.flatnonzero(np.r_[True, columns[1:] != columns[:-1]])
    lengths = np.diff(np.r_[starts, columns.size])
    kept = np.zeros(columns.size, dtype=bool)
    kept[starts] = kept[starts + lengths - 1] = True
    index = np.arange(columns.size)
    for extreme in (np.minimum, np.maximum):
        at_extreme = ys == np.repeat(extreme.reduceat(ys, starts), lengths)
        # every run holds its extreme, so no run takes the columns.size filler
        kept[np.minimum.reduceat(np.where(at_extreme, index, columns.size), starts)] = True
    return kept


def write_line_chart(
    path: str | Path,
    series: dict[str, tuple[np.ndarray | list[float], np.ndarray | list[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write named (x, y) series as one SVG chart.

    Points where x or y is not finite are left out. Raises ``ValueError``
    when no series has a finite point or a series' x and y differ in length.
    """
    finite = {}
    for name, (xs, ys) in series.items():
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError(f"series {name!r}: x and y differ in length")
        keep = np.isfinite(xs) & np.isfinite(ys)
        finite[name] = (xs, ys) if keep.all() else (xs[keep], ys[keep])
    drawn = [(xs, ys) for xs, ys in finite.values() if xs.size]
    if not drawn:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(float(xs.min()) for xs, _ in drawn), max(float(xs.max()) for xs, _ in drawn)
    y_lo, y_hi = min(float(ys.min()) for _, ys in drawn), max(float(ys.max()) for _, ys in drawn)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
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
    for idx, (name, (xs, ys)) in enumerate(finite.items()):
        color = _COLORS[idx % len(_COLORS)]
        # elementwise numpy arithmetic rounds exactly as sx/sy do on floats
        px = sx(xs)
        if xs.size > plot_w:
            kept = _pixel_extremes(np.floor(px), ys)
            px, ys = px[kept], ys[kept]
        coords = _percent_points(np.column_stack((px, sy(ys))).ravel())
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
