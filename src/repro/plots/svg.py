"""Pure-Python deterministic SVG rendering of :class:`~repro.plots.figure.Figure`.

Contract: :func:`render_svg` is a pure function from the declarative
figure model to UTF-8 SVG bytes — no third-party plotting dependency, no
clocks, no randomness, no environment lookups — so rendering the same
figure twice always produces byte-identical output (what lets CI assert
the committed gallery never drifts).  Coordinates are formatted with a
fixed precision, ticks come from a deterministic nice-number algorithm,
series longer than :data:`MAX_POINTS_PER_SERIES` are decimated on a
fixed index grid, and non-finite samples are dropped (splitting the
polyline) rather than poisoning the path.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from repro.exceptions import ConfigurationError
from repro.plots.figure import Figure, Series

__all__ = ["render_svg", "PALETTE", "MAX_POINTS_PER_SERIES"]

#: Series colors, cycled in order.
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
)

#: Longest polyline a series may render as; longer series are decimated
#: on a fixed ``linspace`` index grid (first and last points kept).
MAX_POINTS_PER_SERIES = 1024

_WIDTH, _HEIGHT = 720, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 24, 46, 58
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM
_FONT = "Helvetica, Arial, sans-serif"
#: Width budget per legend character (deterministic layout arithmetic).
_CHAR_W = 6.3


def _fmt(value: float) -> str:
    """Fixed-precision pixel coordinate (deterministic across platforms)."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _tick_label(value: float) -> str:
    rounded = round(value, 10)
    if rounded == int(rounded) and abs(rounded) < 1e15:
        rounded = int(rounded)
    return f"{rounded:g}"


def _nice_ticks(low: float, high: float, target: int = 6) -> list[float]:
    """Round tick positions covering ``[low, high]`` at a nice step."""
    span = high - low
    raw = span / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= multiple * magnitude * (1 + 1e-9):
            step = multiple * magnitude
            break
    first = math.ceil(low / step - 1e-9) * step
    ticks = []
    position = first
    while position <= high + step * 1e-6:
        ticks.append(round(position, 12))
        position += step
    return ticks


def _decimate(series: Series) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(series.y.size, dtype=float) if series.x is None else series.x
    y = series.y
    if y.size > MAX_POINTS_PER_SERIES:
        indices = np.unique(np.linspace(0, y.size - 1, MAX_POINTS_PER_SERIES).round().astype(int))
        x, y = x[indices], y[indices]
    return x, y


def _step_points(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand an empirical CDF into post-step coordinates."""
    step_x = np.repeat(x, 2)[1:]
    step_y = np.repeat(y, 2)[:-1]
    return step_x, step_y


class _Scale:
    """Affine map from data space to pixel space."""

    def __init__(self, low: float, high: float, pixel_low: float, pixel_high: float):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ConfigurationError("cannot scale non-finite axis limits")
        if high == low:
            pad = abs(low) * 0.5 or 1.0
            low, high = low - pad, high + pad
        self.low, self.high = low, high
        self._pixel_low, self._pixel_high = pixel_low, pixel_high

    def __call__(self, value: float) -> float:
        fraction = (value - self.low) / (self.high - self.low)
        return self._pixel_low + fraction * (self._pixel_high - self._pixel_low)


def _series_points(figure: Figure) -> list[tuple[Series, np.ndarray, np.ndarray]]:
    prepared = []
    for series in figure.series:
        x, y = _decimate(series)
        if figure.kind == "cdf":
            order = np.argsort(x, kind="stable")
            x, y = _step_points(x[order], y[order])
        prepared.append((series, x, y))
    return prepared


def _data_limits(
    figure: Figure, prepared: list[tuple[Series, np.ndarray, np.ndarray]]
) -> tuple[float, float, float, float]:
    xs, ys = [], []
    for _, x, y in prepared:
        finite = np.isfinite(x) & np.isfinite(y)
        xs.append(x[finite])
        ys.append(y[finite])
    all_x = np.concatenate(xs) if xs else np.array([])
    all_y = np.concatenate(ys) if ys else np.array([])
    if all_x.size == 0 or all_y.size == 0:
        raise ConfigurationError(f"figure {figure.title!r} has no finite data points")
    y_low, y_high = float(all_y.min()), float(all_y.max())
    if figure.kind == "bar":
        y_low = min(y_low, 0.0)
    pad = (y_high - y_low) * 0.05
    if pad == 0.0:
        pad = abs(y_high) * 0.1 or 1.0
    return float(all_x.min()), float(all_x.max()), y_low - pad, y_high + pad


def _axes_elements(figure: Figure, x_scale: _Scale, y_scale: _Scale) -> list[str]:
    parts = []
    bottom, top = _TOP + _PLOT_H, _TOP
    right = _LEFT + _PLOT_W
    # Frame.
    parts.append(
        f'<rect x="{_LEFT}" y="{top}" width="{_PLOT_W}" height="{_PLOT_H}" '
        'fill="white" stroke="#444444" stroke-width="1"/>'
    )
    # Y ticks, labels and grid lines.
    for tick in _nice_ticks(y_scale.low, y_scale.high):
        if not (y_scale.low <= tick <= y_scale.high):
            continue
        py = _fmt(y_scale(tick))
        parts.append(f'<line x1="{_LEFT}" y1="{py}" x2="{right}" y2="{py}" stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<line x1="{_LEFT - 4}" y1="{py}" x2="{_LEFT}" y2="{py}" stroke="#444444" stroke-width="1"/>')
        parts.append(
            f'<text x="{_LEFT - 8}" y="{py}" font-family="{_FONT}" font-size="11" '
            f'fill="#222222" text-anchor="end" dominant-baseline="middle">{escape(_tick_label(tick))}</text>'
        )
    # X ticks: category centers for bars, nice numbers otherwise.
    if figure.kind == "bar":
        for index, category in enumerate(figure.categories):
            px = _fmt(x_scale(index + 0.5))
            parts.append(
                f'<line x1="{px}" y1="{bottom}" x2="{px}" y2="{bottom + 4}" stroke="#444444" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{px}" y="{bottom + 18}" font-family="{_FONT}" font-size="11" '
                f'fill="#222222" text-anchor="middle">{escape(category)}</text>'
            )
    else:
        for tick in _nice_ticks(x_scale.low, x_scale.high):
            if not (x_scale.low <= tick <= x_scale.high):
                continue
            px = _fmt(x_scale(tick))
            parts.append(f'<line x1="{px}" y1="{top}" x2="{px}" y2="{bottom}" stroke="#e0e0e0" stroke-width="1"/>')
            parts.append(
                f'<line x1="{px}" y1="{bottom}" x2="{px}" y2="{bottom + 4}" stroke="#444444" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{px}" y="{bottom + 18}" font-family="{_FONT}" font-size="11" '
                f'fill="#222222" text-anchor="middle">{escape(_tick_label(tick))}</text>'
            )
    # Decorations.
    parts.append(
        f'<text x="{_WIDTH // 2}" y="24" font-family="{_FONT}" font-size="14" font-weight="bold" '
        f'fill="#111111" text-anchor="middle">{escape(figure.title)}</text>'
    )
    parts.append(
        f'<text x="{_LEFT + _PLOT_W // 2}" y="{_HEIGHT - 14}" font-family="{_FONT}" font-size="12" '
        f'fill="#222222" text-anchor="middle">{escape(figure.xlabel)}</text>'
    )
    mid_y = _TOP + _PLOT_H // 2
    parts.append(
        f'<text x="18" y="{mid_y}" font-family="{_FONT}" font-size="12" fill="#222222" '
        f'text-anchor="middle" transform="rotate(-90 18 {mid_y})">{escape(figure.ylabel)}</text>'
    )
    return parts


def _polyline_elements(
    prepared: list[tuple[Series, np.ndarray, np.ndarray]], x_scale: _Scale, y_scale: _Scale
) -> list[str]:
    parts = []
    for index, (_, x, y) in enumerate(prepared):
        color = PALETTE[index % len(PALETTE)]
        segments: list[list[str]] = [[]]
        for px, py in zip(x, y, strict=True):
            if math.isfinite(px) and math.isfinite(py):
                segments[-1].append(f"{_fmt(x_scale(px))},{_fmt(y_scale(py))}")
            elif segments[-1]:
                segments.append([])
        for segment in segments:
            if len(segment) == 1:
                cx, cy = segment[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            elif segment:
                parts.append(
                    f'<polyline points="{" ".join(segment)}" fill="none" stroke="{color}" '
                    'stroke-width="1.8" stroke-linejoin="round"/>'
                )
    return parts


def _bar_elements(
    prepared: list[tuple[Series, np.ndarray, np.ndarray]], x_scale: _Scale, y_scale: _Scale
) -> list[str]:
    parts = []
    groups = len(prepared)
    bar_width = 0.8 / groups
    base_py = y_scale(max(y_scale.low, 0.0))
    for series_index, (_, _, y) in enumerate(prepared):
        color = PALETTE[series_index % len(PALETTE)]
        for category_index, value in enumerate(y):
            if not math.isfinite(value):
                continue
            left = category_index + 0.1 + series_index * bar_width
            x0 = x_scale(left)
            x1 = x_scale(left + bar_width)
            y_top = y_scale(value)
            top = min(y_top, base_py)
            height = abs(base_py - y_top)
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(top)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(height)}" fill="{color}" stroke="#333333" stroke-width="0.5"/>'
            )
    return parts


def _legend_elements(figure: Figure) -> list[str]:
    labels = [series.label for series in figure.series if series.label]
    if not labels or (len(figure.series) == 1 and figure.kind != "bar"):
        return []
    width = max(len(label) for label in labels) * _CHAR_W + 34
    height = len(labels) * 16 + 8
    x0 = _LEFT + _PLOT_W - width - 8
    y0 = _TOP + 8
    parts = [
        f'<rect x="{_fmt(x0)}" y="{y0}" width="{_fmt(width)}" height="{height}" '
        'fill="#ffffff" fill-opacity="0.85" stroke="#999999" stroke-width="0.5"/>'
    ]
    row = 0
    for index, series in enumerate(figure.series):
        if not series.label:
            continue
        color = PALETTE[index % len(PALETTE)]
        cy = y0 + 14 + row * 16
        parts.append(
            f'<line x1="{_fmt(x0 + 6)}" y1="{cy - 3}" x2="{_fmt(x0 + 24)}" y2="{cy - 3}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + 29)}" y="{cy}" font-family="{_FONT}" font-size="11" '
            f'fill="#222222">{escape(series.label)}</text>'
        )
        row += 1
    return parts


def render_svg(figure: Figure) -> bytes:
    """Render *figure* to standalone SVG bytes (pure, deterministic)."""
    prepared = _series_points(figure)
    if figure.kind == "bar":
        x_low, x_high = 0.0, float(len(figure.categories))
        _, _, y_low, y_high = _data_limits(figure, prepared)
    else:
        x_low, x_high, y_low, y_high = _data_limits(figure, prepared)
    x_scale = _Scale(x_low, x_high, _LEFT, _LEFT + _PLOT_W)
    y_scale = _Scale(y_low, y_high, _TOP + _PLOT_H, _TOP)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    parts.extend(_axes_elements(figure, x_scale, y_scale))
    if figure.kind == "bar":
        parts.extend(_bar_elements(prepared, x_scale, y_scale))
    else:
        parts.extend(_polyline_elements(prepared, x_scale, y_scale))
    parts.extend(_legend_elements(figure))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
