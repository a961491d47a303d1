"""Minimal deterministic SVG line charts.

Hand-built markup, no plotting dependency: identical inputs yield identical
bytes, which the CLI relies on for reproducible artifacts.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .numtext import format_f2

GENERATOR_COMMENT = "<!-- marketdyn chart format 1 -->"

_PALETTE = ("#1f6fb4", "#d9541e", "#3a9c4e", "#8656b8", "#b3312f", "#777777")

_WIDTH = 880
_HEIGHT = 520
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 48
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_TICKS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])  # fractions of each axis

_TITLE = "market shares"
_X_LABEL = "t (quarters)"
_Y_LABEL = "share"
_BOUNDARY_LABEL = "validation"


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def line_chart(times, shares, *, boundary_x: float | None = None) -> str:
    """Render a (time, strategy) block of shares over one times column as
    one polyline per strategy, on a y axis fixed at [0, 1].

    boundary_x, when given, draws a labeled dashed vertical rule (used to
    mark where the training window ends). The points of each polyline are
    formatted at once by numtext.format_f2, with the bytes of per-point
    "%.2f,%.2f".
    """
    times = np.asarray(times, dtype=float)
    shares = np.asarray(shares, dtype=float)
    if times.ndim != 1 or not len(times):
        raise ValueError(f"times must be a non-empty column, got shape {times.shape}")
    if shares.ndim != 2 or shares.shape[0] != len(times) or not shares.shape[1]:
        raise ValueError(
            f"shares must be a ({len(times)}, strategy) block, got shape {shares.shape}"
        )
    x_min, x_max = min(times.tolist()), max(times.tolist())
    if x_max == x_min:
        x_max = x_min + 1.0
        if x_max == x_min:
            raise ValueError(f"x range [{x_min!r}, {x_max!r}] cannot be widened to draw over")

    def pixels(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pixel columns of x and of y, in float64."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (_MARGIN_LEFT + (x - x_min) / (x_max - x_min) * _PLOT_W,
                    _MARGIN_TOP + (1.0 - y) * _PLOT_H)

    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + _PLOT_H
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        GENERATOR_COMMENT,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_TITLE}</text>',
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + _PLOT_W}" y2="{y0}" stroke="black"/>',
    ]
    x_ticks = x_min + _TICKS * (x_max - x_min)
    for yv, xv, xx, yy in zip(_TICKS.tolist(), x_ticks.tolist(), *pixels(x_ticks, _TICKS)):
        parts += [
            f'<line x1="{x0 - 4}" y1="{yy:.1f}" x2="{x0}" y2="{yy:.1f}" stroke="black"/>',
            f'<text x="{x0 - 8}" y="{yy + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>',
            f'<line x1="{xx:.1f}" y1="{y0}" x2="{xx:.1f}" y2="{y0 + 4}" stroke="black"/>',
            f'<text x="{xx:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>',
        ]
    parts += [
        f'<text x="{x0 + _PLOT_W / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_X_LABEL}</text>',
        f'<text x="16" y="{_MARGIN_TOP + _PLOT_H / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + _PLOT_H / 2:.1f})">{_Y_LABEL}</text>',
    ]

    if boundary_x is not None and x_min <= boundary_x <= x_max:
        bx, _ = pixels(np.float64(boundary_x), 1.0)
        parts += [
            f'<line x1="{bx:.1f}" y1="{_MARGIN_TOP}" x2="{bx:.1f}" y2="{y0}" '
            f'stroke="#555555" stroke-dasharray="6 4"/>',
            f'<text x="{bx + 4:.1f}" y="{_MARGIN_TOP + 14}" font-family="sans-serif" '
            f'font-size="11" fill="#555555">{_BOUNDARY_LABEL}</text>',
        ]

    x_px, y_px = pixels(times, shares)
    xy = np.empty((len(times), 2))
    xy[:, 0] = x_px
    for idx in range(shares.shape[1]):
        color = _PALETTE[idx % len(_PALETTE)]
        xy[:, 1] = y_px[:, idx]
        points = format_f2(xy)[:-1]
        legend_y = _MARGIN_TOP + 16 * idx
        parts += [
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>',
            f'<line x1="{x0 + _PLOT_W - 120}" y1="{legend_y}" x2="{x0 + _PLOT_W - 96}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>',
            f'<text x="{x0 + _PLOT_W - 90}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="12">share_{idx + 1}</text>',
        ]

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_chart(markup: str, path) -> None:
    Path(path).write_text(markup, encoding="utf-8", newline="\n")
