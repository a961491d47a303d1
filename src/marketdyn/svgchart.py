"""Minimal deterministic SVG line charts.

Hand-built markup, no plotting dependency: identical inputs yield identical
bytes, which the CLI relies on for reproducible artifacts.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GENERATOR_COMMENT = "<!-- marketdyn chart format 1 -->"

_PALETTE = ("#1f6fb4", "#d9541e", "#3a9c4e", "#8656b8", "#b3312f", "#777777")

_WIDTH = 880
_HEIGHT = 520
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 48


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    *,
    title: str = "",
    x_label: str = "t",
    y_label: str = "share",
    y_range: tuple[float, float] = (0.0, 1.0),
    boundary_x: float | None = None,
    boundary_label: str = "validation",
) -> str:
    """Render named (xs, ys) series as one polyline each.

    boundary_x, when given, draws a labeled dashed vertical rule (used to
    mark where the training window ends).
    """
    if not series:
        raise ValueError("at least one series is required")
    xs_all = [x for _, xs, _ in series for x in xs]
    if not xs_all:
        raise ValueError("series must contain points")
    x_min, x_max = min(xs_all), max(xs_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    y_min, y_max = y_range
    if not y_max > y_min:
        raise ValueError(f"empty y range {y_range}")

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        GENERATOR_COMMENT,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )

    # axes
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y_min + frac * (y_max - y_min)
        yy = py(yv)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{yy:.1f}" x2="{x0}" y2="{yy:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{yy + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
        xv = x_min + frac * (x_max - x_min)
        xx = px(xv)
        parts.append(
            f'<line x1="{xx:.1f}" y1="{y0}" x2="{xx:.1f}" y2="{y0 + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xx:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )

    if boundary_x is not None and x_min <= boundary_x <= x_max:
        bx = px(boundary_x)
        parts.append(
            f'<line x1="{bx:.1f}" y1="{_MARGIN_TOP}" x2="{bx:.1f}" y2="{y0}" '
            f'stroke="#555555" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{bx + 4:.1f}" y="{_MARGIN_TOP + 14}" font-family="sans-serif" '
            f'font-size="11" fill="#555555">{boundary_label}</text>'
        )

    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # px and py over whole columns, each operation in their order
        count = min(len(xs), len(ys))
        x_col = np.asarray(xs[:count], dtype=float)
        y_col = np.asarray(ys[:count], dtype=float)
        xy = np.empty((count, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            xy[:, 0] = _MARGIN_LEFT + (x_col - x_min) / (x_max - x_min) * plot_w
            xy[:, 1] = _MARGIN_TOP + (y_max - y_col) / (y_max - y_min) * plot_h
        points = " ".join(["%.2f,%.2f"] * count) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{points}"/>'
        )
        legend_y = _MARGIN_TOP + 16 * idx
        parts.append(
            f'<line x1="{x0 + plot_w - 120}" y1="{legend_y}" x2="{x0 + plot_w - 96}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + plot_w - 90}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_chart(markup: str, path) -> None:
    Path(path).write_text(markup, encoding="utf-8", newline="\n")
