"""Tests for the SVG line chart."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketdyn import svgchart

_VALUES = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


def expected_points(series, y_range):
    """Each polyline's points, formatted point by point from the chart's
    own scalar maps."""
    xs_all = [x for _, xs, _ in series for x in xs]
    x_min, x_max = min(xs_all), max(xs_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    y_min, y_max = y_range
    plot_w = svgchart._WIDTH - svgchart._MARGIN_LEFT - svgchart._MARGIN_RIGHT
    plot_h = svgchart._HEIGHT - svgchart._MARGIN_TOP - svgchart._MARGIN_BOTTOM

    def px(x):
        return svgchart._MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return svgchart._MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    return [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            for _, xs, ys in series]


@st.composite
def chart_series(draw):
    count = draw(st.integers(1, 3))
    series = []
    for k in range(count):
        length = draw(st.integers(1, 12))
        if draw(st.integers(0, 4)) == 0:
            xs = [draw(_VALUES)] * length  # a constant x range
        else:
            xs = draw(st.lists(_VALUES, min_size=length, max_size=length))
        ys = draw(st.lists(_VALUES, min_size=length, max_size=length))
        series.append((f"s{k}", xs, ys))
    lo, hi = sorted(draw(st.lists(_VALUES, min_size=2, max_size=2, unique=True)))
    y_range = draw(st.sampled_from(((0.0, 1.0), (lo, hi))))
    return series, y_range


@settings(max_examples=300, deadline=None)
@given(drawn=chart_series())
def test_polyline_points_equal_per_point_formatting(drawn):
    series, y_range = drawn
    try:
        expected = expected_points(series, y_range)
    except ZeroDivisionError:
        # x_min + 1.0 == x_min: the chart's axis ticks divide by zero too
        with pytest.raises(ZeroDivisionError):
            svgchart.line_chart(series, y_range=y_range)
        return
    markup = svgchart.line_chart(series, y_range=y_range)
    assert re.findall(r'<polyline [^>]*points="([^"]*)"/>', markup) == expected
