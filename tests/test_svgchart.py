"""Tests for the SVG share chart."""

import contextlib
import hashlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DUOPOLY_SPEC, EXAMPLE_GENERATOR, duopoly_alpha
from marketdyn import cli, svgchart
from marketdyn.dataset import example_dataset_path
from marketdyn.influence import save_alpha

_VALUES = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


def expected_points(times, shares):
    """Each strategy's polyline points, formatted point by point from scalar
    maps of the x range and of the y axis [0, 1]."""
    x_min, x_max = min(times), max(times)
    if x_max == x_min:
        x_max = x_min + 1.0
    plot_w = svgchart._WIDTH - svgchart._MARGIN_LEFT - svgchart._MARGIN_RIGHT
    plot_h = svgchart._HEIGHT - svgchart._MARGIN_TOP - svgchart._MARGIN_BOTTOM

    def px(x):
        return svgchart._MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return svgchart._MARGIN_TOP + (1.0 - y) / (1.0 - 0.0) * plot_h

    return [" ".join(f"{px(x):.2f},{py(row[i]):.2f}" for x, row in zip(times, shares))
            for i in range(len(shares[0]))]


@st.composite
def chart_columns(draw):
    """A times column of 1 to 12 values (sometimes one value repeated) and
    a (time, strategy) block of 1 to 3 columns over it."""
    length = draw(st.integers(1, 12))
    count = draw(st.integers(1, 3))
    if draw(st.integers(0, 4)) == 0:
        times = [draw(_VALUES)] * length  # a constant x range
    else:
        times = draw(st.lists(_VALUES, min_size=length, max_size=length))
    shares = [draw(st.lists(_VALUES, min_size=count, max_size=count)) for _ in range(length)]
    return times, shares


@settings(max_examples=300, deadline=None)
@given(drawn=chart_columns())
def test_polyline_points_equal_per_point_formatting(drawn):
    times, shares = drawn
    try:
        expected = expected_points(times, shares)
    except ZeroDivisionError:
        # x_min + 1.0 == x_min: no x range to draw over
        with pytest.raises(ValueError, match="x range"):
            svgchart.line_chart(times, shares)
        return
    markup = svgchart.line_chart(times, shares)
    assert re.findall(r'<polyline [^>]*points="([^"]*)"/>', markup) == expected


def test_long_polylines_equal_per_point_formatting():
    """Polylines of enough points that their text is formatted as arrays."""
    rng = np.random.default_rng(3)
    times = (np.arange(400) * 0.25).tolist()
    shares = rng.random((400, 2))
    shares[::7] = [0.0, 1.0]
    shares[::11] = [-0.0, 0.5]
    markup = svgchart.line_chart(times, shares)
    assert re.findall(r'<polyline [^>]*points="([^"]*)"/>', markup) == expected_points(
        times, shares.tolist())


@pytest.mark.parametrize("times, shares", [
    ([0.0, 1.0], [[0.5, 0.5]]),  # one row for two times
    ([0.0, 1.0], [0.5, 0.5]),  # not a block
    ([], []),
    ([0.0], [[]]),  # no strategy
])
def test_mismatched_columns_raise(times, shares):
    with pytest.raises(ValueError):
        svgchart.line_chart(times, shares)


def chart_sha256(tmp_path, *command) -> str:
    """sha256 of the chart that ``marketdyn COMMAND --svg`` draws for the
    bundled example under its planted coefficients."""
    alpha = tmp_path / "alpha.json"
    save_alpha(duopoly_alpha(EXAMPLE_GENERATOR), DUOPOLY_SPEC.ownership, alpha)
    chart = tmp_path / "chart.svg"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*command, "--data", str(example_dataset_path()),
                         "--alpha", str(alpha), "--out", str(tmp_path / "trajectory.csv"),
                         "--svg", str(chart)])
    assert code == 0
    return hashlib.sha256(chart.read_bytes()).hexdigest()


class TestPinnedChartBytes:
    """Hashes of whole charts, ticks, labels and boundary included; a
    refactor of the chart or of the CLI's path to it must keep these bytes."""

    def test_observed_replay_with_validation_boundary(self, tmp_path):
        digest = chart_sha256(tmp_path, "simulate")
        assert digest == "4ea2b9598f10fd219cd964bb5e98c7d7049010fec7744fd58c6f1160b43788a9"

    def test_constant_inputs_without_boundary(self, tmp_path):
        digest = chart_sha256(tmp_path, "scenario", "--kind", "constant-inputs")
        assert digest == "fbf9df8da3a7af5742ca533e9f93660998bfc0291cbb101caa72e7685af59803"
