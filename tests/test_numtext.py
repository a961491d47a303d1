"""Tests for the block number formatter: its text is that of Python's %."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketdyn import numtext


def percent(block: np.ndarray, spec: str) -> str:
    """The text of per-cell formatting with Python's %, in the layout of
    the trajectory CSV for "%.17g" and of the chart points for "%.2f"."""
    line = ",".join([spec] * block.shape[1]) + ("\n" if spec == "%.17g" else " ")
    return "".join(line % tuple(row) for row in block.tolist())


def _ulps(values, steps=2) -> list[float]:
    """Each value and its neighbours up to ``steps`` ulps away on both sides."""
    out = []
    for v in values:
        down = up = v
        out.append(v)
        for _ in range(steps):
            down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
            out += [down, up]
    return out


# Exact ties: the 18th significant digit of "%.17g" is a 5 with nothing
# after it, for odd a / 2**17 in [1, 10) and odd a / 2**18 in [0.1, 1);
# "%.2f" ties are odd multiples of 1/8.
G17_TIES = [(2 * a + 1) / 2**17 for a in range(2**16, 2**16 + 40)]
G17_TIES += [(2 * a + 1) / 2**18 for a in range(2**14, 2**14 + 40)]
F2_TIES = [(2 * a + 1) / 8 for a in range(-400, 400)]
POWERS = _ulps([float(f"1e{k}") for k in range(-325, 309)])
THRESHOLDS = _ulps([1e-5, 1e-4, 1e16, 1e17, 0.5, 1.0, numtext._F2_MAX])
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, 1e-100, 1.5e100, -2.5e-123]
FAMILIES = G17_TIES + F2_TIES + POWERS + THRESHOLDS + SPECIAL
FAMILIES += [-v for v in FAMILIES]
# A "%.2f" cell of 1e16 or more is wider than a slot and sends its whole
# part of the block to Python's %, so the "%.2f" families leave it out.
F2_FAMILIES = [v for v in FAMILIES if not abs(v) >= 1e16]


@pytest.mark.parametrize("spec, function, values", [
    ("%.17g", numtext.format_g17, FAMILIES),
    ("%.2f", numtext.format_f2, F2_FAMILIES),
])
@pytest.mark.parametrize("cols", [1, 3, 7])
def test_families_equal_percent_formatting(spec, function, values, cols):
    """Ties, every power of ten with two ulps on either side, the
    thresholds of %g's notation and of the tables, three-digit exponents,
    signed zeros, subnormals and non-finite values, in blocks that span
    several of the formatter's parts."""
    block = np.array(values[:len(values) - len(values) % cols]).reshape(-1, cols)
    assert block.size > 2 * numtext._CELLS
    assert function(block) == percent(block, spec)


_CELL = st.one_of(st.floats(), st.sampled_from(FAMILIES), st.floats(-1e4, 1e4))
_F2_CELL = st.one_of(st.floats(-1e16, 1e16), st.sampled_from(F2_FAMILIES),
                     st.floats(-1e4, 1e4), st.sampled_from([math.nan, math.inf, -0.0]))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), cols=st.integers(1, 6))
def test_random_blocks_equal_percent_formatting(data, cols):
    """Any float64, nan, infinities, subnormals and signed zeros included,
    mixed with the families above, in blocks of fewer cells than _FEW and
    of more; "%.2f" cells mostly below 1e16, where the formatter does not
    hand its whole part to Python's %."""
    few = -(-numtext._FEW // cols)  # the rows of the smallest block formatted as arrays
    rows = data.draw(st.one_of(st.integers(1, few - 1), st.integers(few, few + 40)))
    for spec, function, cell in (("%.17g", numtext.format_g17, _CELL),
                                 ("%.2f", numtext.format_f2, _F2_CELL)):
        cells = data.draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
        block = np.array(cells, dtype=np.float64).reshape(rows, cols)
        assert function(block) == percent(block, spec)


@pytest.mark.parametrize("value, reason", [
    (131073 / 2**17, "an exact tie"),
    (131075 / 2**17, "an exact tie rounding up to an even digit"),
    (float("1e-280"), "the decade misjudged: q is just below 10**16"),
    (1e300, "above the power table"),
    (5e-324, "below the power table"),
    (math.nan, "not finite"),
    (-math.inf, "not finite"),
])
def test_each_fallback_reason_is_taken(value, reason):
    """The cell goes to Python's %, and the text is its text."""
    x = np.array([0.1, value] * numtext._FEW)
    _, leave = numtext._g17_cells(x)
    assert leave.tolist()[:2] == [False, True], reason
    assert numtext.format_g17(x[:, None]) == f"0.10000000000000001\n{value:.17g}\n" * numtext._FEW


def test_the_misjudged_decade_case_prints_its_own_digits():
    """The double nearest 1e-280 lies below it; rounding q first would
    print 1e-280."""
    block = np.full((numtext._FEW, 1), float("1e-280"))
    assert numtext.format_g17(block) == "9.9999999999999996e-281\n" * numtext._FEW


@pytest.mark.parametrize("value, reason", [
    (0.125, "an exact tie"),
    (2.675, "within the margin of a tie: q is 267.49999999999998..."),
    (numtext._F2_MAX, "above the digit table"),
    (math.inf, "not finite"),
])
def test_each_fixed_point_fallback_reason_is_taken(value, reason):
    x = np.array([1.5, value] * numtext._FEW)
    _, leave = numtext._f2_cells(x)
    assert leave.tolist()[:2] == [False, True], reason
    assert numtext.format_f2(x[:, None]) == f"1.50 {value:.2f} " * numtext._FEW


def test_a_fixed_point_cell_wider_than_its_slot_formats_its_part_with_percent():
    block = np.array([[1e300, -0.004], [2.5, -1e20]] * numtext._FEW)
    assert numtext.format_f2(block) == percent(block, "%.2f")


def test_polyline_and_trajectory_layouts():
    block = np.array([[0.0, -0.0], [1e-5, 123456789.125]] * numtext._FEW)
    g17, f2 = numtext.format_g17(block), numtext.format_f2(block)
    assert g17[:42] == "0,-0\n1.0000000000000001e-05,123456789.125\n"  # a short diff
    assert f2[:29] == "0.00,-0.00 0.00,123456789.12 "
    assert g17 == g17[:42] * numtext._FEW
    assert f2 == f2[:29] * numtext._FEW
