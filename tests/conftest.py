"""Shared constants and builders for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import marketdyn
from marketdyn.dataset import MarketDataset
from marketdyn.dynamics import SharesState
from marketdyn.influence import ConstraintSpec, InfluenceMatrix, build_constraints

DUOPOLY_SPEC = ConstraintSpec.standard_duopoly(4)
DUOPOLY_MASK, DUOPOLY_PAIRS = build_constraints(DUOPOLY_SPEC, 2, 4)

# Two reference coefficient tuples exercised across the suite, in free-layout
# order ((0,0), (0,2), (1,0), (1,1), (1,2), (1,3)). RECOVERY_TARGET doubles as
# the generator in the synthetic-recovery acceptance test; EXAMPLE_GENERATOR
# is the tuple planted in the bundled example dataset.
RECOVERY_TARGET = (4, -1, 0, 3, 1, 3)
ALT_REFERENCE = (4, 2, 0, 3, -3, 4)
EXAMPLE_GENERATOR = (1, -4, 4, 3, 2, -3)


def duopoly_alpha(values) -> InfluenceMatrix:
    """Constrained 2x4 coefficient matrix from six free values."""
    return InfluenceMatrix.from_free_values(2, 4, DUOPOLY_MASK, DUOPOLY_PAIRS, values)


def make_dataset(share1_series, inputs, ownership=(0, 1, 0, 1)) -> MarketDataset:
    """Two-strategy dataset from a strategy-1 share series and an input table."""
    share1_series = list(share1_series)
    inputs = np.asarray(inputs, dtype=float)
    labels = tuple(f"t{k:03d}" for k in range(len(share1_series)))
    shares = tuple(SharesState(np.array([v, 1.0 - v])) for v in share1_series)
    return MarketDataset(
        labels=labels,
        shares=shares,
        inputs=inputs,
        ownership=tuple(ownership[: inputs.shape[1]]),
    )


def ramp_inputs(length: int, n_y: int = 4) -> np.ndarray:
    """Deterministic generic input table: shifted ramps, one per channel."""
    rows = []
    for t in range(length):
        rows.append([((t + 1 + 3 * m) % (5 + m)) / (4.0 + m) for m in range(n_y)])
    return np.array(rows)


@pytest.fixture(scope="session")
def example_dataset():
    from marketdyn.dataset import load_example

    return load_example()


@pytest.fixture(scope="session", autouse=True)
def cli_subprocesses_import_this_package():
    """The CLI tests run ``python -m marketdyn.cli`` in a subprocess. Put the
    directory this suite imports marketdyn from on the subprocess's path, so
    that a plain checkout, found through pytest's ``pythonpath`` setting,
    works without an install or PYTHONPATH."""
    package_root = str(Path(marketdyn.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield
