"""Rebuild the bundled example dataset at src/marketdyn/data/example_market.csv.

The file is a synthetic duopoly: 33 quarters of market shares for two
competing brands plus four external input channels (a price index and a
promotion-spend series per brand, ownership alternating A, B, A, B).
Shares come from simulating the dynamics with a fixed integer coefficient
matrix over hand-shaped input curves, so a radius-4 grid-search fit on the
file recovers that matrix as the unique winner. Stored shares are rounded
to six decimals; the resulting fit error (~1e-13) stays about six orders
of magnitude below the gap to the runner-up candidate (~1e-7).

Deterministic, no RNG. Run from the repository root:

    python3 scripts/generate_example_data.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from marketdyn.dataset import MarketDataset, load_csv, normalize_inputs
from marketdyn.dynamics import SharesState
from marketdyn.influence import ConstraintSpec, InfluenceMatrix, build_constraints
from marketdyn.learn import GridSpec, fit
from marketdyn.simulate import ScenarioSpec, constant_scenario, observed_scenario, run

HORIZON = 33  # quarters, 2009Q1 through 2017Q1
TRAIN_END = 26  # matches the default 0.2 holdout split for 33 samples
RADIUS = 4
FREE_VALUES = (1, -4, 4, 3, 2, -3)  # the planted coefficient tuple
INITIAL = (0.3, 0.7)
OWNERSHIP = (0, 1, 0, 1)

OUT_PATH = Path(__file__).resolve().parents[1] / "src" / "marketdyn" / "data" / "example_market.csv"

COMMENT = """\
# Synthetic duopoly example: quarterly shares for two competing brands and
# four external input channels (price index and promotion spend per brand,
# ownership alternating A, B, A, B). Illustrative numbers only; they do not
# describe any real market.
# Regenerate with: python3 scripts/generate_example_data.py
"""


def quarter_labels(count: int) -> tuple[str, ...]:
    out, year, q = [], 2009, 1
    for _ in range(count):
        out.append(f"{year}Q{q}")
        q += 1
        if q == 5:
            year, q = year + 1, 1
    return tuple(out)


def input_row(t: int) -> tuple[float, float, float, float]:
    """Hand-shaped quarterly input curves, rounded like reported figures."""
    price_a = 1500.0 + 52.5 * t + 0.33 * t * t
    if t <= 11:
        price_b = 900.0 + 1500.0 * (t / 11.0) ** 1.7
    else:
        price_b = 2400.0 - 90.0 * (t - 11)
    promo_a = 215.0 + 215.0 * math.exp(-t / 33.0)
    if t <= 5:
        promo_b = 600.0 + 82.0 * math.sin(math.pi * t / 10.0) ** 2
    else:
        promo_b = 682.0 - 5.7 * (t - 5)
    return (round(price_a, 1), round(price_b, 1), round(promo_a, 2), round(promo_b, 2))


def simulate_shares(raw_inputs: np.ndarray) -> np.ndarray:
    """Strategy share paths for the planted coefficients over the raw curves.

    Inputs are rescaled over the training window first; the fit side does the
    same, so the planted tuple reproduces the stored shares.
    """
    placeholder = tuple(SharesState(np.array([0.5, 0.5])) for _ in range(HORIZON))
    base = MarketDataset(
        labels=quarter_labels(HORIZON),
        shares=placeholder,
        inputs=raw_inputs,
        ownership=OWNERSHIP,
    )
    scaled, _ = normalize_inputs(base, (0, TRAIN_END))
    spec = ConstraintSpec.standard_duopoly(4)
    mask, pairs = build_constraints(spec, 2, 4)
    alpha = InfluenceMatrix.from_free_values(2, 4, mask, pairs, FREE_VALUES)
    traj = run(
        ScenarioSpec(inputs=scaled.inputs, initial=SharesState(np.array(INITIAL)),
                     horizon=HORIZON - 1),
        alpha,
    )
    return traj.shares


def write_csv(labels, shares: np.ndarray, raw_inputs: np.ndarray) -> None:
    lines = [COMMENT.rstrip("\n"), "label,share_1,share_2,y_1,y_2,y_3,y_4"]
    for k, label in enumerate(labels):
        cells = [label]
        cells += [f"{shares[k, i]:.6f}" for i in range(2)]
        cells += [f"{raw_inputs[k, 0]:.1f}", f"{raw_inputs[k, 1]:.1f}"]
        cells += [f"{raw_inputs[k, 2]:.2f}", f"{raw_inputs[k, 3]:.2f}"]
        lines.append(",".join(cells))
    OUT_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_roundtrip() -> None:
    """Refit the written file and confirm the planted tuple wins cleanly."""
    dataset = load_csv(OUT_PATH)
    scaled, _ = normalize_inputs(dataset, (0, TRAIN_END))
    report = fit(scaled, GridSpec(RADIUS), ConstraintSpec.standard_duopoly(4), 0.2)
    if report.best_values != FREE_VALUES or report.tie_class_size != 1:
        raise SystemExit(
            f"recovery check failed: winner {report.best_values}, "
            f"ties {report.tie_class_size}"
        )
    observed = run(observed_scenario(scaled), report.best_alpha).share_series(0)
    frozen = run(constant_scenario(scaled), report.best_alpha).share_series(0)
    crossed = np.flatnonzero(observed >= 0.5)
    if crossed.size == 0 or crossed[0] >= TRAIN_END:
        raise SystemExit("brand A share must cross 0.5 inside the training window")
    if not 0.5 < frozen[-1] < observed[-1]:
        raise SystemExit(
            f"constant-input ordering broken: frozen {frozen[-1]:.4f}, "
            f"observed {observed[-1]:.4f}"
        )
    print(f"wrote {OUT_PATH}")
    print(
        f"recovery: winner {report.best_values}, train error {report.train_error:.2e}, "
        f"crossing at index {crossed[0]} ({dataset.labels[crossed[0]]}), "
        f"final shares observed {observed[-1]:.3f} vs frozen inputs {frozen[-1]:.3f}"
    )


def main() -> int:
    raw = np.array([input_row(t) for t in range(HORIZON)])
    shares = simulate_shares(raw)
    write_csv(quarter_labels(HORIZON), shares, raw)
    check_roundtrip()
    return 0


if __name__ == "__main__":
    sys.exit(main())
