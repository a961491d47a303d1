"""Share-trajectory simulation under input-driven payoffs.

Forward Euler with a default step of one quarter: the payoff matrix is
synthesized and normalized fresh from the inputs at every step, rates are
evaluated there, and the updated shares are clamped to [0, 1] and
renormalized to the simplex.

A scenario's inputs are one read-only (samples, n_y) table, validated once
when the scenario is built; each step reads its row as a plain array.
InputVector appears only where a caller hands inputs in (custom_scenario).

The step helpers compute on Python floats in the learn kernel's
per-element order; on vectors of two to sixteen entries numpy's per-call
cost exceeds the arithmetic. They read and build the floats that
SharesState and PayoffMatrix hold, so a step builds no array but its rates,
and the trajectory writer formats those floats directly. run calls each
helper once per step through this module's attributes, which is where
perfbench's traced run wraps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MarketDataset
from .dynamics import PayoffMatrix, SharesState, _readonly, replicator_rates
from .errors import DataError
from .influence import InfluenceMatrix, normalize_payoff, synthesize_payoff


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully resolved simulation request: a (samples, n_y) input table
    whose row t drives step t for t = 0..horizon, the starting shares, and
    the Euler step size. The table is stored read-only."""

    inputs: np.ndarray
    initial: SharesState
    horizon: int
    dt: float = 1.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        table = _readonly(self.inputs)
        if table.ndim != 2 or table.shape[1] < 1:
            # worded per row, as InputVector words it
            raise ValueError(
                f"input values must be a non-empty vector, got shape {table.shape[1:]}"
            )
        if not np.isfinite(table).all():
            raise ValueError("input values must be finite")
        if len(table) <= self.horizon:
            raise DataError(f"no input sample for step {len(table)}")
        object.__setattr__(self, "inputs", table)


@dataclass(frozen=True)
class Trajectory:
    """Simulated series: states, the normalized payoff matrix in force at
    each time, and the rates there. All series share one length; state t+1
    is exactly one Euler step from state t."""

    times: tuple[int, ...]
    states: tuple[SharesState, ...]
    payoffs: tuple[PayoffMatrix, ...]
    rates: tuple[np.ndarray, ...]
    dt: float = 1.0

    def __post_init__(self):
        k = len(self.times)
        if not (k == len(self.states) == len(self.payoffs) == len(self.rates)):
            raise ValueError("trajectory series lengths disagree")
        if k < 1:
            raise ValueError("trajectory must contain at least one sample")

    def __len__(self) -> int:
        return len(self.times)

    def share_series(self, strategy: int = 0) -> np.ndarray:
        return np.array([s.floats[strategy] for s in self.states])

    @property
    def final(self) -> SharesState:
        return self.states[-1]


def advance_shares(state: SharesState, rates: np.ndarray, dt: float) -> SharesState:
    """One Euler update, then clamp to [0, 1] and renormalize to sum 1.

    Computed per share on Python floats, in the learn kernel's order:
    x + dt * rate, clamped, then divided by the left-to-right total.
    """
    x = state.floats
    r = rates.tolist()
    if len(r) != len(x):
        raise ValueError(f"dimension mismatch: {len(x)} shares, {len(r)} rates")
    nxt = [min(max(x_i + dt * r_i, 0.0), 1.0) for x_i, r_i in zip(x, r)]
    total = 0.0
    for v in nxt:
        total += v
    if not total > 0.0:
        raise ArithmeticError("share update collapsed to the zero vector")
    return SharesState._of_floats([v / total for v in nxt])


def step(
    state: SharesState, y: np.ndarray, alpha: InfluenceMatrix, dt: float = 1.0
) -> tuple[SharesState, PayoffMatrix, np.ndarray]:
    """Advance one step under the input row ``y``; returns (next state,
    payoff used, rates used)."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    payoff = normalize_payoff(synthesize_payoff(alpha, y))
    rates = replicator_rates(payoff, state)
    return advance_shares(state, rates, dt), payoff, rates


def run(spec: ScenarioSpec, alpha: InfluenceMatrix) -> Trajectory:
    """Iterate the step over the whole horizon.

    Records horizon+1 states; the payoff and rates stored at the final time
    describe where the system would head next but are not stepped. A step
    whose payoffs or shares come out non-finite, or whose shares collapse,
    raises DataError naming the step.
    """
    if spec.inputs.shape[1] != alpha.n_y or spec.initial.n != alpha.n:
        raise ValueError(
            f"dimension mismatch: coefficients expect {alpha.n_y} inputs and {alpha.n} "
            f"strategies, scenario has {spec.inputs.shape[1]} and {spec.initial.n}"
        )
    states = [spec.initial]
    payoffs = []
    rates = []
    x = spec.initial
    try:
        for t in range(spec.horizon + 1):
            payoff = normalize_payoff(synthesize_payoff(alpha, spec.inputs[t]))
            r = replicator_rates(payoff, x)
            payoffs.append(payoff)
            rates.append(r)
            if t < spec.horizon:
                x = advance_shares(x, r, spec.dt)
                states.append(x)
    except (ValueError, ArithmeticError) as exc:
        # The shapes are checked above, so what fails here is the
        # arithmetic on this step's inputs.
        raise DataError(
            f"step {t}: {exc}; the inputs may be too large for the payoff "
            "arithmetic (normalize the inputs)"
        ) from exc
    return Trajectory(
        times=tuple(range(spec.horizon + 1)),
        states=tuple(states),
        payoffs=tuple(payoffs),
        rates=tuple(rates),
        dt=spec.dt,
    )


def observed_scenario(dataset: MarketDataset, dt: float = 1.0) -> ScenarioSpec:
    """Replay the dataset's own input series from its first observed shares."""
    return ScenarioSpec(
        inputs=dataset.inputs,
        initial=dataset.shares[0],
        horizon=len(dataset) - 1,
        dt=dt,
    )


def constant_scenario(dataset: MarketDataset, dt: float = 1.0) -> ScenarioSpec:
    """Counterfactual: every step sees the first observed input sample."""
    return ScenarioSpec(
        inputs=np.repeat(dataset.inputs[:1], len(dataset), axis=0),
        initial=dataset.shares[0],
        horizon=len(dataset) - 1,
        dt=dt,
    )


def custom_scenario(
    inputs, initial: SharesState, horizon: int | None = None, dt: float = 1.0
) -> ScenarioSpec:
    """User-supplied series of InputVectors; horizon defaults to using it all."""
    rows = [y.values for y in inputs]
    if horizon is None:
        horizon = len(rows) - 1
    return ScenarioSpec(inputs=np.array(rows), initial=initial, horizon=horizon, dt=dt)


def write_trajectory_csv(trajectory: Trajectory, target) -> None:
    """Trajectory table: t, every share, every payoff entry (row-major),
    every rate. Numbers carry full round-trip precision (%.17g)."""
    n = trajectory.states[0].n
    header = ["t"]
    header += [f"share_{i + 1}" for i in range(n)]
    header += [f"A_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += [f"rate_{i + 1}" for i in range(n)]
    row = ",".join(["%.17g"] * len(header))
    dt = trajectory.dt
    lines = [",".join(header)]
    for t, state, payoff, rates in zip(
        trajectory.times, trajectory.states, trajectory.payoffs, trajectory.rates
    ):
        lines.append(row % (
            float(t * dt),
            *state.floats,
            *payoff.floats,
            *rates.tolist(),
        ))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        from pathlib import Path

        Path(target).write_text(text, encoding="utf-8", newline="\n")
