"""Share-trajectory simulation under input-driven payoffs.

Forward Euler with a default step of one quarter: the payoff matrix is
synthesized and normalized fresh from the inputs at every step, rates are
evaluated there, and the updated shares are clamped to [0, 1] and
renormalized to the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MarketDataset
from .dynamics import (
    PayoffMatrix,
    SharesState,
    mixed_equilibrium,
    replicator_rates,
)
from .errors import DataError
from .influence import InfluenceMatrix, InputVector, normalize_payoff, synthesize_payoff

OBSERVED_INPUTS = "observed-inputs"
CONSTANT_INPUTS = "constant-inputs"
CUSTOM_INPUTS = "custom-inputs"
SCENARIO_KINDS = (OBSERVED_INPUTS, CONSTANT_INPUTS, CUSTOM_INPUTS)


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully resolved simulation request: one input vector per recorded
    time 0..horizon, the starting shares, and the Euler step size."""

    kind: str
    inputs: tuple[InputVector, ...]
    initial: SharesState
    horizon: int
    dt: float = 1.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"scenario kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "inputs", tuple(self.inputs))


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
        return np.array([s.shares[strategy] for s in self.states])

    @property
    def final(self) -> SharesState:
        return self.states[-1]


def advance_shares(state: SharesState, rates: np.ndarray, dt: float) -> SharesState:
    """One Euler update, then clamp to [0, 1] and renormalize to sum 1."""
    nxt = state.shares + dt * rates
    nxt = np.clip(nxt, 0.0, 1.0)
    total = 0.0
    for v in nxt:
        total += v
    if not total > 0.0:
        raise ArithmeticError("share update collapsed to the zero vector")
    return SharesState(nxt / total)


def step(
    state: SharesState, y: InputVector, alpha: InfluenceMatrix, dt: float = 1.0
) -> tuple[SharesState, PayoffMatrix, np.ndarray]:
    """Advance one step; returns (next state, payoff used, rates used)."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    payoff = normalize_payoff(synthesize_payoff(alpha, y))
    rates = replicator_rates(payoff, state)
    return advance_shares(state, rates, dt), payoff, rates


def run(spec: ScenarioSpec, alpha: InfluenceMatrix) -> Trajectory:
    """Iterate the step over the whole horizon.

    Records horizon+1 states; the payoff and rates stored at the final time
    describe where the system would head next but are not stepped.
    """
    states = [spec.initial]
    payoffs = []
    rates = []
    x = spec.initial
    for t in range(spec.horizon + 1):
        if t >= len(spec.inputs):
            raise DataError(f"no input sample for step {t}")
        payoff = normalize_payoff(synthesize_payoff(alpha, spec.inputs[t]))
        r = replicator_rates(payoff, x)
        payoffs.append(payoff)
        rates.append(r)
        if t < spec.horizon:
            x = advance_shares(x, r, spec.dt)
            states.append(x)
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
        kind=OBSERVED_INPUTS,
        inputs=tuple(dataset.input_vector(t) for t in range(len(dataset))),
        initial=dataset.shares[0],
        horizon=len(dataset) - 1,
        dt=dt,
    )


def constant_scenario(
    dataset: MarketDataset, horizon: int | None = None, dt: float = 1.0
) -> ScenarioSpec:
    """Counterfactual: every step sees the first observed input sample."""
    if horizon is None:
        horizon = len(dataset) - 1
    first = dataset.input_vector(0)
    return ScenarioSpec(
        kind=CONSTANT_INPUTS,
        inputs=tuple(first for _ in range(horizon + 1)),
        initial=dataset.shares[0],
        horizon=horizon,
        dt=dt,
    )


def custom_scenario(
    inputs, initial: SharesState, horizon: int | None = None, dt: float = 1.0
) -> ScenarioSpec:
    """User-supplied input series; horizon defaults to using it all."""
    inputs = tuple(inputs)
    if horizon is None:
        horizon = len(inputs) - 1
    return ScenarioSpec(
        kind=CUSTOM_INPUTS, inputs=inputs, initial=initial, horizon=horizon, dt=dt
    )


def target_equilibrium(alpha: InfluenceMatrix, y: InputVector) -> SharesState | None:
    """Interior equilibrium the dynamics would chase if the inputs froze at
    y: synthesize, normalize, then solve the two-strategy fixed point."""
    return mixed_equilibrium(normalize_payoff(synthesize_payoff(alpha, y)))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_trajectory_csv(trajectory: Trajectory, target) -> None:
    """Trajectory table: t, every share, every payoff entry (row-major),
    every rate. Numbers carry full round-trip precision."""
    n = trajectory.states[0].n
    header = ["t"]
    header += [f"share_{i + 1}" for i in range(n)]
    header += [f"A_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += [f"rate_{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    for idx in range(len(trajectory)):
        row = [_fmt(trajectory.times[idx] * trajectory.dt)]
        row += [_fmt(v) for v in trajectory.states[idx].shares]
        row += [_fmt(v) for v in trajectory.payoffs[idx].entries.ravel()]
        row += [_fmt(v) for v in trajectory.rates[idx]]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        from pathlib import Path

        Path(target).write_text(text, encoding="utf-8", newline="\n")
