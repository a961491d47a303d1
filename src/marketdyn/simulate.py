"""Share-trajectory simulation under input-driven payoffs.

Forward Euler with a default step of one quarter: the payoff matrix is
synthesized and normalized fresh from the inputs at every step, rates are
evaluated there, and the updated shares are clamped to [0, 1] and
renormalized to the simplex.

A scenario's inputs are one read-only (samples, n_y) table, validated once
when the scenario is built; each step reads its row as a plain array.
InputVector appears only where a caller hands inputs in (custom_scenario).

The step helpers (synthesize_payoff, normalize_payoff, replicator_rates,
advance_shares, step) compute one step. The payoff helpers are one-lane
calls of the halves of influence.payoff_block; replicator_rates and
advance_shares compute on Python floats in the learn kernel's per-element
order, since on two to sixteen entries numpy's per-call cost exceeds the
arithmetic. run normalizes the payoffs of every stepped row in one
payoff_block call, with the coefficients as its one lane, then steps only
the shares, on Python floats, with no value object per step. A duopoly
(n = 2) steps its two shares on local floats, each operation that of
_rates and _advance in their order; three or more strategies step through
_rates and _advance, which replicator_rates and advance_shares wrap. Both
give the bytes of iterated step. run finds a failing step in its share
rows alone and runs it again through step, which raises its error. Only
the final row and that re-run call the helpers. The writer formats the
trajectory's arrays in blocks of rows, each by numtext.format_g17.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import MarketDataset
from .dynamics import (
    PayoffMatrix,
    SharesState,
    _rates,
    _readonly,
    _simplex_rows,
    replicator_rates,
)
from .errors import DataError
from .influence import InfluenceMatrix, _dense_terms, payoff_block
from .influence import normalize_payoff, synthesize_payoff
from .numtext import format_g17

_WRITE_ROWS = 512  # trajectory rows formatted and written at once


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
    """Simulated series as read-only blocks, one row per time t = 0..horizon:
    ``shares`` (time, strategy), ``payoffs`` (time, entry), the normalized
    payoff matrix in force at t in row-major order, and ``rates``
    (time, strategy). Row t+1 of the shares is exactly one Euler step from
    row t."""

    shares: np.ndarray
    payoffs: np.ndarray
    rates: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        shares, payoffs, rates = map(_readonly, (self.shares, self.payoffs, self.rates))
        if shares.ndim != 2 or len(shares) < 1:
            raise ValueError("trajectory must contain at least one sample")
        k, n = shares.shape
        if payoffs.shape != (k, n * n) or rates.shape != (k, n):
            raise ValueError("trajectory series lengths disagree")
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "rates", rates)

    def __len__(self) -> int:
        return len(self.shares)

    @property
    def times(self) -> np.ndarray:
        """The time of each row, t * dt."""
        return np.arange(len(self)) * self.dt

    @cached_property
    def states(self) -> tuple[SharesState, ...]:
        """The share rows as SharesState values, built on first read."""
        return tuple(map(SharesState, self.shares))

    def share_series(self, strategy: int = 0) -> np.ndarray:
        return self.shares[:, strategy]


def advance_shares(state: SharesState, rates: np.ndarray, dt: float) -> SharesState:
    """One Euler update, then clamp to [0, 1] and renormalize to sum 1;
    the shares are those of ``_advance``."""
    x = state.floats
    r = rates.tolist()
    if len(r) != len(x):
        raise ValueError(f"dimension mismatch: {len(x)} shares, {len(r)} rates")
    return SharesState(_advance(x, r, dt))


def _advance(x, r, dt: float) -> list[float]:
    """The shares of advance_shares for the shares ``x`` and rates ``r``,
    both sequences of Python floats, computed per share in the learn
    kernel's order: x + dt * rate, clamped, then divided by the
    left-to-right total. run steps three or more strategies on this."""
    nxt = [min(max(x_i + dt * r_i, 0.0), 1.0) for x_i, r_i in zip(x, r)]
    total = 0.0
    for v in nxt:
        total += v
    if not total > 0.0:
        raise ArithmeticError("share update collapsed to the zero vector")
    return [v / total for v in nxt]


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


# Overflow in the payoff block leaves NaN in its step's column, and NaN
# shares fail the share-row check; the rest of run computes on Python floats
# or on checked values.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run(spec: ScenarioSpec, alpha: InfluenceMatrix) -> Trajectory:
    """Iterate the step over the whole horizon.

    Records horizon+1 rows, each bit for bit what iterating ``step`` from
    the initial state gives; the payoff and rates of the final row describe
    where the system would head next but are not stepped.

    The stepped rows take their payoffs from one influence.payoff_block
    call and their shares and rates from one loop on Python floats that
    appends every value to its own ``array("d")`` column; the share and
    rate blocks are built once from those columns.
    The loop is chosen by ``alpha.n``: a duopoly steps its two shares on
    local floats, each operation that of _rates and _advance in their
    order, and three or more strategies step through _rates and _advance.
    Both give the bytes of iterated ``step``.

    A failing step is found in one place, the share rows: a payoff column
    that PayoffMatrix rejects holds a NaN, which makes every share of its
    step NaN or, for three or more strategies, ends the loop there, as a
    collapse does. So the first share row that SharesState's checks reject,
    or else the number of stepped rows, is the first failing step; ``step``
    runs it again, and its error is raised as a DataError naming the step.

    The final row is computed by the one-step helpers, called through this
    module's attributes. perfbench's traced run wraps synthesize_payoff and
    replicator_rates there and reads their call counts, so run calls each
    of them once; that stays until perfbench reads its spans from a trace
    hook.
    """
    if spec.inputs.shape[1] != alpha.n_y or spec.initial.n != alpha.n:
        raise ValueError(
            f"dimension mismatch: coefficients expect {alpha.n_y} inputs and {alpha.n} "
            f"strategies, scenario has {spec.inputs.shape[1]} and {spec.initial.n}"
        )
    horizon, dt, n, n_y = spec.horizon, spec.dt, alpha.n, alpha.n_y
    payoffs = payoff_block(alpha.coeffs.reshape(-1, 1), _dense_terms(n, n_y),
                           spec.inputs[:horizon])[..., 0]
    x = list(spec.initial.floats)
    columns = [array("d", [v]) for v in x] + [array("d") for _ in x]  # shares, then rates
    try:
        if n == 2:  # _rates and _advance for two shares, on local floats
            x0, x1 = x
            s0, s1, r0s, r1s = (column.append for column in columns)
            for p00, p01, p10, p11 in zip(*payoffs.tolist()):
                f0 = 0.0 + p00 * x0 + p01 * x1
                f1 = 0.0 + p10 * x0 + p11 * x1
                mean = 0.0 + x0 * f0 + x1 * f1
                r0 = x0 * (f0 - mean)
                r1 = x1 * (f1 - mean)
                c0 = x0 + dt * r0
                c1 = x1 + dt * r1
                # min(max(c, 0.0), 1.0), by the comparisons those builtins make
                c0 = 0.0 if c0 < 0.0 else 1.0 if c0 > 1.0 else c0
                c1 = 0.0 if c1 < 0.0 else 1.0 if c1 > 1.0 else c1
                total = 0.0 + c0 + c1  # a collapse raises ZeroDivisionError below
                x0 = c0 / total
                x1 = c1 / total
                s0(x0)
                s1(x1)
                r0s(r0)
                r1s(r1)
        else:
            for a in zip(*payoffs.tolist()):
                r = _rates(a, x)
                x = _advance(x, r, dt)
                for column, value in zip(columns, x + r):
                    column.append(value)
    except ArithmeticError:  # a collapse, with the shares of rows 0..step stored
        pass
    shares = np.column_stack(columns[:n])
    rates = np.column_stack(columns[n:])
    held = _simplex_rows(shares[1:])  # row t + 1 holds the shares of step t
    stop = len(rates) if held.all() else int(np.argmin(held))
    try:
        if stop < horizon:  # the first failing step, run again to raise its error
            step(SharesState(shares[stop]), spec.inputs[stop], alpha, dt)
            raise AssertionError(f"step {stop} fails in run but not in step()")
        payoff = normalize_payoff(synthesize_payoff(alpha, spec.inputs[horizon]))
    except (ValueError, ArithmeticError) as exc:
        # The shapes are checked above, so what fails here is the
        # arithmetic on this step's inputs.
        raise DataError(
            f"step {stop}: {exc}; the inputs may be too large for the payoff "
            "arithmetic (normalize the inputs)"
        ) from exc
    final_rates = replicator_rates(payoff, SharesState(shares[-1]))
    return Trajectory(
        shares=shares,
        payoffs=np.vstack([payoffs.T, payoff.floats]),
        rates=np.vstack([rates, final_rates]),
        dt=dt,
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
    every rate. Numbers carry full round-trip precision (%.17g). The rows
    are streamed to ``target`` in blocks of _WRITE_ROWS, so at most one
    block's values and text exist at a time. numtext.format_g17 formats
    each block as a whole; it leaves every cell it cannot decide for
    certain to Python's %, so the bytes are those of per-cell %.17g."""
    if not hasattr(target, "write"):
        with open(target, "w", encoding="utf-8", newline="\n") as stream:
            write_trajectory_csv(trajectory, stream)
        return
    n = trajectory.shares.shape[1]
    header = ["t"]
    header += [f"share_{i + 1}" for i in range(n)]
    header += [f"A_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += [f"rate_{i + 1}" for i in range(n)]
    target.write(",".join(header) + "\n")
    series = (trajectory.times, trajectory.shares, trajectory.payoffs, trajectory.rates)
    for start in range(0, len(trajectory), _WRITE_ROWS):
        block = np.column_stack([s[start:start + _WRITE_ROWS] for s in series])
        target.write(format_g17(block))
