"""Share-trajectory simulation under input-driven payoffs.

Forward Euler with a default step of one quarter: the payoff matrix is
synthesized and normalized fresh from the inputs at every step, rates are
evaluated there, and the updated shares are clamped to [0, 1] and
renormalized to the simplex.

A scenario's inputs are one read-only (samples, n_y) table, validated once
when the scenario is built; each step reads its row as a plain array.
InputVector appears only where a caller hands inputs in (custom_scenario).

The step helpers (synthesize_payoff, normalize_payoff, replicator_rates,
advance_shares, step) compute one step on Python floats in the learn
kernel's per-element order; on vectors of two to sixteen entries numpy's
per-call cost exceeds the arithmetic. run takes the same operations in two
halves. A payoff depends on its input row alone, so _payoff_block
normalizes the payoffs of every stepped row in one batch of array
operations, each element in the helpers' order. The loop then steps only
the shares, on Python floats, and builds no value object per step; which
loop runs is chosen by the number of strategies. A duopoly (n = 2) steps
its two shares on local floats, each operation that of the float
functions _rates and _advance in their order; three or more strategies
step through _rates and _advance, which replicator_rates and
advance_shares wrap. Both give the bytes of iterated step. The final row,
which no step advances, comes from the helpers themselves. The trajectory
keeps its shares, payoffs and rates as arrays, and the writer formats them
with one row template.
"""

from __future__ import annotations

import math
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
from .influence import (
    DEGENERATE_RANGE,
    InfluenceMatrix,
    normalize_payoff,
    synthesize_payoff,
)


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
        return tuple(SharesState._of_floats(row) for row in self.shares.tolist())

    def share_series(self, strategy: int = 0) -> np.ndarray:
        return self.shares[:, strategy]


def advance_shares(state: SharesState, rates: np.ndarray, dt: float) -> SharesState:
    """One Euler update, then clamp to [0, 1] and renormalize to sum 1;
    the shares are those of ``_advance``."""
    x = state.floats
    r = rates.tolist()
    if len(r) != len(x):
        raise ValueError(f"dimension mismatch: {len(x)} shares, {len(r)} rates")
    return SharesState._of_floats(_advance(x, r, dt))


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


# Overflow and NaN show up as rows that fail the payoff checks.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _payoff_block(alpha: InfluenceMatrix, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """The normalized payoff entries that the (step, input) array ``rows``
    drives, as one (step, entry) block, and the index of the first row whose
    payoffs the one-step helpers reject (``len(rows)`` if none).

    Per element the operations are those of synthesize_payoff and
    normalize_payoff: terms summed from 0.0 in input order, the minimum and
    maximum taken per row, then subtract and divide, and 0.5 where the range
    is degenerate.
    """
    raw = np.zeros((len(rows), alpha.n * alpha.n))
    for m in range(alpha.n_y):
        raw += rows[:, m, None] * alpha.coeffs[:, m]
    lo = raw.min(axis=1)
    # Where a row's minimum is zero, normalize_payoff takes numpy's minimum
    # of that row, whose sign the subtraction shows. A sum from 0.0 is never
    # -0.0, so this only guards against a change in how the rows are summed.
    for i in np.flatnonzero(lo == 0.0):
        lo[i] = raw[i].min()
    span = raw.max(axis=1) - lo
    pay = (raw - lo[:, None]) / span[:, None]
    pay[span < DEGENERATE_RANGE] = 0.5
    # PayoffMatrix's checks: finite raw entries, and normalized entries in
    # [0, 1], which a NaN fails too.
    held = np.isfinite(raw).all(axis=1) & ((pay >= 0.0) & (pay <= 1.0)).all(axis=1)
    return pay, len(rows) if held.all() else int(np.argmin(held))


def run(spec: ScenarioSpec, alpha: InfluenceMatrix) -> Trajectory:
    """Iterate the step over the whole horizon.

    Records horizon+1 rows, each bit for bit what iterating ``step`` from
    the initial state gives; the payoff and rates of the final row describe
    where the system would head next but are not stepped. A step whose
    payoffs or shares come out non-finite, or whose shares collapse, raises
    DataError naming the step, with the message that ``step`` raises there.

    The stepped rows take their payoffs from _payoff_block, and their shares
    and rates from one loop on Python floats that appends every value to
    its own column; the share and rate blocks are built once from those
    columns, and every share row then gets SharesState's checks at once.
    The loop is chosen by ``alpha.n``: a duopoly steps its two shares on
    local floats, each operation that of _rates and _advance in their
    order, and three or more strategies step through _rates and _advance.
    Both give the bytes of iterated ``step``.

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
    horizon, dt, n = spec.horizon, spec.dt, alpha.n
    payoffs, stop = _payoff_block(alpha, spec.inputs[:horizon])
    x = list(spec.initial.floats)
    columns = [[v] for v in x] + [[] for _ in x]  # the shares, then the rates
    try:
        if n == 2:  # _rates and _advance for two shares, on local floats
            x0, x1 = x
            s0, s1, r0s, r1s = (column.append for column in columns)
            for p00, p01, p10, p11 in payoffs[:stop].tolist():
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
                total = 0.0 + c0 + c1
                if not total > 0.0:
                    raise ArithmeticError("share update collapsed to the zero vector")
                x0 = c0 / total
                x1 = c1 / total
                s0(x0)
                s1(x1)
                r0s(r0)
                r1s(r1)
        else:
            for a in payoffs[:stop].tolist():
                r = _rates(a, x)
                x = _advance(x, r, dt)
                for column, value in zip(columns, x + r):
                    column.append(value)
    except ArithmeticError:
        stop = len(columns[-1])  # the step whose shares collapsed
    shares = np.column_stack(columns[:n])
    rates = np.column_stack(columns[n:])
    held = _simplex_rows(shares[1:])
    if not held.all():
        stop = int(np.argmin(held))  # row t + 1 holds the shares of step t
    try:
        if stop < horizon:  # the first failing step, run again to raise its error
            step(SharesState._of_checked(tuple(shares[stop].tolist())), spec.inputs[stop],
                 alpha, dt)
            raise AssertionError(f"step {stop} fails in run but not in step()")
        payoff = normalize_payoff(synthesize_payoff(alpha, spec.inputs[horizon]))
    except (ValueError, ArithmeticError) as exc:
        # The shapes are checked above, so what fails here is the
        # arithmetic on this step's inputs.
        raise DataError(
            f"step {stop}: {exc}; the inputs may be too large for the payoff "
            "arithmetic (normalize the inputs)"
        ) from exc
    final_rates = replicator_rates(payoff, SharesState._of_checked(tuple(shares[-1].tolist())))
    return Trajectory(
        shares=shares,
        payoffs=np.vstack([payoffs, payoff.floats]),
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
    every rate. Numbers carry full round-trip precision (%.17g); the rows
    are formatted from the blocks with one row template."""
    n = trajectory.shares.shape[1]
    header = ["t"]
    header += [f"share_{i + 1}" for i in range(n)]
    header += [f"A_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += [f"rate_{i + 1}" for i in range(n)]
    block = np.column_stack(
        [trajectory.times, trajectory.shares, trajectory.payoffs, trajectory.rates]
    )
    row = ",".join(["%.17g"] * len(header)) + "\n"
    text = ",".join(header) + "\n" + (row * len(block)) % tuple(block.ravel().tolist())
    if hasattr(target, "write"):
        target.write(text)
    else:
        from pathlib import Path

        Path(target).write_text(text, encoding="utf-8", newline="\n")
