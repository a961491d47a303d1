"""Replicator dynamics on the strategy simplex.

Share growth rates, interior equilibria of the two-strategy system, and
their stability in closed form.

PayoffMatrix and SharesState each have one constructor, which validates
the caller's values and holds them twice: as a read-only numpy array
(``entries``, ``shares``) and as a tuple of Python floats (``floats``), which
replicator_rates and advance_shares compute on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedDimensionError

SIMPLEX_TOL = 1e-9

# Two-strategy analysis constants.
_DENOM_TOL = 1e-12
_INTERIOR_TOL = 1e-9

STABLE = "stable"
UNSTABLE = "unstable"


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, init=False)
class PayoffMatrix:
    """Square payoff matrix; entry (i, j) is what strategy i earns against
    strategy j. ``normalized`` asserts all entries lie in [0, 1].

    ``entries`` is the read-only (n, n) array of the caller's values, and
    ``floats`` the same entries as a row-major tuple of Python floats, which
    replicator_rates reads; the payoff helpers compute on ``entries``."""

    floats: tuple[float, ...]
    n: int
    normalized: bool = False

    def __init__(self, entries, normalized: bool = False):
        a = _readonly(entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"payoff matrix must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("payoff matrix needs at least 2 strategies")
        if not np.isfinite(a).all():
            raise ValueError("payoff entries must be finite")
        if normalized and not ((a >= 0.0) & (a <= 1.0)).all():
            raise ValueError("normalized payoff entries must lie in [0, 1]")
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "floats", tuple(a.ravel().tolist()))
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "normalized", normalized)


@dataclass(frozen=True, init=False)
class SharesState:
    """Point on the n-simplex: one market-share fraction per strategy.

    ``shares`` is the read-only array of the caller's values, and ``floats``
    the same shares as a tuple of Python floats, which replicator_rates and
    advance_shares read."""

    floats: tuple[float, ...]

    def __init__(self, shares):
        x = _readonly(shares)
        if x.ndim != 1 or x.size < 2:
            raise ValueError(f"shares must be a vector of length >= 2, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("shares must be finite")
        if not ((x >= 0.0) & (x <= 1.0)).all():
            raise ValueError("each share must lie in [0, 1]")
        total = float(_row_totals(x[None])[0])
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"shares must sum to 1 within {SIMPLEX_TOL}, got {total!r}")
        object.__setattr__(self, "shares", x)
        object.__setattr__(self, "floats", tuple(x.tolist()))

    @property
    def n(self) -> int:
        return len(self.floats)


def _row_totals(block: np.ndarray) -> np.ndarray:
    """The share total of each row of a (rows, n) float block. Below 8
    shares the columns are added one by one from 0.0. From 8 on the total is
    numpy's pairwise sum, which keeps 8 partial sums that round differently
    and can move a total across the tolerance; along the last axis of a
    C-contiguous block numpy adds each row as it adds the row alone."""
    if block.shape[1] < 8:
        total = np.zeros(len(block))
        for column in block.T:
            total += column
        return total
    return np.ascontiguousarray(block).sum(axis=1)


def _simplex_rows(block: np.ndarray) -> np.ndarray:
    """Which rows of a (rows, n) float block SharesState accepts, each
    checked as SharesState checks one vector."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = _row_totals(block)
    inside = ((block >= 0.0) & (block <= 1.0)).all(axis=1)
    return np.isfinite(block).all(axis=1) & inside & (np.abs(total - 1.0) <= SIMPLEX_TOL)


@dataclass(frozen=True)
class EquilibriumSet:
    """Fixed points of the two-strategy dynamics: both vertices, plus the
    interior point when one exists, labeled stable or unstable."""

    vertices: tuple[SharesState, ...]
    mixed: Optional[SharesState]
    mixed_stability: Optional[str]


def _require_two_strategies(n: int) -> None:
    if n != 2:
        raise UnsupportedDimensionError(
            f"analysis is only defined for 2 strategies, got {n}"
        )


def replicator_rates(payoff: PayoffMatrix, state: SharesState) -> np.ndarray:
    """Share growth rates x_i * ((A x)_i - x^T A x).

    Computed on Python floats by ``_rates``, whose + - * / round exactly
    like numpy's element-wise operations: each fitness and the mean fitness
    accumulate from 0.0 in ascending index. The learn kernel applies the
    same operations to each candidate in the same order, so the two agree
    bit for bit.
    """
    if state.n != payoff.n:
        raise ValueError(
            f"dimension mismatch: payoff has {payoff.n} strategies, state has {state.n}"
        )
    return np.array(_rates(payoff.floats, state.floats))


def _rates(a, x) -> list[float]:
    """The rates of replicator_rates for the row-major payoff entries ``a``
    and the shares ``x``, both sequences of Python floats. simulate.run
    steps three or more strategies on this; a duopoly it steps on local
    floats, with these operations in this order."""
    n = len(x)
    fitness = []
    for i in range(0, n * n, n):
        f = 0.0
        for a_ij, x_j in zip(a[i:i + n], x):
            f += a_ij * x_j
        fitness.append(f)
    mean_fitness = 0.0
    for x_i, f_i in zip(x, fitness):
        mean_fitness += x_i * f_i
    return [x_i * (f_i - mean_fitness) for x_i, f_i in zip(x, fitness)]


def mixed_equilibrium(payoff: PayoffMatrix) -> Optional[SharesState]:
    """Interior fixed point of the two-strategy dynamics, or None.

    None is returned when the defining denominator is numerically zero or
    when the candidate point falls outside the open interior.
    """
    _require_two_strategies(payoff.n)
    a = payoff.entries
    denom = (a[0, 0] + a[1, 1]) - (a[1, 0] + a[0, 1])
    if abs(denom) <= _DENOM_TOL:
        return None
    x1 = (a[1, 1] - a[0, 1]) / denom
    if not _INTERIOR_TOL < x1 < 1.0 - _INTERIOR_TOL:
        return None
    return SharesState(np.array([x1, 1.0 - x1]))


def growth_condition(payoff: PayoffMatrix, state: SharesState) -> bool:
    """True when strategy 1's payoff against the current mix strictly beats
    strategy 2's, i.e. the first share is growing at this state."""
    _require_two_strategies(payoff.n)
    if state.n != 2:
        raise ValueError(f"state must have 2 shares, got {state.n}")
    a = payoff.entries
    x = state.shares
    return bool(a[0, 0] * x[0] + a[0, 1] * x[1] > a[1, 0] * x[0] + a[1, 1] * x[1])


def classify_equilibria(payoff: PayoffMatrix) -> EquilibriumSet:
    """All fixed points of the two-strategy system with stability labels.

    The first share's rate is x1 (1 - x1) d (x1 - x1*) with
    d = (a11 + a22) - (a21 + a12), so the interior point x1* is stable
    exactly when d < 0 (Hofbauer & Sigmund, Evolutionary Games and
    Population Dynamics, 1998). It exists only when |d| exceeds a
    tolerance, so the sign is never in doubt.
    """
    _require_two_strategies(payoff.n)
    vertices = (
        SharesState(np.array([1.0, 0.0])),
        SharesState(np.array([0.0, 1.0])),
    )
    mixed = mixed_equilibrium(payoff)
    label = None
    if mixed is not None:
        a = payoff.entries
        label = STABLE if (a[0, 0] + a[1, 1]) - (a[1, 0] + a[0, 1]) < 0.0 else UNSTABLE
    return EquilibriumSet(vertices=vertices, mixed=mixed, mixed_stability=label)
