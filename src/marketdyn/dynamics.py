"""Replicator dynamics on the strategy simplex.

Share growth rates, interior equilibria of the two-strategy system, and
their stability in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedDimensionError

SIMPLEX_TOL = 1e-9
EQUILIBRIUM_RATE_TOL = 1e-9

# Two-strategy analysis constants.
_DENOM_TOL = 1e-12
_INTERIOR_TOL = 1e-9

STABLE = "stable"
UNSTABLE = "unstable"


def _readonly(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PayoffMatrix:
    """Square payoff matrix; entry (i, j) is what strategy i earns against
    strategy j. ``normalized`` asserts all entries lie in [0, 1]."""

    entries: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        a = _readonly(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"payoff matrix must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("payoff matrix needs at least 2 strategies")
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff entries must be finite")
        if self.normalized and (float(a.min()) < 0.0 or float(a.max()) > 1.0):
            raise ValueError("normalized payoff entries must lie in [0, 1]")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SharesState:
    """Point on the n-simplex: one market-share fraction per strategy."""

    shares: np.ndarray

    def __post_init__(self):
        x = _readonly(self.shares)
        if x.ndim != 1 or x.size < 2:
            raise ValueError(f"shares must be a vector of length >= 2, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("shares must be finite")
        if float(x.min()) < 0.0 or float(x.max()) > 1.0:
            raise ValueError("each share must lie in [0, 1]")
        total = float(x.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"shares must sum to 1 within {SIMPLEX_TOL}, got {total!r}")
        object.__setattr__(self, "shares", x)

    @property
    def n(self) -> int:
        return self.shares.size


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

    The accumulation order is fixed (ascending index) so results are
    reproducible bit for bit across call sites.
    """
    if state.n != payoff.n:
        raise ValueError(
            f"dimension mismatch: payoff has {payoff.n} strategies, state has {state.n}"
        )
    a = payoff.entries
    x = state.shares
    fitness = np.zeros(payoff.n)
    for j in range(payoff.n):
        fitness += a[:, j] * x[j]
    mean_fitness = 0.0
    for i in range(payoff.n):
        mean_fitness += x[i] * fitness[i]
    return x * (fitness - mean_fitness)


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
