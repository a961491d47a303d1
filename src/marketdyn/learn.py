"""Coefficient learning by exhaustive integer grid search.

Every candidate assigns an integer in [-r, r] to each free coefficient
position, the implied coefficient matrix drives a trajectory over the
training window (seeded once at the first observed shares), and the
candidate is scored by the mean squared error of strategy 1's simulated
share against the observed series. Candidates are enumerated in
lexicographic order of their free-value tuples and ties are broken toward
the lexicographically smallest tuple, so the result is independent of
evaluation order and of any internal parallelism.

The candidate evaluations are pure and independent; the engine batches them
into vectorized chunks whose per-candidate arithmetic is identical,
operation for operation, to the scalar simulation path. A chunk is laid out
as struct of arrays: one contiguous vector per free value, payoff entry and
share.

fit abandons a candidate early, after the UCR suite (Rakthanmanon et al.,
KDD 2012), once its partial training error exceeds the lowest error of any
chunk already finished. This is exact: the error is a sum of non-negative
terms, IEEE addition of a non-negative term never lowers a sum, and the
final division by the window length is monotone, so an abandoned candidate
can neither win nor tie. Any bound at or above the true minimum yields the
same winner, error and tie count, so thread timing cannot change the
result. train_error_table and the candidate dump evaluate every candidate
in full, and so does fit when the inputs are large enough for the payoff
arithmetic to overflow. A non-finite error is never pruned and raises
DataError.

The kernel scores the training window only. The winner's validation error
comes from the reference simulator's step, simulate.step, iterated from the
first observed shares over the input rows that lead to the holdout states;
the last row drives no state, so it is not read.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import MarketDataset
from .errors import ConfigError, DataError
from .influence import (
    DEGENERATE_RANGE,
    ConstraintSpec,
    InfluenceMatrix,
    Position,
    alpha_to_dict,
    build_constraints,
    free_orbits,
)
from .simulate import step

REPORT_FORMAT = "fit-report/1"
DEFAULT_HOLDOUT = 0.2
DEFAULT_ERROR_TARGET = 4e-5
MAX_CANDIDATES = 100_000_000
_CHUNK_SIZE = 16384  # candidates per chunk of the search


@dataclass(frozen=True)
class GridSpec:
    """Integer search lattice: every free coefficient ranges over the
    integers in [-radius, radius] with step 1."""

    radius: int

    def __post_init__(self):
        if int(self.radius) != self.radius or self.radius < 0:
            raise ValueError(f"grid radius must be a non-negative integer, got {self.radius}")
        object.__setattr__(self, "radius", int(self.radius))

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    def candidate_count(self, free_count: int) -> int:
        if free_count < 0:
            raise ValueError("free parameter count cannot be negative")
        return self.side**free_count


@dataclass(frozen=True)
class FitReport:
    """Outcome of one grid search."""

    best_alpha: InfluenceMatrix
    constraint_mode: str
    free_layout: tuple[Position, ...]
    best_values: tuple[int, ...]
    train_error: float
    validation_error: float
    tie_class_size: int
    candidates_evaluated: int
    radius: int
    train_len: int
    validation_len: int
    elapsed_seconds: float


def paired_free_count(n: int, n_y: int) -> int:
    """Parameter count when the swap symmetry alone halves the full
    coefficient grid: n_y * n^2 / 2."""
    return n_y * n * n // 2


def search_space_size(radius: int, free_count: int) -> int:
    """Number of integer lattice points: (2 r + 1) ** free_count."""
    return GridSpec(radius).candidate_count(free_count)


def mse(predicted, observed) -> float:
    """Mean squared error over aligned series of length >= 1."""
    p = np.asarray(predicted, dtype=float)
    o = np.asarray(observed, dtype=float)
    if p.ndim != 1 or p.shape != o.shape:
        raise ValueError(f"series must be 1-d and aligned, got {p.shape} vs {o.shape}")
    if p.size < 1:
        raise ValueError("at least one sample is required")
    acc = 0.0
    for k in range(p.size):
        d = p[k] - o[k]
        acc += d * d
    return acc / p.size


def split(dataset: MarketDataset, holdout_fraction: float) -> tuple[tuple[int, int], tuple[int, int]]:
    """Chronological train/validation windows as half-open index ranges.

    The validation window is the last ceil(fraction * length) samples.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {holdout_fraction}")
    length = len(dataset)
    if length < 5:
        raise DataError(f"dataset too short to split: length >= 5 required, got {length}")
    validation_len = math.ceil(holdout_fraction * length)
    train_len = length - validation_len
    if train_len < 2:
        raise DataError(
            f"holdout fraction {holdout_fraction} leaves only {train_len} training samples"
        )
    return (0, train_len), (train_len, length)


# ---------------------------------------------------------------------------
# chunked candidate evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Problem:
    n: int
    n_y: int
    orbits: tuple[tuple[Position, ...], ...]
    layout: tuple[Position, ...]
    zero_mask: frozenset
    symmetry_pairs: frozenset
    terms: tuple[tuple[tuple[int, int], ...], ...]  # per payoff entry: (input, orbit), input ascending
    inputs: np.ndarray      # (L, n_y)
    target: np.ndarray      # (L,) strategy-1 share to match
    x0: np.ndarray          # (n,)
    train_len: int
    total_len: int
    dt: float


def _build_problem(
    dataset: MarketDataset,
    constraints: ConstraintSpec,
    holdout_fraction: float,
    dt: float,
) -> _Problem:
    if constraints.ownership != dataset.ownership:
        raise ConfigError(
            f"constraint ownership {constraints.ownership} does not match "
            f"dataset ownership {dataset.ownership}"
        )
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    (_, train_len), (_, total_len) = split(dataset, holdout_fraction)
    zero_mask, pairs = build_constraints(constraints, dataset.n, dataset.n_y)
    orbits = free_orbits(dataset.n, dataset.n_y, zero_mask, pairs)
    orbit_of = {position: f for f, orbit in enumerate(orbits) for position in orbit}
    terms = tuple(
        tuple((m, orbit_of[k, m]) for m in range(dataset.n_y) if (k, m) in orbit_of)
        for k in range(dataset.n * dataset.n)
    )
    return _Problem(
        n=dataset.n,
        n_y=dataset.n_y,
        orbits=orbits,
        layout=tuple(orbit[0] for orbit in orbits),
        zero_mask=zero_mask,
        symmetry_pairs=pairs,
        terms=terms,
        inputs=np.array(dataset.inputs, dtype=float),
        target=dataset.share_series(0),
        x0=np.array(dataset.shares[0].shares, dtype=float),
        train_len=train_len,
        total_len=total_len,
        dt=float(dt),
    )


def _decode_values(lo: int, hi: int, radius: int, free_count: int) -> np.ndarray:
    """Free-value columns for candidate ids [lo, hi): row p holds free value
    p of every candidate. Id order is exactly the lexicographic order of the
    value tuples."""
    base = 2 * radius + 1
    rem = np.arange(lo, hi, dtype=np.int64)
    values = np.empty((free_count, hi - lo), dtype=np.int64)
    for p in range(free_count - 1, -1, -1):
        rem, digit = np.divmod(rem, base)
        values[p] = digit - radius
    return values


# Overflow and NaN show up as non-finite errors, which raise DataError below.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _chunk_errors(
    problem: _Problem,
    values: np.ndarray,
    bound: float = math.inf,
    *,
    first: int = 0,
) -> np.ndarray:
    """Trajectory-matching errors for a batch of candidates.

    ``values`` holds one row per free value and one column per candidate,
    whose id is ``first`` plus the column. Mirrors the scalar path
    (synthesize_payoff, normalize_payoff, replicator_rates, advance_shares)
    with identical per-element operation order, so batch and scalar errors
    agree bit for bit. Payoff entries are accumulated straight from the free
    values; zero-mask terms are skipped, which can only change the sign of
    a zero.

    After each training step a candidate whose partial error already
    exceeds ``bound`` is dropped and reads +inf in the returned errors.
    """
    n, train_len, dt = problem.n, problem.train_len, problem.dt
    inputs, target = problem.inputs.tolist(), problem.target.tolist()
    free, count = values.shape
    prune = bound < math.inf
    # Struct of arrays: one contiguous row per free value, per share, and
    # for the error sum, so dropping candidates compacts every row at once.
    shares, err_row = free, free + n
    state = np.empty((free + n + 1, count))
    state[:free] = values
    state[shares:err_row] = problem.x0[:, None]
    d0 = float(problem.x0[0]) - target[0]
    state[err_row] = d0 * d0
    live = np.arange(count)

    for t in range(1, train_len):
        y = inputs[t - 1]
        x = state[shares:err_row]
        raw = []
        for entry in problem.terms:
            if not entry:
                raw.append(np.zeros(live.size))
                continue
            (m, f), *rest = entry
            acc = state[f] * y[m]
            for m, f in rest:
                acc += state[f] * y[m]
            raw.append(acc)

        lo = raw[0].copy()
        rng = raw[0].copy()
        for entry in raw[1:]:
            np.minimum(lo, entry, out=lo)
            np.maximum(rng, entry, out=rng)
        rng -= lo
        degenerate = rng < DEGENERATE_RANGE
        flat = bool(degenerate.any())
        if flat:
            rng[degenerate] = 1.0
        for entry in raw:
            entry -= lo
            entry /= rng
            if flat:
                entry[degenerate] = 0.5

        fitness = []  # raw now holds the normalized payoff entries
        for i in range(n):
            acc = raw[i * n] * x[0]
            for j in range(1, n):
                acc += raw[i * n + j] * x[j]
            fitness.append(acc)
        mean = x[0] * fitness[0]
        for i in range(1, n):
            mean += x[i] * fitness[i]
        # x + dt * (x * (fitness - mean)), computed in place over fitness
        nxt = fitness
        for i in range(n):
            nxt[i] -= mean
            nxt[i] *= x[i]
            nxt[i] *= dt
            nxt[i] += x[i]
            np.clip(nxt[i], 0.0, 1.0, out=nxt[i])
        total = nxt[0] + nxt[1]
        for i in range(2, n):
            total += nxt[i]
        for i in range(n):
            np.divide(nxt[i], total, out=x[i])

        d = x[0] - target[t]
        d *= d
        state[err_row] += d
        if prune:
            # written so that a NaN partial error is kept and reported below
            keep = ~(state[err_row] / train_len > bound)
            if not keep.all():
                state = state[:, keep]
                live = live[keep]
                if not live.size:
                    break

    train = state[err_row] / train_len
    bad = ~np.isfinite(train)
    if bad.any():
        raise _non_finite(first + int(live[np.argmax(bad)]))
    if live.size < count:
        survivors, train = train, np.full(count, math.inf)
        train[live] = survivors
    return train


def _non_finite(candidate: int) -> DataError:
    return DataError(
        f"candidate {candidate} has a non-finite error: "
        "the inputs are too large for the payoff arithmetic; rescale them "
        "(normalize the inputs)"
    )


class _RunningMin:
    """Lowest training error of any chunk finished so far, shared by the
    worker threads as the pruning bound."""

    def __init__(self):
        self.value = math.inf
        self._lock = threading.Lock()

    def lower(self, value: float) -> None:
        with self._lock:
            if value < self.value:
                self.value = value


def _evaluate_chunks(problem, radius, total, chunk_size, workers, prune):
    """Yield (lo, values, train errors) per chunk, in candidate order.

    With ``prune``, each chunk is bounded by the lowest error of the chunks
    finished before it starts. That bound is at or above the true minimum,
    so no minimizer is ever dropped, whatever the thread timing.
    """
    free_count = len(problem.orbits)
    running = _RunningMin()

    def job(lo):
        values = _decode_values(lo, min(lo + chunk_size, total), radius, free_count)
        bound = running.value if prune else math.inf
        train = _chunk_errors(problem, values, bound, first=lo)
        running.lower(float(train.min()))
        return lo, values, train

    starts = range(0, total, chunk_size)
    if workers <= 1:
        for lo in starts:
            yield job(lo)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # A bounded window of futures, consumed in submission order, keeps
        # finished chunks from piling up behind a slow consumer.
        pending = deque()
        try:
            for lo in starts:
                pending.append(pool.submit(job, lo))
                if len(pending) >= 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                if not future.cancel():
                    future.exception()  # wait; the first failure is already raised


def _write_dump_rows(dump_file, lo: int, values: np.ndarray, train: np.ndarray) -> None:
    """One line per candidate: id, free values, training error at full
    round-trip precision."""
    line = "%d," * (values.shape[0] + 1) + "%.17g\n"
    rows = zip(range(lo, lo + train.size), *values.tolist(), train.tolist())
    dump_file.write("".join([line % row for row in rows]))


def _setup_search(dataset, grid, constraints, holdout_fraction, dt):
    """The search problem and its candidate count, checked against
    MAX_CANDIDATES."""
    problem = _build_problem(dataset, constraints, holdout_fraction, dt)
    total = grid.candidate_count(len(problem.orbits))
    if total > MAX_CANDIDATES:
        raise ConfigError(
            f"search space of {total} candidates exceeds the supported maximum {MAX_CANDIDATES}"
        )
    return problem, total


def train_error_table(
    dataset: MarketDataset,
    grid: GridSpec,
    constraints: ConstraintSpec,
    holdout_fraction: float = DEFAULT_HOLDOUT,
    *,
    dt: float = 1.0,
    workers: int = 1,
) -> np.ndarray:
    """Training error of every candidate, indexed by lexicographic rank of
    its free-value tuple. Intended for audits and small radii; memory grows
    with the full candidate count."""
    problem, total = _setup_search(dataset, grid, constraints, holdout_fraction, dt)
    table = np.empty(total)
    for lo, _, train in _evaluate_chunks(
        problem, grid.radius, total, _CHUNK_SIZE, workers, prune=False
    ):
        table[lo:lo + train.size] = train
    return table


def _fit_common(
    dataset: MarketDataset,
    grid: GridSpec,
    constraints: ConstraintSpec,
    holdout_fraction: float,
    dt: float,
    workers: int,
    error_dump,
) -> FitReport:
    started = time.perf_counter()
    problem, total = _setup_search(dataset, grid, constraints, holdout_fraction, dt)
    free_count = len(problem.orbits)
    # Only a dump-free search prunes, since the dump needs every error. Nor
    # does a search whose payoffs could overflow, where pruning could drop a
    # candidate before its error turns non-finite: a raw payoff range is at
    # most 2 r max_t sum_m |y_tm|, and twice that must be finite.
    with np.errstate(over="ignore"):
        reach = 4.0 * grid.radius * float(np.abs(problem.inputs).sum(axis=1).max())
    prune = error_dump is None and math.isfinite(reach)

    dump_file = None
    if error_dump is not None:
        dump_file = open(error_dump, "w", encoding="utf-8", newline="\n")
        header = ["candidate_index"]
        header += [f"param_{f + 1}" for f in range(free_count)]
        header += ["train_error"]
        dump_file.write(",".join(header) + "\n")

    best_err = math.inf
    best_index = -1
    best_values: Optional[tuple[int, ...]] = None
    tie_count = 0
    try:
        for lo, values, train in _evaluate_chunks(
            problem, grid.radius, total, _CHUNK_SIZE, workers, prune
        ):
            if dump_file is not None:
                _write_dump_rows(dump_file, lo, values, train)
            chunk_best = int(np.argmin(train))
            chunk_err = float(train[chunk_best])
            if chunk_err == math.inf:
                continue  # every candidate of the chunk was pruned
            if chunk_err < best_err:
                best_err = chunk_err
                best_index = lo + chunk_best
                best_values = tuple(values[:, chunk_best].tolist())
                tie_count = int(np.count_nonzero(train == chunk_err))
            elif chunk_err == best_err:
                tie_count += int(np.count_nonzero(train == chunk_err))
    finally:
        if dump_file is not None:
            dump_file.close()

    if best_values is None:
        raise ConfigError("empty search space")

    best_alpha = InfluenceMatrix.from_free_values(
        problem.n, problem.n_y, problem.zero_mask, problem.symmetry_pairs, best_values
    )
    predicted = []
    x = dataset.shares[0]
    try:
        # Overflow surfaces as a non-finite payoff or share, which raises.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for t in range(1, problem.total_len):
                x = step(x, problem.inputs[t - 1], best_alpha, dt)[0]
                if t >= problem.train_len:
                    predicted.append(float(x.shares[0]))
    except (ValueError, ArithmeticError) as exc:
        raise _non_finite(best_index) from exc
    validation_error = mse(predicted, problem.target[problem.train_len:])

    return FitReport(
        best_alpha=best_alpha,
        constraint_mode=constraints.mode,
        free_layout=problem.layout,
        best_values=best_values,
        train_error=best_err,
        validation_error=float(validation_error),
        tie_class_size=tie_count,
        candidates_evaluated=total,
        radius=grid.radius,
        train_len=problem.train_len,
        validation_len=problem.total_len - problem.train_len,
        elapsed_seconds=time.perf_counter() - started,
    )


def fit(
    dataset: MarketDataset,
    grid: GridSpec,
    constraints: ConstraintSpec,
    holdout_fraction: float = DEFAULT_HOLDOUT,
    *,
    dt: float = 1.0,
    workers: int = 1,
    error_dump=None,
) -> FitReport:
    """Exhaustive grid search against the observed share series.

    The dataset's inputs are used exactly as stored; rescale them first
    (see dataset.normalize_inputs) when the coefficients should live on
    normalized inputs. The winner minimizes training error; exact ties go
    to the lexicographically smallest free-value tuple, and tie_class_size
    reports how many candidates achieved the minimum. validation_error
    scores the winner's stepped shares over the holdout window.
    """
    return _fit_common(
        dataset, grid, constraints, holdout_fraction,
        dt=dt, workers=workers, error_dump=error_dump,
    )


def fit_constant_market(
    dataset: MarketDataset,
    grid: GridSpec,
    constraints: ConstraintSpec,
    holdout_fraction: float = DEFAULT_HOLDOUT,
    *,
    dt: float = 1.0,
    workers: int = 1,
    error_dump=None,
) -> FitReport:
    """Same search, but the target series is a market frozen at the first
    observed shares while the real inputs keep driving the payoffs. The
    resulting coefficients describe a hypothetical market that ignores the
    observed input trends."""
    frozen = MarketDataset(
        labels=dataset.labels,
        shares=(dataset.shares[0],) * len(dataset),
        inputs=dataset.inputs,
        ownership=dataset.ownership,
    )
    return _fit_common(
        frozen, grid, constraints, holdout_fraction,
        dt=dt, workers=workers, error_dump=error_dump,
    )


def fit_escalating(
    dataset: MarketDataset,
    constraints: ConstraintSpec,
    holdout_fraction: float = DEFAULT_HOLDOUT,
    *,
    error_target: float = DEFAULT_ERROR_TARGET,
    start_radius: int = 1,
    max_radius: int = 4,
    dt: float = 1.0,
    workers: int = 1,
) -> FitReport:
    """Grow the search radius until the training error beats the target.

    Returns the first satisfying report, or the max_radius report when the
    target is never reached."""
    if not (math.isfinite(error_target) and error_target > 0.0):
        raise ConfigError(f"error target must be positive and finite, got {error_target}")
    if start_radius < 0 or max_radius < start_radius:
        raise ConfigError(
            f"invalid radius range [{start_radius}, {max_radius}]"
        )
    report = None
    for radius in range(start_radius, max_radius + 1):
        report = fit(
            dataset, GridSpec(radius), constraints, holdout_fraction,
            dt=dt, workers=workers,
        )
        if report.train_error < error_target:
            return report
    assert report is not None
    return report


def report_to_dict(report: FitReport, ownership: tuple[int, ...]) -> dict:
    """JSON-ready fit report embedding the coefficient document.

    Wall-clock time is deliberately left out so repeated runs serialize to
    identical bytes.
    """
    return {
        "format": REPORT_FORMAT,
        "alpha": alpha_to_dict(report.best_alpha, ownership),
        "constraint_mode": report.constraint_mode,
        "free_layout": [list(p) for p in report.free_layout],
        "best_values": [int(v) for v in report.best_values],
        "train_error": float(report.train_error),
        "validation_error": float(report.validation_error),
        "tie_class_size": int(report.tie_class_size),
        "candidates_evaluated": int(report.candidates_evaluated),
        "radius": int(report.radius),
        "train_len": int(report.train_len),
        "validation_len": int(report.validation_len),
    }


def save_report(report: FitReport, ownership: tuple[int, ...], path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report, ownership), indent=2) + "\n",
        encoding="utf-8",
    )
