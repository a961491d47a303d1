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

With more than one worker and more than one chunk, a pruned search runs on
threads, which share the running minimum as their bound. An every-error
search shares nothing, so it runs in fork worker processes, where the dump
text is formatted too; it stays on threads where fork is missing or other
threads are running. Each chunk is
reduced where it was scored, and the reductions and the dump text are
consumed in candidate order, so the result and every output byte are the
same for any worker count.

The kernel scores the training window only. The winner's validation error
comes from the reference simulator's step, simulate.step, iterated from the
first observed shares over the input rows that lead to the holdout states;
the last row drives no state, so it is not read.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

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


_ERRORS, _TEXT = "errors", "text"  # what a chunk returns besides its reduction


@dataclass(frozen=True)
class _Search:
    """Candidate ids [0, total) scored in chunks of chunk_size. ``rows`` is
    what each chunk returns besides its reduction: None, _ERRORS (its
    training errors) or _TEXT (its candidate dump lines)."""

    problem: _Problem
    radius: int
    total: int
    chunk_size: int
    rows: Optional[str] = None


class _Chunk(NamedTuple):
    """One chunk's reduction: its lowest error (+inf when every candidate
    was pruned), the id and free values of its first minimizer, and how
    many of its candidates reach that error; plus the rows asked for."""

    lo: int
    error: float
    index: int
    values: tuple[int, ...]
    ties: int
    rows: object


def _score_chunk(search: _Search, lo: int, bound: float = math.inf) -> _Chunk:
    free_count = len(search.problem.orbits)
    hi = min(lo + search.chunk_size, search.total)
    values = _decode_values(lo, hi, search.radius, free_count)
    train = _chunk_errors(search.problem, values, bound, first=lo)
    best = int(np.argmin(train))
    error = float(train[best])
    rows = None
    if search.rows == _ERRORS:
        rows = train
    elif search.rows == _TEXT:
        rows = _dump_text(lo, values, train, search.radius)
    return _Chunk(lo, error, lo + best, tuple(values[:, best].tolist()),
                  int(np.count_nonzero(train == error)), rows)


_worker_search: Optional[_Search] = None  # set in each fork worker


def _start_worker(search: _Search) -> None:
    global _worker_search
    _worker_search = search


def _worker_chunk(lo: int) -> _Chunk:
    return _score_chunk(_worker_search, lo)


def _evaluate_chunks(search: _Search, workers: int, prune: bool):
    """Yield one _Chunk per chunk, in candidate order.

    With ``prune``, each chunk is bounded by the lowest error of the chunks
    finished before it starts, shared between worker threads. That bound is
    at or above the true minimum, so no minimizer is ever dropped, whatever
    the thread timing. An every-error search shares nothing, so it runs in
    fork worker processes, which inherit the search instead of unpickling
    it; the dump text is formatted there, on every core. It stays on
    threads where fork is missing or other threads are running. Either way
    the chunks, and so the result, are the same as with one worker.
    """
    starts = range(0, search.total, search.chunk_size)
    workers = min(workers, len(starts))
    running = _RunningMin()

    def job(lo):
        chunk = _score_chunk(search, lo, running.value if prune else math.inf)
        running.lower(chunk.error)
        return chunk

    if workers <= 1:
        for lo in starts:
            yield job(lo)
        return
    # fork copies only the calling thread, so a lock that another thread
    # holds would stay held in the workers: fork a single-threaded process
    # only.
    if prune or not hasattr(os, "fork") or threading.active_count() > 1:
        pool, task = ThreadPoolExecutor(max_workers=workers), job
    else:
        # Imported here: at module level they would add about 15 ms to
        # every CLI start.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(search,),
        )
        task = _worker_chunk
    with pool:
        # A bounded window of futures, consumed in submission order, keeps
        # finished chunks from piling up behind a slow consumer.
        pending = deque()
        try:
            for lo in starts:
                pending.append(pool.submit(task, lo))
                if len(pending) >= 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        except BrokenExecutor as exc:
            raise ChildProcessError(
                f"a search worker process died before returning its chunk ({exc}); "
                "the search was abandoned"
            ) from exc
        finally:
            for future in pending:
                if not future.cancel():
                    future.exception()  # wait; the first failure is already raised


# Entries per formatter table: at most the square root of the largest
# search, so a table stays small next to the chunks it formats.
_TABLE_LIMIT = math.isqrt(MAX_CANDIDATES)


@functools.lru_cache(maxsize=4)
def _value_strings(radius: int, digits: int, prefix: str = "") -> list[str]:
    """``prefix`` + "v,...," for every tuple of ``digits`` values in
    [-radius, radius]; entry k is the tuple whose base-(2r+1) digits spell k."""
    line = prefix + "%d," * digits
    return [line % t for t in itertools.product(range(-radius, radius + 1), repeat=digits)]


def _dump_text(lo: int, values: np.ndarray, train: np.ndarray, radius: int) -> str:
    """Dump lines for the candidates lo, lo + 1, ... whose free values are
    the columns of ``values``: id, free values, training error, each line
    equal to ("%d," * (free + 1) + "%.17g\n") % row.

    The free values come from two tables, indexed by the high free // 2
    and the low remaining base-(2r+1) digits of the id. Each high entry
    covers a run of consecutive ids and the low entries repeat in order, so
    only the id and the error are formatted per line.
    """
    free_count, count = values.shape
    errors = train.tolist()
    high_digits = free_count // 2
    # Consecutive ids that share their high digits. The high table has at
    # most sqrt(total) entries; the low one can have more, at odd free counts.
    block = (2 * radius + 1) ** (free_count - high_digits)
    if block > _TABLE_LIMIT:
        line = "%d," * (free_count + 1) + "%.17g\n"
        rows = zip(range(lo, lo + count), *values.tolist(), errors)
        return "".join([line % row for row in rows])
    low = _value_strings(radius, free_count - high_digits)
    high = _value_strings(radius, high_digits, ",")  # with the comma after the id
    hi = lo + count
    high_column = []
    for h in range(lo // block, (hi - 1) // block + 1):
        high_column += [high[h]] * (min(hi, (h + 1) * block) - max(lo, h * block))
    start = lo % block
    parts = [None] * (4 * count)
    parts[0::4] = map(str, range(lo, hi))
    parts[1::4] = high_column
    parts[2::4] = (low * (count // block + 2))[start:start + count]
    parts[3::4] = map("%.17g\n".__mod__, errors)
    return "".join(parts)


def _setup_search(dataset, grid, constraints, holdout_fraction, dt, rows=None) -> _Search:
    """The search over the problem's grid, its candidate count checked
    against MAX_CANDIDATES."""
    problem = _build_problem(dataset, constraints, holdout_fraction, dt)
    total = grid.candidate_count(len(problem.orbits))
    if total > MAX_CANDIDATES:
        raise ConfigError(
            f"search space of {total} candidates exceeds the supported maximum {MAX_CANDIDATES}"
        )
    return _Search(problem, grid.radius, total, _CHUNK_SIZE, rows)


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
    search = _setup_search(dataset, grid, constraints, holdout_fraction, dt, _ERRORS)
    table = np.empty(search.total)
    for chunk in _evaluate_chunks(search, workers, prune=False):
        table[chunk.lo:chunk.lo + chunk.rows.size] = chunk.rows
    return table


@contextlib.contextmanager
def _replaced_on_success(path):
    """A new text file beside ``path`` that replaces ``path`` when the block
    completes. On any failure it is removed, so a file already at ``path``
    keeps its bytes. With ``path`` None, yields None."""
    if path is None:
        yield None
        return
    target = Path(path)
    # A random name opened exclusively, with the mode a plain open gives.
    temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        out = open(temp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # named after the path the caller gave
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
    try:
        with out:
            yield out
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


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
    search = _setup_search(dataset, grid, constraints, holdout_fraction, dt,
                           None if error_dump is None else _TEXT)
    problem = search.problem
    # Only a dump-free search prunes, since the dump needs every error. Nor
    # does a search whose payoffs could overflow, where pruning could drop a
    # candidate before its error turns non-finite: a raw payoff range is at
    # most 2 r max_t sum_m |y_tm|, and twice that must be finite.
    with np.errstate(over="ignore"):
        reach = 4.0 * grid.radius * float(np.abs(problem.inputs).sum(axis=1).max())
    prune = error_dump is None and math.isfinite(reach)

    best_err = math.inf
    best_index = -1
    best_values: Optional[tuple[int, ...]] = None
    tie_count = 0
    # The dump reaches error_dump only once the fit, validation included,
    # has succeeded.
    with _replaced_on_success(error_dump) as dump_file:
        if dump_file is not None:
            header = ["candidate_index"]
            header += [f"param_{f + 1}" for f in range(len(problem.orbits))]
            header += ["train_error"]
            dump_file.write(",".join(header) + "\n")
        for chunk in _evaluate_chunks(search, workers, prune):
            if dump_file is not None:
                dump_file.write(chunk.rows)
            if chunk.error == math.inf:
                continue  # every candidate of the chunk was pruned
            if chunk.error < best_err:
                best_err = chunk.error
                best_index = chunk.index
                best_values = chunk.values
                tie_count = chunk.ties
            elif chunk.error == best_err:
                tie_count += chunk.ties

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
                        predicted.append(x.floats[0])
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
        candidates_evaluated=search.total,
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
