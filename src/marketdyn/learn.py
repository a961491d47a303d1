"""Coefficient learning by exhaustive integer grid search.

Every candidate assigns an integer in [-r, r] to each free coefficient
position, the implied coefficient matrix drives a trajectory over the
training window (seeded once at the first observed shares), and the
candidate is scored by the mean squared error of strategy 1's simulated
share against the observed series. Candidates are enumerated in
lexicographic order of their free-value tuples and ties are broken toward
the lexicographically smallest tuple, so the result is independent of
evaluation order and of any internal parallelism.

The candidate evaluations are pure and independent; the engine batches
them into vectorized chunks whose per-candidate arithmetic is identical,
operation for operation, to the scalar simulation path. A chunk is laid
out as struct of arrays: one contiguous vector per free value, payoff
entry and share. A payoff depends on the inputs and the coefficients,
never on the shares, so the kernel normalizes the payoffs of a block of
steps in one call of influence.payoff_block, the payoff kernel that
simulate.run calls too, as many steps as a fixed element budget holds for
the lanes at hand, and its step loop updates only the shares and the
error. Every block, a one-step block too, is one (step, input) slice of
the input table. A run under a finite bound takes one step per block,
since it drops lanes after almost every step.

fit abandons a candidate early, after the UCR suite (Rakthanmanon et al.,
KDD 2012), once its partial training error exceeds the lowest error of any
candidate already finished. This is exact: the error is a sum of
non-negative terms, IEEE addition of a non-negative term never lowers a sum,
and the final division by the window length is monotone, so an abandoned
candidate can neither win nor tie. Any bound at or above the true minimum
yields the same winner, error and tie count. train_error_table and the
candidate dump evaluate every candidate in full, and so does fit when the
inputs are large enough for the payoff arithmetic to overflow. A
non-finite error is never pruned and raises DataError.

A pruned search runs in the calling thread. Each chunk's free values are
written into one block that the search reuses, and its first training steps
run there against the bound; the survivors are pooled, and a pool of a
chunk's worth of lanes is finished in one kernel run, so that no numpy call
pays its overhead for a handful of lanes. The first pool finishes its lanes
of lowest partial error first, to make the bound finite before the bulk of
it runs. fit_escalating bounds each radius by the error of the one before.

An every-error search shares nothing, so it runs in fork worker processes,
where the dump text is formatted too; it runs in the calling thread where
fork is missing or other threads are running. Each chunk is reduced where
it was scored, and the reductions and the dump text are consumed in
candidate order, so the result and every output byte are the same for any
worker count.

Both searches carry the first minimizer's final training shares, and the
kernel continues the winner's lane from there over the input rows that lead
to the holdout states, so one engine scores both windows; the last row
drives no state, so it is not read.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .dataset import MarketDataset
from .errors import ConfigError, DataError
from .influence import (
    ConstraintSpec,
    InfluenceMatrix,
    Position,
    alpha_to_dict,
    build_constraints,
    free_orbits,
    payoff_block,
)
from .numtext import format_g17

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
        x0=np.array(dataset.shares.block[0]),
        train_len=train_len,
        total_len=total_len,
        dt=float(dt),
    )


@functools.lru_cache(maxsize=4)
def _digit_patterns(radius: int, free_count: int, size: int) -> tuple:
    """Per free value p whose digit repeats with a period (2r+1)**(free - p)
    of at most ``size`` ids: its values, as floats, over ids
    0 .. period + size - 1, so that any ``size`` consecutive ids are one
    slice. None for the free values that change more slowly."""
    base = 2 * radius + 1
    patterns = []
    for p in range(free_count):
        run = base ** (free_count - 1 - p)  # consecutive ids that share the digit
        if run * base > size:
            patterns.append(None)
        else:
            ids = np.arange(run * base + size)
            patterns.append((ids // run % base - radius).astype(float))
    return tuple(patterns)


def _write_values(block: np.ndarray, lo: int, radius: int, size: int) -> None:
    """Write into the rows of ``block`` the free values of the candidates
    lo, lo + 1, ..., one column each: row p holds free value p, the
    base-(2r+1) digit p of the id, most significant first, minus r. Id order
    is exactly the lexicographic order of the value tuples. ``size`` bounds
    the columns; the fast-changing digits are slices of a cached pattern,
    and a slow one takes at most 2r + 3 runs of one value."""
    base = 2 * radius + 1
    free_count, count = block.shape
    for p, pattern in enumerate(_digit_patterns(radius, free_count, size)):
        run = base ** (free_count - 1 - p)
        if pattern is not None:
            start = lo % (run * base)
            block[p] = pattern[start:start + count]
            continue
        for first in range(lo - lo % run, lo + count, run):
            block[p, max(first - lo, 0):first + run - lo] = first // run % base - radius


def _seed(problem: _Problem, state: np.ndarray) -> None:
    """Start every lane of ``state`` at the first observed shares, with the
    error at time 0."""
    state[len(problem.orbits):-1] = problem.x0[:, None]
    d0 = float(problem.x0[0]) - float(problem.target[0])
    state[-1] = d0 * d0


# Payoff elements (entries x steps x lanes) that a block of steps holds, 512
# KB: a 16,384-lane duopoly chunk takes one step per block, 729 lanes 22.
_PAYOFF_BLOCK = 65536


# Overflow and NaN show up as non-finite errors, which raise DataError.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _advance(
    problem: _Problem,
    state: np.ndarray,
    ids,
    start: int,
    stop: int,
    bound: float = math.inf,
):
    """Run steps start .. stop - 1 on a block of candidates, adding each
    step's squared error against the target to the error sum; return the
    lanes still in it and their ids.

    ``state`` holds one column ("lane") per candidate, laid out as struct of
    arrays: one row per free value, then one per share, then the error sum,
    so dropping lanes compacts every row at once. The share and error rows
    are updated in place. Mirrors replicator_rates and advance_shares with
    identical per-element operation order, and takes its payoffs from the
    payoff_block halves that synthesize_payoff and normalize_payoff call,
    so batch and scalar errors agree bit for bit.

    The payoffs do not depend on the shares, so influence.payoff_block
    computes them a block of steps at a time, as many steps as
    _PAYOFF_BLOCK elements hold and at least one, from the free-value rows
    of ``state`` and the problem's terms; the zero-mask terms are left out,
    which changes no bit. The step loop runs only the replicator update, the
    renormalization and the error, each operation once on the whole
    (strategy, lane) share array. After each step a lane whose partial
    error over the training length exceeds ``bound`` is dropped, and so is
    its entry of ``ids``. A run under a finite bound drops lanes after
    almost every step, so it takes one-step blocks: no payoff is computed
    for a dropped lane.
    """
    n, train_len, dt = problem.n, problem.train_len, problem.dt
    target = problem.target[start:stop].tolist()
    shares = len(problem.orbits)
    prune = bound < math.inf
    steps = 1 if prune else max(1, _PAYOFF_BLOCK // (n * n * state.shape[1]))
    rows = problem.inputs[start - 1:stop - 1]

    for b in range(0, len(rows), steps):
        pay = payoff_block(state, problem.terms, rows[b:b + steps])
        for p, goal in zip(pay.swapaxes(0, 1), target[b:b + steps]):  # (entry, lane) each
            x = state[shares:-1]
            # row i: sum over j of p[i * n + j] * x[j], j ascending
            fitness = p[0::n] * x[0]
            for j in range(1, n):
                fitness += p[j::n] * x[j]
            mean = x[0] * fitness[0]
            for i in range(1, n):
                mean += x[i] * fitness[i]
            # x + dt * (x * (fitness - mean)), computed in place over fitness
            fitness -= mean
            fitness *= x
            fitness *= dt
            fitness += x
            np.clip(fitness, 0.0, 1.0, out=fitness)
            total = fitness[0] + fitness[1]
            for i in range(2, n):
                total += fitness[i]
            np.divide(fitness, total, out=x)

            d = x[0] - goal
            d *= d
            state[-1] += d
            if prune:
                # written so that a NaN partial error is kept and reported
                keep = ~(state[-1] / train_len > bound)
                if not keep.all():
                    state = state[:, keep]
                    ids = ids[keep]
                    if not ids.size:
                        return state, ids
    return state, ids


def _non_finite(candidate: int) -> DataError:
    return DataError(
        f"candidate {candidate} has a non-finite error: "
        "the inputs are too large for the payoff arithmetic; rescale them "
        "(normalize the inputs)"
    )


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
    """The reduction of a run of candidates starting at id ``lo``: its
    lowest error, the id, free values and final training shares of its first
    minimizer, and how many of its candidates reach that error; plus the
    rows asked for."""

    lo: int
    error: float
    index: int
    values: tuple[int, ...]
    shares: tuple[float, ...]
    ties: int
    rows: object


def _score_chunk(search: _Search, lo: int) -> _Chunk:
    """The reduction of the chunk starting at ``lo``, every candidate run in
    full, with the rows the search asks for."""
    problem = search.problem
    free = len(problem.orbits)
    state = np.empty((free + problem.n + 1, min(search.chunk_size, search.total - lo)))
    _write_values(state[:free], lo, search.radius, min(search.chunk_size, search.total))
    _seed(problem, state)
    state, ids = _advance(problem, state, np.arange(lo, lo + state.shape[1]),
                          1, problem.train_len)
    chunk = _lanes_chunk(problem, state, ids)
    train = state[-1] / problem.train_len
    if search.rows == _ERRORS:
        return chunk._replace(rows=train)
    if search.rows == _TEXT:
        return chunk._replace(rows=_dump_text(lo, state[:free], train, search.radius))
    return chunk


_worker_search: Optional[_Search] = None  # set in each fork worker


def _start_worker(search: _Search) -> None:
    global _worker_search
    _worker_search = search


def _worker_chunk(lo: int) -> _Chunk:
    return _score_chunk(_worker_search, lo)


def _evaluate_chunks(search: _Search, workers: int):
    """Yield one _Chunk per chunk, every candidate scored in full, in
    candidate order.

    Chunks share nothing, so they run in fork worker processes, which
    inherit the search instead of unpickling it; the dump text is formatted
    there, on every core. They run in the calling thread where fork is
    missing or other threads are running. Either way the chunks, and so the
    result, are the same as with one worker.
    """
    starts = range(0, search.total, search.chunk_size)
    workers = min(workers, len(starts))
    # fork copies only the calling thread, so a lock that another thread
    # holds would stay held in the workers: fork a single-threaded process
    # only.
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        for lo in starts:
            yield _score_chunk(search, lo)
        return
    # Imported here: at module level they would add about 15 ms to every
    # CLI start.
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(search,),
    ) as pool:
        # A bounded window of futures, consumed in submission order, keeps
        # finished chunks from piling up behind a slow consumer.
        pending = deque()
        try:
            for lo in starts:
                pending.append(pool.submit(_worker_chunk, lo))
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


# Training steps a chunk runs in the search's block before its survivors
# join the pool, capped at the last training step. On the benchmark's seed-1
# inputs, two steps pool 6.6% of the planted r4 lanes and 39% of the noisy
# r3 ones, against 9.9% and 64% after one step and 6.4% and 29% after
# three; whole fits with one to four steps were within run-to-run noise.
_SCREEN_STEPS = 2


def _lanes_chunk(problem: _Problem, state: np.ndarray, ids: np.ndarray) -> _Chunk:
    """The reduction of finished lanes, whose ids need not be in order; the
    first minimizer is the one with the smallest id."""
    train = state[-1] / problem.train_len
    bad = ~np.isfinite(train)
    if bad.any():
        raise _non_finite(int(ids[bad].min()))
    error = float(train.min())
    tied = np.flatnonzero(train == error)
    lane = int(tied[np.argmin(ids[tied])])
    free = len(problem.orbits)
    return _Chunk(int(ids.min()), error, int(ids[lane]),
                  tuple(int(v) for v in state[:free, lane].tolist()),
                  tuple(state[free:-1, lane].tolist()), int(tied.size), None)


def _pooled_chunks(search: _Search, bound: float = math.inf):
    """Yield the reduction of each pool of survivors, in candidate order, for
    a pruned search in the calling thread.

    Each chunk's free values are written into one block that the whole
    search reuses, and its first training steps run there against the bound.
    The survivors join a pool; once it holds a chunk's worth of lanes, or
    the search ends, the pool is finished in one kernel run, so no numpy
    call pays its overhead for a handful of lanes. The pool stays under
    twice the chunk size. The bound is ``bound`` lowered to each finished
    pool's error, always a candidate's error and so never below the true
    minimum.
    """
    problem, size = search.problem, min(search.chunk_size, search.total)
    train_len = problem.train_len
    screened = 1 + min(_SCREEN_STEPS, train_len - 1)
    # The bound is infinite until the first pool is finished, unless one
    # came in. An unbounded pool finishes its lanes of lowest partial error
    # first, so the bulk of it runs under a finite bound; a sixteenth of a
    # chunk costs about that share of an unbounded run. A pool of at most
    # that many lanes is finished in one run, since a split pays each
    # step's per-call cost twice: split, the 729-lane long-simulate
    # benchmark fit took 1.34x the time of the thread search before it, and
    # unsplit 0.81x (medians of 10 pairs).
    probe = max(1, search.chunk_size // 16)
    block = np.empty((len(problem.orbits) + problem.n + 1, size))
    pool, pooled = [], 0
    for lo in range(0, search.total, size):
        state = block[:, :min(size, search.total - lo)]
        _write_values(state[:len(problem.orbits)], lo, search.radius, size)
        _seed(problem, state)
        state, ids = _advance(problem, state, np.arange(lo, lo + state.shape[1]),
                              1, screened, bound)
        if np.may_share_memory(state, block):
            state = state.copy()  # nothing was dropped; the block is reused
        pool.append((state, ids))
        pooled += ids.size
        if pooled < size and lo + size < search.total:
            continue
        state = np.concatenate([s for s, _ in pool], axis=1)
        ids = np.concatenate([i for _, i in pool])
        pool, pooled = [], 0
        if not ids.size:
            continue
        if bound == math.inf and ids.size > probe:
            head = np.zeros(ids.size, dtype=bool)
            head[np.argpartition(state[-1], probe - 1)[:probe]] = True
            done, done_ids = _advance(problem, state[:, head], ids[head],
                                      screened, train_len, bound)
            lowest = float((done[-1] / train_len).min(initial=math.inf))
            if lowest < bound:  # a NaN error leaves the bound as it was
                bound = lowest
            rest, rest_ids = _advance(problem, state[:, ~head], ids[~head],
                                      screened, train_len, bound)
            state = np.concatenate([done, rest], axis=1)
            ids = np.concatenate([done_ids, rest_ids])
        else:
            state, ids = _advance(problem, state, ids, screened, train_len, bound)
        if ids.size:
            chunk = _lanes_chunk(problem, state, ids)
            bound = min(bound, chunk.error)
            yield chunk


@functools.lru_cache(maxsize=4)
def _value_strings(radius: int, digits: int) -> list[str]:
    """"v,...," for every tuple of ``digits`` values in [-radius, radius];
    entry k is the tuple whose base-(2r+1) digits spell k."""
    line = "%d," * digits
    return [line % t for t in itertools.product(range(-radius, radius + 1), repeat=digits)]


def _dump_text(lo: int, values: np.ndarray, train: np.ndarray, radius: int) -> str:
    """Dump lines for the candidates lo, lo + 1, ... whose free values are
    the columns of ``values``: id, free values, training error, each line
    equal to ("%d," * (free + 1) + "%.17g\n") % row.

    The low free // 2 base-(2r+1) digits of the id come from a table of at
    most sqrt(MAX_CANDIDATES) entries, which repeat in order. The high
    digits are formatted once per run of consecutive ids that shares them,
    from the run's first column. So only the id is formatted per line; the
    error column is formatted at once by numtext.format_g17, which leaves
    every cell it cannot decide for certain to Python's %.
    """
    free_count, count = values.shape
    low_digits = free_count // 2
    block = (2 * radius + 1) ** low_digits  # consecutive ids that share their high digits
    firsts = [0, *range(block - lo % block, count, block)]  # each run's first column
    line = "," + "%d," * (free_count - low_digits)  # with the comma after the id
    high = [line % tuple(v) for v in values[:free_count - low_digits, firsts].T.tolist()]
    high_column = []
    for text, first, end in zip(high, firsts, firsts[1:] + [count]):
        high_column += [text] * (end - first)
    low = _value_strings(radius, low_digits)
    start = lo % block
    parts = [None] * (4 * count)
    parts[0::4] = map(str, range(lo, lo + count))
    parts[1::4] = high_column
    parts[2::4] = (low * (count // block + 2))[start:start + count]
    parts[3::4] = format_g17(train[:, None]).splitlines(keepends=True)
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
    for chunk in _evaluate_chunks(search, workers):
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
    if target.is_dir():  # else found only when the finished file replaces it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
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
    *,
    bound: float = math.inf,
) -> FitReport:
    """The fit; a pruned search starts from ``bound``, which must be at or
    above the lowest training error of the grid."""
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
    if error_dump is None and math.isfinite(reach):
        chunks = _pooled_chunks(search, bound)
    else:
        chunks = _evaluate_chunks(search, workers)

    best: Optional[_Chunk] = None
    tie_count = 0
    # The dump reaches error_dump only once the fit, validation included,
    # has succeeded.
    with _replaced_on_success(error_dump) as dump_file:
        if dump_file is not None:
            header = ["candidate_index"]
            header += [f"param_{f + 1}" for f in range(len(problem.orbits))]
            header += ["train_error"]
            dump_file.write(",".join(header) + "\n")
        # Chunks come in candidate order, so on a tie the earlier one holds
        # the first minimizer.
        for chunk in chunks:
            if dump_file is not None:
                dump_file.write(chunk.rows)
            if best is None or chunk.error < best.error:
                best, tie_count = chunk._replace(rows=None), chunk.ties
            elif chunk.error == best.error:
                tie_count += chunk.ties

        if best is None:
            raise ConfigError("empty search space")

        best_alpha = InfluenceMatrix.from_free_values(
            problem.n, problem.n_y, problem.zero_mask, problem.symmetry_pairs, best.values
        )
        # The winner's holdout states continue from its final training
        # shares, in the kernel, from an error sum of zero.
        state = np.array([*best.values, *best.shares, 0.0])[:, None]
        state, _ = _advance(problem, state, np.array([best.index]), problem.train_len,
                            problem.total_len)
        validation_error = float(state[-1, 0]) / (problem.total_len - problem.train_len)
        if not math.isfinite(validation_error):
            raise _non_finite(best.index)

    return FitReport(
        best_alpha=best_alpha,
        constraint_mode=constraints.mode,
        free_layout=problem.layout,
        best_values=best.values,
        train_error=best.error,
        validation_error=validation_error,
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
    scores the winner's stepped shares over the holdout window. ``workers``
    parallelizes only a search that needs every error (with error_dump, or
    on inputs whose payoffs could overflow); a pruned search runs in the
    calling thread.
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
        # The previous grid lies inside this one, so its lowest error is a
        # candidate's error here too: at or above this grid's minimum.
        report = _fit_common(
            dataset, GridSpec(radius), constraints, holdout_fraction, dt, workers, None,
            bound=math.inf if report is None else report.train_error,
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
