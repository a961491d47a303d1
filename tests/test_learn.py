"""Tests for the grid-search learner."""

import contextlib
import dataclasses
import json
import math
import re
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DUOPOLY_MASK, DUOPOLY_PAIRS, DUOPOLY_SPEC, duopoly_alpha, face_state,
                      make_dataset, ramp_inputs)
from marketdyn.dataset import MarketDataset
from marketdyn.dynamics import SharesState
from marketdyn.errors import ConfigError, DataError
from marketdyn import learn
from marketdyn.influence import (
    CONSTRAINT_MODES,
    ConstraintSpec,
    InfluenceMatrix,
    InputVector,
    alpha_from_dict,
)
from marketdyn.learn import (
    REPORT_FORMAT,
    FitReport,
    GridSpec,
    fit,
    fit_constant_market,
    fit_escalating,
    mse,
    paired_free_count,
    report_to_dict,
    save_report,
    search_space_size,
    split,
    train_error_table,
)
from marketdyn.simulate import custom_scenario, run, step

PLANTED = (1, 0, -1, 1, 0, 1)
WIGGLY = (0.3, 0.42, 0.37, 0.55, 0.61, 0.5, 0.66, 0.7)


def planted_dataset(values=PLANTED, length=10, x0=0.35):
    """Dataset whose share series is exactly the trajectory of ``values``."""
    alpha = duopoly_alpha(values)
    inputs = ramp_inputs(length)
    wrapped = tuple(InputVector(values=row, ownership=(0, 1, 0, 1)) for row in inputs)
    traj = run(custom_scenario(wrapped, SharesState(np.array([x0, 1.0 - x0]))), alpha)
    labels = tuple(f"t{k:03d}" for k in range(length))
    return MarketDataset(labels=labels, shares=traj.states, inputs=inputs,
                         ownership=(0, 1, 0, 1))


@contextlib.contextmanager
def chunk_size(size):
    """Run the search in chunks of ``size`` candidates."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_CHUNK_SIZE", size)
        yield


@contextlib.contextmanager
def payoff_block(elements):
    """Compute the payoffs in blocks of at most ``elements`` entries x steps
    x lanes (at least one step)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_PAYOFF_BLOCK", elements)
        yield


def count_submissions(monkeypatch):
    """List that records (executor class name, chunk start) for every chunk
    submitted to a thread or process pool, in submission order."""
    submitted = []
    for pool in (ThreadPoolExecutor, ProcessPoolExecutor):
        def counting(self, fn, lo, submit=pool.submit):
            submitted.append((type(self).__name__, lo))
            return submit(self, fn, lo)

        monkeypatch.setattr(pool, "submit", counting)
    return submitted


def decode(rank, radius, free_count=6):
    """Free-value tuple at a lexicographic rank."""
    digits = []
    for _ in range(free_count):
        rank, digit = divmod(rank, 2 * radius + 1)
        digits.append(digit - radius)
    return tuple(reversed(digits))


def decoded_block(lo, count, radius, free_count):
    """Free values of the candidates lo .. lo + count - 1 by divmod, one
    column each."""
    block = np.empty((free_count, count), dtype=np.int64)
    for k in range(count):
        block[:, k] = decode(lo + k, radius, free_count)
    return block


def rank_of(values, radius):
    rank = 0
    for v in values:
        rank = rank * (2 * radius + 1) + v + radius
    return rank


def scalar_train_error(dataset, alpha, train_len, dt):
    """Training error of one coefficient matrix through simulate.run."""
    wrapped = tuple(InputVector(values=row, ownership=dataset.ownership)
                    for row in dataset.inputs)
    spec = custom_scenario(wrapped, dataset.shares[0], horizon=train_len - 1, dt=dt)
    series = run(spec, alpha).share_series(0)
    return mse(series, dataset.share_series(0)[:train_len])


class TestMse:
    def test_hand_example(self):
        assert mse([0.5, 0.5], [0.4, 0.6]) == pytest.approx(0.01, rel=1e-15)

    def test_single_sample(self):
        assert mse([0.7], [0.4]) == pytest.approx(0.09, rel=1e-12)

    def test_zero_for_identical_series(self):
        assert mse([0.1, 0.9, 0.5], [0.1, 0.9, 0.5]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="aligned"):
            mse([0.1, 0.2], [0.1, 0.2, 0.3])

    def test_empty_series(self):
        with pytest.raises(ValueError, match="at least one"):
            mse([], [])


class TestSplit:
    def test_windows_for_common_lengths(self):
        assert split(planted_dataset(length=10), 0.2) == ((0, 8), (8, 10))
        assert split(planted_dataset(length=33), 0.2) == ((0, 26), (26, 33))
        assert split(planted_dataset(length=5), 0.5) == ((0, 2), (2, 5))

    def test_validation_window_is_chronological_tail(self):
        (t0, t1), (v0, v1) = split(planted_dataset(length=12), 0.25)
        assert t0 == 0 and t1 == v0 and v1 == 12

    def test_short_dataset_rejected(self):
        with pytest.raises(DataError, match="too short"):
            split(planted_dataset(length=4), 0.2)

    def test_fraction_bounds(self):
        dataset = planted_dataset(length=10)
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError, match="holdout fraction"):
                split(dataset, bad)

    def test_fraction_leaving_one_training_sample_rejected(self):
        with pytest.raises(DataError, match="training samples"):
            split(planted_dataset(length=5), 0.8)


class TestGridSpec:
    def test_side_and_count(self):
        assert GridSpec(0).side == 1
        assert GridSpec(4).side == 9
        assert GridSpec(4).candidate_count(6) == 531441

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            GridSpec(-1)
        with pytest.raises(ValueError):
            GridSpec(2.5)

    def test_complexity_formula(self):
        assert paired_free_count(2, 4) == 8
        assert search_space_size(4, paired_free_count(2, 4)) == 43046721


class TestFit:
    def test_radius_zero_scores_the_frozen_market(self):
        share1 = [0.3, 0.4, 0.5, 0.35, 0.45]
        dataset = make_dataset(share1, ramp_inputs(5))
        report = fit(dataset, GridSpec(0), DUOPOLY_SPEC, 0.2)
        assert report.candidates_evaluated == 1
        assert report.best_values == (0, 0, 0, 0, 0, 0)
        assert report.tie_class_size == 1
        # all-zero coefficients freeze the market at the first observation
        expected = mse([0.3, 0.3, 0.3, 0.3], share1[:4])
        assert report.train_error == pytest.approx(expected, rel=1e-12)

    def test_recovers_planted_tuple_exactly(self):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert report.best_values == PLANTED
        assert report.train_error == 0.0
        assert report.validation_error == 0.0
        assert report.tie_class_size == 1
        assert report.candidates_evaluated == 729
        assert report.train_len == 8 and report.validation_len == 2

    def test_report_metadata(self):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert isinstance(report, FitReport)
        assert report.constraint_mode == "full-symmetry"
        assert report.radius == 1
        assert report.free_layout == ((0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3))
        assert np.array_equal(report.best_alpha.coeffs, duopoly_alpha(PLANTED).coeffs)

    def test_workers_and_chunking_do_not_change_the_result(self):
        dataset = planted_dataset()
        base = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        for workers, chunk in ((3, 64), (2, 7), (1, 11)):
            with chunk_size(chunk):
                other = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=workers)
            assert other.best_values == base.best_values
            assert other.train_error == base.train_error
            assert other.validation_error == base.validation_error
            assert other.tie_class_size == base.tie_class_size

    def test_constraint_ownership_must_match_dataset(self):
        dataset = planted_dataset()
        flipped = ConstraintSpec(mode=DUOPOLY_SPEC.mode, swap=DUOPOLY_SPEC.swap,
                                 input_pairing=DUOPOLY_SPEC.input_pairing,
                                 ownership=(1, 0, 1, 0))
        with pytest.raises(ConfigError, match="does not match"):
            fit(dataset, GridSpec(1), flipped, 0.2)

    def test_candidate_limit_guard(self):
        with pytest.raises(ConfigError, match="exceeds"):
            fit(planted_dataset(), GridSpec(40), DUOPOLY_SPEC, 0.2)


class TestTrainErrorTable:
    def test_agrees_with_fit_winner(self):
        dataset = planted_dataset()
        report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert table.shape == (729,)
        winner_rank = int(np.argmin(table))
        # decode the lexicographic rank back to a value tuple
        digits = []
        rem = winner_rank
        for _ in range(6):
            digits.append(rem % 3 - 1)
            rem //= 3
        assert tuple(reversed(digits)) == report.best_values
        assert float(table[winner_rank]) == report.train_error

    def test_parallel_table_is_bitwise_identical(self):
        dataset = planted_dataset()
        a = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        with chunk_size(13):
            b = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=4)
        assert np.array_equal(a, b)


def overflowing_dataset():
    """Training inputs near the float maximum: the payoff sums of many
    candidates overflow, while candidate 0 (every coefficient -1) stays
    finite. The validation inputs are small."""
    inputs = ramp_inputs(8)
    inputs[:5] *= 0.7e308
    return make_dataset(WIGGLY, inputs)


class TestNonFiniteErrors:
    def test_table_raises_naming_the_candidate(self):
        with pytest.raises(DataError, match=r"candidate \d+ has a non-finite error.*rescale"):
            train_error_table(overflowing_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)

    @pytest.mark.parametrize("workers, chunk", [(1, 1), (2, 5), (1, 16384)])
    def test_fit_raises_instead_of_pruning(self, workers, chunk):
        # from chunk size 1 on, every candidate after the first runs under a
        # finite bound, which a NaN partial error must not be dropped by
        with chunk_size(chunk), pytest.raises(DataError,
                                              match=r"candidate \d+ has a non-finite error"):
            fit(overflowing_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2, workers=workers)

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_worker_processes_name_the_same_candidate(self, chunk, tmp_path):
        """Every-error searches on two workers run in fork processes; the
        error they raise names the candidate that one worker names."""
        dataset = overflowing_dataset()

        def message(search, workers):
            with chunk_size(chunk), pytest.raises(DataError) as info:
                search(workers)
            return str(info.value)

        def table(workers):
            train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=workers)

        def dumped_fit(workers):
            fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=workers,
                error_dump=tmp_path / "errors.csv")

        for search in (table, dumped_fit):
            expected = message(search, 1)
            assert re.match(r"candidate \d+ has a non-finite error", expected)
            assert message(search, 2) == expected

    def test_fit_agrees_with_table_when_late_overflow_could_be_pruned(self):
        """Every input is near the float maximum, so some candidates overflow
        only after a pruning search would have dropped them."""
        dataset = make_dataset(WIGGLY, ramp_inputs(8) * 0.5e308)
        with pytest.raises(DataError, match="candidate 53 has a non-finite error"):
            train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        with chunk_size(1), pytest.raises(DataError,
                                          match="candidate 53 has a non-finite error"):
            fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)

    def test_overflowing_validation_window_names_the_winner(self):
        inputs = ramp_inputs(8)
        inputs[6:] *= 1e308  # read only after the 6-sample training window
        with pytest.raises(DataError, match="candidate 563 has a non-finite error"):
            fit(make_dataset(WIGGLY, inputs), GridSpec(1), DUOPOLY_SPEC, 0.2)

    def test_last_input_row_drives_no_validated_state(self):
        """Row 7 of 8 drives no step: the holdout states 6 and 7 come from
        rows 0-6, so an overflowing row 7 leaves the fit as it was."""
        clean = fit(make_dataset(WIGGLY, ramp_inputs(8)), GridSpec(1), DUOPOLY_SPEC, 0.2)
        inputs = ramp_inputs(8)
        inputs[7] *= 1e308
        report = fit(make_dataset(WIGGLY, inputs), GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert report.validation_error == clean.validation_error == 0.05056061052615249
        assert report.best_values == clean.best_values
        assert report.train_error == clean.train_error
        assert report.tie_class_size == clean.tie_class_size


class TestPruning:
    # A payoff block holds three steps of ``lanes`` lanes. Of the unbounded
    # runs (2 screening steps, then 5 finishing steps) those at chunk 64
    # take one-step blocks, the finishing run at (1, 1) blocks of 3 steps,
    # an odd length short of its window, and the rest one block per run.
    @pytest.mark.parametrize("lanes, chunk", [(1, 1), (2, 1), (2, 3), (2, 64), (4, 2)])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_fit_matches_the_full_table(self, lanes, chunk, frozen):
        """Pruned candidates read +inf; a chunk pruned to nothing must not
        add ties."""
        dataset = planted_dataset()
        scored = dataset
        if frozen:
            # the market fit_constant_market scores against: same start and
            # inputs, shares frozen at the first observation
            scored = MarketDataset(labels=dataset.labels,
                                   shares=(dataset.shares[0],) * len(dataset),
                                   inputs=dataset.inputs, ownership=dataset.ownership)
        table = train_error_table(scored, GridSpec(1), DUOPOLY_SPEC, 0.2)
        search = fit_constant_market if frozen else fit
        with chunk_size(chunk), payoff_block(4 * 3 * lanes):
            report = search(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        best = float(table.min())
        assert report.train_error == best
        assert report.tie_class_size == int(np.count_nonzero(table == best))
        assert report.best_values == decode(int(np.argmin(table)), 1)

    def test_chunks_in_flight_are_bounded(self, monkeypatch):
        """Counted in the parent, since a process worker's kernel calls are
        out of sight: behind a slow consumer at most 2 x workers chunks are
        submitted and not yet consumed on fork processes (every error). A
        pruned fit submits nothing, and no kernel run of its pool holds more
        than 2 x chunk size lanes."""
        submitted = count_submissions(monkeypatch)
        problem = learn._build_problem(planted_dataset(), DUOPOLY_SPEC, 0.2, 1.0)
        executor = "ProcessPoolExecutor"
        consumed = []
        for chunk in learn._evaluate_chunks(learn._Search(problem, 1, 729, 7), 2):
            assert len(submitted) - len(consumed) <= 4
            consumed.append(chunk.lo)
            if len(consumed) == 1:
                time.sleep(0.2)  # a consumer slower than the workers
                assert len(submitted) <= 4
        assert consumed == list(range(0, 729, 7))
        assert submitted == [(executor, lo) for lo in range(0, 729, 7)]

        runs = []  # (lanes, lowest id, highest id) of every kernel run
        advance = learn._advance

        def counting(problem, state, ids, *args):
            runs.append((state.shape[1], int(ids.min()), int(ids.max())))
            return advance(problem, state, ids, *args)

        monkeypatch.setattr(learn, "_advance", counting)
        for chunk in (7, 13, 64):
            runs.clear()
            submitted.clear()
            with chunk_size(chunk):
                fit(make_dataset(WIGGLY, ramp_inputs(8)), GridSpec(1), DUOPOLY_SPEC, 0.2,
                    workers=2)
            assert submitted == []
            assert max(lanes for lanes, _, _ in runs) <= 2 * chunk
            # some run finishes the survivors of more than one chunk
            assert any(last // chunk > first // chunk for _, first, last in runs)

    def test_every_error_search_forks_only_a_single_threaded_process(self, monkeypatch):
        submitted = count_submissions(monkeypatch)
        dataset = planted_dataset()
        expected = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            with chunk_size(100):
                table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=2)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert submitted == []
        assert np.array_equal(table, expected)


def table_reduction(table):
    """(best values, error, tie count) of a full error table at radius 2."""
    best = float(table.min())
    return decode(int(np.argmin(table)), 2), best, int(np.count_nonzero(table == best))


def frozen_market(dataset):
    """The market fit_constant_market scores against."""
    return MarketDataset(labels=dataset.labels, shares=(dataset.shares[0],) * len(dataset),
                         inputs=dataset.inputs, ownership=dataset.ownership)


class TestPooledSearch:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), radius=st.integers(0, 4), free_count=st.integers(0, 7))
    def test_written_values_equal_the_divmod_decoder(self, data, radius, free_count):
        """Blocks that start and end on either side of a multiple of some
        digit's period, for block sizes below and above that period."""
        base = 2 * radius + 1
        total = base**free_count
        size = data.draw(st.integers(1, 3 * base**3))
        count = data.draw(st.integers(1, min(size, total)))
        period = base ** data.draw(st.integers(0, free_count))
        edge = period * data.draw(st.integers(0, total // period))
        lo = min(max(edge - data.draw(st.integers(0, count)), 0), total - count)
        block = np.full((free_count, count), np.nan)
        learn._write_values(block, lo, radius, size)
        assert np.array_equal(block, decoded_block(lo, count, radius, free_count))

    @pytest.mark.parametrize("chunk", [64, 100, 1000])
    def test_needle_in_the_last_chunk(self, chunk):
        needle = (2, 2, 2, 2, 1, -1)
        dataset = planted_dataset(needle)
        table = train_error_table(dataset, GridSpec(2), DUOPOLY_SPEC, 0.2)
        assert table_reduction(table) == (needle, 0.0, 1)
        assert rank_of(needle, 2) // chunk == (5**6 - 1) // chunk
        with chunk_size(chunk):
            report = fit(dataset, GridSpec(2), DUOPOLY_SPEC, 0.2)
        assert (report.best_values, report.train_error, report.tie_class_size) == (
            table_reduction(table))

    @pytest.mark.parametrize("chunk", [16, 50, 100, 1000])
    def test_tie_class_split_across_pools(self, chunk):
        """The 25 zero-rate candidates (a, b, 0, a, 0, b) lie in different
        pools at every chunk size here."""
        dataset = planted_dataset()
        table = train_error_table(frozen_market(dataset), GridSpec(2), DUOPOLY_SPEC, 0.2)
        assert table_reduction(table) == ((-2, -2, 0, -2, 0, -2), 0.0, 25)
        with chunk_size(chunk):
            report = fit_constant_market(dataset, GridSpec(2), DUOPOLY_SPEC, 0.2)
        assert (report.best_values, report.train_error, report.tie_class_size) == (
            table_reduction(table))

    @pytest.mark.parametrize("chunk", [1, 2, 7, 16, 17, 45, 100, 400, 729])
    def test_constant_market_ties_every_candidate(self, chunk):
        """Zero inputs give every candidate a flat payoff, so the market
        never moves and all 729 candidates score 0. From a chunk of 400 on,
        the first pool's probe head is a sixteenth of it, which
        np.argpartition picks among equal partial errors out of id order: it
        leaves candidate 0 in the rest and finishes later tied lanes first."""
        dataset = make_dataset([0.4] * 8, np.zeros((8, 4)))
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert np.count_nonzero(table == 0.0) == 729
        with chunk_size(chunk):
            report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert report.best_values == decode(int(np.argmin(table)), 1)  # the smallest tied id
        assert (report.train_error, report.tie_class_size) == (0.0, 729)

    @settings(max_examples=10, deadline=None)
    @given(
        share1=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=7),
        dt=st.floats(0.0, 1.0, exclude_min=True),
        chunk=st.integers(16, 100),
    )
    def test_fit_equals_table_reduction_at_radius_2(self, share1, dt, chunk):
        dataset = make_dataset(share1, ramp_inputs(len(share1)))
        table = train_error_table(dataset, GridSpec(2), DUOPOLY_SPEC, 0.2, dt=dt)
        with chunk_size(chunk):
            report = fit(dataset, GridSpec(2), DUOPOLY_SPEC, 0.2, dt=dt)
        assert (report.best_values, report.train_error, report.tie_class_size) == (
            table_reduction(table))

    def test_lanes_out_of_id_order_reduce_to_the_smallest_minimizer(self):
        """The first pool finishes its best lanes before the rest, so its
        lanes reach the reduction out of id order."""
        problem = learn._build_problem(planted_dataset(), DUOPOLY_SPEC, 0.2, 1.0)
        state = np.zeros((6 + 2 + 1, 4))
        state[-1] = [3.0, 1.0, 2.0, 1.0]
        state[6] = [0.1, 0.2, 0.3, 0.4]
        state[:6] = np.arange(4)
        chunk = learn._lanes_chunk(problem, state, np.array([2, 9, 0, 4]))
        assert chunk.index == 4 and chunk.ties == 2
        assert chunk.values == (3,) * 6 and chunk.shares == (0.4, 0.0)
        assert chunk.error == 1.0 / problem.train_len


def kernel_problem(data, n_y, rows, dt, scale):
    """A random two-strategy problem whose training window is ``rows`` rows,
    some of its input rows zero, the rest scaled to at most ``scale``. Some
    rows lie within 1e-13 of zero before the scaling, so that at a small
    scale their payoff ranges fall on both sides of the degenerate range."""
    row = st.one_of(st.just([0.0] * n_y),
                    st.lists(st.floats(-1.0, 1.0), min_size=n_y, max_size=n_y),
                    st.lists(st.floats(-1e-13, 1e-13), min_size=n_y, max_size=n_y))
    inputs = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows))) * scale
    share1 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows))
    ownership = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n_y, max_size=n_y)))
    spec = ConstraintSpec(mode=data.draw(st.sampled_from(CONSTRAINT_MODES)), swap=(0, 1),
                          input_pairing=tuple(range(n_y)), ownership=ownership)
    pad = max(0, 5 - rows)  # the shortest dataset that splits
    dataset = make_dataset(share1 + share1[-1:] * pad,
                           np.vstack([inputs, np.zeros((pad, n_y))]), ownership)
    problem = learn._build_problem(dataset, spec, 0.2, dt)
    return dataclasses.replace(problem, train_len=rows)


def draw_values(data, free, lanes, radius):
    """A (free value, lane) block of integers in [-radius, radius]."""
    return np.array(data.draw(st.lists(
        st.lists(st.integers(-radius, radius), min_size=lanes, max_size=lanes),
        min_size=free, max_size=free)), dtype=float)


class TestKernelBlocks:
    """The payoff block length changes no bit of what _advance returns."""

    LENGTHS = (1, 2, 3, 7, None)  # steps per block; None for the default

    @staticmethod
    def block_elements(problem, lanes, steps):
        if steps is None:
            return learn._PAYOFF_BLOCK
        return problem.n * problem.n * lanes * steps

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_y=st.integers(1, 4), radius=st.integers(0, 2),
           rows=st.integers(3, 40), dt=st.floats(0.0, 1.0, exclude_min=True))
    def test_state_and_ids_are_bit_identical(self, data, n_y, radius, rows, dt):
        problem = kernel_problem(data, n_y, rows, dt, 3.0)
        lanes = data.draw(st.integers(1, 30))
        free = len(problem.orbits)
        start = np.empty((free + problem.n + 1, lanes))
        start[:free] = draw_values(data, free, lanes, radius)
        learn._seed(problem, start)

        def run(steps, bound):
            with payoff_block(self.block_elements(problem, lanes, steps)):
                state, ids = learn._advance(problem, start.copy(), np.arange(lanes),
                                            1, rows, bound)
            return state.tobytes(), ids.tolist()

        unbounded = run(None, math.inf)
        # a bound from the final errors, under which some lanes or all drop
        finals = np.frombuffer(unbounded[0]).reshape(start.shape)[-1] / rows
        bound = float(np.quantile(finals, data.draw(st.floats(0.0, 1.0))))
        bound *= data.draw(st.sampled_from([0.5, 1.0]))
        bounded = run(None, bound)
        for steps in self.LENGTHS:
            assert run(steps, math.inf) == unbounded
            assert run(steps, bound) == bounded

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n_y=st.integers(1, 4), radius=st.integers(1, 2),
           rows=st.integers(3, 40), dt=st.floats(0.0, 1.0, exclude_min=True),
           scale=st.floats(1e300, 1.7e308))
    def test_non_finite_error_names_the_same_candidate(self, data, n_y, radius, rows, dt,
                                                       scale):
        problem = kernel_problem(data, n_y, rows, dt, scale)
        lanes = data.draw(st.integers(1, 30))
        free = len(problem.orbits)
        start = np.empty((free + problem.n + 1, lanes))
        start[:free] = draw_values(data, free, lanes, radius)
        learn._seed(problem, start)
        first = data.draw(st.integers(0, 1000))

        def named(steps):
            with payoff_block(self.block_elements(problem, lanes, steps)):
                try:
                    state, ids = learn._advance(problem, start.copy(),
                                                np.arange(first, first + lanes), 1, rows)
                    learn._lanes_chunk(problem, state, ids)
                except DataError as exc:
                    return str(exc)
            return None

        expected = named(None)
        for steps in self.LENGTHS:
            assert named(steps) == expected


class TestKernelProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        radius=st.integers(0, 2),
        length=st.integers(5, 9),
        dt=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_table_equals_scalar_run(self, data, radius, length, dt):
        """Besides rows uniform in [-3, 3], zero rows and rows within 1e-13
        of zero, whose payoff ranges fall on both sides of the degenerate
        range. Every candidate is checked at radius 1 or less."""
        unit = st.floats(0.0, 1.0)
        share1 = data.draw(st.lists(unit, min_size=length, max_size=length))
        row = st.one_of(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
                        st.just([0.0] * 4),
                        st.lists(st.floats(-1e-13, 1e-13), min_size=4, max_size=4))
        inputs = np.array(data.draw(st.lists(row, min_size=length, max_size=length)))
        dataset = make_dataset(share1, inputs)
        (_, train_len), _ = split(dataset, 0.2)
        table = train_error_table(dataset, GridSpec(radius), DUOPOLY_SPEC, 0.2, dt=dt)
        if radius <= 1:
            ranks = range(table.size)
        else:
            ranks = [rank_of(data.draw(st.lists(st.integers(-radius, radius),
                                                min_size=6, max_size=6)), radius)
                     for _ in range(3)]
        for rank in ranks:
            values = decode(rank, radius)
            expected = scalar_train_error(dataset, duopoly_alpha(values), train_len, dt)
            assert table[rank] == expected

    @settings(max_examples=25, deadline=None)
    @given(
        share1=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=8),
        dt=st.floats(0.0, 1.0, exclude_min=True),
        workers=st.integers(1, 2),
        chunk=st.integers(1, 100),
    )
    def test_fit_equals_table_reduction(self, share1, dt, workers, chunk):
        dataset = make_dataset(share1, ramp_inputs(len(share1)))
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, dt=dt)
        with chunk_size(chunk):
            report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, dt=dt, workers=workers)
        best = float(table.min())
        assert (report.best_values, report.train_error, report.tie_class_size) == (
            decode(int(np.argmin(table)), 1), best, int(np.count_nonzero(table == best)))

    def test_three_strategies_unconstrained(self):
        """The kernel is generic in the strategy count."""
        rng = np.random.default_rng(5)
        length = 7
        shares = tuple(SharesState(p) for p in rng.dirichlet(np.ones(3), size=length))
        dataset = MarketDataset(labels=tuple(f"t{k}" for k in range(length)), shares=shares,
                                inputs=rng.uniform(-1.0, 1.0, (length, 1)), ownership=(0,))
        spec = ConstraintSpec(mode="unconstrained", swap=(0, 1, 2), input_pairing=(0,),
                              ownership=(0,))
        (_, train_len), _ = split(dataset, 0.2)
        table = train_error_table(dataset, GridSpec(1), spec, 0.2, dt=0.5)
        assert table.shape == (3**9,)
        for rank in rng.integers(0, 3**9, size=20):
            values = decode(int(rank), 1, free_count=9)
            alpha = InfluenceMatrix(n=3, n_y=1, coeffs=np.array(values, dtype=float)[:, None])
            assert table[rank] == scalar_train_error(dataset, alpha, train_len, 0.5)
        with chunk_size(500):
            report = fit(dataset, GridSpec(1), spec, 0.2, dt=0.5, workers=2)
        best = float(table.min())
        assert report.train_error == best
        assert report.tie_class_size == int(np.count_nonzero(table == best))


class TestInvariantFaces:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), n_y=st.integers(1, 3),
           rows=st.integers(5, 12), dt=st.sampled_from([0.25, 1.0, 4.0]),
           radius=st.integers(1, 2))
    def test_a_zero_share_stays_zero_in_every_lane(self, data, n, n_y, rows, dt, radius):
        """The kernel's lanes started from a dataset whose first share row
        holds +0.0 or -0.0 keep that share a zero at every step."""
        initial, zeros = face_state(data, n)
        value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))
        inputs = np.array(data.draw(st.lists(st.lists(value, min_size=n_y, max_size=n_y),
                                             min_size=rows, max_size=rows)))
        ownership = tuple(m % n for m in range(n_y))
        dataset = MarketDataset(labels=tuple(f"t{k:02d}" for k in range(rows)),
                                shares=(initial,) * rows, inputs=inputs, ownership=ownership)
        spec = ConstraintSpec(mode="unconstrained", swap=tuple(range(n)),
                              input_pairing=tuple(range(n_y)), ownership=ownership)
        problem = learn._build_problem(dataset, spec, 0.2, dt)
        lanes = data.draw(st.integers(1, 20))
        free = len(problem.orbits)
        state = np.empty((free + n + 1, lanes))
        state[:free] = draw_values(data, free, lanes, radius)
        learn._seed(problem, state)
        ids = np.arange(lanes)
        for t in range(1, rows):
            assert (state[free:free + n][zeros] == 0.0).all()
            state, ids = learn._advance(problem, state, ids, t, t + 1)
        assert (state[free:free + n][zeros] == 0.0).all()


def iterated_validation_error(dataset, report, dt):
    """The winner's validation error by the pass that steps every input row
    from the first observed shares."""
    x = dataset.shares[0]
    predicted = []
    for t in range(1, len(dataset)):
        x = step(x, dataset.inputs[t - 1], report.best_alpha, dt)[0]
        if t >= report.train_len:
            predicted.append(x.floats[0])
    return mse(predicted, dataset.share_series(0)[report.train_len:])


class TestValidation:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        length=st.integers(5, 9),
        dt=st.floats(0.0, 1.0, exclude_min=True),
        dumped=st.booleans(),
    )
    def test_continuing_the_winner_equals_the_iterated_pass(self, data, length, dt, dumped):
        """The holdout steps start from the winner's final training shares,
        as the pruned search and the every-error search carry them."""
        share1 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=length, max_size=length))
        inputs = np.array(data.draw(st.lists(
            st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
            min_size=length, max_size=length)))
        dataset = make_dataset(share1, inputs)
        with tempfile.TemporaryDirectory() as tmp:
            dump = Path(tmp) / "errors.csv" if dumped else None
            report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, dt=dt, error_dump=dump)
        assert report.validation_error == iterated_validation_error(dataset, report, dt)


class TestConstantMarketFit:
    def test_zero_rate_family_wins_with_exact_zero_error(self):
        """Coefficients of the form (a, b, 0, a, 0, b) give identical payoff
        rows, hence zero rates and a perfectly frozen market. The
        lexicographic tie-break picks the smallest such tuple."""
        dataset = planted_dataset()
        report = fit_constant_market(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        assert report.train_error == 0.0
        assert report.best_values == (-1, -1, 0, -1, 0, -1)
        assert report.tie_class_size == 9

    def test_freeze_family_size_grows_with_radius(self):
        dataset = planted_dataset()
        report = fit_constant_market(dataset, GridSpec(2), DUOPOLY_SPEC, 0.2)
        assert report.train_error == 0.0
        assert report.best_values == (-2, -2, 0, -2, 0, -2)
        assert report.tie_class_size == 25


class TestErrorDump:
    def test_dump_lists_every_candidate(self, tmp_path):
        dataset = planted_dataset()
        path = tmp_path / "table.csv"
        report = fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, error_dump=path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        header = "candidate_index,param_1,param_2,param_3,param_4,param_5,param_6,train_error"
        assert lines[0] == header
        assert len(lines) == 1 + 729
        assert lines[1].startswith("0,-1,-1,-1,-1,-1,-1,")
        # the winner's dumped error matches the report bit for bit
        winner_cells = None
        for line in lines[1:]:
            cells = line.split(",")
            if tuple(int(v) for v in cells[1:7]) == report.best_values:
                winner_cells = cells
        assert winner_cells is not None
        assert float(winner_cells[7]) == report.train_error

    def test_dump_bytes_match_per_row_formatting(self, tmp_path):
        dataset = make_dataset(WIGGLY, ramp_inputs(8))
        path = tmp_path / "table.csv"
        with chunk_size(100):
            fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=2, error_dump=path)
        table = train_error_table(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2)
        lines = ["candidate_index," + ",".join(f"param_{f + 1}" for f in range(6))
                 + ",train_error"]
        for index, err in enumerate(table):
            cells = [str(index)] + [str(int(v)) for v in decode(index, 1)]
            cells += [format(float(err), ".17g")]
            lines.append(",".join(cells))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("workers, chunk", [(1, 16384), (2, 100)])
    @pytest.mark.parametrize("late", [False, True])
    def test_failed_fit_leaves_the_dump_path_as_it_was(self, tmp_path, workers, chunk, late):
        """The search overflows on one dataset, only the validation pass on
        the other; neither a partial dump nor a temporary file is left."""
        inputs = ramp_inputs(8)
        if late:
            inputs[6:] *= 1e308  # read only after the 6-sample training window
            dataset = make_dataset(WIGGLY, inputs)
        else:
            dataset = overflowing_dataset()
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"an earlier dump\n")
        for path in (kept, tmp_path / "absent.csv"):
            with chunk_size(chunk), pytest.raises(DataError, match="non-finite error"):
                fit(dataset, GridSpec(1), DUOPOLY_SPEC, 0.2, workers=workers, error_dump=path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
        assert kept.read_bytes() == b"an earlier dump\n"

    def test_missing_dump_directory_is_named(self, tmp_path):
        path = tmp_path / "absent" / "table.csv"
        with pytest.raises(FileNotFoundError) as info:
            fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2, error_dump=path)
        assert info.value.filename == str(path)

    def test_directory_dump_path_fails_before_the_search(self, tmp_path, monkeypatch):
        def searched(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(learn, "_advance", searched)
        path = tmp_path / "adir"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2, error_dump=path)
        assert info.value.filename == str(path)
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]


class TestDumpText:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           shape=st.one_of(st.tuples(st.integers(0, 3), st.integers(0, 8)),
                           st.sampled_from([(11, 5), (231, 3)])))
    def test_equals_per_row_formatting(self, data, shape):
        """Ranges that start and end on either side of a block of ids that
        share their high digits, errors from zero through subnormals to
        inf; among the (radius, free count) shapes, odd free counts whose
        high digits span a wide range."""
        radius, free_count = shape
        base = 2 * radius + 1
        total = base**free_count
        block = base ** (free_count // 2)
        count = data.draw(st.integers(1, min(total, 2 * block + 3, 600)))
        edge = block * data.draw(st.integers(0, total // block))
        lo = min(max(edge - data.draw(st.integers(0, count)), 0), total - count)
        errors = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e300, math.inf]),
                      st.floats(0.0, allow_infinity=True)),
            min_size=count, max_size=count)))
        values = decoded_block(lo, count, radius, free_count)
        line = "%d," * (free_count + 1) + "%.17g\n"
        expected = "".join(line % (lo + k, *values[:, k].tolist(), errors[k])
                           for k in range(count))
        # the search passes its float block of free values
        assert learn._dump_text(lo, values.astype(float), errors, radius, block) == expected

    @pytest.mark.parametrize("radius, free_count, lo", [(4000, 1, 3_000), (4000, 2, 12_345),
                                                        (4, 6, 81_920), (3, 6, 16_384)])
    def test_chunk_sized_table_equals_per_row_formatting(self, radius, free_count, lo):
        """At the search's chunk size the table holds every low digit whose
        period fits in a chunk, so one free value at r4000 comes from the
        table whole; the other ranges cross a run of their high digits."""
        count = 4000
        values = decoded_block(lo, count, radius, free_count)
        errors = np.random.default_rng(lo).random(count)
        line = "%d," * (free_count + 1) + "%.17g\n"
        expected = "".join(line % (lo + k, *values[:, k].tolist(), errors[k])
                           for k in range(count))
        size = min(learn._CHUNK_SIZE, (2 * radius + 1) ** free_count)  # as the search passes
        assert learn._dump_text(lo, values.astype(float), errors, radius, size) == expected


class TestFitEscalating:
    def test_stops_at_first_radius_under_target(self):
        report = fit_escalating(planted_dataset(), DUOPOLY_SPEC, 0.2,
                                error_target=4e-5, start_radius=0, max_radius=3)
        assert report.radius == 1
        assert report.train_error == 0.0

    def test_returns_widest_radius_when_target_unreachable(self):
        # hand-written share series no lattice candidate reproduces exactly
        dataset = make_dataset([0.3, 0.42, 0.37, 0.55, 0.61, 0.5, 0.66, 0.7],
                               ramp_inputs(8))
        report = fit_escalating(dataset, DUOPOLY_SPEC, 0.2,
                                error_target=1e-30, start_radius=0, max_radius=1)
        assert report.radius == 1
        assert report.train_error > 1e-30


    def test_each_radius_starts_from_the_last_error(self, monkeypatch):
        """Every radius is bounded by the error of the one before, and its
        report bytes equal those of an independent fit at that radius."""
        dataset = make_dataset(WIGGLY, ramp_inputs(8))
        calls = []
        fit_common = learn._fit_common

        def recording(*args, **kwargs):
            report = fit_common(*args, **kwargs)
            calls.append((kwargs.get("bound", math.inf), report))
            return report

        with pytest.MonkeyPatch.context() as patch, chunk_size(50):
            patch.setattr(learn, "_fit_common", recording)
            fit_escalating(dataset, DUOPOLY_SPEC, 0.2, error_target=1e-30,
                           start_radius=0, max_radius=2, dt=0.5)
        assert [report.radius for _, report in calls] == [0, 1, 2]
        assert [bound for bound, _ in calls] == [math.inf] + [
            report.train_error for _, report in calls[:-1]]
        for _, report in calls:
            with chunk_size(50):
                independent = fit(dataset, GridSpec(report.radius), DUOPOLY_SPEC, 0.2, dt=0.5)
            assert (json.dumps(report_to_dict(report, dataset.ownership))
                    == json.dumps(report_to_dict(independent, dataset.ownership)))


class TestReportSerialization:
    def test_dict_has_stable_key_set_without_wall_time(self):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        doc = report_to_dict(report, (0, 1, 0, 1))
        assert doc["format"] == REPORT_FORMAT
        assert set(doc.keys()) == {
            "format", "alpha", "constraint_mode", "free_layout", "best_values",
            "train_error", "validation_error", "tie_class_size",
            "candidates_evaluated", "radius", "train_len", "validation_len",
        }
        assert doc["best_values"] == list(PLANTED)

    def test_saved_report_embeds_loadable_coefficients(self, tmp_path):
        report = fit(planted_dataset(), GridSpec(1), DUOPOLY_SPEC, 0.2)
        path = tmp_path / "report.json"
        save_report(report, (0, 1, 0, 1), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        alpha, ownership = alpha_from_dict(doc)
        assert np.array_equal(alpha.coeffs, report.best_alpha.coeffs)
        assert ownership == (0, 1, 0, 1)
