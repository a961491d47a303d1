"""The scalar step path against numpy reference implementations.

The step helpers and the validators of PayoffMatrix, SharesState and
InputVector compute on Python floats. The references below are the earlier
numpy bodies of the same functions. Every result must match them bit for
bit, and every rejection must carry the same message.
"""

import copy
import hashlib
import io
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_GENERATOR, duopoly_alpha
from marketdyn.dynamics import SIMPLEX_TOL, PayoffMatrix, SharesState, replicator_rates
from marketdyn.influence import (
    DEGENERATE_RANGE,
    InfluenceMatrix,
    InputVector,
    alternating_ownership,
    normalize_payoff,
    synthesize_payoff,
)
from marketdyn.simulate import advance_shares, custom_scenario, run, write_trajectory_csv


# --- numpy references -------------------------------------------------------


def ref_synthesize(coeffs: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    raw = np.zeros(n * n)
    for m in range(coeffs.shape[1]):
        raw += coeffs[:, m] * values[m]
    return raw.reshape(n, n)


def ref_normalize(a: np.ndarray) -> np.ndarray:
    lo = float(a.min())
    hi = float(a.max())
    if hi - lo < DEGENERATE_RANGE:
        return np.full(a.shape, 0.5)
    return (a - lo) / (hi - lo)


def ref_rates(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    fitness = np.zeros(n)
    for j in range(n):
        fitness += a[:, j] * x[j]
    mean_fitness = 0.0
    for i in range(n):
        mean_fitness += x[i] * fitness[i]
    return x * (fitness - mean_fitness)


def ref_advance(x: np.ndarray, rates: np.ndarray, dt: float) -> np.ndarray:
    nxt = x + dt * rates
    nxt = np.clip(nxt, 0.0, 1.0)
    total = 0.0
    for v in nxt:
        total += v
    if not total > 0.0:
        raise ArithmeticError("share update collapsed to the zero vector")
    return nxt / total


def ref_payoff_check(a: np.ndarray, normalized: bool):
    """The message PayoffMatrix must raise for ``a``, or None."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return f"payoff matrix must be square, got shape {a.shape}"
    if a.shape[0] < 2:
        return "payoff matrix needs at least 2 strategies"
    if not np.all(np.isfinite(a)):
        return "payoff entries must be finite"
    if normalized and (float(a.min()) < 0.0 or float(a.max()) > 1.0):
        return "normalized payoff entries must lie in [0, 1]"
    return None


def ref_shares_check(x: np.ndarray):
    if x.ndim != 1 or x.size < 2:
        return f"shares must be a vector of length >= 2, got shape {x.shape}"
    if not np.all(np.isfinite(x)):
        return "shares must be finite"
    if float(x.min()) < 0.0 or float(x.max()) > 1.0:
        return "each share must lie in [0, 1]"
    total = float(x.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        return f"shares must sum to 1 within {SIMPLEX_TOL}, got {total!r}"
    return None


def ref_input_check(v: np.ndarray, ownership):
    if v.ndim != 1 or v.size < 1:
        return f"input values must be a non-empty vector, got shape {v.shape}"
    if not np.all(np.isfinite(v)):
        return "input values must be finite"
    own = tuple(int(s) for s in ownership)
    if len(own) != v.size:
        return f"ownership length {len(own)} does not match {v.size} inputs"
    if any(s < 0 for s in own):
        return "ownership entries must be strategy indices >= 0"
    return None


# --- helpers ----------------------------------------------------------------


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


def assert_outcome(build, expected_message):
    """``build()`` raises ValueError with exactly ``expected_message``, or,
    when that is None, succeeds; returns what it built."""
    if expected_message is None:
        return build()
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == expected_message
    return None


ZEROS_AND_TINY = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]
# Zeros, subnormals and magnitudes up to 1e300, with zeros drawn often
# enough that ties between +0.0 and -0.0 occur.
FLOATS = st.one_of(
    st.sampled_from(ZEROS_AND_TINY),
    st.floats(-1e300, 1e300),
    st.floats(-2.0, 2.0),
)
UNIT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))


def vectors(size, elements):
    return st.lists(elements, min_size=size, max_size=size).map(np.array)


def share_vectors(n):
    """Valid SharesState inputs, drawn as normalized positive weights with
    zeros mixed in."""
    weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=n, max_size=n)
    return weights.filter(lambda w: sum(w) > 0.0).map(lambda w: np.array(w) / np.sum(w))


# --- step functions ---------------------------------------------------------


class TestStepFunctionsMatchNumpy:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), n_y=st.integers(1, 5))
    def test_synthesize_payoff(self, data, n, n_y):
        coeffs = data.draw(vectors(n * n * n_y, FLOATS)).reshape(n * n, n_y)
        values = data.draw(vectors(n_y, FLOATS))
        alpha = InfluenceMatrix(n=n, n_y=n_y, coeffs=coeffs)
        with np.errstate(all="ignore"):
            expected = ref_synthesize(coeffs, values, n)
        got = assert_outcome(lambda: synthesize_payoff(alpha, values),
                             ref_payoff_check(expected, False))
        if got is not None:
            assert not got.normalized
            assert_same_bits(got.entries, expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4))
    def test_normalize_payoff(self, data, n):
        entries = data.draw(vectors(n * n, FLOATS)).reshape(n, n)
        with np.errstate(all="ignore"):
            expected = ref_normalize(entries)
        got = assert_outcome(lambda: normalize_payoff(PayoffMatrix(entries)),
                             ref_payoff_check(expected, True))
        if got is not None:
            assert got.normalized
            assert_same_bits(got.entries, expected)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_normalize_payoff_signed_zero_minimum(self, n):
        """+0.0/-0.0 patterns with one positive entry (all of them for n <= 3,
        a seeded 1,024 for n = 4): the minimum is a zero, and its sign decides
        the sign of each normalized zero."""
        size = n * n
        patterns = range(2 ** (size - 1))
        if len(patterns) > 1024:
            patterns = random.Random(n).sample(patterns, 1024)
        for bits in patterns:
            flat = [-0.0 if bits >> k & 1 else 0.0 for k in range(size - 1)] + [1.0]
            for shift in (0, size - 1):
                entries = np.array(flat[shift:] + flat[:shift]).reshape(n, n)
                assert_same_bits(normalize_payoff(PayoffMatrix(entries)).entries,
                                 ref_normalize(entries))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), normalized=st.booleans())
    def test_replicator_rates(self, data, n, normalized):
        entries = data.draw(vectors(n * n, UNIT if normalized else FLOATS)).reshape(n, n)
        x = data.draw(share_vectors(n))
        payoff = PayoffMatrix(entries, normalized=normalized)
        state = SharesState(x)
        with np.errstate(all="ignore"):
            expected = ref_rates(payoff.entries, state.shares)
        assert_same_bits(replicator_rates(payoff, state), expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4),
           dt=st.one_of(st.sampled_from([1.0, 0.25, 5e-324]), st.floats(0.0, 1e300, exclude_min=True)))
    def test_advance_shares(self, data, n, dt):
        state = SharesState(data.draw(share_vectors(n)))
        rates = data.draw(vectors(n, FLOATS))
        try:
            with np.errstate(all="ignore"):
                expected = ref_advance(state.shares, rates, dt)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=str(exc)):
                advance_shares(state, rates, dt)
            return
        got = assert_outcome(lambda: advance_shares(state, rates, dt), ref_shares_check(expected))
        if got is not None:
            assert_same_bits(got.shares, expected)


# --- validators -------------------------------------------------------------

EDGE_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    1.0, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0), -1e-300, 0.5, 2.0, 1e300,
]


class TestValidatorsMatchNumpy:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9), normalized=st.booleans(),
           square=st.booleans())
    def test_payoff_matrix(self, data, n, normalized, square):
        cols = n if square else n + 1
        elements = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))
        entries = data.draw(vectors(n * cols, elements)).reshape(n, cols)
        got = assert_outcome(lambda: PayoffMatrix(entries, normalized=normalized),
                             ref_payoff_check(entries, normalized))
        if got is not None:
            assert_same_bits(got.entries, entries)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9))
    def test_shares_with_edge_values(self, data, n):
        x = data.draw(vectors(n, st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))))
        assert_outcome(lambda: SharesState(x), ref_shares_check(x))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9), sign=st.sampled_from([-1.0, 1.0]),
           ulps=st.integers(-4, 4))
    def test_shares_summing_near_the_tolerance(self, data, n, sign, ulps):
        """Totals at 1 +- 1e-9, moved by a few ulps, on either side of the
        tolerance; the check must agree with numpy's pairwise sum."""
        x = data.draw(share_vectors(n))
        largest = int(np.argmax(x))
        nudged = x[largest] + sign * SIMPLEX_TOL
        for _ in range(abs(ulps)):
            nudged = math.nextafter(nudged, math.copysign(math.inf, ulps))
        x = x.copy()
        x[largest] = nudged
        got = assert_outcome(lambda: SharesState(x), ref_shares_check(x))
        if got is not None:
            assert_same_bits(got.shares, x)

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (2, 2)])
    def test_shares_shape(self, shape):
        x = np.full(shape, 0.5)
        assert_outcome(lambda: SharesState(x), ref_shares_check(x))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_y=st.integers(1, 6), owners=st.integers(-1, 2))
    def test_input_vector(self, data, n_y, owners):
        v = data.draw(vectors(n_y, st.one_of(st.sampled_from(EDGE_VALUES), FLOATS)))
        ownership = data.draw(st.lists(st.integers(owners - 1, owners),
                                       min_size=n_y - 1, max_size=n_y + 1))
        got = assert_outcome(lambda: InputVector(values=v, ownership=ownership),
                             ref_input_check(v, ownership))
        if got is not None:
            assert_same_bits(got.values, v)

    @pytest.mark.parametrize("shape", [(0,), (2, 2)])
    def test_input_vector_shape(self, shape):
        v = np.full(shape, 0.5)
        assert_outcome(lambda: InputVector(values=v, ownership=(0,)), ref_input_check(v, (0,)))


# --- value objects ------------------------------------------------------------


class TestValueObjects:
    """SharesState and PayoffMatrix hold Python floats and build their
    read-only array on first read; the array is the one numpy would build
    from the values the caller passed."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), as_list=st.booleans())
    def test_payoff_array_is_built_once_from_the_values(self, data, n, as_list):
        values = data.draw(vectors(n * n, FLOATS)).reshape(n, n)
        expected = np.array(values)
        given_values = values.tolist() if as_list else values
        payoff = PayoffMatrix(given_values)
        given_values[0][0] = 7.0  # changed by the caller after construction
        for built in (payoff, PayoffMatrix._of_floats(expected.ravel().tolist(), n, False)):
            assert built.floats == tuple(expected.ravel().tolist())
            first = built.entries
            assert first is built.entries
            assert not first.flags.writeable
            assert_same_bits(first, expected)
            with pytest.raises(ValueError):
                first[0, 0] = 0.5
            with pytest.raises(ValueError):
                first.ravel()[0] = 0.5

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9), as_list=st.booleans())
    def test_shares_array_is_built_once_from_the_values(self, data, n, as_list):
        x = data.draw(share_vectors(n))
        x[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([-0.0, 5e-324]))
        assume(abs(float(x.sum()) - 1.0) <= SIMPLEX_TOL)
        expected = np.array(x)
        given_values = x.tolist() if as_list else x
        state = SharesState(given_values)
        given_values[0] = 0.5  # changed by the caller after construction
        for built in (state, SharesState._of_floats(expected.tolist())):
            assert built.floats == tuple(expected.tolist())
            assert [math.copysign(1.0, v) for v in built.floats] == \
                [math.copysign(1.0, v) for v in expected]
            first = built.shares
            assert first is built.shares
            assert not first.flags.writeable
            assert_same_bits(first, expected)
            with pytest.raises(ValueError):
                first[0] = 0.5

    def test_assignment_raises(self):
        state = SharesState([0.25, 0.75])
        payoff = PayoffMatrix([[0.0, 1.0], [0.5, 0.25]], normalized=True)
        for obj, name in [(state, "shares"), (state, "floats"), (payoff, "entries"),
                          (payoff, "floats"), (payoff, "n"), (payoff, "normalized")]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert state.floats == (0.25, 0.75)
        assert payoff.n == 2 and payoff.normalized

    def test_copies_and_pickles_hold_the_same_floats(self):
        state = SharesState([0.25, 0.75])
        payoff = PayoffMatrix._of_floats([0.0, 1.0, 0.5, -0.0], 2, True)
        for obj in (state, payoff):
            for clone in (copy.copy(obj), copy.deepcopy(obj),
                          pickle.loads(pickle.dumps(obj))):
                assert clone == obj
                assert clone.floats == obj.floats
        assert math.copysign(1.0, pickle.loads(pickle.dumps(payoff)).floats[3]) == -1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_signed_zero_minimum_of_a_matrix_built_from_floats(self, n):
        """The step path builds payoffs from floats; its first array, read
        for a zero minimum, must pick numpy's zero as a caller's array does."""
        size = n * n
        for bits in range(2 ** (size - 1)):
            flat = [-0.0 if bits >> k & 1 else 0.0 for k in range(size - 1)] + [1.0]
            for shift in (0, size - 1):
                rotated = flat[shift:] + flat[:shift]
                entries = np.array(rotated).reshape(n, n)
                got = normalize_payoff(PayoffMatrix._of_floats(rotated, n, False))
                assert_same_bits(got.entries, ref_normalize(entries))

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_strategies_from_floats(self, n):
        rows = [[0.5] * n for _ in range(n)]
        with pytest.raises(ValueError) as info:
            PayoffMatrix._of_floats([0.5] * (n * n), n, False)
        assert str(info.value) == ref_payoff_check(np.array(rows), False)
        with pytest.raises(ValueError) as info:
            SharesState._of_floats([1.0] * n)
        assert str(info.value) == ref_shares_check(np.array([1.0] * n))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(8, 9), sign=st.sampled_from([-1.0, 1.0]),
           ulps=st.integers(-4, 4))
    def test_long_share_vectors_sum_as_numpy_does(self, data, n, sign, ulps):
        """From 8 shares on, numpy sums pairwise; totals at 1 +- 1e-9, moved
        by a few ulps, must meet the tolerance as numpy's sum does, by both
        constructors."""
        x = data.draw(share_vectors(n))
        largest = int(np.argmax(x))
        nudged = x[largest] + sign * SIMPLEX_TOL
        for _ in range(abs(ulps)):
            nudged = math.nextafter(nudged, math.copysign(math.inf, ulps))
        x = x.copy()
        x[largest] = nudged
        expected = ref_shares_check(x)
        assert_outcome(lambda: SharesState(x), expected)
        assert_outcome(lambda: SharesState._of_floats(x.tolist()), expected)


# --- pinned trajectory bytes --------------------------------------------------


def trajectory_sha256(alpha: InfluenceMatrix, inputs: np.ndarray, x0, dt: float) -> str:
    """sha256 of the trajectory CSV of ``alpha`` driven by ``inputs``."""
    ownership = alternating_ownership(alpha.n_y, alpha.n)
    spec = custom_scenario([InputVector(values=row, ownership=ownership) for row in inputs],
                           SharesState(x0), dt=dt)
    buf = io.StringIO()
    write_trajectory_csv(run(spec, alpha), buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


class TestPinnedTrajectoryBytes:
    """Hashes recorded from the numpy implementation of the step helpers and
    the per-cell writer; a refactor of either must keep these bytes. Both
    runs keep every share above 0.01 throughout."""

    def test_two_thousand_step_duopoly(self):
        rng = np.random.default_rng(20)
        inputs = rng.uniform(0.0, 1.0, (2001, 4))
        digest = trajectory_sha256(duopoly_alpha(EXAMPLE_GENERATOR), inputs,
                                   np.array([0.3, 0.7]), 1.0)
        assert digest == "35674248d41d3d7833a7a9bb07e241b154f7d2280698bf93ef0b2f1a43e884d9"

    def test_three_strategies_at_quarter_steps(self):
        rng = np.random.default_rng(21)
        alpha = InfluenceMatrix(n=3, n_y=3, coeffs=rng.normal(0.0, 1.0, (9, 3)))
        inputs = rng.normal(0.0, 1.0, (201, 3))
        digest = trajectory_sha256(alpha, inputs, np.array([0.2, 0.3, 0.5]), 0.25)
        assert digest == "d1e7b3671c4e3a11ff2a7bed7f063ca2dfd24a36f8a2993813cabf79c63c775b"
