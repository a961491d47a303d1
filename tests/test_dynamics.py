"""Unit tests for the replicator-dynamics core."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marketdyn.dynamics import (
    STABLE,
    UNSTABLE,
    PayoffMatrix,
    SharesState,
    classify_equilibria,
    growth_condition,
    mixed_equilibrium,
    replicator_rates,
)
from marketdyn.errors import UnsupportedDimensionError

EQUILIBRIUM_RATE_TOL = 1e-9


def interior_state(rng, n: int) -> SharesState:
    x = rng.uniform(0.05, 1.0, size=n)
    return SharesState(x / x.sum())


class TestPayoffMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            PayoffMatrix(np.zeros((2, 3)))

    def test_rejects_single_strategy(self):
        with pytest.raises(ValueError, match="at least 2"):
            PayoffMatrix(np.zeros((1, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PayoffMatrix(np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_normalized_flag_enforces_range(self):
        with pytest.raises(ValueError, match="lie in"):
            PayoffMatrix(np.array([[0.0, 1.5], [0.0, 0.0]]), normalized=True)
        ok = PayoffMatrix(np.array([[0.0, 1.0], [0.5, 0.25]]), normalized=True)
        assert ok.n == 2

    def test_entries_are_read_only(self):
        payoff = PayoffMatrix(np.array([[0.1, 0.2], [0.3, 0.4]]))
        with pytest.raises(ValueError):
            payoff.entries[0, 0] = 9.0


class TestSharesState:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SharesState(np.array([0.6, 0.6]))

    def test_rejects_negative_share(self):
        with pytest.raises(ValueError, match="lie in"):
            SharesState(np.array([-0.1, 1.1]))

    def test_rejects_scalar_like(self):
        with pytest.raises(ValueError, match="length >= 2"):
            SharesState(np.array([1.0]))

    def test_vertex_is_legal(self):
        state = SharesState(np.array([1.0, 0.0]))
        assert state.n == 2

    def test_shares_are_read_only(self):
        state = SharesState(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            state.shares[0] = 0.9


class TestReplicatorRates:
    def test_hand_computed_rates(self):
        """f = (0.65, 0.45), mean fitness 0.5 at x = (0.25, 0.75)."""
        payoff = PayoffMatrix(np.array([[0.2, 0.8], [0.6, 0.4]]))
        state = SharesState(np.array([0.25, 0.75]))
        rates = replicator_rates(payoff, state)
        assert rates[0] == pytest.approx(0.0375, rel=1e-15)
        assert rates[1] == pytest.approx(-0.0375, rel=1e-15)

    def test_rates_sum_to_zero_seeded(self):
        rng = np.random.default_rng(20260813)
        for _ in range(300):
            n = int(rng.choice([2, 3, 5]))
            payoff = PayoffMatrix(rng.uniform(0.0, 1.0, size=(n, n)))
            rates = replicator_rates(payoff, interior_state(rng, n))
            assert abs(float(rates.sum())) < 1e-12

    def test_vertices_are_fixed_points(self):
        rng = np.random.default_rng(7)
        payoff = PayoffMatrix(rng.uniform(0.0, 1.0, size=(2, 2)))
        for vertex in ([1.0, 0.0], [0.0, 1.0]):
            rates = replicator_rates(payoff, SharesState(np.array(vertex)))
            assert rates[0] == 0.0 and rates[1] == 0.0

    def test_dimension_mismatch_raises(self):
        payoff = PayoffMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            replicator_rates(payoff, SharesState(np.array([0.5, 0.5])))

    def test_repeated_calls_are_bitwise_identical(self):
        payoff = PayoffMatrix(np.array([[0.11, 0.93], [0.58, 0.27]]))
        state = SharesState(np.array([0.37, 0.63]))
        first = replicator_rates(payoff, state)
        second = replicator_rates(payoff, state)
        assert np.array_equal(first, second)


class TestMixedEquilibrium:
    def test_hand_computed_point(self):
        payoff = PayoffMatrix(np.array([[0.0, 1.0], [0.6, 0.0]]))
        mixed = mixed_equilibrium(payoff)
        assert mixed is not None
        assert mixed.shares[0] == pytest.approx(0.625, rel=1e-15)

    def test_none_when_denominator_vanishes(self):
        # a00 + a11 == a10 + a01 makes the defining denominator zero
        payoff = PayoffMatrix(np.array([[0.2, 0.4], [0.1, 0.3]]))
        assert mixed_equilibrium(payoff) is None

    def test_none_when_candidate_leaves_interior(self):
        payoff = PayoffMatrix(np.array([[0.9, 0.7], [0.2, 0.1]]))
        assert mixed_equilibrium(payoff) is None

    def test_rates_vanish_at_equilibrium_seeded(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(400):
            payoff = PayoffMatrix(rng.uniform(0.0, 1.0, size=(2, 2)))
            mixed = mixed_equilibrium(payoff)
            if mixed is None:
                continue
            found += 1
            rates = replicator_rates(payoff, mixed)
            assert float(np.abs(rates).max()) < EQUILIBRIUM_RATE_TOL
        assert found > 50

    def test_three_strategies_unsupported(self):
        payoff = PayoffMatrix(np.zeros((3, 3)))
        with pytest.raises(UnsupportedDimensionError):
            mixed_equilibrium(payoff)


class TestGrowthCondition:
    def test_hand_case(self):
        payoff = PayoffMatrix(np.array([[0.2, 0.8], [0.6, 0.4]]))
        assert growth_condition(payoff, SharesState(np.array([0.25, 0.75])))
        assert not growth_condition(payoff, SharesState(np.array([0.9, 0.1])))

    def test_matches_rate_sign_seeded(self):
        rng = np.random.default_rng(90210)
        for _ in range(400):
            payoff = PayoffMatrix(rng.uniform(0.0, 1.0, size=(2, 2)))
            state = interior_state(rng, 2)
            rate1 = float(replicator_rates(payoff, state)[0])
            assert growth_condition(payoff, state) == (rate1 > 0.0)

    def test_three_strategies_unsupported(self):
        payoff = PayoffMatrix(np.zeros((3, 3)))
        with pytest.raises(UnsupportedDimensionError):
            growth_condition(payoff, SharesState(np.array([0.4, 0.3, 0.3])))


class TestClassifyEquilibria:
    def test_always_reports_both_vertices(self):
        eq = classify_equilibria(PayoffMatrix(np.array([[0.3, 0.1], [0.6, 0.2]])))
        assert len(eq.vertices) == 2
        assert eq.vertices[0].shares[0] == 1.0
        assert eq.vertices[1].shares[1] == 1.0

    def test_coexistence_point_is_stable(self):
        eq = classify_equilibria(PayoffMatrix(np.array([[0.0, 1.0], [0.6, 0.0]])))
        assert eq.mixed is not None
        assert eq.mixed_stability == STABLE

    def test_bistable_point_is_unstable(self):
        eq = classify_equilibria(PayoffMatrix(np.array([[1.0, 0.0], [0.2, 0.8]])))
        assert eq.mixed is not None
        assert eq.mixed.shares[0] == pytest.approx(0.5, rel=1e-15)
        assert eq.mixed_stability == UNSTABLE

    def test_probe_shrinks_near_boundary(self):
        # interior point at 0.9999 leaves less than the default probe offset
        payoff = PayoffMatrix(np.array([[0.0, 0.9999], [0.0001, 0.0]]))
        eq = classify_equilibria(payoff)
        assert eq.mixed is not None
        assert eq.mixed.shares[0] == pytest.approx(0.9999, rel=1e-12)
        assert eq.mixed_stability == STABLE

    def test_no_interior_point_reports_none(self):
        eq = classify_equilibria(PayoffMatrix(np.array([[0.9, 0.7], [0.2, 0.1]])))
        assert eq.mixed is None
        assert eq.mixed_stability is None

    def test_labels_are_exhaustive_seeded(self):
        rng = np.random.default_rng(5150)
        labels = set()
        for _ in range(300):
            payoff = PayoffMatrix(rng.uniform(0.0, 1.0, size=(2, 2)))
            eq = classify_equilibria(payoff)
            if eq.mixed is not None:
                assert eq.mixed_stability in (STABLE, UNSTABLE)
                labels.add(eq.mixed_stability)
        assert STABLE in labels and UNSTABLE in labels


@st.composite
def normalized_payoffs(draw, n, entries=st.floats(0.0, 1.0)):
    return PayoffMatrix(np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
                        .reshape(n, n), normalized=True)


@st.composite
def interior_states(draw, n):
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return SharesState(weights / weights.sum())


class TestReplicatorProperties:
    """Textbook invariants of the replicator equation (Taylor & Jonker 1978;
    Hofbauer & Sigmund 1998) over random payoffs and states."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4))
    def test_rates_sum_to_zero(self, data, n):
        rates = replicator_rates(data.draw(normalized_payoffs(n)), data.draw(interior_states(n)))
        assert abs(float(rates.sum())) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(payoff=normalized_payoffs(2))
    def test_rates_vanish_at_the_mixed_equilibrium(self, payoff):
        mixed = mixed_equilibrium(payoff)
        assume(mixed is not None)
        assert np.all(np.abs(replicator_rates(payoff, mixed)) <= EQUILIBRIUM_RATE_TOL)

    @settings(max_examples=60, deadline=None)
    @given(payoff=normalized_payoffs(2, st.integers(0, 64).map(lambda k: k / 64)))
    def test_label_matches_the_rate_on_either_side(self, payoff):
        """Entries on a 1/64 grid keep the rates halfway to each vertex far
        above rounding."""
        eq = classify_equilibria(payoff)
        assume(eq.mixed is not None)
        x1 = float(eq.mixed.shares[0])
        below, above = (float(replicator_rates(payoff, SharesState(np.array([p, 1.0 - p])))[0])
                        for p in (x1 / 2.0, (1.0 + x1) / 2.0))
        if eq.mixed_stability == STABLE:
            assert below > 0.0 > above
        else:
            assert below < 0.0 < above
