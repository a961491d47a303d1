"""Tests for scenario construction and trajectory integration."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import duopoly_alpha, make_dataset, ramp_inputs, RECOVERY_TARGET
from marketdyn.dynamics import SIMPLEX_TOL, SharesState, replicator_rates
from marketdyn.errors import DataError
from marketdyn.influence import InfluenceMatrix, InputVector
from marketdyn.simulate import (
    CONSTANT_INPUTS,
    CUSTOM_INPUTS,
    OBSERVED_INPUTS,
    ScenarioSpec,
    advance_shares,
    constant_scenario,
    custom_scenario,
    observed_scenario,
    run,
    step,
    target_equilibrium,
    write_trajectory_csv,
)

OWNERSHIP = (0, 1, 0, 1)


def small_dataset(length=8):
    share1 = [0.3 + 0.05 * k for k in range(length)]
    return make_dataset(share1, ramp_inputs(length))


def wrap_inputs(rows):
    return tuple(InputVector(values=row, ownership=OWNERSHIP) for row in rows)


class TestScenarioSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="scenario kind"):
            ScenarioSpec(kind="sideways", inputs=wrap_inputs(ramp_inputs(3)),
                         initial=SharesState(np.array([0.5, 0.5])), horizon=2)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioSpec(kind=CUSTOM_INPUTS, inputs=wrap_inputs(ramp_inputs(3)),
                         initial=SharesState(np.array([0.5, 0.5])), horizon=0)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            ScenarioSpec(kind=CUSTOM_INPUTS, inputs=wrap_inputs(ramp_inputs(3)),
                         initial=SharesState(np.array([0.5, 0.5])), horizon=2, dt=0.0)

    @pytest.mark.parametrize("dt", [float("inf"), float("nan")])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ScenarioSpec(kind=CUSTOM_INPUTS, inputs=wrap_inputs(ramp_inputs(3)),
                         initial=SharesState(np.array([0.5, 0.5])), horizon=2, dt=dt)


class TestAdvanceShares:
    def test_plain_euler_step(self):
        state = SharesState(np.array([0.4, 0.6]))
        nxt = advance_shares(state, np.array([0.1, -0.1]), dt=0.5)
        assert nxt.shares[0] == pytest.approx(0.45, rel=1e-15)
        assert nxt.shares[1] == pytest.approx(0.55, rel=1e-15)

    def test_clamps_overshoot_to_vertex(self):
        state = SharesState(np.array([0.9, 0.1]))
        nxt = advance_shares(state, np.array([0.5, -0.5]), dt=1.0)
        assert nxt.shares[0] == 1.0 and nxt.shares[1] == 0.0

    def test_collapse_to_zero_raises(self):
        state = SharesState(np.array([1.0, 0.0]))
        with pytest.raises(ArithmeticError, match="collapsed"):
            advance_shares(state, np.array([-2.0, 0.0]), dt=1.0)

    def test_result_stays_on_simplex_seeded(self):
        rng = np.random.default_rng(77)
        state = SharesState(np.array([0.25, 0.35, 0.4]))
        for _ in range(200):
            rates = rng.uniform(-0.3, 0.3, size=3)
            state = advance_shares(state, rates, dt=1.0)
            assert abs(float(state.shares.sum()) - 1.0) < 1e-9


class TestStep:
    def test_matches_manual_composition(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        y = InputVector(values=np.array([0.2, 0.8, 0.5, 0.1]), ownership=OWNERSHIP)
        state = SharesState(np.array([0.4, 0.6]))
        nxt, payoff, rates = step(state, y, alpha, dt=1.0)
        assert payoff.normalized
        manual_rates = replicator_rates(payoff, state)
        assert np.array_equal(rates, manual_rates)
        manual_next = advance_shares(state, manual_rates, 1.0)
        assert np.array_equal(nxt.shares, manual_next.shares)

    def test_rejects_bad_dt(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        y = InputVector(values=np.ones(4), ownership=OWNERSHIP)
        with pytest.raises(ValueError, match="dt"):
            step(SharesState(np.array([0.5, 0.5])), y, alpha, dt=-1.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(SharesState(np.array([0.5, 0.5])), y, alpha, dt=float("inf"))


class TestRun:
    def test_records_horizon_plus_one_samples(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        spec = custom_scenario(wrap_inputs(ramp_inputs(12)),
                               SharesState(np.array([0.3, 0.7])))
        traj = run(spec, alpha)
        assert len(traj) == 12
        assert traj.times == tuple(range(12))
        assert len(traj.states) == len(traj.payoffs) == len(traj.rates) == 12

    def test_each_state_is_one_euler_step(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        spec = custom_scenario(wrap_inputs(ramp_inputs(9)),
                               SharesState(np.array([0.3, 0.7])), dt=0.5)
        traj = run(spec, alpha)
        for t in range(len(traj) - 1):
            stepped = advance_shares(traj.states[t], traj.rates[t], 0.5)
            assert np.array_equal(stepped.shares, traj.states[t + 1].shares)

    def test_missing_input_sample_raises(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        spec = custom_scenario(wrap_inputs(ramp_inputs(4)),
                               SharesState(np.array([0.3, 0.7])), horizon=7)
        with pytest.raises(DataError, match="no input sample for step 4"):
            run(spec, alpha)

    def test_repeated_runs_are_bitwise_identical(self):
        alpha = duopoly_alpha((2, -1, 1, 3, 2, 0))
        spec = custom_scenario(wrap_inputs(ramp_inputs(20)),
                               SharesState(np.array([0.45, 0.55])))
        a = run(spec, alpha)
        b = run(spec, alpha)
        for s1, s2 in zip(a.states, b.states):
            assert np.array_equal(s1.shares, s2.shares)


def random_run(data, n, n_y, horizon, dt, coeff, value):
    """A scenario and coefficients drawn from the given element strategies."""
    coeffs = np.array(data.draw(st.lists(coeff, min_size=n * n * n_y, max_size=n * n * n_y)))
    rows = data.draw(st.lists(st.lists(value, min_size=n_y, max_size=n_y),
                              min_size=horizon + 1, max_size=horizon + 1))
    weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    ownership = tuple(m % n for m in range(n_y))
    spec = custom_scenario([InputVector(values=np.array(r), ownership=ownership) for r in rows],
                           SharesState(weights / weights.sum()), dt=dt)
    return spec, InfluenceMatrix(n=n, n_y=n_y, coeffs=coeffs.reshape(n * n, n_y))


class TestRunProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3), n_y=st.integers(1, 3),
           horizon=st.integers(1, 6), dt=st.floats(0.0, 4.0, exclude_min=True))
    def test_states_stay_on_the_simplex(self, data, n, n_y, horizon, dt):
        spec, alpha = random_run(data, n, n_y, horizon, dt,
                                 st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
        for state in run(spec, alpha).states:
            x = state.shares
            assert float(x.min()) >= 0.0 and float(x.max()) <= 1.0
            assert abs(float(x.sum()) - 1.0) <= SIMPLEX_TOL

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3), n_y=st.integers(1, 3),
           horizon=st.integers(1, 6), dt=st.floats(0.0, 1.0, exclude_min=True),
           power=st.integers(-8, 8))
    def test_power_of_two_coefficient_scaling_changes_nothing(self, data, n, n_y, horizon,
                                                              dt, power):
        """Integer coefficients and inputs on a 1/8 grid make every payoff
        sum exact, so the scaled run must match bit for bit."""
        spec, alpha = random_run(data, n, n_y, horizon, dt, st.integers(-3, 3),
                                 st.integers(-16, 16).map(lambda k: k / 8))
        scaled = InfluenceMatrix(n=n, n_y=n_y, coeffs=alpha.coeffs * 2.0**power)
        a, b = run(spec, alpha), run(spec, scaled)
        for sa, sb, pa, pb in zip(a.states, b.states, a.payoffs, b.payoffs):
            assert np.array_equal(sa.shares, sb.shares)
            assert np.array_equal(pa.entries, pb.entries)


class TestScenarioBuilders:
    def test_observed_replays_dataset(self):
        dataset = small_dataset()
        spec = observed_scenario(dataset)
        assert spec.kind == OBSERVED_INPUTS
        assert spec.horizon == len(dataset) - 1
        assert np.array_equal(spec.initial.shares, dataset.shares[0].shares)
        for t, y in enumerate(spec.inputs):
            assert np.array_equal(y.values, dataset.inputs[t])

    def test_constant_pins_first_input(self):
        dataset = small_dataset()
        spec = constant_scenario(dataset)
        assert spec.kind == CONSTANT_INPUTS
        assert len(spec.inputs) == len(dataset)
        for y in spec.inputs:
            assert np.array_equal(y.values, dataset.inputs[0])

    def test_constant_horizon_override(self):
        spec = constant_scenario(small_dataset(), horizon=40)
        assert spec.horizon == 40
        assert len(spec.inputs) == 41

    def test_custom_defaults_to_full_series(self):
        inputs = wrap_inputs(ramp_inputs(6))
        spec = custom_scenario(inputs, SharesState(np.array([0.5, 0.5])))
        assert spec.kind == CUSTOM_INPUTS
        assert spec.horizon == 5


class TestTargetEquilibrium:
    def test_symmetric_inputs_give_even_split(self):
        alpha = duopoly_alpha((1, 2, 3, 4, 5, 6))
        y = InputVector(values=np.ones(4), ownership=OWNERSHIP)
        point = target_equilibrium(alpha, y)
        assert point is not None
        assert point.shares[0] == pytest.approx(0.5, rel=1e-15)

    def test_dominant_strategy_has_no_interior_target(self):
        coeffs = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.2, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        alpha = InfluenceMatrix(n=2, n_y=4, coeffs=coeffs)
        y = InputVector(values=np.ones(4), ownership=OWNERSHIP)
        assert target_equilibrium(alpha, y) is None


class TestTrajectoryCsv:
    def test_header_and_row_count(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        traj = run(custom_scenario(wrap_inputs(ramp_inputs(5)),
                                   SharesState(np.array([0.3, 0.7]))), alpha)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,share_1,share_2,A_11,A_12,A_21,A_22,rate_1,rate_2"
        assert len(lines) == 1 + len(traj)

    def test_values_roundtrip_through_text(self):
        alpha = duopoly_alpha((0, -2, 3, 1, 4, -1))
        traj = run(custom_scenario(wrap_inputs(ramp_inputs(7)),
                                   SharesState(np.array([0.4, 0.6])), dt=0.25), alpha)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        for t, row in enumerate(rows):
            assert float(row[0]) == t * 0.25
            assert float(row[1]) == traj.states[t].shares[0]
            assert float(row[3]) == traj.payoffs[t].entries[0, 0]
            assert float(row[7]) == traj.rates[t][0]

    def test_writes_to_path(self, tmp_path):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        traj = run(custom_scenario(wrap_inputs(ramp_inputs(4)),
                                   SharesState(np.array([0.3, 0.7]))), alpha)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        assert out.read_text(encoding="utf-8").startswith("t,share_1")
