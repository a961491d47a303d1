"""Tests for scenario construction and trajectory integration."""

import io
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import duopoly_alpha, make_dataset, ramp_inputs, RECOVERY_TARGET
from marketdyn.dataset import MarketDataset
from marketdyn.dynamics import SIMPLEX_TOL, SharesState, mixed_equilibrium, replicator_rates
from marketdyn.errors import DataError
from marketdyn.influence import InfluenceMatrix, InputVector, normalize_payoff, synthesize_payoff
from marketdyn.simulate import (
    ScenarioSpec,
    advance_shares,
    constant_scenario,
    custom_scenario,
    observed_scenario,
    run,
    step,
    write_trajectory_csv,
)

OWNERSHIP = (0, 1, 0, 1)


def small_dataset(length=8):
    share1 = [0.3 + 0.05 * k for k in range(length)]
    return make_dataset(share1, ramp_inputs(length))


def wrap_inputs(rows):
    return tuple(InputVector(values=row, ownership=OWNERSHIP) for row in rows)


class TestScenarioSpec:
    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioSpec(inputs=ramp_inputs(3),
                         initial=SharesState(np.array([0.5, 0.5])), horizon=0)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            ScenarioSpec(inputs=ramp_inputs(3),
                         initial=SharesState(np.array([0.5, 0.5])), horizon=2, dt=0.0)

    @pytest.mark.parametrize("dt", [float("inf"), float("nan")])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ScenarioSpec(inputs=ramp_inputs(3),
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

    def test_clamps_a_share_above_one_before_renormalizing(self):
        state = SharesState(np.array([0.5, 0.25, 0.25]))
        nxt = advance_shares(state, np.array([1.0, -0.125, -0.125]), dt=1.0)
        assert nxt.floats == (1.0 / 1.25, 0.125 / 1.25, 0.125 / 1.25)

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
        y = np.array([0.2, 0.8, 0.5, 0.1])
        state = SharesState(np.array([0.4, 0.6]))
        nxt, payoff, rates = step(state, y, alpha, dt=1.0)
        assert payoff.normalized
        manual_rates = replicator_rates(payoff, state)
        assert np.array_equal(rates, manual_rates)
        manual_next = advance_shares(state, manual_rates, 1.0)
        assert np.array_equal(nxt.shares, manual_next.shares)

    def test_rejects_bad_dt(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        y = np.ones(4)
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
        assert traj.times.tolist() == list(range(12))
        assert traj.shares.shape == traj.rates.shape == (12, 2)
        assert traj.payoffs.shape == (12, 4)
        assert len(traj.states) == 12

    def test_each_state_is_one_euler_step(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        spec = custom_scenario(wrap_inputs(ramp_inputs(9)),
                               SharesState(np.array([0.3, 0.7])), dt=0.5)
        traj = run(spec, alpha)
        for t in range(len(traj) - 1):
            stepped = advance_shares(traj.states[t], traj.rates[t], 0.5)
            assert np.array_equal(stepped.shares, traj.states[t + 1].shares)

    def test_missing_input_sample_raises(self):
        with pytest.raises(DataError, match="no input sample for step 4"):
            custom_scenario(wrap_inputs(ramp_inputs(4)),
                            SharesState(np.array([0.3, 0.7])), horizon=7)

    def test_dimension_mismatch_stays_a_value_error(self):
        rows = [InputVector(values=row, ownership=(0, 1)) for row in ramp_inputs(5, n_y=2)]
        spec = custom_scenario(rows, SharesState(np.array([0.3, 0.7])))
        with pytest.raises(ValueError, match="coefficients expect 4 inputs"):
            run(spec, duopoly_alpha(RECOVERY_TARGET))

    def test_overflowing_step_is_a_data_error_naming_it(self):
        inputs = ramp_inputs(6)
        inputs[3:] *= 1e308
        spec = custom_scenario(wrap_inputs(inputs), SharesState(np.array([0.3, 0.7])))
        with pytest.raises(DataError, match="step 3: payoff entries must be finite"):
            run(spec, duopoly_alpha(RECOVERY_TARGET))

    def test_collapsing_step_is_a_data_error_naming_it(self):
        """Under the degenerate payoffs of zero inputs the rates at (0.2, 0.8)
        are exactly zero; from row 3 on, a huge dt sends both shares below
        zero, since the rounded mean fitness tops both fitnesses."""
        coeffs = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        spec = ScenarioSpec(inputs=np.array([[0.0], [0.0], [0.0], [1.0], [1.0]]),
                            initial=SharesState(np.array([0.2, 0.8])), horizon=4, dt=1e300)
        with pytest.raises(DataError, match="step 3: share update collapsed"):
            run(spec, InfluenceMatrix(n=2, n_y=1, coeffs=coeffs))

    @pytest.mark.parametrize("initial, payoff, dt", [
        ((0.5, 0.5), (1.0, 1.0, 0.0, 0.0), 8.0),
        ((0.5, 0.5), (1.0, 0.8, 0.0, 1.0), 5.0),
        ((1.0, -0.0), (0.0, 1.0, 1.0, 0.0), 1.0),
    ], ids=["far-past-one", "a-rounding-error-past-one", "a-vertex-with-minus-zero"])
    def test_clamped_steps_have_the_bytes_of_iterated_steps(self, initial, payoff, dt):
        """From (0.5, 0.5) the first step takes share 1 past 1.0. At dt = 8 it
        overshoots by 1.5 and share 2 falls as far below 0.0. At dt = 5 it
        overshoots by a rounding error while share 2 stays a rounding error
        above 0.0: in a duopoly only then does the clamp to 1.0 change the
        shares. At the vertex (1.0, -0.0) share 2 steps to -0.0, which the
        clamp keeps. Every input is 1, so the coefficients are the payoffs."""
        alpha = InfluenceMatrix(n=2, n_y=1, coeffs=np.array(payoff)[:, None])
        spec = ScenarioSpec(inputs=np.ones((4, 1)), initial=SharesState(np.array(initial)),
                            horizon=3, dt=dt)
        trajectory = run(spec, alpha)
        assert trajectory.shares[1, 0] == 1.0
        x = spec.initial
        for t in range(spec.horizon):
            x, payoff_t, rates = step(x, spec.inputs[t], alpha, dt)
            assert trajectory.payoffs[t].tobytes() == payoff_t.entries.tobytes()
            assert trajectory.rates[t].tobytes() == rates.tobytes()
            assert trajectory.shares[t + 1].tobytes() == x.shares.tobytes()

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
        assert np.array_equal(a.shares, b.shares)
        assert np.array_equal(a.payoffs, b.payoffs)


class TestStrategySwap:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_y=st.integers(1, 4), horizon=st.integers(2, 40),
           dt=st.sampled_from([0.25, 0.5, 1.0, 2.0]), scale=st.integers(-3, 3))
    def test_swapped_coefficient_rows_reverse_every_state(self, data, n_y, horizon, dt,
                                                          scale):
        """For n = 2, rows [3, 2, 1, 0] are the payoff entries with the two
        strategies swapped, and every sum the step takes has two terms, which
        IEEE addition adds the same in either order."""
        coeffs = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=4 * n_y,
                                             max_size=4 * n_y))).reshape(4, n_y)
        inputs = 10.0**scale * np.array(data.draw(st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=n_y, max_size=n_y),
            min_size=horizon + 1, max_size=horizon + 1)))
        weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2)))
        initial = SharesState(weights / weights.sum())
        original = run(ScenarioSpec(inputs=inputs, initial=initial, horizon=horizon, dt=dt),
                       InfluenceMatrix(n=2, n_y=n_y, coeffs=coeffs))
        swapped = run(ScenarioSpec(inputs=inputs, initial=SharesState(initial.shares[::-1]),
                                   horizon=horizon, dt=dt),
                      InfluenceMatrix(n=2, n_y=n_y, coeffs=coeffs[[3, 2, 1, 0]]))
        assert len(swapped.states) == len(original.states) == horizon + 1
        for a, b in zip(original.states, swapped.states):
            assert a.shares[::-1].tobytes() == b.shares.tobytes()


def raised(build):
    """(type, message) of the exception ``build()`` raises."""
    with pytest.raises(Exception) as info:
        build()
    return info.type, str(info.value)


HALF = SharesState(np.array([0.5, 0.5]))

# The duopoly's vertices, with the signed zeros that a share can hold.
DUOPOLY_VERTICES = tuple(SharesState(np.array(v)) for v in
                         ([1.0, 0.0], [0.0, 1.0], [1.0, -0.0], [-0.0, 1.0]))

# Coefficients and inputs: signed zeros half the time, so that payoff rows
# hold zero entries and zero minimums.
ZERO_RICH = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))


def zero_rich_run(data, n, n_y, rows):
    """Coefficients, a (rows, n_y) input table and initial shares drawn
    from ZERO_RICH."""
    coeffs = data.draw(st.lists(ZERO_RICH, min_size=n * n * n_y, max_size=n * n * n_y))
    inputs = np.array(data.draw(st.lists(st.lists(ZERO_RICH, min_size=n_y, max_size=n_y),
                                         min_size=rows, max_size=rows)))
    weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    alpha = InfluenceMatrix(n=n, n_y=n_y, coeffs=np.array(coeffs).reshape(n * n, n_y))
    return alpha, inputs, SharesState(weights / weights.sum())


class TestInputTable:
    """A scenario's inputs are one table, validated when the spec is built
    with the checks that InputVector made per row and run made per step."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3), n_y=st.integers(1, 4),
           rows=st.integers(2, 12), dt=st.floats(0.0, 1.0, exclude_min=True))
    def test_run_records_the_states_of_iterated_steps(self, data, n, n_y, rows, dt):
        values = st.floats(-5.0, 5.0)
        coeffs = data.draw(st.lists(values, min_size=n * n * n_y, max_size=n * n * n_y))
        alpha = InfluenceMatrix(n=n, n_y=n_y, coeffs=np.array(coeffs).reshape(n * n, n_y))
        inputs = np.array(data.draw(st.lists(st.lists(values, min_size=n_y, max_size=n_y),
                                             min_size=rows, max_size=rows)))
        weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        dataset = MarketDataset(labels=tuple(f"t{k:02d}" for k in range(rows)),
                                shares=(SharesState(weights / weights.sum()),) * rows,
                                inputs=inputs, ownership=tuple(m % n for m in range(n_y)))
        trajectory = run(observed_scenario(dataset, dt), alpha)
        x = dataset.shares[0]
        for t in range(rows - 1):
            x = step(x, dataset.inputs[t], alpha, dt)[0]
            assert x.shares.tobytes() == trajectory.states[t + 1].shares.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4), n_y=st.integers(1, 4),
           rows=st.integers(2, 12), dt=st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]))
    def test_run_records_the_payoffs_and_rates_of_iterated_steps(self, data, n, n_y, rows,
                                                                 dt):
        """Every row of the payoff and rate blocks has the bytes of the one
        iterated ``step`` returns, the final unstepped row included. Signed
        zeros in the coefficients and inputs make rows whose minimum is
        zero, and dt above 1 drives shares into the clamp. A duopoly starts
        at a vertex half the time, so that the zero shares' signs are
        compared too."""
        alpha, inputs, initial = zero_rich_run(data, n, n_y, rows)
        if n == 2:
            initial = data.draw(st.one_of(st.just(initial), st.sampled_from(DUOPOLY_VERTICES)))
        trajectory = run(ScenarioSpec(inputs=inputs, initial=initial, horizon=rows - 1,
                                      dt=dt), alpha)
        zero_minimums = sum(min(synthesize_payoff(alpha, y).floats) == 0.0 for y in inputs)
        event("rows with a zero minimum: " + ("none", "one", "several")[min(zero_minimums, 2)])
        x = initial
        for t in range(rows):
            if t < rows - 1:
                nxt, payoff, rates = step(x, inputs[t], alpha, dt)
            else:
                payoff = normalize_payoff(synthesize_payoff(alpha, inputs[t]))
                nxt, rates = x, replicator_rates(payoff, x)
            assert trajectory.shares[t].tobytes() == x.shares.tobytes()
            assert trajectory.payoffs[t].tobytes() == payoff.entries.tobytes()
            assert trajectory.rates[t].tobytes() == rates.tobytes()
            x = nxt

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3), n_y=st.integers(1, 3),
           rows=st.integers(2, 10), dt=st.sampled_from([0.5, 1.0, 2.0]),
           scale=st.sampled_from([1e306, 1e308, 1.7e308]))
    def test_run_fails_where_iterated_steps_first_fail(self, data, n, n_y, rows, dt, scale):
        """Inputs scaled toward overflow from a drawn row on, the final
        unstepped row included (the largest of at least 1 becomes ``scale``):
        run's DataError reads "step t: " and the message of the first
        iterated step that fails, or run succeeds when none does."""
        alpha, inputs, initial = zero_rich_run(data, n, n_y, rows)
        scaled = inputs[data.draw(st.one_of(st.just(rows - 1), st.integers(0, rows - 1))):]
        scaled *= scale / max(np.abs(scaled).max(), 1.0)
        expected = None
        x = initial
        for t in range(rows):
            try:
                if t < rows - 1:
                    x = step(x, inputs[t], alpha, dt)[0]
                else:
                    replicator_rates(normalize_payoff(synthesize_payoff(alpha, inputs[t])), x)
            except (ValueError, ArithmeticError) as exc:
                expected = (f"step {t}: {exc}; the inputs may be too large for the payoff "
                            "arithmetic (normalize the inputs)")
                break
        event("no step fails" if expected is None else
              "the final row fails" if expected.startswith(f"step {rows - 1}:") else
              "a stepped row fails")
        spec = ScenarioSpec(inputs=inputs, initial=initial, horizon=rows - 1, dt=dt)
        if expected is None:
            run(spec, alpha)
        else:
            assert raised(lambda: run(spec, alpha)) == (DataError, expected)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_y=st.integers(1, 4), rows=st.integers(2, 12),
           cell=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_cell_fails_as_its_input_vector_did(self, data, n_y, rows, cell):
        table = ramp_inputs(rows, n_y)
        t = data.draw(st.integers(0, rows - 1))
        table[t, data.draw(st.integers(0, n_y - 1))] = cell
        ownership = tuple(m % 2 for m in range(n_y))
        expected = raised(lambda: InputVector(values=table[t], ownership=ownership))
        assert raised(lambda: ScenarioSpec(inputs=table, initial=HALF, horizon=rows - 1)) == expected

    @pytest.mark.parametrize("shape", [(5,), (5, 0), (5, 2, 2)])
    def test_table_of_wrong_shape_fails_as_its_rows_did(self, shape):
        table = np.full(shape, 0.5)
        expected = raised(lambda: InputVector(values=table[0], ownership=(0,)))
        assert raised(lambda: ScenarioSpec(inputs=table, initial=HALF, horizon=4)) == expected

    @settings(max_examples=20, deadline=None)
    @given(rows=st.integers(1, 12), missing=st.integers(1, 5))
    def test_too_few_rows_fail_as_run_did(self, rows, missing):
        got = raised(lambda: ScenarioSpec(inputs=ramp_inputs(rows), initial=HALF,
                                          horizon=rows - 1 + missing))
        assert got == (DataError, f"no input sample for step {rows}")


class TestScenarioBuilders:
    def test_observed_replays_dataset(self):
        dataset = small_dataset()
        spec = observed_scenario(dataset)
        assert spec.horizon == len(dataset) - 1
        assert np.array_equal(spec.initial.shares, dataset.shares[0].shares)
        assert np.array_equal(spec.inputs, dataset.inputs)

    def test_constant_pins_first_input(self):
        dataset = small_dataset()
        spec = constant_scenario(dataset)
        assert len(spec.inputs) == len(dataset)
        for y in spec.inputs:
            assert np.array_equal(y, dataset.inputs[0])

    def test_custom_defaults_to_full_series(self):
        inputs = wrap_inputs(ramp_inputs(6))
        spec = custom_scenario(inputs, SharesState(np.array([0.5, 0.5])))
        assert spec.horizon == 5
        assert np.array_equal(spec.inputs, ramp_inputs(6))


def target_equilibrium(alpha, y):
    """The interior point the dynamics chase while the inputs stay at y, as
    the equilibria command derives it."""
    return mixed_equilibrium(normalize_payoff(synthesize_payoff(alpha, y)))


class TestTargetEquilibrium:
    def test_symmetric_inputs_give_even_split(self):
        alpha = duopoly_alpha((1, 2, 3, 4, 5, 6))
        point = target_equilibrium(alpha, np.ones(4))
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
        assert target_equilibrium(alpha, np.ones(4)) is None


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
            assert float(row[1]) == traj.shares[t, 0]
            assert float(row[3]) == traj.payoffs[t, 0]
            assert float(row[7]) == traj.rates[t, 0]

    def test_writes_to_path(self, tmp_path):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        traj = run(custom_scenario(wrap_inputs(ramp_inputs(4)),
                                   SharesState(np.array([0.3, 0.7]))), alpha)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        assert out.read_text(encoding="utf-8").startswith("t,share_1")
