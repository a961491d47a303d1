"""Tests for constrained coefficient matrices and payoff synthesis."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ALT_REFERENCE,
    DUOPOLY_MASK,
    DUOPOLY_PAIRS,
    DUOPOLY_SPEC,
    RECOVERY_TARGET,
    duopoly_alpha,
)
from reference import ref_normalize, ref_synthesize
from marketdyn.dynamics import PayoffMatrix
from marketdyn.errors import ConfigError
from marketdyn.influence import (
    ALPHA_FORMAT,
    CROSS_PAIRS_ONLY,
    FULL_SYMMETRY,
    UNCONSTRAINED,
    ConstraintSpec,
    InfluenceMatrix,
    InputVector,
    alpha_from_dict,
    alpha_to_dict,
    alternating_ownership,
    build_constraints,
    constraint_check,
    free_orbits,
    load_alpha,
    normalize_payoff,
    payoff_block,
    payoff_coords,
    payoff_index,
    save_alpha,
    synthesize_payoff,
)

FULL_LAYOUT = ((0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3))


def test_payoff_index_coords_roundtrip():
    for n in (2, 3, 4):
        for i in range(n):
            for j in range(n):
                k = payoff_index(n, i, j)
                assert payoff_coords(n, k) == (i, j)


def test_alternating_ownership_defaults():
    assert alternating_ownership(4) == (0, 1, 0, 1)
    assert alternating_ownership(5, 3) == (0, 1, 2, 0, 1)


class TestInputVector:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="ownership length"):
            InputVector(values=np.array([1.0, 2.0]), ownership=(0,))

    def test_negative_owner(self):
        with pytest.raises(ValueError, match=">= 0"):
            InputVector(values=np.array([1.0]), ownership=(-1,))


class TestConstraintSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="constraint mode"):
            ConstraintSpec(mode="diagonal", swap=(1, 0),
                           input_pairing=(1, 0), ownership=(0, 1))

    def test_rejects_non_involution_swap(self):
        with pytest.raises(ConfigError, match="involution"):
            ConstraintSpec(mode=FULL_SYMMETRY, swap=(1, 2, 0),
                           input_pairing=(0, 1, 2), ownership=(0, 1, 2))

    def test_rejects_pairing_inconsistent_with_ownership(self):
        # identity pairing keeps input 0 with owner 0, but the swap demands
        # its partner belong to strategy 1
        with pytest.raises(ConfigError, match="inconsistent"):
            ConstraintSpec(mode=FULL_SYMMETRY, swap=(1, 0),
                           input_pairing=(0, 1, 2, 3), ownership=(0, 1, 0, 1))

    def test_standard_duopoly_needs_even_input_count(self):
        with pytest.raises(ConfigError, match="even"):
            ConstraintSpec.standard_duopoly(3)

    def test_standard_duopoly_shape(self):
        spec = ConstraintSpec.standard_duopoly(6)
        assert spec.swap == (1, 0)
        assert spec.input_pairing == (1, 0, 3, 2, 5, 4)
        assert spec.ownership == (0, 1, 0, 1, 0, 1)


class TestBuildConstraints:
    def test_zero_mask_pins_rival_inputs_on_diagonal(self):
        assert DUOPOLY_MASK == frozenset({(0, 1), (0, 3), (3, 0), (3, 2)})

    def test_full_symmetry_pairs_exact(self):
        expected = frozenset({
            ((0, 0), (3, 1)), ((0, 1), (3, 0)), ((0, 2), (3, 3)), ((0, 3), (3, 2)),
            ((1, 0), (2, 1)), ((1, 1), (2, 0)), ((1, 2), (2, 3)), ((1, 3), (2, 2)),
        })
        assert DUOPOLY_PAIRS == expected

    def test_cross_pairs_mode_keeps_only_cross_entry_pairs(self):
        # one pair per owner-side instance; the mirror instances coincide
        spec = ConstraintSpec.standard_duopoly(4, mode=CROSS_PAIRS_ONLY)
        mask, pairs = build_constraints(spec, 2, 4)
        assert mask == DUOPOLY_MASK
        assert pairs == frozenset({((1, 0), (2, 1)), ((1, 2), (2, 3))})

    def test_unconstrained_mode_frees_everything(self):
        spec = ConstraintSpec.standard_duopoly(4, mode=UNCONSTRAINED)
        mask, pairs = build_constraints(spec, 2, 4)
        assert mask == frozenset() and pairs == frozenset()

    def test_free_counts_per_mode(self):
        cases = {FULL_SYMMETRY: 6, CROSS_PAIRS_ONLY: 10, UNCONSTRAINED: 16}
        for mode, expected in cases.items():
            spec = ConstraintSpec.standard_duopoly(4, mode=mode)
            mask, pairs = build_constraints(spec, 2, 4)
            assert len(free_orbits(2, 4, mask, pairs)) == expected


class TestInfluenceMatrix:
    def test_from_free_values_materializes_all_rows(self):
        alpha = duopoly_alpha((1, 2, 3, 4, 5, 6))
        expected = np.array([
            [1.0, 0.0, 2.0, 0.0],
            [3.0, 4.0, 5.0, 6.0],
            [4.0, 3.0, 6.0, 5.0],
            [0.0, 1.0, 0.0, 2.0],
        ])
        assert np.array_equal(alpha.coeffs, expected)

    def test_free_layout_and_values_roundtrip(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        layout = tuple(orbit[0] for orbit in free_orbits(2, 4, DUOPOLY_MASK, DUOPOLY_PAIRS))
        assert layout == FULL_LAYOUT
        assert tuple(alpha.coeffs[k, m] for k, m in layout) == RECOVERY_TARGET

    def test_wrong_free_value_count(self):
        with pytest.raises(ValueError, match="expected 6 free values"):
            duopoly_alpha((1, 2, 3))

    def test_construction_rejects_mask_violation(self):
        coeffs = duopoly_alpha(RECOVERY_TARGET).coeffs.copy()
        coeffs[0, 1] = 7.0
        with pytest.raises(ValueError, match="violate"):
            InfluenceMatrix(n=2, n_y=4, coeffs=coeffs,
                            zero_mask=DUOPOLY_MASK, symmetry_pairs=DUOPOLY_PAIRS)

    def test_construction_rejects_pairing_violation(self):
        coeffs = duopoly_alpha(RECOVERY_TARGET).coeffs.copy()
        coeffs[2, 1] += 1.0
        with pytest.raises(ValueError, match="violate"):
            InfluenceMatrix(n=2, n_y=4, coeffs=coeffs,
                            zero_mask=DUOPOLY_MASK, symmetry_pairs=DUOPOLY_PAIRS)

    def test_both_reference_tuples_construct(self):
        for values in (RECOVERY_TARGET, ALT_REFERENCE):
            alpha = duopoly_alpha(values)
            assert constraint_check(alpha.coeffs, DUOPOLY_MASK, DUOPOLY_PAIRS)


class TestConstraintCheck:
    def test_literal_matrix_passes(self):
        coeffs = np.array([
            [4.0, 0.0, -1.0, 0.0],
            [0.0, 3.0, 1.0, 3.0],
            [3.0, 0.0, 3.0, 1.0],
            [0.0, 4.0, 0.0, -1.0],
        ])
        assert constraint_check(coeffs, DUOPOLY_MASK, DUOPOLY_PAIRS)

    def test_masked_entry_must_be_zero(self):
        coeffs = np.zeros((4, 4))
        coeffs[0, 1] = 1e-12
        assert not constraint_check(coeffs, DUOPOLY_MASK, DUOPOLY_PAIRS)

    def test_paired_entries_must_match_exactly(self):
        coeffs = np.zeros((4, 4))
        coeffs[1, 0] = 2.0
        coeffs[2, 1] = 2.0 + 1e-12
        assert not constraint_check(coeffs, DUOPOLY_MASK, DUOPOLY_PAIRS)


class TestPayoffSynthesis:
    def test_hand_computed_entries(self):
        alpha = duopoly_alpha((1, 2, 3, 4, 5, 6))
        payoff = synthesize_payoff(alpha, np.ones(4))
        assert np.array_equal(payoff.entries, np.array([[3.0, 18.0], [18.0, 3.0]]))

    def test_input_count_mismatch(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        with pytest.raises(ValueError, match="expect 4 inputs"):
            synthesize_payoff(alpha, np.ones(3))

    @pytest.mark.parametrize("n, message", [
        (0, "payoff matrix must be square, got shape (0,)"),
        (1, "payoff matrix needs at least 2 strategies"),
    ])
    def test_too_few_strategies_keep_the_matrix_messages(self, n, message):
        alpha = InfluenceMatrix(n=n, n_y=2, coeffs=np.ones((n * n, 2)))
        with pytest.raises(ValueError) as info:
            synthesize_payoff(alpha, np.ones(2))
        assert str(info.value) == message

    def test_normalize_maps_to_unit_range(self):
        payoff = PayoffMatrix(np.array([[2.0, 4.0], [6.0, 10.0]]))
        normalized = normalize_payoff(payoff)
        assert normalized.normalized
        assert np.array_equal(
            normalized.entries, np.array([[0.0, 0.25], [0.5, 1.0]])
        )

    def test_normalize_degenerate_matrix_is_uniform(self):
        payoff = PayoffMatrix(np.full((2, 2), 0.7))
        assert np.array_equal(normalize_payoff(payoff).entries, np.full((2, 2), 0.5))

    def test_coefficient_scale_cancels_after_normalization(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            coeffs = rng.uniform(-2.0, 2.0, size=(4, 4))
            alpha = InfluenceMatrix(n=2, n_y=4, coeffs=coeffs)
            tripled = InfluenceMatrix(n=2, n_y=4, coeffs=3.0 * coeffs)
            y = rng.uniform(0.0, 1.0, size=4)
            a = normalize_payoff(synthesize_payoff(alpha, y)).entries
            b = normalize_payoff(synthesize_payoff(tripled, y)).entries
            assert np.allclose(a, b, atol=1e-12)


# Coefficients and inputs for the payoff kernel: signed zeros, which make
# zero sums and zero minimums; values within 1e-13 of zero, whose ranges
# fall on both sides of the degenerate range; and magnitudes up to 1e308,
# whose sums and ranges overflow.
KERNEL_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0),
                          st.floats(-1e-13, 1e-13), st.floats(-1e308, 1e308))


@st.composite
def kernel_cases(draw):
    """A (lane, entry, input) coefficient array for n 2-4 and n_y 1-4, and
    a (step, input) array of input rows."""
    n, n_y = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    lanes, steps = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    coeffs = draw(st.lists(KERNEL_FLOATS, min_size=lanes * n * n * n_y,
                           max_size=lanes * n * n * n_y))
    rows = draw(st.lists(KERNEL_FLOATS, min_size=steps * n_y, max_size=steps * n_y))
    return np.array(coeffs).reshape(lanes, n * n, n_y), np.array(rows).reshape(steps, n_y)


class TestPayoffBlock:
    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases())
    # raw entries (-0.0, 0.0, 1.0, 1.0): the first sum is -0.0, and
    # subtracting a zero minimum that is not taken as -0.0 keeps that sign
    @example(case=(np.array([-0.0, 0.0, 1.0, 1.0]).reshape(1, 4, 1), np.array([[1.0]])))
    def test_every_column_has_the_bytes_of_the_one_matrix_helpers(self, case):
        """Each (step, lane) column holds the bytes of the numpy references
        of synthesize_payoff and normalize_payoff for that lane's
        coefficients and that step's inputs, or, where the helpers would
        raise, a NaN or an entry outside [0, 1]. Leaving out the terms whose
        value is zero in every lane, as the grid search leaves out its
        zero-mask terms, changes no bit."""
        coeffs, rows = case
        lanes, entries, n_y = coeffs.shape
        values = coeffs.reshape(lanes, -1).T  # row k * n_y + m: coefficient (k, m)
        terms = [[(m, k * n_y + m) for m in range(n_y)] for k in range(entries)]
        nonzero = [[(m, f) for m, f in entry if values[f].any()] for entry in terms]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            block = payoff_block(values, terms, rows)
            sparse = payoff_block(values, nonzero, rows)
            expected = [[ref_normalize(ref_synthesize(c, y, math.isqrt(entries))).ravel()
                         for c in coeffs] for y in rows]
        assert block.shape == (entries, len(rows), lanes)
        assert sparse.tobytes() == block.tobytes()
        for t, lane in np.ndindex(len(rows), lanes):
            column = block[:, t, lane]
            if np.isfinite(expected[t][lane]).all():
                assert column.tobytes() == expected[t][lane].tobytes()
            else:  # a non-finite raw entry or range, which PayoffMatrix rejects
                assert not ((column >= 0.0) & (column <= 1.0)).all()


class TestAlphaSerialization:
    def test_dict_roundtrip(self):
        alpha = duopoly_alpha(ALT_REFERENCE)
        doc = alpha_to_dict(alpha, DUOPOLY_SPEC.ownership)
        assert doc["format"] == ALPHA_FORMAT
        back, ownership = alpha_from_dict(doc)
        assert np.array_equal(back.coeffs, alpha.coeffs)
        assert back.zero_mask == alpha.zero_mask
        assert back.symmetry_pairs == alpha.symmetry_pairs
        assert ownership == DUOPOLY_SPEC.ownership

    def test_fit_report_wrapper_accepted(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        doc = {"alpha": alpha_to_dict(alpha, DUOPOLY_SPEC.ownership)}
        back, _ = alpha_from_dict(doc)
        assert np.array_equal(back.coeffs, alpha.coeffs)

    def test_unknown_format_rejected(self):
        alpha = duopoly_alpha(RECOVERY_TARGET)
        doc = alpha_to_dict(alpha, DUOPOLY_SPEC.ownership)
        doc["format"] = "coefficients/99"
        with pytest.raises(ConfigError, match="unsupported coefficient format"):
            alpha_from_dict(doc)

    def test_file_roundtrip(self, tmp_path):
        alpha = duopoly_alpha((0, -4, 4, 1, 2, -3))
        path = tmp_path / "alpha.json"
        save_alpha(alpha, DUOPOLY_SPEC.ownership, path)
        back, ownership = load_alpha(path)
        assert np.array_equal(back.coeffs, alpha.coeffs)
        assert ownership == (0, 1, 0, 1)
