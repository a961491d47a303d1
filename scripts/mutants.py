#!/usr/bin/env python3
"""Mutation check of the payoff kernel, the grid search, the simulator, the
share checks, the loader, the CLI's input scaling, the chart and the number
formatter: each mutant is a one-line source edit that a named test must
catch.

Run from the repository root:

    python3 scripts/mutants.py [REVISION]

REVISION (default HEAD; any tree-ish, such as the tree id that
`git write-tree` prints) is extracted with `git archive` into a fresh
temporary directory (under /tmp unless TMPDIR says otherwise). The named
tests first run there on the unedited source, and must pass. Then each
mutant's edit is applied alone, its tests run with `pytest -x`, and the
edit is undone. A mutant is killed when its tests fail, and survives when
they pass. An edit whose text is not in its file exactly once does not
apply, so a source change that moves an edited line shows up here.

Each mutant names the quickest test known to kill it: a failing Hypothesis
property can spend minutes shrinking its example. Hypothesis's explain
phase is skipped. The script prints one line per mutant and exits 1 if any
mutant survives or does not apply. It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
INFLUENCE = "src/marketdyn/influence.py"
LEARN = "src/marketdyn/learn.py"
SIMULATE = "src/marketdyn/simulate.py"
DATASET = "src/marketdyn/dataset.py"
DYNAMICS = "src/marketdyn/dynamics.py"
SVGCHART = "src/marketdyn/svgchart.py"
NUMTEXT = "src/marketdyn/numtext.py"
CLI = "src/marketdyn/cli.py"
RUN_TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("pruning drops a lane whose partial error equals the bound", LEARN,
           "keep = ~(state[-1] / train_len > bound)",
           "keep = ~(state[-1] / train_len >= bound)",
           ("tests/test_learn.py::TestPooledSearch::test_tie_class_split_across_pools",)),
    Mutant("the fit's merge takes a later chunk on a tie", LEARN,
           "if best is None or chunk.error < best.error:",
           "if best is None or chunk.error <= best.error:",
           ("tests/test_learn.py::TestPooledSearch::test_tie_class_split_across_pools",)),
    Mutant("the lane reduction keeps the first tied lane in run order", LEARN,
           "lane = int(tied[np.argmin(ids[tied])])",
           "lane = int(tied[0])",
           ("tests/test_learn.py::TestPooledSearch::"
            "test_lanes_out_of_id_order_reduce_to_the_smallest_minimizer",
            "tests/test_learn.py::TestPooledSearch::"
            "test_constant_market_ties_every_candidate[729]")),
    Mutant("the payoff block's degenerate-range fill reaches only its first step", INFLUENCE,
           "pay[:, degenerate] = 0.5",
           "pay[:, :1][:, degenerate[:1]] = 0.5",
           ("tests/test_influence.py::TestPayoffBlock::"
            "test_every_column_has_the_bytes_of_the_one_matrix_helpers",)),
    Mutant("the payoff block keeps a sum's -0.0", INFLUENCE,
           "    np.copysign(lo, -1.0, out=lo, where=lo == 0.0)\n",
           "",
           ("tests/test_influence.py::TestPayoffBlock::"
            "test_every_column_has_the_bytes_of_the_one_matrix_helpers",)),
    Mutant("synthesize_payoff keeps a sum's -0.0", INFLUENCE,
           "list(raw.reshape(n, n) + 0.0)",
           "list(raw.reshape(n, n))",
           ("tests/test_scalar_path.py::TestStepFunctionsMatchNumpy::"
            "test_synthesize_payoff_sums_zeros_from_positive_zero",)),
    Mutant("the fitness reads the payoff matrix transposed", LEARN,
           "fitness += p[j::n] * x[j]",
           "fitness += p[j * n:j * n + n] * x[j]",
           ("tests/test_learn.py::TestKernelProperties::test_three_strategies_unconstrained",)),
    Mutant("the kernel's rate loses its x_i factor", LEARN,
           "            fitness *= x\n",
           "",
           ("tests/test_learn.py::TestInvariantFaces::test_a_zero_share_stays_zero_in_every_lane",)),
    Mutant("the winner's validation starts one step late", LEARN,
           "np.array([best.index]), problem.train_len,",
           "np.array([best.index]), problem.train_len + 1,",
           ("tests/test_learn.py::TestNonFiniteErrors::"
            "test_last_input_row_drives_no_validated_state",)),
    Mutant("the dump's low-digit table starts at 0 whatever the first id", LEARN,
           "start = lo % block",
           "start = 0",
           ("tests/test_learn.py::TestErrorDump::test_dump_bytes_match_per_row_formatting",)),
    Mutant("the dense payoff terms run from the last input", INFLUENCE,
           "[(m, k * n_y + m) for m in range(n_y)]",
           "[(m, k * n_y + m) for m in reversed(range(n_y))]",
           ("tests/test_scalar_path.py::TestPinnedTrajectoryBytes::"
            "test_three_strategies_at_quarter_steps",)),
    Mutant("the simulator's share step drops the clamp to 1.0", SIMULATE,
           "nxt = [min(max(x_i + dt * r_i, 0.0), 1.0) for x_i, r_i in zip(x, r)]",
           "nxt = [max(x_i + dt * r_i, 0.0) for x_i, r_i in zip(x, r)]",
           ("tests/test_simulate.py::TestAdvanceShares::"
            "test_clamps_a_share_above_one_before_renormalizing",)),
    Mutant("the simulator names the first passing share row as the failing one", SIMULATE,
           "len(rates) if held.all() else int(np.argmin(held))",
           "len(rates) if held.all() else int(np.argmax(held))",
           ("tests/test_simulate.py::TestRun::test_overflowing_step_is_a_data_error_naming_it",)),
    Mutant("a collapse in the simulator's share loop escapes as ArithmeticError", SIMULATE,
           "    except ArithmeticError:",
           "    except OverflowError:",
           ("tests/test_simulate.py::TestRun::test_collapsing_step_is_a_data_error_naming_it",)),
    Mutant("the simulator's final rates read the shares before the last step", SIMULATE,
           "SharesState(shares[-1])",
           "SharesState(shares[-2])",
           ("tests/test_scalar_path.py::TestPinnedTrajectoryBytes::"
            "test_two_thousand_step_duopoly",)),
    Mutant("the duopoly rate loses its x0 factor", SIMULATE,
           "r0 = x0 * (f0 - mean)",
           "r0 = f0 - mean",
           ("tests/test_simulate.py::TestNoClamp::"
            "test_every_euler_update_lies_in_the_unit_interval",)),
    Mutant("the duopoly share loop drops the clamp to 1.0", SIMULATE,
           "c0 = 0.0 if c0 < 0.0 else 1.0 if c0 > 1.0 else c0",
           "c0 = 0.0 if c0 < 0.0 else c0",
           ("tests/test_simulate.py::TestRun::"
            "test_clamped_steps_have_the_bytes_of_iterated_steps",)),
    Mutant("the duopoly share loop drops the clamp to 0.0", SIMULATE,
           "c1 = 0.0 if c1 < 0.0 else 1.0 if c1 > 1.0 else c1",
           "c1 = 1.0 if c1 > 1.0 else c1",
           ("tests/test_simulate.py::TestRun::"
            "test_clamped_steps_have_the_bytes_of_iterated_steps",)),
    Mutant("the duopoly share loop records a rate taken after the share update", SIMULATE,
           "r0s(r0)",
           "r0s(x0 * (f0 - mean))",
           ("tests/test_simulate.py::TestRun::"
            "test_clamped_steps_have_the_bytes_of_iterated_steps",)),
    Mutant("the duopoly share loop clamps a share of -0.0 to 0.0", SIMULATE,
           "c1 = 0.0 if c1 < 0.0 else 1.0 if c1 > 1.0 else c1",
           "c1 = 0.0 if c1 <= 0.0 else 1.0 if c1 > 1.0 else c1",
           ("tests/test_simulate.py::TestRun::"
            "test_clamped_steps_have_the_bytes_of_iterated_steps",)),
    Mutant("the CLI scales inputs over every row", CLI,
           "(0, train_len)",
           "(0, len(dataset))",
           ("tests/test_cli_properties.py::"
            "test_holdout_rows_change_only_the_validation_error",)),
    Mutant("the share block check drops the negative-share mask", DATASET,
           "(shares >= 0.0) & (shares <= SHARE_SUM_MAX)",
           "(shares <= SHARE_SUM_MAX)",
           ("tests/test_dataset.py::TestIngestEqualsRowByRowLoad::"
            "test_the_first_bad_row_wins_over_a_later_row_whose_sum_overflows",)),
    Mutant("the line-by-line fallback skips a rejected line", DATASET,
           "            error = exc\n            break\n",
           "            error = exc\n            continue\n",
           ("tests/test_dataset.py::TestIngestEqualsRowByRowLoad::"
            "test_no_data_line_is_parsed_twice",)),
    Mutant("the numpy path keeps the rows after its first non-finite row", DATASET,
           "return labels, block[:end], error",
           "return labels, block, error",
           ("tests/test_dataset.py::TestLoadCsv::test_non_finite_cell_reports_line",)),
    Mutant("the share total sums column by column up to 9 shares", DYNAMICS,
           "if block.shape[1] < 8:",
           "if block.shape[1] < 9:",
           ("tests/test_scalar_path.py::TestValueObjects::"
            "test_long_share_vectors_sum_as_numpy_does",)),
    Mutant("numpy's reader takes lines with an extra field", DATASET,
           """line.count(",") == commas and len(line)""",
           "len(line)",
           ("tests/test_dataset.py::TestIngestEqualsRowByRowLoad::"
            "test_an_extra_field_among_plain_lines_names_its_line",)),
    Mutant("numpy's reader takes a line over csv's field size limit", DATASET,
           "len(line) <= limit and ",
           "",
           ("tests/test_dataset.py::TestIngestEqualsRowByRowLoad::"
            "test_the_first_bad_row_wins_over_a_later_row_the_csv_reader_rejects",)),
    Mutant("the labels of lines that numpy parses keep their spaces", DATASET,
           """[line.partition(",")[0].strip() for line in lines[:end]]""",
           """[line.partition(",")[0] for line in lines[:end]]""",
           ("tests/test_dataset.py::TestIngestEqualsRowByRowLoad::"
            "test_plain_lines_are_parsed_by_numpy_with_their_labels_stripped",)),
    Mutant("a share row whose fsum overflows escapes the sum check", DATASET,
           "except OverflowError:",
           "except ZeroDivisionError:",
           ("tests/test_cli.py::TestUnreadableFiles::"
            "test_share_row_whose_sum_overflows_is_data_error_with_line",)),
    Mutant("the trajectory writer repeats each block's boundary row", SIMULATE,
           "range(0, len(trajectory), _WRITE_ROWS)",
           "range(0, len(trajectory), _WRITE_ROWS - 1)",
           ("tests/test_simulate.py::TestTrajectoryCsv::"
            "test_rows_across_write_blocks_equal_per_row_formatting",)),
    Mutant("the trajectory writer drops each block's boundary row", SIMULATE,
           "s[start:start + _WRITE_ROWS]",
           "s[start:start + _WRITE_ROWS - 1]",
           ("tests/test_simulate.py::TestTrajectoryCsv::"
            "test_rows_across_write_blocks_equal_per_row_formatting",)),
    Mutant("the chart's y map computes y - 1 for 1 - y", SVGCHART,
           "(1.0 - y) * _PLOT_H",
           "(y - 1.0) * _PLOT_H",
           ("tests/test_svgchart.py::test_polyline_points_equal_per_point_formatting",)),
    Mutant("the chart's validation rule sits half a step late", SVGCHART,
           "pixels(np.float64(boundary_x), 1.0)",
           "pixels(np.float64(boundary_x + 0.5), 1.0)",
           ("tests/test_svgchart.py::TestPinnedChartBytes::"
            "test_observed_replay_with_validation_boundary",)),
    Mutant("the %.17g tie margin dropped, so exact ties round half-up", NUMTEXT,
           "~(covered | zero) | (np.abs(fr - 0.5) < _TIE)",
           "~(covered | zero)",
           ("tests/test_numtext.py::test_families_equal_percent_formatting",)),
    Mutant("the %.17g decade is judged after rounding", NUMTEXT,
           "(whole < 10**16) | (whole >= 10**17)",
           "(n < 10**16) | (n > 10**17)",
           ("tests/test_numtext.py::test_the_misjudged_decade_case_prints_its_own_digits",)),
    Mutant("%g's fixed notation ends below 10**16, not 10**17", NUMTEXT,
           "fixed = (k >= -4) & (k < 17)",
           "fixed = (k >= -4) & (k < 16)",
           ("tests/test_numtext.py::test_families_equal_percent_formatting",)),
    Mutant("a %.17g cell of -0.0 loses its sign", NUMTEXT,
           "50 * np.signbit(x)",
           "50 * (x < 0.0)",
           ("tests/test_numtext.py::test_polyline_and_trajectory_layouts",)),
    Mutant("the %.2f tie margin dropped, so exact ties round half-up", NUMTEXT,
           "~covered | (np.abs(fr - 0.5) < _TIE)",
           "~covered",
           ("tests/test_numtext.py::test_families_equal_percent_formatting",)),
)


# pytest under a Hypothesis profile without the explain phase, which only
# annotates a failure already found: on a failing kernel property it took
# 45 of the 49 seconds to the verdict.
PYTEST = """\
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


def run_tests(tree: Path, tests) -> tuple[bool, float]:
    """Whether the tests passed in ``tree``, and the seconds they took."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else is no verdict
        raise RuntimeError(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 0, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision", nargs="?", default="HEAD", help="git tree-ish to check")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        archive = subprocess.run(["git", "archive", args.revision], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        passed, seconds = run_tests(tree, named)
        if not passed:
            print(f"the named tests fail on the unedited source ({seconds:.1f} s)")
            return 1
        failures = 0
        for mutant in MUTANTS:
            source = tree / mutant.path
            text = source.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"DOES NOT APPLY  {mutant.name}: {mutant.old!r} occurs "
                      f"{text.count(mutant.old)} times in {mutant.path}")
                failures += 1
                continue
            source.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                passed, seconds = run_tests(tree, mutant.tests)
            finally:
                source.write_text(text, encoding="utf-8")
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:<15} {mutant.name} ({seconds:.1f} s)")
            failures += passed
        print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
