#!/usr/bin/env python3
"""Mutation check of the grid search, the simulator, the loader and the
chart: each mutant is a one-line source edit that a named test must catch.

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
LEARN = "src/marketdyn/learn.py"
SIMULATE = "src/marketdyn/simulate.py"
DATASET = "src/marketdyn/dataset.py"
SVGCHART = "src/marketdyn/svgchart.py"
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
            "test_lanes_out_of_id_order_reduce_to_the_smallest_minimizer",)),
    Mutant("the degenerate-range fill reaches only a block's first step", LEARN,
           "pay[:, degenerate] = 0.5",
           "pay[:, :1][:, degenerate[:1]] = 0.5",
           ("tests/test_learn.py::TestKernelBlocks::test_state_and_ids_are_bit_identical",)),
    Mutant("the fitness reads the payoff matrix transposed", LEARN,
           "fitness += p[j::n] * x[j]",
           "fitness += p[j * n:j * n + n] * x[j]",
           ("tests/test_learn.py::TestKernelProperties::test_three_strategies_unconstrained",)),
    Mutant("the winner's validation starts one step late", LEARN,
           "np.array([best.index]), problem.train_len,",
           "np.array([best.index]), problem.train_len + 1,",
           ("tests/test_learn.py::TestNonFiniteErrors::"
            "test_last_input_row_drives_no_validated_state",)),
    Mutant("the dump's low-digit table starts at 0 whatever the first id", LEARN,
           "start = lo % block",
           "start = 0",
           ("tests/test_learn.py::TestErrorDump::test_dump_bytes_match_per_row_formatting",)),
    Mutant("the simulator's payoff block sums the terms from the last input", SIMULATE,
           "for m in range(alpha.n_y):",
           "for m in reversed(range(alpha.n_y)):",
           ("tests/test_scalar_path.py::TestPinnedTrajectoryBytes::"
            "test_three_strategies_at_quarter_steps",)),
    Mutant("the simulator's share step drops the clamp to 1.0", SIMULATE,
           "nxt = [min(max(x_i + dt * r_i, 0.0), 1.0) for x_i, r_i in zip(x, r)]",
           "nxt = [max(x_i + dt * r_i, 0.0) for x_i, r_i in zip(x, r)]",
           ("tests/test_simulate.py::TestAdvanceShares::"
            "test_clamps_a_share_above_one_before_renormalizing",)),
    Mutant("the simulator names the first passing payoff row as the failing one", SIMULATE,
           "len(rows) if held.all() else int(np.argmin(held))",
           "len(rows) if held.all() else int(np.argmax(held))",
           ("tests/test_simulate.py::TestRun::test_overflowing_step_is_a_data_error_naming_it",)),
    Mutant("a collapse in the simulator's share loop escapes as ArithmeticError", SIMULATE,
           "    except ArithmeticError:\n        stop = len(columns[-1])",
           "    except ZeroDivisionError:\n        stop = len(columns[-1])",
           ("tests/test_simulate.py::TestRun::test_collapsing_step_is_a_data_error_naming_it",)),
    Mutant("the simulator's final rates read the shares before the last step", SIMULATE,
           "SharesState._of_checked(tuple(shares[-1].tolist()))",
           "SharesState._of_checked(tuple(shares[-2].tolist()))",
           ("tests/test_scalar_path.py::TestPinnedTrajectoryBytes::"
            "test_two_thousand_step_duopoly",)),
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
    Mutant("the share block check drops the negative-share mask", DATASET,
           "(shares >= 0.0) & (shares <= SHARE_SUM_MAX)",
           "(shares <= SHARE_SUM_MAX)",
           ("tests/test_dataset.py::TestIngestEqualsRowByRowLoad::"
            "test_the_first_bad_row_wins_over_a_later_row_whose_sum_overflows",)),
    Mutant("one csv reader reads every line, a quoted one too", DATASET,
           """if any('"' in line for line in lines):""",
           "if False:",
           ("tests/test_dataset.py::TestIngestEqualsRowByRowLoad::"
            "test_a_record_spanning_lines_is_read_line_by_line",)),
    Mutant("a share row whose fsum overflows escapes the sum check", DATASET,
           "except OverflowError:",
           "except ZeroDivisionError:",
           ("tests/test_cli.py::TestUnreadableFiles::"
            "test_share_row_whose_sum_overflows_is_data_error_with_line",)),
    Mutant("the chart's y map computes y - 1 for 1 - y", SVGCHART,
           "(1.0 - y) * _PLOT_H",
           "(y - 1.0) * _PLOT_H",
           ("tests/test_svgchart.py::test_polyline_points_equal_per_point_formatting",)),
    Mutant("the chart's validation rule sits half a step late", SVGCHART,
           "pixels(np.float64(boundary_x), 1.0)",
           "pixels(np.float64(boundary_x + 0.5), 1.0)",
           ("tests/test_svgchart.py::TestPinnedChartBytes::"
            "test_observed_replay_with_validation_boundary",)),
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
