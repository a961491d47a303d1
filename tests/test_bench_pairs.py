"""Tests for the regression flag of scripts/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


class TestBeyondBound:
    @pytest.mark.parametrize("change, flagged", [
        ([1.3, 1.26, 1.2], True),     # median 1.26: 26% slower
        ([1.3, 1.25, 1.2], False),    # exactly the bound
        ([0.5, 0.4, 0.6], False),     # faster
    ])
    def test_lower_is_better(self, change, flagged):
        assert bench_pairs.beyond_bound("lower", 0.25, [0.9, 1.0, 1.1], change) is flagged

    @pytest.mark.parametrize("change, flagged", [
        ([70.0, 74.0, 80.0], True),   # median 74: 26% fewer per second
        ([70.0, 75.0, 80.0], False),  # exactly the bound
        ([200.0, 190.0, 210.0], False),
    ])
    def test_higher_is_better(self, change, flagged):
        assert bench_pairs.beyond_bound("higher", 0.25, [90.0, 100.0, 110.0], change) is flagged

    def test_medians_not_single_pairs_decide(self):
        """One slow pair does not flag a metric whose median held."""
        parent = [1.0, 1.0, 1.0, 1.0, 1.0]
        change = [3.0, 1.0, 1.0, 1.0, 1.0]
        assert not bench_pairs.beyond_bound("lower", 0.1, parent, change)

    def test_metric_summary_carries_the_flag_and_bound(self):
        summary = bench_pairs.metric_summary("lower", 0.1, [1.0, 1.0], [1.2, 1.2])
        assert summary["beyond_bound"] is True
        assert summary["bound"] == 0.1
        assert summary["change_wins"] == 0


class TestSpeedProbe:
    @pytest.mark.parametrize("ratios, flagged", [
        ({"python_s": 1.0, "numpy_s": 1.0}, False),
        ({"python_s": 0.8, "numpy_s": 1.25}, False),   # both ends of the range hold
        ({"python_s": 1.3, "numpy_s": 1.0}, True),     # the change ran on a slower machine
        ({"python_s": 1.0, "numpy_s": 0.7}, True),     # or on a faster one
    ])
    def test_a_pair_outside_the_range_is_flagged(self, ratios, flagged):
        assert bench_pairs.probe_flagged(ratios) is flagged

    def test_summary_names_the_flagged_pairs_and_keeps_every_probe(self):
        def runs(*speeds):
            return [{"probe": {"python_s": s, "numpy_s": 0.01}} for s in speeds]
        summary = bench_pairs.probe_summary(5, runs(0.1, 0.1, 0.1), runs(0.1, 0.2, 0.09))
        assert summary["flagged_seeds"] == [6]
        assert summary["ratios"][1] == {"python_s": 2.0, "numpy_s": 1.0}
        assert len(summary["parent"]) == len(summary["change"]) == 3

    def test_probe_times_both_kernels(self):
        timings = bench_pairs.probe()
        assert set(timings) == {"python_s", "numpy_s"}
        assert all(t > 0.0 for t in timings.values())
