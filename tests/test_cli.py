"""End-to-end command-line tests driven through subprocesses."""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_dataset, ramp_inputs
from marketdyn.dataset import MarketDataset, save_csv
from marketdyn.dynamics import SharesState
from marketdyn.influence import InputVector
from marketdyn.simulate import custom_scenario, run

PLANTED = (1, 0, -1, 1, 0, 1)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "marketdyn.cli", *[str(a) for a in args]],
        capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    """CSV of a 10-step trajectory of PLANTED over ramp inputs.

    Every ramp column hits both its window extremes inside the training
    window, so the CLI's default input scaling is the identity map and the
    planted tuple stays recoverable.
    """
    from conftest import duopoly_alpha

    inputs = ramp_inputs(10)
    wrapped = tuple(InputVector(values=row, ownership=(0, 1, 0, 1)) for row in inputs)
    traj = run(custom_scenario(wrapped, SharesState(np.array([0.35, 0.65]))),
               duopoly_alpha(PLANTED))
    dataset = MarketDataset(
        labels=tuple(f"t{k:03d}" for k in range(10)),
        shares=traj.states,
        inputs=inputs,
        ownership=(0, 1, 0, 1),
    )
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    save_csv(dataset, path)
    return path


@pytest.fixture(scope="module")
def fit_report(planted_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "report.json"
    proc = run_cli("fit", "--data", planted_csv, "--r", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


class TestFitCommand:
    def test_recovers_planted_tuple(self, planted_csv, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("fit", "--data", planted_csv, "--r", 1, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "best free values: [1, 0, -1, 1, 0, 1]" in proc.stdout
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["best_values"] == list(PLANTED)
        assert doc["train_error"] < 1e-12
        assert doc["tie_class_size"] == 1
        assert doc["candidates_evaluated"] == 729

    def test_dump_candidates(self, planted_csv, tmp_path):
        out = tmp_path / "report.json"
        dump = tmp_path / "errors.csv"
        proc = run_cli("fit", "--data", planted_csv, "--r", 1, "--out", out,
                       "--dump-candidates", dump)
        assert proc.returncode == 0, proc.stderr
        lines = dump.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 730
        assert lines[0].startswith("candidate_index,param_1")

    def test_auto_radius_escalation(self, planted_csv, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("fit", "--data", planted_csv, "--r", 0, "--auto-r",
                       "--max-r", 2, "--out", out)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["radius"] == 1
        assert doc["best_values"] == list(PLANTED)

    def test_missing_data_file_is_io_error(self, tmp_path):
        proc = run_cli("fit", "--data", tmp_path / "absent.csv",
                       "--out", tmp_path / "r.json")
        assert proc.returncode == 4
        assert "i/o error" in proc.stderr

    def test_bad_holdout_is_config_error(self, planted_csv, tmp_path):
        proc = run_cli("fit", "--data", planted_csv, "--holdout", 1.5,
                       "--out", tmp_path / "r.json")
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_non_finite_dt_is_config_error(self, planted_csv, tmp_path):
        proc = run_cli("fit", "--data", planted_csv, "--dt", "inf",
                       "--out", tmp_path / "r.json")
        assert proc.returncode == 2
        assert "dt must be positive and finite" in proc.stderr

    def test_auto_r_with_dump_is_config_error(self, planted_csv, tmp_path):
        dump = tmp_path / "errors.csv"
        proc = run_cli("fit", "--data", planted_csv, "--r", 0, "--auto-r", "--max-r", 1,
                       "--dump-candidates", dump, "--out", tmp_path / "r.json")
        assert proc.returncode == 2
        assert "--dump-candidates cannot be combined with --auto-r" in proc.stderr
        assert not dump.exists()

    def test_overflowing_inputs_are_data_error(self, planted_csv, tmp_path):
        """Inputs near the float maximum overflow the payoff sums; the fit
        must name a candidate instead of reporting a wrong winner."""
        from marketdyn.dataset import load_csv

        planted = load_csv(planted_csv)
        huge = tmp_path / "huge.csv"
        save_csv(MarketDataset(labels=planted.labels, shares=planted.shares,
                               inputs=planted.inputs * 1e308,
                               ownership=planted.ownership), huge)
        proc = run_cli("fit", "--data", huge, "--r", 1, "--no-normalize-inputs",
                       "--out", tmp_path / "r.json")
        assert proc.returncode == 3
        assert "non-finite error" in proc.stderr
        assert "rescale" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_validation_window_is_data_error(self, tmp_path):
        inputs = ramp_inputs(8)
        inputs[6:] *= 1e308  # read only after the 6-sample training window
        data = tmp_path / "late.csv"
        save_csv(make_dataset([0.3, 0.42, 0.37, 0.55, 0.61, 0.5, 0.66, 0.7], inputs), data)
        proc = run_cli("fit", "--data", data, "--r", 1, "--no-normalize-inputs",
                       "--out", tmp_path / "r.json")
        assert proc.returncode == 3
        assert "non-finite error" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_error_target_is_config_error(self, planted_csv, tmp_path):
        proc = run_cli("fit", "--data", planted_csv, "--auto-r", "--error-target", "inf",
                       "--out", tmp_path / "r.json")
        assert proc.returncode == 2
        assert "error target must be positive and finite" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_malformed_shares_are_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "label,share_1,share_2,y_1\n"
            "a,2.0,2.0,1.0\n"
            "b,0.5,0.5,1.5\n",
            encoding="utf-8",
        )
        proc = run_cli("fit", "--data", bad, "--out", tmp_path / "r.json")
        assert proc.returncode == 3
        assert "data error" in proc.stderr


class TestSimulateCommand:
    def test_non_finite_dt_is_config_error(self, planted_csv, fit_report, tmp_path):
        proc = run_cli("simulate", "--data", planted_csv, "--alpha", fit_report,
                       "--dt", "inf", "--out", tmp_path / "traj.csv")
        assert proc.returncode == 2
        assert "dt must be positive and finite" in proc.stderr

    def test_writes_trajectory_and_chart(self, planted_csv, fit_report, tmp_path):
        out = tmp_path / "traj.csv"
        svg = tmp_path / "traj.svg"
        proc = run_cli("simulate", "--data", planted_csv, "--alpha", fit_report,
                       "--out", out, "--svg", svg)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,share_1,share_2,A_11,A_12,A_21,A_22,rate_1,rate_2"
        assert len(lines) == 11
        assert "final shares:" in proc.stdout
        markup = svg.read_text(encoding="utf-8")
        assert markup.startswith("<?xml")
        assert "<!-- marketdyn chart format 1 -->" in markup
        assert markup.count("<polyline") == 2
        # chronological split boundary is drawn for observed replays
        assert "validation" in markup

    def test_reproduces_observed_series(self, planted_csv, fit_report, tmp_path):
        out = tmp_path / "traj.csv"
        proc = run_cli("simulate", "--data", planted_csv, "--alpha", fit_report,
                       "--out", out)
        assert proc.returncode == 0
        rows = [line.split(",") for line in
                out.read_text(encoding="utf-8").strip().split("\n")[1:]]
        predicted = np.array([float(r[1]) for r in rows])
        from marketdyn.dataset import load_csv

        observed = load_csv(planted_csv).share_series(0)
        assert np.allclose(predicted, observed, atol=1e-9)


class TestScenarioCommand:
    def test_constant_inputs(self, planted_csv, fit_report, tmp_path):
        out = tmp_path / "const.csv"
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "constant-inputs",
                       "--alpha", fit_report, "--out", out)
        assert proc.returncode == 0, proc.stderr
        rows = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        payoff_cols = {row.split(",")[3] for row in rows}
        # frozen inputs keep the payoff matrix constant over the whole run
        assert len(payoff_cols) == 1

    def test_constant_inputs_requires_alpha(self, planted_csv, tmp_path):
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "constant-inputs",
                       "--out", tmp_path / "t.csv")
        assert proc.returncode == 2

    def test_constant_market_fits_and_reports(self, planted_csv, tmp_path):
        out = tmp_path / "frozen.csv"
        alpha_out = tmp_path / "frozen.json"
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "constant-market",
                       "--r", 1, "--out", out, "--alpha-out", alpha_out)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(alpha_out.read_text(encoding="utf-8"))
        assert doc["best_values"] == [-1, -1, 0, -1, 0, -1]
        assert doc["train_error"] == 0.0
        assert doc["tie_class_size"] == 9

    def test_constant_market_requires_alpha_out(self, planted_csv, tmp_path):
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "constant-market",
                       "--out", tmp_path / "t.csv")
        assert proc.returncode == 2

    def test_custom_inputs(self, planted_csv, fit_report, tmp_path):
        table = tmp_path / "future.csv"
        rows = ["label,y_1,y_2,y_3,y_4"]
        rows += [f"f{k},0.{2 + k},0.5,0.5,0.5" for k in range(5)]
        table.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "custom.csv"
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "custom-inputs",
                       "--alpha", fit_report, "--inputs", table,
                       "--no-normalize-inputs", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text(encoding="utf-8").strip().split("\n")) == 6

    def test_custom_inputs_requires_table(self, planted_csv, fit_report, tmp_path):
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "custom-inputs",
                       "--alpha", fit_report, "--out", tmp_path / "t.csv")
        assert proc.returncode == 2

    def test_custom_inputs_width_mismatch_is_data_error(self, planted_csv, fit_report, tmp_path):
        table = tmp_path / "narrow.csv"
        table.write_text("label,y_1,y_2\nf0,0.5,0.5\nf1,0.6,0.5\n", encoding="utf-8")
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "custom-inputs",
                       "--alpha", fit_report, "--inputs", table,
                       "--out", tmp_path / "t.csv")
        assert proc.returncode == 3


class TestEquilibriaCommand:
    def test_prints_structure(self, fit_report):
        proc = run_cli("equilibria", "--alpha", fit_report, "--y", "0.5,0.2,0.3,0.7")
        assert proc.returncode == 0, proc.stderr
        assert "normalized payoff matrix:" in proc.stdout
        assert "vertex equilibrium: (1, 0)" in proc.stdout
        assert "vertex equilibrium: (0, 1)" in proc.stdout

    def test_wrong_input_count_is_config_error(self, fit_report):
        proc = run_cli("equilibria", "--alpha", fit_report, "--y", "0.5,0.2")
        assert proc.returncode == 2

    def test_unparseable_inputs_are_config_error(self, fit_report):
        proc = run_cli("equilibria", "--alpha", fit_report, "--y", "a,b,c,d")
        assert proc.returncode == 2


def test_missing_subcommand_fails():
    proc = run_cli()
    assert proc.returncode == 2
