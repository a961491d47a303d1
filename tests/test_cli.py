"""End-to-end command-line tests, driven through subprocesses; the tests
that patch the search kernel or the step helpers run `cli.main` in-process
instead."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import EXAMPLE_GENERATOR, duopoly_alpha, make_dataset, ramp_inputs
from marketdyn.dataset import MarketDataset, example_dataset_path, save_csv
from marketdyn.dynamics import SharesState
from marketdyn.influence import InputVector, save_alpha
from marketdyn.simulate import custom_scenario, run

PLANTED = (1, 0, -1, 1, 0, 1)
WIGGLY = (0.3, 0.42, 0.37, 0.55, 0.61, 0.5, 0.66, 0.7)


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

    def test_dump_bytes_match_across_worker_counts_for_odd_free_count(self, tmp_path):
        """Cross-pair constraints on two inputs leave 5 free values; at
        radius 4 the 59,049 candidates span four chunks, so two workers fork."""
        data = tmp_path / "two_inputs.csv"
        save_csv(make_dataset(WIGGLY * 2, ramp_inputs(16, n_y=2)), data)
        dumps = []
        for workers in (1, 2):
            dump = tmp_path / f"errors_w{workers}.csv"
            proc = run_cli("fit", "--data", data, "--r", 4, "--constraints", "cross",
                           "--workers", workers, "--dump-candidates", dump,
                           "--out", tmp_path / f"r{workers}.json")
            assert proc.returncode == 0, proc.stderr
            dumps.append(dump.read_bytes())
        lines = dumps[0].decode("utf-8").splitlines()
        assert len(lines) == 1 + 9**5
        assert lines[1].startswith("0,-4,-4,-4,-4,-4,")
        assert lines[-1].startswith("59048,4,4,4,4,4,")
        assert dumps[0] == dumps[1]
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_dead_search_worker_is_named_without_traceback(self, planted_csv, tmp_path,
                                                            monkeypatch, capsys):
        """Run in-process, so that the kernel is patched before the fork."""
        from marketdyn import cli, learn

        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "the search ran in the test process"
            os._exit(1)

        monkeypatch.setattr(learn, "_advance", die)
        monkeypatch.setattr(learn, "_CHUNK_SIZE", 100)
        rc = cli.main(["fit", "--data", str(planted_csv), "--r", "1", "--workers", "2",
                       "--dump-candidates", str(tmp_path / "errors.csv"),
                       "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc in (2, 3, 4)
        assert "a search worker process died" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

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

    def test_failed_dumped_fit_keeps_the_earlier_dump(self, tmp_path):
        inputs = ramp_inputs(8)
        inputs[:5] *= 0.7e308
        data = tmp_path / "huge.csv"
        save_csv(make_dataset(WIGGLY, inputs), data)
        dump = tmp_path / "errors.csv"
        dump.write_bytes(b"an earlier dump\n")
        proc = run_cli("fit", "--data", data, "--r", 1, "--no-normalize-inputs",
                       "--dump-candidates", dump, "--out", tmp_path / "r.json")
        assert proc.returncode == 3
        assert "non-finite error" in proc.stderr
        assert dump.read_bytes() == b"an earlier dump\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["errors.csv", "huge.csv"]

    def test_directory_report_path_fails_before_the_dump(self, planted_csv, tmp_path):
        dump = tmp_path / "errors.csv"
        dump.write_bytes(b"an earlier dump\n")
        (tmp_path / "report").mkdir()
        proc = run_cli("fit", "--data", planted_csv, "--r", 1, "--out", tmp_path / "report",
                       "--dump-candidates", dump)
        assert proc.returncode == 4
        assert f"i/o error: [Errno 21] Is a directory: '{tmp_path / 'report'}'" in proc.stderr
        assert dump.read_bytes() == b"an earlier dump\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["errors.csv", "report"]

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
    def test_non_finite_dataset_cell_is_data_error_with_line(self, planted_csv, fit_report,
                                                              tmp_path):
        lines = planted_csv.read_text(encoding="utf-8").splitlines()
        fields = lines[4].split(",")
        fields[-2] = "nan"
        lines[4] = ",".join(fields)
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_cli("simulate", "--data", bad, "--alpha", fit_report,
                       "--out", tmp_path / "traj.csv")
        assert proc.returncode == 3
        assert "data error: line 5: values must be finite, got 'nan'" in proc.stderr

    def test_overflowing_payoffs_are_data_error_naming_the_step(self, tmp_path):
        """The overflow that fit reports as exit 3 is exit 3 here too."""
        data = tmp_path / "huge.csv"
        save_csv(make_dataset([0.4 + 0.01 * k for k in range(10)],
                              ramp_inputs(10) * 1e308), data)
        alpha = tmp_path / "alpha.json"
        save_alpha(duopoly_alpha(PLANTED), (0, 1, 0, 1), alpha)
        out = tmp_path / "traj.csv"
        proc = run_cli("simulate", "--data", data, "--alpha", alpha, "--no-normalize-inputs",
                       "--out", out)
        assert proc.returncode == 3
        assert "data error: step 8: payoff entries must be finite" in proc.stderr
        assert not out.exists()

    def test_simulate_calls_the_step_helpers_that_the_traced_benchmark_counts(
            self, tmp_path, monkeypatch, capsys):
        """perfbench's traced run wraps synthesize_payoff and replicator_rates
        at simulate's attributes, as this test does, and reads their call
        counts; a simulate that called neither would fail it. This pins that
        count, and can go once perfbench reads its spans from a trace hook."""
        from marketdyn import cli, simulate

        calls = {"synthesize_payoff": 0, "replicator_rates": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(simulate, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(simulate, name, counted)
        alpha = tmp_path / "alpha.json"
        save_alpha(duopoly_alpha(EXAMPLE_GENERATOR), (0, 1, 0, 1), alpha)
        rc = cli.main(["simulate", "--data", str(example_dataset_path()), "--alpha", str(alpha),
                       "--out", str(tmp_path / "traj.csv")])
        assert rc == 0, capsys.readouterr().err
        assert calls["synthesize_payoff"] >= 1 and calls["replicator_rates"] >= 1

    def test_non_finite_dt_is_config_error(self, planted_csv, fit_report, tmp_path):
        proc = run_cli("simulate", "--data", planted_csv, "--alpha", fit_report,
                       "--dt", "inf", "--out", tmp_path / "traj.csv")
        assert proc.returncode == 2
        assert "dt must be positive and finite" in proc.stderr

    @pytest.mark.parametrize("chart", ["charts", "missing/traj.svg"])
    def test_bad_chart_path_fails_before_the_trajectory(self, planted_csv, fit_report,
                                                        tmp_path, chart):
        """A chart path that is a directory, or whose directory is missing,
        fails before the trajectory is written."""
        (tmp_path / "charts").mkdir()
        out = tmp_path / "traj.csv"
        proc = run_cli("simulate", "--data", planted_csv, "--alpha", fit_report,
                       "--out", out, "--svg", tmp_path / chart)
        assert proc.returncode == 4
        assert f"'{tmp_path / chart}'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

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


    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_custom_inputs_non_finite_cell_is_data_error_with_line(self, planted_csv,
                                                                    fit_report, tmp_path, cell):
        table = tmp_path / "future.csv"
        table.write_text(f"label,y_1,y_2,y_3,y_4\nf0,0.5,0.5,0.5,0.5\nf1,0.5,{cell},0.5,0.5\n",
                         encoding="utf-8")
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "custom-inputs",
                       "--alpha", fit_report, "--inputs", table,
                       "--out", tmp_path / "t.csv")
        assert proc.returncode == 3
        assert f"data error: line 3: values must be finite, got '{cell}'" in proc.stderr

    def test_custom_inputs_overflowing_the_scaling_is_data_error_with_row(self, fit_report,
                                                                         tmp_path):
        data = tmp_path / "tiny.csv"
        save_csv(make_dataset([0.4 + 0.01 * k for k in range(10)],
                              ramp_inputs(10) * 1e-300), data)
        table = tmp_path / "future.csv"
        table.write_text("label,y_1,y_2,y_3,y_4\nf0,0.5,0.5,0.5,0.5\nf1,1e10,0.5,0.5,0.5\n",
                         encoding="utf-8")
        proc = run_cli("scenario", "--data", data, "--kind", "custom-inputs",
                       "--alpha", fit_report, "--inputs", table, "--out", tmp_path / "t.csv")
        assert proc.returncode == 3
        assert "data error: data row 2: y_1 = 10000000000.0 overflows" in proc.stderr
        assert "Warning" not in proc.stderr


class TestUnreadableFiles:
    """Loader and coefficient-file failures exit with their code and a
    message that names the line or file, never with a traceback."""

    @staticmethod
    def edited(planted_csv, tmp_path, line, edit):
        lines = planted_csv.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = edit(lines[line - 1])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return bad

    def test_share_row_whose_sum_overflows_is_data_error_with_line(self, planted_csv,
                                                                    fit_report, tmp_path):
        bad = self.edited(planted_csv, tmp_path, 4,
                          lambda row: ",".join(["b", "1e308", "1e308", *row.split(",")[3:]]))
        proc = run_cli("simulate", "--data", bad, "--alpha", fit_report,
                       "--out", tmp_path / "traj.csv")
        assert proc.returncode == 3, proc.stderr
        assert "data error: line 4: share sum inf outside [0.9, 1.1]" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line", [1, 4])
    def test_field_over_the_csv_limit_is_data_error_with_line(self, planted_csv, fit_report,
                                                               tmp_path, line):
        bad = self.edited(planted_csv, tmp_path, line, lambda row: row + "7" * 140_000)
        proc = run_cli("simulate", "--data", bad, "--alpha", fit_report,
                       "--out", tmp_path / "traj.csv")
        assert proc.returncode == 3, proc.stderr
        assert f"data error: line {line}: field larger than field limit" in proc.stderr

    def test_input_field_over_the_csv_limit_is_data_error_with_line(self, planted_csv,
                                                                     fit_report, tmp_path):
        table = tmp_path / "future.csv"
        table.write_text("label,y_1,y_2,y_3,y_4\nf0,0.5,0.5,0.5,0.5\nf1,0.5,0.5,0.5,"
                         + "7" * 140_000 + "\n", encoding="utf-8")
        proc = run_cli("scenario", "--data", planted_csv, "--kind", "custom-inputs",
                       "--alpha", fit_report, "--inputs", table, "--out", tmp_path / "t.csv")
        assert proc.returncode == 3, proc.stderr
        assert "data error: line 3: field larger than field limit" in proc.stderr

    def test_data_file_that_is_not_utf8_is_data_error_naming_it(self, planted_csv, fit_report,
                                                                  tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(planted_csv.read_bytes().replace(b"t003", b"t\xe903"))
        proc = run_cli("simulate", "--data", bad, "--alpha", fit_report,
                       "--out", tmp_path / "traj.csv")
        assert proc.returncode == 3, proc.stderr
        assert f"data error: {bad}: not UTF-8 text" in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "equilibria"])
    def test_coefficient_file_that_is_not_utf8_is_config_error_naming_it(
            self, planted_csv, fit_report, tmp_path, command):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(fit_report.read_bytes().replace(b'"format"', b'"\xe9format"', 1))
        rest = {"simulate": ("--data", planted_csv, "--out", tmp_path / "traj.csv"),
                "equilibria": ("--y", "0.5,0.2,0.3,0.7")}[command]
        proc = run_cli(command, "--alpha", bad, *rest)
        assert proc.returncode == 2, proc.stderr
        assert f"configuration error: {bad}: not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deeply_nested_coefficient_file_is_config_error(self, planted_csv, tmp_path):
        alpha = tmp_path / "deep.json"
        alpha.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        proc = run_cli("simulate", "--data", planted_csv, "--alpha", alpha,
                       "--out", tmp_path / "traj.csv")
        assert proc.returncode == 2, proc.stderr
        assert "configuration error: coefficient file nests its JSON too deeply" in proc.stderr


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

    def test_value_list_starting_negative_follows_the_flag(self, fit_report):
        spaced = run_cli("equilibria", "--alpha", fit_report, "--y", "-0.5,0.2,0.3,0.1")
        joined = run_cli("equilibria", "--alpha", fit_report, "--y=-0.5,0.2,0.3,0.1")
        assert spaced.returncode == 0, spaced.stderr
        assert joined.returncode == 0, joined.stderr
        assert "normalized payoff matrix:" in spaced.stdout
        assert spaced.stdout == joined.stdout


def test_missing_subcommand_fails():
    proc = run_cli()
    assert proc.returncode == 2


def test_import_loads_no_worker_pool_module():
    """The pool modules cost every CLI start their import time; only a
    search that forks workers imports them."""
    pools = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, marketdyn.cli; print(' '.join(m for m in %r if m in sys.modules))" % (pools,)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
