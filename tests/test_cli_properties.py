"""The CLI as a property: over small generated datasets, `cli.main` (run
in-process) exits 0, 2, 3 or 4 without a traceback, exits 3 naming the
cause on a table that no loader may read, exits 2 naming the odd input
count when a fit's full constraints cannot apply, writes trajectories on
the simplex, and writes the same fit report for one and two workers (with a
candidate dump too, and for `fit --auto-r` and a constant-market
scenario)."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np

from hypothesis import event, given, settings
from hypothesis import strategies as st

from marketdyn import cli
from marketdyn.influence import (
    ConstraintSpec,
    InfluenceMatrix,
    alternating_ownership,
    build_constraints,
    save_alpha,
)

EXIT_CODES = {0, 2, 3, 4}

# A number: a value in [-1, 1] times a power of ten from 1e-300 to 1e300.
magnitude = st.builds(lambda v, e: v * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300))
non_finite = st.sampled_from(["nan", "inf", "-inf"])


@st.composite
def market_csv(draw):
    """CSV text of a duopoly with n_y in {2, 3, 4} and 5 to 12 rows; its n_y;
    the text of its input columns alone; whether a row is unreadable; and
    the causes, one per drawn fault, of which a load must name one.

    Each input column has one power of ten or is constant. Some tables have
    two labels swapped or one label repeated, a share sum off by 1e-9 (a
    negative share where the first is near 1), or one non-finite cell.
    Some have an unreadable row: shares whose math.fsum overflows, or a
    field over the csv module's 131,072-character limit."""
    n_y = draw(st.sampled_from([2, 3, 4]))
    rows = draw(st.integers(5, 12))
    table = []
    for k in range(rows):
        share1 = draw(st.floats(0.0, 1.0))
        off = draw(st.sampled_from([0.0, 0.0, 1e-9, -1e-9]))  # the share sum's error
        table.append([f"t{k:02d}", repr(share1), repr(1.0 - share1 + off)])
    for _ in range(n_y):
        scale = 10.0 ** draw(st.integers(-300, 300))
        if draw(st.booleans()):
            column = [draw(magnitude)] * rows
        else:
            column = [draw(st.floats(-1.0, 1.0)) * scale for _ in range(rows)]
        for row, value in zip(table, column):
            row.append(repr(value))
    causes = []
    if any(float(row[2]) < 0.0 for row in table):
        causes.append("negative share")
    labels = draw(st.sampled_from([None] * 6 + ["swapped", "repeated"]))
    if labels:
        a, b = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
        if labels == "repeated":
            table[b][0] = table[a][0]
        else:
            table[a][0], table[b][0] = table[b][0], table[a][0]
        causes.append("labels must be strictly increasing")
    if draw(st.integers(0, 4)) == 0:
        table[draw(st.integers(0, rows - 1))][draw(st.integers(1, 2 + n_y))] = draw(non_finite)
        causes.append("values must be finite")
    unreadable = draw(st.sampled_from([None] * 4 + ["fsum", "long field"]))
    if unreadable == "fsum":
        table[draw(st.integers(0, rows - 1))][1:3] = ["1e308", "1e308"]
        causes.append("share sum inf outside")
    elif unreadable == "long field":
        table[draw(st.integers(0, rows - 1))][draw(st.integers(0, 2 + n_y))] = "1" * 140_000
        causes.append("field larger than field limit")
    names = ",".join(f"y_{m + 1}" for m in range(n_y))
    data = [f"label,share_1,share_2,{names}"] + [",".join(row) for row in table]
    inputs = [f"label,{names}"] + [",".join([row[0], *row[3:]]) for row in table]
    event(f"unreadable row: {unreadable}")
    event(f"labels: {labels}")
    event(f"n_y: {n_y}")
    return ("\n".join(data) + "\n", n_y, "\n".join(inputs) + "\n", unreadable is not None,
            tuple(causes))


def checked(*argv, causes=()):
    """Run ``cli.main`` in-process; check its exit code and stderr, and
    return the code. A failure must name one of ``causes``, if any."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    err = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, err
    if code:
        assert err.strip(), argv  # a failure says why
        assert not causes or any(cause in err for cause in causes), (argv, causes, err)
    return code


def assert_on_simplex(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("t,share_1,share_2,")
    for line in lines[1:]:
        shares = [float(v) for v in line.split(",")[1:3]]
        assert all(0.0 <= s <= 1.0 for s in shares), line
        assert abs(sum(shares) - 1.0) <= 1e-12, line


@settings(max_examples=50, deadline=None)
@given(table=market_csv(), normalize=st.booleans(),
       values=st.lists(st.integers(-2, 2), min_size=12, max_size=12),
       y=st.lists(st.one_of(magnitude.map(repr), non_finite), min_size=4, max_size=4))
def test_every_command_exits_cleanly(table, normalize, values, y):
    text, n_y, input_text, unreadable, faults = table
    # Fits take full constraints (the default), which need an even input
    # count; with --normalize-inputs an overflowing scaled input fails first.
    fit_causes = faults or (("need an even input count, got 3",
                             "overflows under the") if n_y == 3 else ())
    scaling = "--normalize-inputs" if normalize else "--no-normalize-inputs"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "market.csv"
        data.write_text(text, encoding="utf-8")
        inputs = tmp / "inputs.csv"
        inputs.write_text(input_text, encoding="utf-8")
        alpha = tmp / "alpha.json"
        if n_y == 3:
            save_alpha(InfluenceMatrix(n=2, n_y=3, coeffs=np.reshape(values, (4, 3))),
                       alternating_ownership(3), alpha)
        else:
            spec = ConstraintSpec.standard_duopoly(n_y)
            mask, pairs = build_constraints(spec, 2, n_y)
            save_alpha(InfluenceMatrix.from_free_values(2, n_y, mask, pairs,
                                                        values[:3 * n_y // 2]),
                       spec.ownership, alpha)

        reports = []
        dump = tmp / "candidates.csv"
        for workers, dumped in ((1, ()), (2, ()), (1, ("--dump-candidates", dump))):
            report = tmp / f"report{workers}{len(dumped)}.json"
            code = checked("fit", "--data", data, "--r", 1, "--workers", workers, scaling,
                           *dumped, "--out", report, causes=fit_causes)
            assert code == 3 or not unreadable
            assert code == 3 or not faults
            assert code or n_y != 3
            if code == 0:
                reports.append(report.read_bytes())
        assert len(reports) in (0, 3)
        if reports:
            assert reports[0] == reports[1] == reports[2]
            rows = dump.read_text(encoding="utf-8").splitlines()
            assert len(rows) == 1 + 3 ** (3 * n_y // 2)

        for command in (("scenario", "--kind", "constant-market", "--r", 1,
                         "--out", tmp / "market_trajectory.csv", "--alpha-out"),
                        ("fit", "--auto-r", "--r", 0, "--max-r", 1, "--out")):
            reports = []
            for workers in (1, 2):
                report = tmp / f"{command[0]}{workers}.json"
                code = checked(*command, report, "--data", data, "--workers", workers, scaling,
                               causes=fit_causes)
                assert code == 3 or not unreadable
                assert code == 3 or not faults
                assert code or n_y != 3
                if code == 0:
                    reports.append(report.read_bytes())
            assert len(reports) in (0, 2)
            assert reports[:1] == reports[1:]

        for command in (("simulate",), ("scenario", "--kind", "constant-inputs"),
                        ("scenario", "--kind", "custom-inputs", "--inputs", inputs)):
            out = tmp / "trajectory.csv"
            out.unlink(missing_ok=True)
            code = checked(*command, "--data", data, "--alpha", alpha, scaling, "--out", out,
                           causes=faults)
            assert code == 3 or not unreadable
            assert code == 3 or not faults
            if code == 0:
                assert_on_simplex(out)

        checked("equilibria", "--alpha", alpha, "--y=" + ",".join(y[:n_y]))
