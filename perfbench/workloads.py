"""Workload inputs, the CLI commands each workload runs, and output checks.

Every workload runs the same closed loop of CLI commands: fit with one
worker, fit with two, fit with two and --dump-candidates, and simulate.
The workloads differ in their inputs, which decide the layer that dominates:

- planted-r4: the bundled example, whose coefficients are planted, at
  radius 4 (531,441 candidates); the learn kernel is almost all the time and
  the exact winner is known.
- noisy-audit-r3: the bundled inputs with a seeded noisy target at radius 3
  (117,649 candidates); the dump writer is about half of the dumped fit and a
  noisy target gives a pruning search little to cut.
- long-simulate: a seeded 10,000-quarter market simulated under the planted
  coefficients; CSV parsing, the scalar step path and both writers dominate,
  and the fits run on its first 1,000 quarters at radius 1.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PLANTED = (1, -4, 4, 3, 2, -3)
NOISE_SIGMA = 0.02
LONG_QUARTERS = 10_000
LONG_FIT_QUARTERS = 1_000
SIMPLEX_TOL = 1e-9

FIT_KINDS = ("fit_w1", "fit_w2", "fit_dump_w2")
FIT_WORKERS = {"fit_w1": 1, "fit_w2": 2, "fit_dump_w2": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    radius: int
    sim_repeats: int  # simulate commands per loop iteration
    planted_fit: bool  # the fit target is the planted market


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-r4", radius=4, sim_repeats=21, planted_fit=True),
        Workload("noisy-audit-r3", radius=3, sim_repeats=21, planted_fit=False),
        Workload("long-simulate", radius=1, sim_repeats=1, planted_fit=False),
    )
}


def bundled_csv(root: Path) -> Path:
    return root / "src" / "marketdyn" / "data" / "example_market.csv"


def _write_market(path: Path, notes, labels, share_1, inputs) -> None:
    lines = [f"# {note}" for note in notes]
    lines.append("label,share_1,share_2," + ",".join(f"y_{m + 1}" for m in range(len(inputs[0]))))
    for label, s, ys in zip(labels, share_1, inputs):
        lines.append(",".join([label, repr(float(s)), repr(float(1.0 - s))] + list(ys)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _noisy_market(root: Path, seed: int, path: Path) -> None:
    """Bundled inputs and labels verbatim; share_1 is the bundled series plus
    N(0, sigma) noise clipped to [0.01, 0.99], share_2 = 1 - share_1."""
    rows = [
        line.split(",")
        for line in bundled_csv(root).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ][1:]
    rng = np.random.default_rng(seed)
    base = np.array([float(r[1]) / (float(r[1]) + float(r[2])) for r in rows])
    share_1 = np.clip(base + rng.normal(0.0, NOISE_SIGMA, base.size), 0.01, 0.99)
    _write_market(
        path, [f"bundled inputs, share_1 plus N(0, {NOISE_SIGMA}) noise, seed {seed}"],
        [r[0] for r in rows], share_1, [r[3:] for r in rows],
    )


def _long_market(seed: int, path: Path, fit_path: Path) -> None:
    """Random-walk inputs and a random-walk share_1 kept in [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    inputs = np.cumsum(rng.normal(0.0, 1.0, (LONG_QUARTERS, 4)), axis=0)
    steps = rng.normal(0.0, 0.01, LONG_QUARTERS)
    share_1 = np.empty(LONG_QUARTERS)
    share_1[0] = rng.uniform(0.2, 0.8)
    for t in range(1, LONG_QUARTERS):
        share_1[t] = min(0.95, max(0.05, share_1[t - 1] + steps[t]))
    labels = [f"q{t:05d}" for t in range(LONG_QUARTERS)]
    cells = [[repr(float(v)) for v in row] for row in inputs]
    note = f"random-walk market, seed {seed}"
    _write_market(path, [note], labels, share_1, cells)
    n = LONG_FIT_QUARTERS
    _write_market(fit_path, [note, f"first {n} quarters"], labels[:n], share_1[:n], cells[:n])


def generate(workload: Workload, root: Path, seed: int, work: Path) -> dict[str, Path]:
    """Write the workload's input files into ``work``; returns them by role."""
    if workload.name == "planted-r4":
        market = work / "planted.csv"
        market.write_bytes(bundled_csv(root).read_bytes())
        return {"fit_data": market, "sim_data": market}
    if workload.name == "noisy-audit-r3":
        market = work / "noisy.csv"
        _noisy_market(root, seed, market)
        return {"fit_data": market, "sim_data": market}
    from marketdyn.influence import ConstraintSpec, InfluenceMatrix, build_constraints, save_alpha

    market, fit_market = work / "long.csv", work / "long_fit.csv"
    _long_market(seed, market, fit_market)
    mask, pairs = build_constraints(ConstraintSpec.standard_duopoly(4), 2, 4)
    alpha_path = work / "planted_alpha.json"
    save_alpha(InfluenceMatrix.from_free_values(2, 4, mask, pairs, PLANTED), (0, 1, 0, 1), alpha_path)
    return {"fit_data": fit_market, "sim_data": market, "alpha": alpha_path}


def commands(workload: Workload, inputs: dict[str, Path], work: Path) -> dict[str, dict]:
    """CLI argv and output files for each command kind."""
    out = {}
    for kind in FIT_KINDS:
        report = work / f"{kind}.json"
        argv = ["fit", "--data", str(inputs["fit_data"]), "--r", str(workload.radius),
                "--constraints", "full", "--workers", str(FIT_WORKERS[kind]), "--out", str(report)]
        outputs = {"report": report}
        if kind == "fit_dump_w2":
            outputs["dump"] = work / "candidates.csv"
            argv += ["--dump-candidates", str(outputs["dump"])]
        out[kind] = {"argv": argv, "outputs": outputs}
    # Fit workloads simulate under their own fitted report; long-simulate
    # under the fixed planted coefficients.
    alpha = inputs.get("alpha", out["fit_w1"]["outputs"]["report"])
    trajectory, chart = work / "trajectory.csv", work / "chart.svg"
    out["simulate"] = {
        "argv": ["simulate", "--data", str(inputs["sim_data"]), "--alpha", str(alpha),
                 "--out", str(trajectory), "--svg", str(chart)],
        "outputs": {"trajectory": trajectory, "svg": chart},
    }
    return out


def count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip() and not line.startswith(("#", "label")))


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages
# ---------------------------------------------------------------------------


def candidate_count(workload: Workload) -> int:
    """Grid size under full constraints: six free coefficients."""
    return (2 * workload.radius + 1) ** len(PLANTED)


def check_report(workload: Workload, report: dict) -> list[str]:
    failures = []
    if report["candidates_evaluated"] != candidate_count(workload):
        failures.append(f"candidates_evaluated {report['candidates_evaluated']}")
    if workload.planted_fit:
        if tuple(report["best_values"]) != PLANTED:
            failures.append(f"winner {report['best_values']} is not {list(PLANTED)}")
        if not report["train_error"] < 1e-10:
            failures.append(f"train error {report['train_error']!r} is not < 1e-10")
        if report["tie_class_size"] != 1:
            failures.append(f"tie class size {report['tie_class_size']} is not 1")
    return failures


def check_dump(path: Path, report: dict) -> list[str]:
    """The dump has one header plus one line per candidate; its smallest
    error equals the report's train error, reached tie_class_size times."""
    best = float("inf")
    ties = 0
    with open(path, encoding="utf-8") as f:
        header = f.readline()
        if not header.startswith("candidate_index,"):
            return [f"dump header {header[:40]!r}"]
        lines = 1
        for line in f:
            lines += 1
            err = float(line[line.rindex(",") + 1:])
            if err < best:
                best, ties = err, 1
            elif err == best:
                ties += 1
    failures = []
    if lines != report["candidates_evaluated"] + 1:
        failures.append(f"dump has {lines} lines, expected {report['candidates_evaluated'] + 1}")
    if best != report["train_error"]:
        failures.append(f"dump minimum {best!r} != report train error {report['train_error']!r}")
    if ties != report["tie_class_size"]:
        failures.append(f"dump minimum reached {ties} times, report says {report['tie_class_size']}")
    return failures


def check_trajectory(path: Path, expected_rows: int) -> list[str]:
    failures = []
    rows = 0
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        share_cols = [i for i, name in enumerate(header) if name.startswith("share_")]
        for row in reader:
            rows += 1
            shares = [float(row[i]) for i in share_cols]
            if abs(sum(shares) - 1.0) > SIMPLEX_TOL or min(shares) < 0.0 or max(shares) > 1.0:
                failures.append(f"trajectory row {rows} off the simplex: {shares}")
                break
    if rows != expected_rows:
        failures.append(f"trajectory has {rows} data rows, expected {expected_rows}")
    return failures


def check_svg(path: Path) -> list[str]:
    try:
        root = ET.fromstring(path.read_bytes())
    except ET.ParseError as exc:
        return [f"chart is not well-formed XML: {exc}"]
    nested = [el for el in root.iter() if el is not root and el.tag.rsplit("}", 1)[-1] == "svg"]
    if root.tag.rsplit("}", 1)[-1] != "svg" or nested:
        return ["chart is not a single <svg> document"]
    return []
