#!/usr/bin/env python3
"""Paired benchmark runs of two git revisions, summarized as BENCH_<n>.json.

Run from the repository root:

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_8.json \\
        --workload long-simulate:10 --workload planted-r4:5 \\
        --claim long-simulate:simulate_s --change-note "what the change does"

Each revision (any tree-ish: a commit, a tag, or the tree id that
`git write-tree` prints) is extracted with `git archive` into a fresh
temporary directory (under /tmp unless TMPDIR says otherwise), and
`perfbench/run.py --trace 0` runs there, with the run length that
BENCHMARK.json sets. Pair k of a workload uses seed first_seed + k, and its
two runs follow each other; the parent runs first in even pairs and the
change in odd ones. Every metric that BENCHMARK.json lists as end to end is
summarized per side (median, quartiles from statistics.quantiles(n=4), the
values in pair order), with the pairs the change won (ties count for
neither side) and the ratio of the medians. The summary also says whether
every run passed its output checks and whether both sides wrote the same
sha256 for every input and output file of each seed. Each run's result and
record are kept under .bench_build/bench_pairs/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--out", required=True, type=Path, help="summary JSON to write")
    parser.add_argument("--workload", action="append", metavar="NAME[:PAIRS]",
                        help="workload to run, with its pair count (default: all, 10 pairs)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the metric the change claims to improve")
    parser.add_argument("--change-note", default="", help="one line on what the change does")
    args = parser.parse_args(argv)
    pairs = {}
    for item in args.workload or names:
        name, _, count = item.partition(":")
        if name not in names:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json has {names}")
        pairs[name] = int(count or 10)
        if pairs[name] < 1:
            parser.error(f"{name}: pair count must be at least 1")
    args.pairs = pairs
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in pairs or metric not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim {args.claim!r} names no workload run and end-to-end metric")
        if pairs[workload] < 2:
            parser.error("a claim needs at least 2 pairs for its quartiles")
        args.claim = (workload, metric)
    args.spec = spec
    return args


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(revision: str, into: Path) -> Path:
    """Unpack ``revision`` with git archive into a new directory."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; returns its result object and record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith("record: "):
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2][len("record: "):])}


def rounded(value: float) -> float:
    return float(f"{value:.4g}")


def side_summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": rounded(statistics.median(values)), "q1": rounded(q1),
            "q3": rounded(q3), "values": [rounded(v) for v in values]}


def metric_summary(better: str, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    parent_median = statistics.median(parent)
    return {
        "better": better,
        "parent": side_summary(parent),
        "change": side_summary(change),
        "change_wins": wins,
        "median_ratio": rounded(statistics.median(change) / parent_median)
        if parent_median else None,
    }


def claim_result(better: str, unit: str, parent: list[float], change: list[float]) -> dict:
    """Gain rule: the change wins at least nine tenths of the pairs and the
    medians differ, the right way, by more than the parent's quartile
    distance."""
    summary = metric_summary(better, parent, change)
    pairs = len(parent)
    gap = statistics.median(parent) - statistics.median(change)
    if better != "lower":
        gap = -gap
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    suffix = {"1/s": "per_s"}.get(unit, unit.lower())
    return {
        "change_wins": summary["change_wins"],
        "pairs": pairs,
        f"median_gap_{suffix}": rounded(gap),
        f"parent_quartile_distance_{suffix}": rounded(spread),
        "holds": summary["change_wins"] >= math.ceil(0.9 * pairs) and gap > spread,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds = args.spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in args.spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in args.spec["end_to_end"]}
    revisions = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    raw_dir = ROOT / ".bench_build" / "bench_pairs"
    raw_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: extract(rev, scratch / side) for side, rev in revisions.items()}
        runs = {}  # (workload, side) -> list of runs in pair order
        for workload, count in args.pairs.items():
            for k in range(count):
                seed = args.first_seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], workload, seed, seconds)
                    runs.setdefault((workload, side), []).append(run)
                    (raw_dir / f"{side}-{workload}-seed{seed}.json").write_text(
                        json.dumps(run, indent=1) + "\n", encoding="utf-8")
                    shown = args.claim[1] if args.claim else "simulate_s"
                    print(f"{workload} seed {seed} {side}: correct={run['result']['correct']} "
                          f"{shown}={run['result']['metrics'][shown]['value']:.4g}",
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = runs[next(iter(runs))][0]["record"]["environment"]
    summary = {
        "change": args.change_note,
        "parent_commit": revisions["parent"],
        "change_revision": revisions["change"],
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
            "run in git-archive copies of the parent and of the change by "
            "scripts/bench_pairs.py; one pair per seed, the side that runs first alternating "
            "between pairs; each value is one run's end-to-end metric; quartiles from "
            "statistics.quantiles(n=4)"
        ),
        "environment": {"nproc": first["nproc"], "python": first["python"],
                        "numpy": first["numpy"], "fit_workers": first["fit_workers"]},
    }
    if args.claim:
        workload, metric = args.claim
        better = dict(metrics)[metric]
        summary["claim"] = {
            "workload": workload,
            "metric": metric,
            "rule": "change wins at least 9 of 10 pairs and the medians differ by more than "
                    "the parent's quartile distance",
            "result": claim_result(
                better, units[metric],
                [r["result"]["metrics"][metric]["value"] for r in runs[workload, "parent"]],
                [r["result"]["metrics"][metric]["value"] for r in runs[workload, "change"]],
            ),
        }
    summary["workloads"] = {}
    for workload, count in args.pairs.items():
        parent, change = runs[workload, "parent"], runs[workload, "change"]
        summary["workloads"][workload] = {
            "seeds": [args.first_seed + k for k in range(count)],
            "pairs": count,
            "all_runs_correct": all(r["result"]["correct"] for r in parent + change),
            "failed_operations": {"parent": sum(r["result"]["failed"] for r in parent),
                                  "change": sum(r["result"]["failed"] for r in change)},
            "output_sha256_identical_per_seed": all(
                p["record"]["sha256"] == c["record"]["sha256"] for p, c in zip(parent, change)),
            "metrics": {
                name: metric_summary(better,
                                     [r["result"]["metrics"][name]["value"] for r in parent],
                                     [r["result"]["metrics"][name]["value"] for r in change])
                for name, better in metrics
            },
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"summary written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
