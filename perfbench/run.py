#!/usr/bin/env python3
"""marketdyn benchmark: fit and simulate end to end, traced per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload planted-r4 --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client: each CLI command runs in-process
through marketdyn.cli.main(argv) after the previous one has finished, and a
command uses at most two worker threads. The seed decides the generated
inputs; the program sees only those files. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run. The last line of
standard output is one JSON object; a full record (environment, samples,
sha256 of every input and output) is printed on the line before it and
written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import workloads as wl
from spans import SpanRecorder, totals

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
MIN_ITERATIONS = {0: 3, 1: 1}
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary(samples) -> dict:
    """Mean, median, the highest listed percentile with at least ten
    samples beyond it (nearest rank), and the sample count."""
    samples = list(samples)
    ordered = sorted(samples)
    n = len(ordered)
    out = {"mean": statistics.fmean(ordered), "median": statistics.median(ordered),
           "percentile": None, "samples": n, "values": samples}
    for p in PERCENTILES:
        rank = max(1, -(-n * p // 100))  # nearest rank, ceil(n * p / 100)
        if n - rank >= 10:
            out["percentile"] = {"p": p, "value": ordered[int(rank) - 1]}
            break
    return out


def measure_setup() -> list[float]:
    """Wall time for a fresh interpreter to finish `import marketdyn.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import marketdyn.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        if i:  # the first import may write bytecode caches
            samples.append(time.perf_counter() - start)
    return samples


def environment() -> dict:
    def getconf(name):
        try:
            proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(proc.stdout.strip()) if proc.returncode == 0 else None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    import numpy

    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "fit_workers": {"fit_w1_s": 1, "fit_w2_s": 2, "candidates_per_s": 2, "fit_dump_w2_s": 2},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """Runs the workload's CLI commands, checks their outputs and keeps the
    samples. Every command run is one attempted operation; it fails on a
    non-zero exit or a failed output check."""

    def __init__(self, workload, cmds, expected_rows):
        from marketdyn import cli

        self.cli = cli
        self.workload = workload
        self.cmds = cmds
        self.expected_rows = expected_rows
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.hashes: dict[str, str] = {}  # output file name -> sha256
        self.sizes: dict[str, int] = {}  # output file name -> bytes
        self.wall = defaultdict(list)  # kind -> wall seconds, untraced runs
        self.reports: dict[str, bytes] = {}

    def execute(self, argv) -> tuple[int, float, str]:
        """Run one CLI command in-process; returns its exit code, wall time
        and captured output."""
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        return rc, elapsed, sink.getvalue()

    def run(self, kind) -> float:
        self.attempted += 1
        for path in self.cmds[kind]["outputs"].values():
            path.unlink(missing_ok=True)  # so a stale file cannot pass the checks
        rc, elapsed, output = self.execute(self.cmds[kind]["argv"])
        if rc != 0:
            problems = [f"exit code {rc}: {output[-400:]!r}"]
        else:
            try:
                problems = self.check(kind)
            except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output
                problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.failures += [f"{kind}: {p}" for p in problems]
        return elapsed

    def check(self, kind) -> list[str]:
        outputs = self.cmds[kind]["outputs"]
        problems = []
        if kind in wl.FIT_KINDS:
            raw = outputs["report"].read_bytes()
            report = json.loads(raw)
            problems += wl.check_report(self.workload, report)
            # Reports must not depend on worker count or on the dump.
            self.reports[kind] = raw
            if kind != "fit_w1" and raw != self.reports.get("fit_w1"):
                problems.append("report bytes differ from the 1-worker report")
            if "dump" in outputs:
                problems += wl.check_dump(outputs["dump"], report)
        else:
            problems += wl.check_trajectory(outputs["trajectory"], self.expected_rows)
            problems += wl.check_svg(outputs["svg"])
        for path in outputs.values():
            digest = sha256(path)
            if self.hashes.setdefault(path.name, digest) != digest:
                problems.append(f"{path.name} bytes changed between runs of the same command")
            self.sizes[path.name] = path.stat().st_size
        if "dump" in outputs:
            # Dropped once checked so that its write-back does not compete
            # with the next command.
            outputs["dump"].unlink()
        return problems

    def iteration_kinds(self):
        # Simulates are spread between the fits so that their samples span
        # the whole run rather than one stretch of it; the machine's speed
        # wanders on a scale of seconds.
        per_fit, extra = divmod(self.workload.sim_repeats, len(wl.FIT_KINDS))
        kinds = []
        for i, kind in enumerate(wl.FIT_KINDS):
            kinds += [kind] + ["simulate"] * (per_fit + (i < extra))
        return kinds


def measure(bench: Bench, seconds: float, trace: bool):
    """Closed loop over whole iterations until the next one would overrun
    ``seconds``. Traced runs take each command both untraced and traced."""
    recorder = SpanRecorder() if trace else None
    traced = defaultdict(list)  # kind -> [(span totals, sizes, traced wall, untraced wall)]
    all_spans = []
    overhead = []
    table_s = []
    iterations = 0
    started = time.perf_counter()
    while True:
        extra = 0.0
        for kind in bench.iteration_kinds():
            if not trace:
                bench.wall[kind].append(bench.run(kind))
                continue
            # Alternate which run goes first so that order effects cancel
            # in the overhead.
            timing = {}
            for with_spans in (iterations % 2 == 1, iterations % 2 == 0):
                if with_spans:
                    install(recorder)
                    try:
                        timing[True] = bench.run(kind)
                    finally:
                        recorder.restore()
                else:
                    timing[False] = bench.run(kind)
            spans, sizes = recorder.take()
            traced[kind].append((totals(spans), sizes, timing[True], timing[False]))
            all_spans.append((kind, spans))
            extra += timing[True] - timing[False]
        if trace:
            overhead.append(extra)
            table_s.append(time_error_table(bench))
        iterations += 1
        now = time.perf_counter()
        per_iteration = (now - started) / iterations
        if iterations >= MIN_ITERATIONS[int(trace)] and now + per_iteration > started + seconds:
            break
    return iterations, traced, all_spans, overhead, table_s


def install(recorder: SpanRecorder) -> None:
    from marketdyn import cli, dataset, learn, simulate, svgchart

    recorder.patch(cli, "main", "cli.main")
    recorder.patch(cli, "load_alpha", "influence.load_alpha")
    recorder.patch(dataset, "load_csv", "dataset.load_csv", size=len)
    recorder.patch(dataset, "normalize_inputs", "dataset.normalize_inputs")
    recorder.patch(simulate, "run", "simulate.run")
    recorder.patch(simulate, "synthesize_payoff", "influence.synthesize_payoff")
    recorder.patch(simulate, "normalize_payoff", "influence.normalize_payoff")
    recorder.patch(simulate, "replicator_rates", "dynamics.replicator_rates")
    recorder.patch(simulate, "advance_shares", "simulate.advance_shares")
    recorder.patch(simulate, "write_trajectory_csv", "simulate.write_trajectory_csv")
    recorder.patch(svgchart, "line_chart", "svgchart.line_chart")
    recorder.patch(learn, "fit", "learn.fit")
    recorder.patch(learn, "save_report", "learn.save_report")


def fit_problem(bench: Bench):
    """The dataset and constraints the CLI fits, built from public calls."""
    from marketdyn import dataset, influence, learn

    argv = bench.cmds["fit_w2"]["argv"]
    raw = dataset.load_csv(argv[argv.index("--data") + 1])
    (_, train_len), _ = learn.split(raw, learn.DEFAULT_HOLDOUT)
    scaled, _ = dataset.normalize_inputs(raw, (0, train_len))
    constraints = influence.ConstraintSpec.standard_duopoly(scaled.n_y)
    return scaled, learn.GridSpec(bench.workload.radius), constraints


def time_error_table(bench: Bench) -> float:
    """learn.train_error_table over the fit's grid with two workers; its
    minimum and tie count must match the fitted report."""
    from marketdyn import learn

    scaled, grid, constraints = fit_problem(bench)
    gc.collect()
    start = time.perf_counter()
    table = learn.train_error_table(scaled, grid, constraints, workers=2)
    elapsed = time.perf_counter() - start
    report = json.loads(bench.reports["fit_w2"])
    best = float(table.min())
    bench.attempted += 1
    if best != report["train_error"] or int((table == best).sum()) != report["tie_class_size"]:
        bench.failed += 1
        bench.failures.append("train_error_table: minimum or tie count disagrees with the fit")
    return elapsed


def peak_alloc_mb(bench: Bench) -> float:
    """tracemalloc peak during one two-worker learn.fit of the workload."""
    from marketdyn import learn

    scaled, grid, constraints = fit_problem(bench)
    gc.collect()
    tracemalloc.start()
    try:
        learn.fit(scaled, grid, constraints, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# Timings are reported as the mean of their samples. The reference machine
# alternates, every few seconds, between two speeds about 1.5x apart; the
# median of such samples jumps between the two modes as their mix shifts from
# run to run, while the mean moves smoothly with the mix. The record keeps the
# median and a high percentile of every timing as well.


def end_to_end(bench: Bench, setup) -> tuple[dict, dict]:
    wall = bench.wall
    candidates = wl.candidate_count(bench.workload)
    fit_w2 = statistics.fmean(wall["fit_w2"])
    metrics = {
        "setup_s": (statistics.fmean(setup), "s"),
        "fit_w1_s": (statistics.fmean(wall["fit_w1"]), "s"),
        "fit_w2_s": (fit_w2, "s"),
        "candidates_per_s": (candidates / fit_w2, "1/s"),
        "fit_dump_w2_s": (statistics.fmean(wall["fit_dump_w2"]), "s"),
        "simulate_s": (statistics.fmean(wall["simulate"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": summary(setup)}
    samples.update({f"{kind}_s": summary(wall[kind]) for kind in wall})
    samples["candidates"] = {"value": candidates, "exact": True}
    return metrics, samples


def per_layer(bench: Bench, traced, overhead, table_s) -> tuple[dict, dict]:
    def mean_of(kind, name, field="s"):
        return statistics.fmean(t[0].get(name, {}).get(field, 0) for t in traced[kind])

    def count(kind, name):  # identical in every command
        return traced[kind][-1][0][name]["calls"]

    sim, fit_w2, dump = traced["simulate"], traced["fit_w2"], traced["fit_dump_w2"]
    report = json.loads(bench.reports["fit_w2"])
    fit_s = mean_of("fit_w2", "learn.fit")
    metrics = {
        "dataset.load_csv_s": (mean_of("simulate", "dataset.load_csv"), "s"),
        "dataset.normalize_inputs_s": (mean_of("simulate", "dataset.normalize_inputs"), "s"),
        "dataset.rows": (sim[-1][1]["dataset.load_csv"][0], "count"),
        "influence.synthesize_payoff_s": (mean_of("simulate", "influence.synthesize_payoff"), "s"),
        "influence.synthesize_payoff_calls": (
            count("simulate", "influence.synthesize_payoff"), "count"),
        "influence.normalize_payoff_s": (mean_of("simulate", "influence.normalize_payoff"), "s"),
        "influence.load_alpha_s": (mean_of("simulate", "influence.load_alpha"), "s"),
        "dynamics.replicator_rates_s": (mean_of("simulate", "dynamics.replicator_rates"), "s"),
        "dynamics.replicator_rates_calls": (
            count("simulate", "dynamics.replicator_rates"), "count"),
        "simulate.run_s": (mean_of("simulate", "simulate.run"), "s"),
        "simulate.run_self_s": (mean_of("simulate", "simulate.run", "self_s"), "s"),
        "simulate.advance_shares_s": (mean_of("simulate", "simulate.advance_shares"), "s"),
        "simulate.write_trajectory_csv_s": (mean_of("simulate", "simulate.write_trajectory_csv"), "s"),
        "simulate.csv_bytes": (bench.sizes["trajectory.csv"], "bytes"),
        "learn.fit_s": (fit_s, "s"),
        "learn.save_report_s": (mean_of("fit_w2", "learn.save_report"), "s"),
        "learn.train_error_table_s": (statistics.fmean(table_s), "s"),
        "learn.dump_s": (mean_of("fit_dump_w2", "learn.fit") - fit_s, "s"),
        "learn.dump_bytes": (bench.sizes["candidates.csv"], "bytes"),
        "learn.candidates": (report["candidates_evaluated"], "count"),
        "learn.tie_class_size": (report["tie_class_size"], "count"),
        "learn.peak_alloc_mb": (peak_alloc_mb(bench), "MB"),
        "svgchart.line_chart_s": (mean_of("simulate", "svgchart.line_chart"), "s"),
        "svgchart.svg_bytes": (bench.sizes["chart.svg"], "bytes"),
        "cli.main_self_s": (mean_of("simulate", "cli.main", "self_s"), "s"),
        "trace.overhead_s": (statistics.fmean(overhead), "s"),
    }
    # Accounting on the simulate command: the self times of all its spans
    # add up to the traced cli.main span, which differs from the untraced
    # simulate time by the tracing overhead.
    record = {
        "simulate_accounting": {
            "untraced_simulate_s": statistics.fmean(t[3] for t in sim),
            "traced_simulate_s": statistics.fmean(t[2] for t in sim),
            "self_time_sum_s": statistics.fmean(
                sum(v["self_s"] for v in t[0].values()) for t in sim),
            "self_s_by_span": {
                name: statistics.fmean(t[0][name]["self_s"] for t in sim) for name in sim[0][0]},
        },
        "fit_w2_learn_fit": summary(t[0]["learn.fit"]["s"] for t in fit_w2),
        "fit_dump_w2_learn_fit": summary(t[0]["learn.fit"]["s"] for t in dump),
        "overhead_per_iteration": summary(overhead),
        "exact_counts": sorted(k for k, (_, unit) in metrics.items() if unit in ("count", "bytes")),
    }
    return metrics, record


def write_spans(path: Path, all_spans, origin: float) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("command,kind,id,name,start_s,end_s,parent\n")
        for index, (kind, spans) in enumerate(all_spans):
            for sid, name, start, end, parent in spans:
                f.write(f"{index},{kind},{sid},{name},{start - origin!r},{end - origin!r},{parent}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "marketdyn" / "cli.py").is_file():
        print(f"no marketdyn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import marketdyn

    if Path(marketdyn.__file__).resolve().parent != ROOT / "src" / "marketdyn":
        print(f"imported marketdyn from {marketdyn.__file__}, not the checkout", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_build" / "perfbench"
    work = out_dir / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = wl.generate(workload, ROOT, args.seed, work)
    cmds = wl.commands(workload, inputs, work)
    bench = Bench(workload, cmds, wl.count_rows(inputs["sim_data"]))

    setup = measure_setup()
    # Warm-up, untimed and unchecked: a radius-1 fit (whose report the fit
    # workloads' simulate reads) and one simulate.
    warm = list(cmds["fit_w1"]["argv"])
    warm[warm.index("--r") + 1] = "1"
    bench.execute(warm)
    bench.execute(cmds["simulate"]["argv"])

    origin = time.perf_counter()
    iterations, traced, all_spans, overhead, table_s = measure(bench, args.seconds, bool(args.trace))

    if args.trace:
        metrics, detail = per_layer(bench, traced, overhead, table_s)
        spans_path = out_dir / f"{workload.name}-seed{args.seed}.spans.csv"
        write_spans(spans_path, all_spans, origin)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, detail = end_to_end(bench, setup)
    correct = bench.failed == 0
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": iterations,
        "environment": environment(),
        "samples": detail,
        "failed_ratio": bench.failed / bench.attempted,
        "failures": bench.failures[:20],
        "sha256": {**{path.name: sha256(path) for path in inputs.values()}, **bench.hashes},
    }
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name}  {name:34s} {value:.6g} {unit}")
    print(f"{workload.name}  failed_ratio {bench.failed}/{bench.attempted}")
    for failure in bench.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("record: " + json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
