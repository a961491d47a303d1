"""Command line interface.

Subcommands: fit, simulate, scenario, equilibria. Exit codes: 0 success,
2 configuration error, 3 data error, 4 I/O error. All file outputs are
deterministic: repeated invocations on the same inputs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import learn, simulate, svgchart
from .dynamics import classify_equilibria
from .errors import ConfigError, DataError
from .influence import (
    CROSS_PAIRS_ONLY,
    FULL_SYMMETRY,
    UNCONSTRAINED,
    ConstraintSpec,
    InputVector,
    load_alpha,
    normalize_payoff,
    synthesize_payoff,
)

_MODE_FLAGS = {"full": FULL_SYMMETRY, "cross": CROSS_PAIRS_ONLY, "none": UNCONSTRAINED}


def _add_common_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="observed dataset CSV")
    parser.add_argument("--holdout", type=float, default=learn.DEFAULT_HOLDOUT,
                        help="validation fraction (chronological tail, default 0.2)")
    parser.add_argument("--dt", type=float, default=1.0, help="Euler step size in quarters")
    parser.add_argument("--normalize-inputs", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="min-max scale inputs using training-window statistics")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=int, default=1, help="integer search radius")
    parser.add_argument("--constraints", choices=sorted(_MODE_FLAGS), default="full",
                        help="constraint mode: full (swap symmetry plus zero mask), "
                             "cross (cross-entry equalities only), none")
    parser.add_argument("--workers", type=int, default=1,
                        help="fork worker processes for --dump-candidates (the calling "
                             "thread where fork is missing); a pruned fit runs in the "
                             "calling thread (result is identical)")
    parser.add_argument("--dump-candidates", default=None, metavar="PATH",
                        help="write per-candidate training errors as CSV")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketdyn",
        description="Replicator-dynamics market modeling with input-driven payoffs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="grid-search coefficients against observed shares")
    _add_common_data_flags(p_fit)
    _add_grid_flags(p_fit)
    p_fit.add_argument("--out", required=True, help="fit report JSON (embeds coefficients)")
    p_fit.add_argument("--auto-r", action="store_true",
                       help="escalate the radius until the training error beats the target")
    p_fit.add_argument("--error-target", type=float, default=learn.DEFAULT_ERROR_TARGET,
                       help="training-error target for --auto-r (default 4e-5)")
    p_fit.add_argument("--max-r", type=int, default=4, help="radius cap for --auto-r")
    p_fit.set_defaults(handler=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="replay the observed inputs under given coefficients")
    _add_common_data_flags(p_sim)
    p_sim.add_argument("--alpha", required=True,
                       help="coefficient JSON (bare document or fit report)")
    p_sim.add_argument("--out", required=True, help="trajectory CSV")
    p_sim.add_argument("--svg", default=None, help="optional share chart")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_sc = sub.add_parser("scenario", help="counterfactual runs")
    _add_common_data_flags(p_sc)
    p_sc.add_argument("--kind", required=True,
                      choices=["constant-inputs", "constant-market", "custom-inputs"])
    p_sc.add_argument("--alpha", default=None,
                      help="coefficient JSON (constant-inputs and custom-inputs kinds)")
    p_sc.add_argument("--inputs", default=None,
                      help="input series CSV for the custom-inputs kind")
    p_sc.add_argument("--out", required=True, help="trajectory CSV")
    p_sc.add_argument("--svg", default=None, help="optional share chart")
    p_sc.add_argument("--alpha-out", default=None,
                      help="fit report JSON for the constant-market kind")
    _add_grid_flags(p_sc)
    p_sc.set_defaults(handler=_cmd_scenario)

    p_eq = sub.add_parser("equilibria", help="equilibrium structure at a frozen input vector")
    p_eq.add_argument("--alpha", required=True, help="coefficient JSON")
    p_eq.add_argument("--y", required=True,
                      help="comma-separated input values, e.g. 0.5,0.2,0.3,0.7; the first "
                           "may be negative, as in --y -0.5,0.2,0.3,0.7")
    p_eq.set_defaults(handler=_cmd_equilibria)

    return parser


def _validate_common(args) -> None:
    if not 0.0 < args.holdout < 1.0:
        raise ConfigError(f"holdout must be in (0, 1), got {args.holdout}")
    if not (math.isfinite(args.dt) and args.dt > 0.0):
        raise ConfigError(f"dt must be positive and finite, got {args.dt}")


def _validate_grid(args) -> None:
    if args.r < 0:
        raise ConfigError(f"r must be >= 0, got {args.r}")
    if args.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {args.workers}")


def _check_outputs(*paths) -> None:
    """Reject an output path that is a directory or whose parent directory
    is missing, before any work: found after the work, it would fail a run
    that had already written its other outputs."""
    for path in paths:
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        if not target.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no directory for the output", str(target))


def _load_and_scale(args) -> tuple[ds.MarketDataset, ds.NormalizationRecord | None, int]:
    """Load the dataset, split, and scale inputs off the training window;
    returns the scaled dataset, its scaling (None when unscaled) and the
    training length."""
    dataset = ds.load_csv(args.data)
    (_, train_len), _ = learn.split(dataset, args.holdout)
    record = None
    if args.normalize_inputs:
        dataset, record = ds.normalize_inputs(dataset, (0, train_len))
    return dataset, record, train_len


def _load_alpha_for(path, dataset: ds.MarketDataset):
    """Coefficients from ``path``, checked against the dataset's inputs."""
    alpha, _ = load_alpha(path)
    if alpha.n_y != dataset.n_y:
        raise ConfigError(
            f"coefficients expect {alpha.n_y} inputs, dataset has {dataset.n_y}"
        )
    return alpha


def _constraints_for(dataset: ds.MarketDataset, mode_flag: str) -> ConstraintSpec:
    mode = _MODE_FLAGS[mode_flag]
    if mode == UNCONSTRAINED:
        return ConstraintSpec(mode=mode, swap=tuple(range(dataset.n)),
                              input_pairing=tuple(range(dataset.n_y)),
                              ownership=dataset.ownership)
    if dataset.n != 2:
        raise ConfigError(
            f"constraint mode {mode!r} needs a 2-strategy dataset, got n={dataset.n}"
        )
    return ConstraintSpec.standard_duopoly(dataset.n_y, mode=mode)


def _write_trajectory(args, trajectory: simulate.Trajectory, train_len: int | None) -> None:
    """Write the trajectory CSV and the optional chart, whose dashed rule
    marks the end of a training window of ``train_len`` samples, and print
    the final shares."""
    simulate.write_trajectory_csv(trajectory, args.out)
    if args.svg:
        boundary = None
        if train_len is not None and train_len < len(trajectory):
            boundary = (train_len - 0.5) * trajectory.dt
        markup = svgchart.line_chart(trajectory.times, trajectory.shares, boundary_x=boundary)
        svgchart.save_chart(markup, args.svg)
    print("final shares: " + ", ".join(_fmt(v) for v in trajectory.shares[-1].tolist()))
    print(f"trajectory written to {args.out}")


def _write_report(report: learn.FitReport, ownership: tuple[int, ...], path) -> None:
    """Save the fit report and print its summary."""
    learn.save_report(report, ownership, path)
    print(f"train window: {report.train_len} samples, "
          f"validation window: {report.validation_len} samples")
    print(f"candidates evaluated: {report.candidates_evaluated}")
    print(f"best free values: {list(report.best_values)}")
    print(f"tie class size: {report.tie_class_size}")
    print(f"train error: {_fmt(report.train_error)}")
    print(f"validation error: {_fmt(report.validation_error)}")
    print(f"elapsed: {report.elapsed_seconds:.3f}s", file=sys.stderr)
    print(f"report written to {path}")


def _cmd_fit(args) -> int:
    _validate_common(args)
    _validate_grid(args)
    if args.auto_r and args.max_r < args.r:
        raise ConfigError(f"max-r {args.max_r} is below r {args.r}")
    if args.auto_r and args.dump_candidates is not None:
        raise ConfigError("--dump-candidates cannot be combined with --auto-r")
    _check_outputs(args.out)
    scaled, _, _ = _load_and_scale(args)
    constraints = _constraints_for(scaled, args.constraints)
    if args.auto_r:
        report = learn.fit_escalating(
            scaled, constraints, args.holdout,
            error_target=args.error_target, start_radius=max(args.r, 0),
            max_radius=args.max_r, dt=args.dt, workers=args.workers,
        )
    else:
        report = learn.fit(
            scaled, learn.GridSpec(args.r), constraints, args.holdout,
            dt=args.dt, workers=args.workers, error_dump=args.dump_candidates,
        )
    _write_report(report, scaled.ownership, args.out)
    return 0


def _cmd_simulate(args) -> int:
    _validate_common(args)
    _check_outputs(args.out, args.svg)
    scaled, _, train_len = _load_and_scale(args)
    alpha = _load_alpha_for(args.alpha, scaled)
    trajectory = simulate.run(simulate.observed_scenario(scaled, dt=args.dt), alpha)
    del scaled  # released before the writers, whose text would add to its rows
    _write_trajectory(args, trajectory, train_len)
    return 0


def _cmd_scenario(args) -> int:
    _validate_common(args)
    _validate_grid(args)
    _check_outputs(args.out, args.svg, args.alpha_out)
    scaled, record, train_len = _load_and_scale(args)

    if args.kind == "constant-market":
        if args.alpha_out is None:
            raise ConfigError("constant-market needs --alpha-out for the fitted coefficients")
        constraints = _constraints_for(scaled, args.constraints)
        report = learn.fit_constant_market(
            scaled, learn.GridSpec(args.r), constraints, args.holdout,
            dt=args.dt, workers=args.workers, error_dump=args.dump_candidates,
        )
        _write_report(report, scaled.ownership, args.alpha_out)
        trajectory = simulate.run(
            simulate.observed_scenario(scaled, dt=args.dt), report.best_alpha
        )
    else:
        if args.alpha is None:
            raise ConfigError(f"{args.kind} needs --alpha")
        alpha = _load_alpha_for(args.alpha, scaled)
        if args.kind == "constant-inputs":
            spec = simulate.constant_scenario(scaled, dt=args.dt)
        else:
            if args.inputs is None:
                raise ConfigError("custom-inputs needs --inputs")
            table = ds.load_input_table(args.inputs)
            if table.shape[1] != scaled.n_y:
                raise DataError(
                    f"custom input series has {table.shape[1]} inputs, expected {scaled.n_y}"
                )
            if record is not None:
                table = record.apply(table)  # a row that overflows is a DataError
            spec = simulate.ScenarioSpec(inputs=table, initial=scaled.shares[0],
                                         horizon=len(table) - 1, dt=args.dt)
        trajectory = simulate.run(spec, alpha)

    _write_trajectory(args, trajectory, None if args.kind == "constant-inputs" else train_len)
    return 0


def _cmd_equilibria(args) -> int:
    alpha, ownership = load_alpha(args.alpha)
    try:
        values = [float(v) for v in args.y.split(",")]
    except ValueError as exc:
        raise ConfigError(f"could not parse --y: {exc}") from exc
    if len(values) != alpha.n_y:
        raise ConfigError(f"--y must supply {alpha.n_y} values, got {len(values)}")
    y = InputVector(values=np.array(values), ownership=ownership)
    try:
        payoff = normalize_payoff(synthesize_payoff(alpha, y.values))
    except ValueError as exc:
        if alpha.n < 2:  # the coefficient file's fault, whatever the values
            raise
        raise ConfigError(f"--y: {exc}; the values are too large for the payoff "
                          "arithmetic (normalize the inputs)") from exc

    print("normalized payoff matrix:")
    for row in payoff.entries:
        print("  " + "  ".join(_fmt(v) for v in row))

    if alpha.n != 2:
        print("equilibrium analysis is only available for 2 strategies")
        return 0

    eq = classify_equilibria(payoff)
    for vertex in eq.vertices:
        print("vertex equilibrium: (" + ", ".join(_fmt(v) for v in vertex.shares) + ")")
    if bool(np.all(payoff.entries == 0.5)):
        print("no interior equilibrium; all states stationary")
    elif eq.mixed is None:
        print("no interior equilibrium")
    else:
        point = ", ".join(_fmt(v) for v in eq.mixed.shares)
        print(f"mixed equilibrium: ({point}) [{eq.mixed_stability}]")
        print("target equilibrium: (" + point + ")")
    return 0


def _attach_y(argv: list[str]) -> list[str]:
    """``--y VALUES`` as ``--y=VALUES`` for a list whose first value is
    negative: argparse takes an argument that starts with '-' and is not a
    single number for an option. No option name holds a comma."""
    out = []
    for arg in argv:
        if out and out[-1] == "--y" and arg.startswith("-") and "," in arg:
            out[-1] = f"--y={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_y(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
