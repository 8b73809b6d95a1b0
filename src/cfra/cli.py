"""Command-line interface.

Subcommands: simulate (one access campaign), sweep (figure-class
reproduction), analyze (closed-form separability curves), train-lmax,
calibrate-delta, estimators-bench. Common flags: --config, --seed,
--trials, --out, --format.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import separability_prediction
from .calibration import TrainingConfig, calibrate_delta, train_lmax
from .contention import PROTOCOLS, run_access_campaign
from .estimators import ESTIMATOR_KINDS, NEARBY_METHODS, EstimatorSpec
from .scenario import ScenarioConfig, load_config
from .sweeps import FIGURE_CLASSES, SweepDescriptor, bench_point, run_sweep, write_outputs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key = value scenario file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_scenario(args) -> ScenarioConfig:
    if args.config is None:
        return ScenarioConfig()
    return load_config(args.config)


def _emit(rows: list[dict], path: Path, fmt: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_text(json.dumps(rows, indent=2) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfra",
        description="Grant-based random access simulator for cell-free networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run access campaigns for one protocol")
    _add_common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, default="cf-sucre")
    p.add_argument("--estimator", choices=ESTIMATOR_KINDS, default="est2")
    p.add_argument("--nearby-method", choices=NEARBY_METHODS, default="fixed")

    p = sub.add_parser("sweep", help="reproduce a figure class")
    _add_common(p)
    p.add_argument("--figure-class", choices=FIGURE_CLASSES, required=True)
    p.add_argument("--values", type=float, nargs="+", required=True,
                   help="sweep axis values")
    p.add_argument("--protocols", nargs="+", default=["bcf", "cf-sucre", "ce-sucre"])
    p.add_argument("--estimators", nargs="+", default=["est2"])
    p.add_argument("--nearby-method", choices=NEARBY_METHODS, default="fixed")

    p = sub.add_parser("analyze", help="closed-form separability curve")
    _add_common(p)
    p.add_argument("--num-ues", type=float, nargs="+",
                   default=[1e3, 2e3, 5e3, 1e4], help="inactive-UE counts")

    p = sub.add_parser("train-lmax", help="train the serving-set cap")
    _add_common(p)
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--repetitions", type=int, default=100)

    p = sub.add_parser("calibrate-delta", help="measure the compensation factor")
    _add_common(p)
    p.add_argument("--l-max", type=int, default=None,
                   help="serving cap during calibration (default: all APs)")
    p.add_argument("--draws", type=int, default=20000)

    p = sub.add_parser("estimators-bench", help="NMSE/NEB of the estimators")
    _add_common(p)
    p.add_argument("--collision-sizes", type=int, nargs="+",
                   default=list(range(1, 11)))
    p.add_argument("--estimators", nargs="+",
                   default=["est1", "est2", "est3", "cellular"])
    return parser


def _cmd_simulate(args) -> int:
    config = _load_scenario(args)
    rng = np.random.default_rng(args.seed)
    spec = EstimatorSpec(
        kind="cellular" if args.protocol == "ce-sucre" else args.estimator,
        nearby_method=args.nearby_method if args.protocol == "cf-sucre" else "fixed")
    rows = []
    for trial in range(args.trials):
        result = run_access_campaign(args.protocol, spec, config, rng)
        rows.append({
            "trial": trial, "protocol": args.protocol, "estimator": spec.kind,
            "anaa": result.anaa,
            "success_rate": float(result.succeeded.mean()) if result.succeeded.size else float("nan"),
            "cohort_size": int(result.attempts.size),
            "l_bar": result.l_bar, "tau_bar": result.tau_bar,
        })
    _emit(rows, args.out / f"simulate.{args.format}", args.format)
    finite = [r["anaa"] for r in rows if np.isfinite(r["anaa"])]
    mean = float(np.mean(finite)) if finite else float("nan")
    print(f"{args.protocol}: mean ANAA {mean:.3f} over {len(finite)} non-empty campaigns")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_scenario(args)
    desc = SweepDescriptor(
        figure_class=args.figure_class, values=tuple(args.values),
        trials=args.trials, seed=args.seed,
        protocols=tuple(args.protocols), estimators=tuple(args.estimators),
        nearby_method=args.nearby_method)
    reports = run_sweep(desc, config)
    csv_path, manifest_path = write_outputs(desc, config, reports, args.out)
    if args.format == "json":
        json_path = args.out / f"{desc.figure_class}.json"
        json_path.write_text(json.dumps([asdict(r) for r in reports], indent=2) + "\n")
        print(f"wrote {json_path} and {manifest_path}")
    else:
        print(f"wrote {csv_path} and {manifest_path}")
    return 0


def _cmd_analyze(args) -> int:
    config = _load_scenario(args)
    rows = []
    for num in args.num_ues:
        pred = separability_prediction(config, num_inactive_ues=int(num))
        rows.append({
            "num_inactive_ues": int(num), "psi": pred.psi,
            "exclusive_aps": pred.exclusive_aps,
            "dominant_area_m2": pred.dominant_area,
            "d_lim_m": pred.d_lim,
            "avg_collision_size": pred.avg_collision_size,
        })
    _emit(rows, args.out / f"analyze.{args.format}", args.format)
    for row in rows:
        print(f"|U|={row['num_inactive_ues']}: psi={row['psi']:.4f} "
              f"exclusive APs={row['exclusive_aps']:.3f}")
    return 0


def _cmd_train_lmax(args) -> int:
    config = _load_scenario(args)
    rng = np.random.default_rng(args.seed)
    training = TrainingConfig(scenario=config, rounds=args.rounds,
                              repetitions=args.repetitions)
    l_max, trace = train_lmax(training, rng)
    rows = [{"round": i, "mean_serving_count": v} for i, v in enumerate(trace)]
    rows.append({"round": "result", "mean_serving_count": l_max})
    _emit(rows, args.out / f"train-lmax.{args.format}", args.format)
    print(f"trained serving cap: {l_max} (over {len(trace)} non-empty rounds)")
    return 0


def _cmd_calibrate_delta(args) -> int:
    config = _load_scenario(args)
    rng = np.random.default_rng(args.seed)
    l_max = config.num_aps if args.l_max is None else args.l_max
    delta, q_avg = calibrate_delta(config, l_max, rng, draws=args.draws)
    rows = [{"delta": delta, "q_avg_mw": q_avg, "l_max": l_max, "draws": args.draws}]
    _emit(rows, args.out / f"calibrate-delta.{args.format}", args.format)
    print(f"delta = {delta:.3f} (average effective DL power {q_avg:.4f} mW)")
    return 0


def _cmd_estimators_bench(args) -> int:
    config = _load_scenario(args)
    rng = np.random.default_rng(args.seed)
    desc = SweepDescriptor(figure_class="estimator-bench",
                           values=tuple(args.collision_sizes),
                           trials=args.trials, seed=args.seed)
    rows = []
    for size in args.collision_sizes:
        for kind in args.estimators:
            report = bench_point(desc, size, kind, config, rng)
            rows.append(asdict(report))
            print(f"|S_t|={size} {kind}: NMSE median {report.nmse_median:.4g}")
    _emit(rows, args.out / f"estimators-bench.{args.format}", args.format)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "train-lmax": _cmd_train_lmax,
    "calibrate-delta": _cmd_calibrate_delta,
    "estimators-bench": _cmd_estimators_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
