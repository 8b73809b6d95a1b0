"""Command-line interface.

Subcommands: simulate (one access campaign), sweep (the campaign sweep
over |U|), analyze (closed-form separability curves), train-lmax,
calibrate-delta, estimators-bench (the estimator table). Each takes
--config, --out and --format; --seed and --trials only where it reads them.
Each returns its rows, and :func:`main` writes them as
``<subcommand>.<format>`` with ``<subcommand>.manifest.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import separability_prediction
from .calibration import TrainingConfig, calibrate_delta, train_lmax
from .contention import PROTOCOLS, protocol_spec, run_access_campaign
from .estimators import CF_ESTIMATORS, ESTIMATOR_KINDS, NEARBY_METHODS
from .metrics import tcp
from .scenario import ScenarioConfig, load_config
from .sweeps import SweepDescriptor, bench_point, run_sweep, write_outputs


def _count(text: str) -> int:
    """A count flag's value: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _whole(text: str) -> float:
    """A UE count or sweep value: a whole number in any float notation (1e4)."""
    value = float(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfra",
        description="Grant-based random access simulator for cell-free networks")
    sub = parser.add_subparsers(dest="command", required=True)
    # flag groups; each subcommand takes the groups whose flags it reads
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", type=Path, default=None,
                       help="flat key = value scenario file")
    files.add_argument("--out", type=Path, default=Path("."), help="output directory")
    files.add_argument("--format", choices=("csv", "json"), default="csv")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=_count, default=100)

    p = sub.add_parser("simulate", parents=[files, seed, trials],
                       help="run access campaigns for one protocol")
    p.add_argument("--protocol", choices=PROTOCOLS, default="cf-sucre")
    p.add_argument("--estimator", choices=ESTIMATOR_KINDS, default="est2")
    p.add_argument("--nearby-method", choices=NEARBY_METHODS, default="fixed")

    p = sub.add_parser("sweep", parents=[files, seed, trials],
                       help="ANAA and TCP per protocol over |U|")
    p.add_argument("--values", type=_whole, nargs="+", required=True,
                   help="inactive-UE counts")
    p.add_argument("--protocols", choices=PROTOCOLS, nargs="+", default=list(PROTOCOLS))
    p.add_argument("--estimators", choices=CF_ESTIMATORS, nargs="+", default=["est2"])
    p.add_argument("--nearby-method", choices=NEARBY_METHODS, default="fixed")

    p = sub.add_parser("analyze", parents=[files], help="closed-form separability curve")
    p.add_argument("--num-ues", type=_whole, nargs="+",
                   default=[1e3, 2e3, 5e3, 1e4], help="inactive-UE counts")

    p = sub.add_parser("train-lmax", parents=[files, seed], help="train the serving-set cap")
    p.add_argument("--rounds", type=_count, default=100)
    p.add_argument("--repetitions", type=_count, default=100)

    p = sub.add_parser("calibrate-delta", parents=[files, seed],
                       help="measure the compensation factor")
    p.add_argument("--l-max", type=_count, default=None,
                   help="serving cap during calibration (default: all APs)")
    p.add_argument("--draws", type=_count, default=20000)

    p = sub.add_parser("estimators-bench", parents=[files, seed, trials],
                       help="NMSE/NEB of the estimators")
    p.add_argument("--collision-sizes", type=_count, nargs="+",
                   default=list(range(1, 11)))
    p.add_argument("--estimators", choices=ESTIMATOR_KINDS, nargs="+",
                   default=list(ESTIMATOR_KINDS))
    return parser


def _cmd_simulate(args, config: ScenarioConfig) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    spec = protocol_spec(args.protocol, args.estimator, args.nearby_method)
    rows = []
    for trial in range(args.trials):
        result = run_access_campaign(args.protocol, spec, config, rng)
        rows.append({
            "trial": trial, "protocol": args.protocol, "estimator": spec.kind,
            "anaa": result.anaa,
            "success_rate": float(result.succeeded.mean()) if result.succeeded.size else float("nan"),
            "cohort_size": int(result.attempts.size),
            "l_bar": result.l_bar, "tau_bar": result.tau_bar,
            "blocks": result.blocks, "truncated": result.truncated,
            "tcp_mw_symbols": tcp(args.protocol, result, config),
        })
    finite = [r["anaa"] for r in rows if np.isfinite(r["anaa"])]
    mean = float(np.mean(finite)) if finite else float("nan")
    print(f"{args.protocol}: mean ANAA {mean:.3f} over {len(finite)} non-empty campaigns")
    return rows


def _cmd_sweep(args, config: ScenarioConfig) -> list[dict]:
    desc = SweepDescriptor(
        values=tuple(args.values), trials=args.trials, seed=args.seed,
        protocols=tuple(args.protocols), estimators=tuple(args.estimators),
        nearby_method=args.nearby_method)
    return run_sweep(desc, config)


def _cmd_analyze(args, config: ScenarioConfig) -> list[dict]:
    rows = []
    for num in args.num_ues:
        pred = separability_prediction(replace(config, num_inactive_ues=int(num)))
        rows.append({
            "num_inactive_ues": int(num), "psi": pred.psi,
            "exclusive_aps": pred.exclusive_aps,
            "dominant_area_m2": pred.dominant_area,
            "d_lim_m": pred.d_lim,
            "avg_collision_size": pred.avg_collision_size,
        })
        print(f"|U|={int(num)}: psi={pred.psi:.4f} exclusive APs={pred.exclusive_aps:.3f}")
    return rows


def _cmd_train_lmax(args, config: ScenarioConfig) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    training = TrainingConfig(scenario=config, rounds=args.rounds,
                              repetitions=args.repetitions)
    l_max, trace = train_lmax(training, rng)
    rows = [{"round": i, "mean_serving_count": v} for i, v in enumerate(trace)]
    rows.append({"round": "result", "mean_serving_count": l_max})
    print(f"trained serving cap: {l_max} (over {len(trace)} non-empty rounds)")
    return rows


def _cmd_calibrate_delta(args, config: ScenarioConfig) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    l_max = config.num_aps if args.l_max is None else args.l_max
    delta, q_avg = calibrate_delta(config, l_max, rng, draws=args.draws)
    print(f"delta = {delta:.3f} (average effective DL power {q_avg:.4f} mW)")
    return [{"delta": delta, "q_avg_mw": q_avg, "l_max": l_max, "draws": args.draws}]


def _cmd_estimators_bench(args, config: ScenarioConfig) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    rows = []
    for size in args.collision_sizes:
        for kind in args.estimators:
            row = bench_point(size, kind, config, rng, args.trials, args.seed)
            print(f"|S_t|={size} {kind}: NMSE median {row['nmse_median']:.4g}")
            rows.append(row)
    return rows


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "train-lmax": _cmd_train_lmax,
    "calibrate-delta": _cmd_calibrate_delta,
    "estimators-bench": _cmd_estimators_bench,
}


def main(argv=None) -> int:
    """Run one subcommand and write its rows and manifest (the flags it read) to ``--out``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = ScenarioConfig() if args.config is None else load_config(args.config)
        rows = _COMMANDS[args.command](args, config)
        path = args.out / f"{args.command}.{args.format}"
        arguments = {name: value for name, value in vars(args).items()
                     if name not in ("command", "config", "out", "format")}
        manifest_path = write_outputs(rows, path, config, arguments)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path} and {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
