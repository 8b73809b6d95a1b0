"""Command-line interface.

Subcommands: simulate (one access campaign), sweep (the campaign sweep
over |U|), analyze (closed-form separability curves), train-lmax,
calibrate-delta, estimators-bench (the estimator table). Each takes
--config, --out and --format; --seed and --trials only where it reads them.
The parser is the one check of the flags. Each subcommand builds its own
rows, each a dict of its table's columns, and :func:`main` writes them as
``<subcommand>.<format>`` with a JSON run manifest,
``<subcommand>.manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import separability_prediction
from .bench import run_estimator_bench
from .calibration import TrainingConfig, calibrate_delta, train_lmax
from .contention import PROTOCOLS, protocol_spec, run_access_campaign
from .estimators import CF_ESTIMATORS, ESTIMATOR_KINDS, NEARBY_METHODS, best_pair
from .metrics import iqr, tcp, write_table
from .scenario import ScenarioConfig, load_config


def _count(text: str) -> int:
    """A count flag's value: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
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
    seed.add_argument("--seed", type=_seed, default=0)
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
    """ANAA and TCP per |U| and protocol, every point on one generator, in row order.

    cf-sucre runs every listed estimator; bcf and ce-sucre give one row per
    |U|, under the first. ``trials`` counts the campaigns that gave an ANAA,
    ``truncated`` those of all ``--trials`` that stopped at
    :data:`~cfra.contention.MAX_CAMPAIGN_BLOCKS`.
    """
    rng = np.random.default_rng(args.seed)
    # every |U| is checked as a scenario config before any campaign runs
    points = [replace(config, num_inactive_ues=int(value)) for value in args.values]
    rows = []
    for point in points:
        for protocol in args.protocols:
            for kind in args.estimators if protocol == "cf-sucre" else args.estimators[:1]:
                spec = protocol_spec(protocol, kind, args.nearby_method)
                anaa, tcps, truncated = [], [], 0
                for _ in range(args.trials):
                    result = run_access_campaign(protocol, spec, point, rng)
                    truncated += result.truncated
                    if np.isfinite(result.anaa):
                        anaa.append(result.anaa)
                        tcps.append(tcp(protocol, result, point))
                rows.append({
                    "num_inactive_ues": point.num_inactive_ues, "protocol": protocol,
                    "estimator": spec.kind, "nearby_method": spec.nearby_method,
                    "anaa": float(np.mean(anaa)) if anaa else float("nan"),
                    "tcp_mw_symbols": float(np.mean(tcps)) if tcps else float("nan"),
                    "trials": len(anaa), "truncated": truncated, "seed": args.seed,
                })
    return rows


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
            nearby_size, l_max = best_pair(kind, size)
            result = run_estimator_bench(kind, size, nearby_size, l_max, config, rng,
                                         num_setups=args.trials, num_realizations=100)
            rows.append({
                "collision_size": size,
                "protocol": "ce-sucre" if kind == "cellular" else "cf-sucre",
                "estimator": kind, "nearby_method": "fixed",
                "nmse_median": float(np.median(result.nmse)), "nmse_iqr": iqr(result.nmse),
                "neb_median": float(np.median(result.neb)), "neb_iqr": iqr(result.neb),
                "nmd_mean": float(np.nanmean(result.nmd)),
                "trials": args.trials, "seed": args.seed,
            })
            print(f"|S_t|={size} {kind}: NMSE median {rows[-1]['nmse_median']:.4g}")
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
        write_table(rows, path)
        manifest = {
            "provenance": f"cfra {__version__} python {platform.python_version()} "
                          f"numpy {np.__version__}",
            "arguments": {name: value for name, value in vars(args).items()
                          if name not in ("command", "config", "out", "format")},
            "config": asdict(config),
            "rows": len(rows),
        }
        manifest_path = args.out / f"{args.command}.manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path} and {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
