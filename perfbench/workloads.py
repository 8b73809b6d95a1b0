"""Workload definitions: the op cycle, per-op output checks and digests.

Every op receives only a ``np.random.Generator`` derived from the run seed
and the op index, so the same seed gives the same inputs whatever the run
length. Checks test invariants and reference bands, never exact values, so
that a refactor allowed to change the random stream still passes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cfra import bench, calibration, contention
from cfra.calibration import TrainingConfig
from cfra.estimators import BEST_PAIRS, EstimatorSpec
from cfra.scenario import ScenarioConfig
from tracing import QUALIFIED


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[np.random.Generator], object]
    check: Callable[[object], list]
    digest: Callable[[object], bytes]
    anaa: Callable[[object], float] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: tuple
    tail_percentile: float           # leaves >= 10 ops above it in a 40 s run at the parent
    expected_unreached: frozenset    # named functions this workload never calls
    anaa_bands: dict                 # op label -> (lo, hi) for the run's mean ANAA


# --- campaigns ---------------------------------------------------------------

CAMPAIGN_SPECS = (
    ("bcf", "bcf", EstimatorSpec()),
    ("cf-sucre/est2/greedy", "cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy")),
    ("cf-sucre/est3/fixed", "cf-sucre", EstimatorSpec(kind="est3")),
    ("ce-sucre/cellular", "ce-sucre", EstimatorSpec(kind="cellular")),
)


def _check_campaign(res, config: ScenarioConfig) -> list:
    problems = []
    attempts = np.asarray(res.attempts)
    if attempts.shape != np.asarray(res.succeeded).shape:
        problems.append("attempts and succeeded differ in shape")
    if attempts.size:
        if attempts.min() < 1 or attempts.max() > config.max_attempts:
            problems.append(f"cohort attempts outside [1, {config.max_attempts}]")
        if not math.isclose(res.anaa, float(attempts.mean()), rel_tol=1e-12):
            problems.append(f"anaa {res.anaa} != mean attempts {attempts.mean()}")
    elif not math.isnan(res.anaa):
        problems.append("empty cohort with finite anaa")
    if not 0.0 <= res.tau_bar <= config.num_pilots:
        problems.append(f"tau_bar {res.tau_bar} outside [0, T]")
    if not 0.0 <= res.tau_bar_pl <= config.num_pilots:
        problems.append(f"tau_bar_pl {res.tau_bar_pl} outside [0, T]")
    if not 0.0 <= res.l_bar <= config.num_aps:
        problems.append(f"l_bar {res.l_bar} outside [0, L]")
    return problems


def _digest_campaign(res) -> bytes:
    return (np.asarray(res.attempts, dtype=np.int64).tobytes()
            + np.asarray(res.succeeded, dtype=bool).tobytes()
            + np.array([res.anaa, res.tau_bar_pl, res.tau_bar, res.l_bar,
                        res.q_eff_mw]).tobytes())


def _campaign_cycle(num_ues: int) -> tuple:
    config = ScenarioConfig(num_inactive_ues=num_ues)

    def make(label, protocol, spec):
        return Op(label=label,
                  run=lambda rng: contention.run_access_campaign(protocol, spec, config, rng),
                  check=lambda res: _check_campaign(res, config),
                  digest=_digest_campaign,
                  anaa=lambda res: res.anaa)

    return tuple(make(*entry) for entry in CAMPAIGN_SPECS)


# --- offline physical layer --------------------------------------------------

BENCH_KINDS = ("est1", "est2", "est3", "cellular")
# Setups per size, chosen so each offline op costs about the same (~0.3 s
# on a 2-core Xeon); equal op costs keep the latency quantiles off the
# boundary between op types.
BENCH_SETUPS = {"est1": 2, "est2": 2, "est3": 2, "cellular": 20}
BENCH_REALIZATIONS = 100
CALIBRATION_DRAWS = 1000
TRAINING_ROUNDS = 10
TRAINING_REPETITIONS = 100
# criterion 4's band
DELTA_BAND = (7.0, 9.0)
Q_AVG_BAND = (0.0489 * 0.8, 0.0489 * 1.2)
# l_max from 10 training rounds at the reference scenario: 3-5 over 30 seeds
LMAX_BAND = (2, 6)


def _bench_op(kind: str, config: ScenarioConfig) -> Op:
    def run(rng):
        out = []
        for size in range(1, 11):
            nearby, l_max = (1, 1) if kind == "cellular" else BEST_PAIRS[kind][size]
            out.append(bench.run_estimator_bench(
                kind, size, nearby, l_max, config, rng,
                num_setups=BENCH_SETUPS[kind], num_realizations=BENCH_REALIZATIONS))
        return out

    def check(results):
        bad = [size for size, r in enumerate(results, start=1)
               if not (np.isfinite(r.nmse).all() and np.isfinite(r.neb).all())]
        return [f"non-finite NMSE/NEB at sizes {bad}"] if bad else []

    def digest(results):
        return b"".join(np.concatenate([r.nmse, r.neb, r.nmd]).tobytes() for r in results)

    return Op(label=f"bench/{kind}", run=run, check=check, digest=digest)


def _calibrate_op(config: ScenarioConfig) -> Op:
    def check(res):
        delta, q_avg = res
        problems = []
        if not DELTA_BAND[0] <= delta <= DELTA_BAND[1]:
            problems.append(f"delta {delta} outside {DELTA_BAND}")
        if not Q_AVG_BAND[0] <= q_avg <= Q_AVG_BAND[1]:
            problems.append(f"q_avg {q_avg} outside {Q_AVG_BAND}")
        return problems

    return Op(label="calibrate_delta",
              run=lambda rng: calibration.calibrate_delta(config, config.num_aps, rng,
                                                          draws=CALIBRATION_DRAWS),
              check=check,
              digest=lambda res: np.array(res, dtype=float).tobytes())


def _train_op(config: ScenarioConfig) -> Op:
    training = TrainingConfig(config, rounds=TRAINING_ROUNDS, repetitions=TRAINING_REPETITIONS)

    def check(res):
        l_max, _ = res
        if not 1 <= l_max <= config.num_aps:
            return [f"l_max {l_max} outside [1, L]"]
        if not LMAX_BAND[0] <= l_max <= LMAX_BAND[1]:
            return [f"l_max {l_max} outside reference band {LMAX_BAND}"]
        return []

    return Op(label="train_lmax",
              run=lambda rng: calibration.train_lmax(training, rng),
              check=check,
              digest=lambda res: np.array([res[0], *res[1]], dtype=float).tobytes())


def _offline_cycle() -> tuple:
    config = ScenarioConfig()
    cycle = []
    for kind in BENCH_KINDS:
        cycle += [_bench_op(kind, config), _calibrate_op(config), _train_op(config)]
    return tuple(cycle)


# --- the workloads -----------------------------------------------------------

_NOT_IN_CAMPAIGNS = frozenset({"bench.run_estimator_bench", "calibration.calibrate_delta",
                               "calibration.train_lmax"})
_IN_OFFLINE = frozenset({"bench.run_estimator_bench", "calibration.calibrate_delta",
                         "calibration.train_lmax", "scenario.build_topology",
                         "channel.draw_channels", "channel.complex_noise",
                         "access.build_serving_sets"})

# Mean ANAA per config over one run. Over 15 (sparse) and 22 (dense) 30-40 s
# runs at the parent of the benchmark, the run means spanned: sparse bcf
# 1.017-1.036, est2 1.060-1.088, est3 1.123-1.176, cellular 4.77-5.05; dense
# bcf 1.28-1.47, est2 3.70-4.23, est3 4.91-5.64, cellular 9.14-9.48. The
# bands leave room for a changed random stream and for fewer campaigns per
# run (about 200 per config on sparse, about 15 on dense).
_SPARSE_BANDS = {"bcf": (1.0, 1.15), "cf-sucre/est2/greedy": (1.0, 1.2),
                 "cf-sucre/est3/fixed": (1.0, 1.35), "ce-sucre/cellular": (4.2, 5.6)}
_DENSE_BANDS = {"bcf": (1.1, 1.7), "cf-sucre/est2/greedy": (3.0, 4.9),
                "cf-sucre/est3/fixed": (4.0, 6.5), "ce-sucre/cellular": (8.3, 10.0)}


def build(name: str) -> Workload:
    if name == "campaign-sparse":
        return Workload(name, "10 UEs per block against 10k gain rows: topology build dominates",
                        _campaign_cycle(10_000), 0.95, _NOT_IN_CAMPAIGNS, _SPARSE_BANDS)
    if name == "campaign-dense":
        return Workload(name, "overload at 50k UEs: multi-block campaigns, run_attempt dominates",
                        _campaign_cycle(50_000), 0.80, _NOT_IN_CAMPAIGNS, _DENSE_BANDS)
    if name == "offline-phy":
        return Workload(name, "large-batch numpy: estimator bench, delta calibration, l_max training",
                        _offline_cycle(), 0.85, frozenset(QUALIFIED) - _IN_OFFLINE, {})
    raise ValueError(f"unknown workload {name!r}")
