"""Training of the serving-set cap and of the compensation factor.

Both procedures are Monte-Carlo: the cap comes from thresholding averaged
pilot-activity rows over random transmission rounds, each average drawn
from its Gamma(N R) law, the compensation factor from the measured
effective downlink power of the normalized precoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access import build_serving_sets, precoder_weights, true_alpha_lt
from .channel import pilot_activity, select_pilots
from .scenario import ScenarioConfig, build_topology, check_fields

# collision sizes whose serving APs the compensation factor averages over
COLLISION_SIZES = range(1, 11)


@dataclass(frozen=True)
class TrainingConfig:
    """Controls for the serving-cap training phase."""

    scenario: ScenarioConfig
    rounds: int = 100
    repetitions: int = 100

    __post_init__ = check_fields


def train_lmax(training: TrainingConfig, rng: np.random.Generator) -> tuple[int, list[float]]:
    """Serving-cap selection by averaged-activity thresholding.

    Per round: drop the active set (a Binomial(|U|, p) count of UEs, as a
    campaign block draws its arrivals), draw the mean of R activity matrices
    in one :func:`pilot_activity` draw at N R antennas (the mean of R draws
    v Gamma(N)/N is v Gamma(N R)/(N R)), and count, for each used pilot, the
    APs at or above the row mean. The cap is the ceiling of the grand mean.
    Rounds without an active UE add nothing; all-empty training is an error.
    """
    config = training.scenario
    per_round: list[float] = []
    for _ in range(training.rounds):
        active = rng.binomial(config.num_inactive_ues, config.access_probability)
        if active == 0:
            continue
        beta = build_topology(config, rng, num_ues=active).beta
        pilots = select_pilots(active, config.num_pilots, rng)
        alpha_lt = true_alpha_lt(beta, pilots, config)
        avg = pilot_activity(alpha_lt, config.antennas_per_ap * training.repetitions,
                             config.noise_mw, rng)                                   # (T, L)
        used = avg[np.unique(pilots)]
        per_round.append(float((used >= used.mean(axis=1, keepdims=True)).sum(axis=1).mean()))
    if not per_round:
        raise RuntimeError("training produced no active pilots in any round")
    l_max = math.ceil(float(np.mean(per_round)))
    return max(1, min(l_max, config.num_aps)), per_round


def calibrate_delta(config: ScenarioConfig, l_max: int, rng: np.random.Generator,
                    draws: int = 20000) -> tuple[float, float]:
    """Compensation factor from the measured effective DL power.

    Draws collisions of each size in ``COLLISION_SIZES`` on a single pilot,
    forms the serving set with the given cap, and averages the normalized
    precoder's effective per-AP power; ``draws`` is split evenly over the
    sizes. Returns (delta, average effective power in mW).
    """
    if draws < 1 or draws % len(COLLISION_SIZES):
        raise ValueError(f"draws must be a positive multiple of {len(COLLISION_SIZES)}: {draws}")
    per_size = draws // len(COLLISION_SIZES)
    q_values = []
    for size in COLLISION_SIZES:
        beta = build_topology(config, rng, num_ues=per_size * size).beta
        # every draw's UEs share pilot 0; its signal power is the only column read
        alpha = true_alpha_lt(beta.reshape(per_size, size, config.num_aps),
                              np.zeros(size, dtype=int), config)[:, :1]     # (D, 1, L)
        activity = pilot_activity(alpha, config.antennas_per_ap,
                                  config.noise_mw, rng)                   # (D, 1, L)
        serving = build_serving_sets(activity, l_max, config.noise_mw)
        _, q_eff = precoder_weights(activity, serving.mask, config, normalized=True)
        # serving entries draw by draw, strongest first: at most the l_max head
        ranked = np.take_along_axis(q_eff, serving.order[..., :l_max], axis=-1)
        q_values.append(ranked[np.arange(l_max) < serving.size[..., None]])
    q_all = np.concatenate(q_values)
    if q_all.size == 0:
        raise RuntimeError("calibration produced no serving APs")
    q_avg = float(q_all.mean())
    delta = math.sqrt(config.dl_power_per_ap_mw / q_avg)
    return delta, q_avg
