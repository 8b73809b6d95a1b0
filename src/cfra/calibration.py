"""Training of the serving-set cap and of the compensation factor.

Both procedures are Monte-Carlo: the cap comes from thresholding averaged
pilot-activity rows over random transmission rounds, the compensation
factor from the measured effective downlink power of the normalized
precoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access import build_serving_sets, precoder_weights, true_alpha_lt
from .channel import draw_uplink, pilot_activity, select_pilots
from .estimators import cpu_alpha_hat
from .scenario import ScenarioConfig, build_topology


@dataclass(frozen=True)
class TrainingConfig:
    """Controls for the serving-cap training phase."""

    scenario: ScenarioConfig
    rounds: int = 100
    repetitions: int = 100

    def __post_init__(self):
        if self.rounds < 1 or self.repetitions < 1:
            raise ValueError("rounds and repetitions must be >= 1")


def train_lmax(training: TrainingConfig, rng: np.random.Generator,
               topology=None) -> tuple[int, list[float]]:
    """Serving-cap selection by averaged-activity thresholding.

    Per round: draw the active set, average the activity matrix over the
    repetitions, and count, for each truly used pilot, the APs at or above
    the row mean. The cap is the ceiling of the grand mean. Rounds without
    any active UE contribute nothing; all-empty training is an error.
    """
    config = training.scenario
    if topology is None:
        topology = build_topology(config, rng)
    n_ues = topology.ue_positions.shape[0]

    per_round: list[float] = []
    for _ in range(training.rounds):
        active = np.flatnonzero(rng.random(n_ues) < config.access_probability)
        if active.size == 0:
            continue
        pilots = select_pilots(active.size, config.num_pilots, rng)
        alpha_lt = true_alpha_lt(topology.gains(active), pilots, config)
        y = draw_uplink(np.broadcast_to(alpha_lt, (training.repetitions,) + alpha_lt.shape),
                        config.antennas_per_ap, config.noise_mw, rng)
        avg = pilot_activity(y).mean(axis=0)                                         # (T, L)
        counts = []
        for t in np.unique(pilots):
            row = avg[t]
            eps = row.mean()
            counts.append(int((row >= eps).sum()))
        per_round.append(float(np.mean(counts)))
    if not per_round:
        raise RuntimeError("training produced no active pilots in any round")
    l_max = math.ceil(float(np.mean(per_round)))
    return max(1, min(l_max, config.num_aps)), per_round


def calibrate_delta(config: ScenarioConfig, l_max: int, rng: np.random.Generator,
                    draws: int = 20000,
                    collision_sizes=range(1, 11)) -> tuple[float, float]:
    """Compensation factor from the measured effective DL power.

    Draws collisions of each size on a single pilot, forms the serving set
    with the given cap, and averages the normalized precoder's effective
    per-AP power. Returns (delta, average effective power in mW).
    """
    sizes = list(collision_sizes)
    per_size = max(1, draws // len(sizes))
    p_tau = config.ul_power_mw * config.num_pilots
    q_values = []
    for size in sizes:
        topo = build_topology(config, rng, num_ues=per_size * size)
        # every draw's UEs share one pilot: its signal power sums their gains
        alpha = p_tau * topo.beta.reshape(per_size, size, config.num_aps).sum(axis=1)
        y = draw_uplink(alpha[:, None, :], config.antennas_per_ap, config.noise_mw,
                        rng)                                              # (D, L, 1, N)
        activity = pilot_activity(y)                                      # (D, 1, L)
        serving = build_serving_sets(activity, l_max, config.noise_mw)
        _, q_eff = precoder_weights(y, serving.mask, config.dl_power_per_ap_mw,
                                    config.num_pilots,
                                    cpu_alpha_hat(activity, config.noise_mw))
        # serving entries draw by draw, strongest first
        ranked = np.take_along_axis(q_eff, serving.order, axis=-1)
        q_values.append(ranked[np.arange(config.num_aps) < serving.size[..., None]])
    q_all = np.concatenate(q_values)
    if q_all.size == 0:
        raise RuntimeError("calibration produced no serving APs")
    q_avg = float(q_all.mean())
    delta = math.sqrt(config.dl_power_per_ap_mw / q_avg)
    return delta, q_avg
