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

from .access import build_serving_sets
from .channel import complex_noise, draw_channels, select_pilots
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

    @property
    def duration_symbols(self) -> int:
        return self.rounds * self.repetitions


def _averaged_activity(beta_act: np.ndarray, pilots: np.ndarray,
                       config: ScenarioConfig, repetitions: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Activity matrix (T, L) averaged over fresh channel/noise repetitions."""
    n_ues, n_aps = beta_act.shape
    n_ant = config.antennas_per_ap
    amp = math.sqrt(config.ul_power_mw * config.num_pilots)
    acc = np.zeros((config.num_pilots, n_aps))
    h = draw_channels(np.broadcast_to(beta_act, (repetitions, n_ues, n_aps)), n_ant, rng)
    noise = complex_noise((repetitions, n_aps, config.num_pilots, n_ant), config.noise_mw, rng)
    y = noise
    for t in range(config.num_pilots):
        on_t = pilots == t
        if on_t.any():
            y[:, :, t, :] += amp * h[:, on_t, :, :].sum(axis=1)
    acc = (np.abs(y) ** 2).sum(axis=3).mean(axis=0).T / n_ant  # (T, L)
    return acc


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
        avg = _averaged_activity(topology.gains(active), pilots, config,
                                 training.repetitions, rng)
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
    n_ant = config.antennas_per_ap
    amp = math.sqrt(config.ul_power_mw * config.num_pilots)
    q_values = []
    for size in sizes:
        topo = build_topology(config, rng, num_ues=per_size * size)
        beta = topo.beta.reshape(per_size, size, config.num_aps)
        h = draw_channels(beta, n_ant, rng)                      # (D, S, L, N)
        noise = complex_noise((per_size, config.num_aps, n_ant), config.noise_mw, rng)
        y = amp * h.sum(axis=1) + noise                          # (D, L, N)
        activity = (np.abs(y) ** 2).sum(axis=2) / n_ant          # (D, L)
        alpha_hat = np.maximum(activity - config.noise_mw, 0.0).sum(axis=1)
        for d in range(per_size):
            serving = build_serving_sets(activity[d][None, :], l_max, config.noise_mw)
            members = serving.p_t[0]
            if members.size == 0 or alpha_hat[d] <= 0:
                continue
            q_lt = (config.dl_power_per_ap_mw / (n_ant * alpha_hat[d])) \
                * activity[d, members] * n_ant
            q_values.append(q_lt)
    if not q_values:
        raise RuntimeError("calibration produced no serving APs")
    q_avg = float(np.concatenate(q_values).mean())
    delta = math.sqrt(config.dl_power_per_ap_mw / q_avg)
    return delta, q_avg
