"""Vectorized estimator evaluation over random collision setups.

For each setup a fixed number of colliding UEs is dropped on the square and
many channel realizations of a single contended pilot are simulated at
once, through the same uplink, serving-set, precoding and estimator
functions an access attempt runs, stacked on a leading realization axis.
Per-UE normalized bias and squared error of the chosen estimator are
collected against the true total uplink power over the serving APs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .access import build_serving_sets, downlink_observation, true_alpha_lt
from .channel import draw_uplink, pilot_activity
from .estimators import cpu_alpha_hat, estimate, knowledge_for
from .scenario import ScenarioConfig, build_topology


@dataclass
class BenchResult:
    """Per-(setup, UE) normalized statistics."""

    nmse: np.ndarray
    neb: np.ndarray
    nmd: np.ndarray


def run_estimator_bench(kind: str, collision_size: int, nearby_size: int,
                        l_max: int, config: ScenarioConfig,
                        rng: np.random.Generator,
                        num_setups: int = 100, num_realizations: int = 100,
                        delta: float | None = None) -> BenchResult:
    """Median-ready NMSE/NEB samples for one estimator at one collision size.

    The cellular estimator runs the same loop on the single-BS view
    (``Topology.bs_view``), where the one serving "AP" is the BS and
    ``l_max`` must be 1.
    """
    cellular = kind == "cellular"
    phy = config.bs_config if cellular else config
    n_ant = phy.antennas_per_ap
    normalized = kind == "est3"
    pilots = np.zeros(collision_size, dtype=int)          # every UE on pilot 0

    nmse_out = np.empty((num_setups, collision_size))
    neb_out = np.empty((num_setups, collision_size))
    nmd_out = np.empty((num_setups, collision_size))

    for s in range(num_setups):
        topo = build_topology(config, rng, num_ues=collision_size)
        beta = (topo.bs_view if cellular else topo).beta                  # (S, L)
        nearby = np.argsort(-beta, axis=1, kind="stable")[:, :nearby_size]
        beta_nearby = np.take_along_axis(beta, nearby, axis=1)             # (S, C)

        alpha_lt = true_alpha_lt(beta, pilots, config)[:1]                 # (1, L)
        y = draw_uplink(np.broadcast_to(alpha_lt, (num_realizations, 1, phy.num_aps)),
                        n_ant, config.noise_mw, rng)                        # (R, L, 1, N)
        activity = pilot_activity(y)                                        # (R, 1, L)
        serving = build_serving_sets(activity, l_max, config.noise_mw)
        obs = downlink_observation(
            y, serving, beta, alpha_lt, pilots, phy, rng,
            precoding_kind="normalized" if normalized else "standard",
            cpu_alpha_hat=cpu_alpha_hat(activity, config.noise_mw) if normalized else None)

        est = estimate(kind, knowledge_for(beta_nearby, obs.z.real, config), config, delta)
        mask = serving.mask[:, 0]                                           # (R, L)
        alpha_t = mask @ alpha_lt[0]                                        # (R,)

        ratio = (est - alpha_t[:, None]) / alpha_t[:, None]
        nmse_out[s] = (ratio ** 2).mean(axis=0)
        neb_out[s] = (est.mean(axis=0) - alpha_t.mean()) / alpha_t.mean()
        sum_pt = mask.astype(float) @ beta.T                                # (R, S)
        with np.errstate(divide="ignore", invalid="ignore"):
            nmd_out[s] = np.nanmean((sum_pt - beta_nearby.sum(axis=1)[None, :]) / sum_pt,
                                    axis=0)

    return BenchResult(nmse=nmse_out.ravel(), neb=neb_out.ravel(), nmd=nmd_out.ravel())
