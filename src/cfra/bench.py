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
from .channel import pilot_activity
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
                        num_setups: int = 100, num_realizations: int = 100) -> BenchResult:
    """Median-ready NMSE/NEB samples for one estimator at one collision size.

    The cellular estimator runs the same loop on the single-BS view
    (``Topology.bs_view``), where the one serving "AP" is the BS and
    ``l_max`` must be 1. Every constant is read from the topology it runs
    on, as an access attempt reads it.
    """
    cellular = kind == "cellular"
    pilots = np.zeros(collision_size, dtype=int)          # every UE on pilot 0

    nmse_out = np.empty((num_setups, collision_size))
    neb_out = np.empty((num_setups, collision_size))
    nmd_out = np.empty((num_setups, collision_size))

    for s in range(num_setups):
        topo = build_topology(config, rng, num_ues=collision_size)
        topo = topo.bs_view if cellular else topo                          # carries bs_config
        beta, site = topo.beta, topo.config                                # (S, L)
        beta_nearby = -np.sort(-beta, axis=1)[:, :nearby_size]             # (S, C) strongest first

        alpha_lt = true_alpha_lt(beta, pilots, site)[:1]                   # (1, L)
        activity = pilot_activity(np.broadcast_to(alpha_lt, (num_realizations, 1, site.num_aps)),
                                  site.antennas_per_ap, site.noise_mw, rng)  # (R, 1, L)
        serving = build_serving_sets(activity, l_max, site.noise_mw)
        obs = downlink_observation(
            activity, serving, beta, alpha_lt, pilots, site, rng,
            cpu_alpha_hat=cpu_alpha_hat(activity, site.noise_mw) if kind == "est3" else None)

        est = estimate(kind, knowledge_for(beta_nearby, obs.z.real, site), site)
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
