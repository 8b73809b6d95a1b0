"""Vectorized estimator evaluation over random collision setups.

For each setup a fixed number of colliding UEs is dropped on the square and
many channel realizations of a single contended pilot are simulated at
once, through the same uplink, serving-set, precoding and estimator
functions an access attempt runs. Setups and realizations are stacked on
two leading axes, and the setups run in fixed blocks of ``SETUP_BLOCK``,
one pass per block. Per-UE normalized bias and squared error of the chosen
estimator are collected against the true total uplink power over the
serving APs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .access import build_serving_sets, downlink_observation, true_alpha_lt
from .channel import pilot_activity
from .estimators import estimate, knowledge_for
from .scenario import ScenarioConfig, bs_topology, build_topology, drop_ues

# Setups per stacked pass: large enough that a small collision's pass is not
# all call overhead, small enough that memory stays flat in the setup count.
SETUP_BLOCK = 20


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

    The cellular estimator runs on the single-BS view (:func:`bs_topology`; no
    64-AP table is built), where the one serving "AP" is the BS and ``l_max``
    must be 1. Every constant is read from the topology it runs on, as an
    access attempt reads it. Setups run in stacked blocks of ``SETUP_BLOCK``;
    a one-setup call draws exactly what one setup of a per-setup loop draws.
    Counts below 1, and a ``nearby_size`` beyond the site's L, raise ValueError.
    """
    for name, value in (("num_setups", num_setups), ("num_realizations", num_realizations),
                        ("collision_size", collision_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    num_aps = config.bs_config.num_aps if kind == "cellular" else config.num_aps
    if not 1 <= nearby_size <= num_aps:
        raise ValueError(f"nearby_size must lie in [1, {num_aps}], got {nearby_size}")
    blocks = [_bench_block(kind, collision_size, nearby_size, l_max, config, rng,
                           min(SETUP_BLOCK, num_setups - start), num_realizations)
              for start in range(0, num_setups, SETUP_BLOCK)]
    nmse, neb, nmd = (np.concatenate(stat, axis=None) for stat in zip(*blocks))
    return BenchResult(nmse=nmse, neb=neb, nmd=nmd)


def _bench_block(kind: str, collision_size: int, nearby_size: int, l_max: int,
                 config: ScenarioConfig, rng: np.random.Generator,
                 setups: int, realizations: int):
    """(NMSE, NEB, NMD), each (setups, K), of ``setups`` setups in one stacked pass.

    Arrays carry setups on axis 0 and realizations on axis 1; the gains have
    a unit realization axis, (S, 1, K, L).
    """
    pilots = np.zeros(collision_size, dtype=int)          # every UE on pilot 0
    num_ues = setups * collision_size
    topo = (bs_topology(config, drop_ues(config, rng, num_ues)) if kind == "cellular"
            else build_topology(config, rng, num_ues=num_ues))            # carries its config
    site = topo.config
    beta = topo.beta.reshape(setups, 1, collision_size, site.num_aps)     # (S, 1, K, L)
    beta_nearby = -np.sort(-beta, axis=-1)[..., :nearby_size]  # (S, 1, K, C), strongest first

    alpha_lt = true_alpha_lt(beta, pilots, site)[..., :1, :]              # (S, 1, 1, L)
    activity = pilot_activity(
        np.broadcast_to(alpha_lt, (setups, realizations, 1, site.num_aps)),
        site.antennas_per_ap, site.noise_mw, rng)                         # (S, R, 1, L)
    serving = build_serving_sets(activity, l_max, site.noise_mw)
    obs = downlink_observation(
        activity, serving, beta, alpha_lt, pilots, site, rng, normalized=kind == "est3")

    est = estimate(kind, knowledge_for(beta_nearby, obs.z.real, site), site)  # (S, R, K)
    mask = serving.mask[..., 0, :]                                            # (S, R, L)
    alpha_t = mask @ alpha_lt[:, 0, 0, :, None]                               # (S, R, 1)
    mean_alpha = alpha_t.mean(axis=1)                                         # (S, 1)

    nmse = (((est - alpha_t) / alpha_t) ** 2).mean(axis=1)
    neb = (est.mean(axis=1) - mean_alpha) / mean_alpha
    sum_pt = mask.astype(float) @ np.swapaxes(beta[:, 0], -1, -2)            # (S, R, K)
    with np.errstate(divide="ignore", invalid="ignore"):
        nmd = np.nanmean((sum_pt - beta_nearby.sum(axis=-1)) / sum_pt, axis=1)
    return nmse, neb, nmd
