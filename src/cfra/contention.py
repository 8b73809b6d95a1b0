"""Contention resolution and protocol orchestration.

One attempt runner shared by the three protocols, on per-UE and per-pilot
arrays, plus the multi-block access campaign that produces attempt counts
and power bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .access import build_serving_sets, downlink_observation, true_alpha_lt
from .channel import draw_uplink, pilot_activity, select_pilots
from .estimators import (EstimatorSpec, cpu_alpha_hat, estimate, greedy_flexible_decide,
                         knowledge_for)
from .scenario import ScenarioConfig, Topology, build_topology, natural_sets

PROTOCOLS = ("bcf", "cf-sucre", "ce-sucre")


def sucre_decision(gamma: float, alpha_hat: float) -> bool:
    """True (repeat) iff the UE's own power exceeds half the estimated total;
    elementwise on arrays."""
    return gamma > alpha_hat / 2.0


def spatial_separability_admit(region, pilots, serving_mask) -> np.ndarray:
    """Which winners keep at least one exclusively-nearby serving AP.

    ``region`` (W, L) marks the APs inside each winner's influence region,
    ``pilots`` (W,) holds the winners' pilots and ``serving_mask`` (T, L) the
    pilot-serving APs. A winner is admitted when some AP serving its pilot
    lies in its own region and in no other region claimed on the same
    pilot. Returns a (W,) bool mask.
    """
    on_pilot = np.arange(serving_mask.shape[0])[:, None] == pilots       # (T, W)
    claims = (on_pilot.astype(float) @ region)[pilots]    # (W, L) same-pilot claims, own included
    return (region & serving_mask[pilots] & (claims == 1.0)).any(axis=1)


@dataclass
class AttemptOutcome:
    """Everything one access attempt produced, per transmitting UE and per pilot."""

    ues: np.ndarray             # (K,) transmitting UE ids
    pilots: np.ndarray          # (K,) pilot each UE chose
    served: np.ndarray          # (K,) bool; False when the UE's pilot had no serving AP
    repeat: np.ndarray          # (K,) bool repeat decision; every UE under bcf
    alpha_hat: np.ndarray       # (K,) estimated total UL power; nan where not estimated
    alpha_true: np.ndarray      # (T,) true total UL power over each pilot's serving APs
    admitted: np.ndarray        # ids of the UEs admitted this attempt
    active_pilots: int
    operative_ap_count: int
    served_active_per_ap: float     # mean over operative APs of served active pilots
    q_eff_mean: float               # mean effective DL power over serving entries


def run_attempt(protocol: str, spec: EstimatorSpec, topology: Topology,
                active_ues, config: ScenarioConfig,
                rng: np.random.Generator) -> AttemptOutcome:
    """One coherence block of the chosen protocol for the given active UEs.

    ce-sucre runs the same steps on the single-BS view (``topology.bs_view``
    with ``config.bs_config``): its one M-antenna site lies in every UE's
    influence region, so separability admits a winner exactly when it
    repeats alone on its pilot.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "ce-sucre":
        if spec.kind != "cellular":
            raise ValueError("ce-sucre requires the cellular estimator")
        topology, config = topology.bs_view, config.bs_config
    elif protocol == "cf-sucre" and spec.kind == "cellular":
        raise ValueError("the cellular estimator only applies to ce-sucre")

    active = np.asarray(list(active_ues), dtype=int)
    beta_act = topology.gains(active)                   # (K, L)
    pilots = select_pilots(active.size, config.num_pilots, rng)
    alpha_lt = true_alpha_lt(beta_act, pilots, config)  # (T, L)
    y = draw_uplink(alpha_lt, config.antennas_per_ap, config.noise_mw, rng)
    activity = pilot_activity(y)

    l_max = config.num_aps if protocol == "bcf" else config.l_max
    serving = build_serving_sets(activity, l_max, config.noise_mw)
    served = serving.mask.any(axis=1)[pilots]
    order, size = natural_sets(beta_act, config)
    alpha_true = np.where(serving.mask, alpha_lt, 0.0).sum(axis=1)
    used = np.zeros(config.num_pilots, dtype=bool)
    used[pilots] = True
    served_active = (serving.mask & used[:, None]).sum(axis=0)[serving.operative_aps]

    # bcf has no RA response or decision: every colliding UE is a winner
    repeat = np.full(active.size, protocol == "bcf")
    alpha_hat = np.full(active.size, np.nan)
    q_eff_mean = float("nan")
    if protocol != "bcf":
        # precoded response, then the distributed decision
        normalized = spec.kind == "est3"
        obs = downlink_observation(
            y, serving, beta_act, alpha_lt, pilots, config, rng,
            precoding_kind="normalized" if normalized else "standard",
            cpu_alpha_hat=cpu_alpha_hat(activity, config.noise_mw) if normalized else None)
        if normalized:
            q_vals = obs.effective_dl_power[serving.mask]
            q_eff_mean = float(q_vals.mean()) if q_vals.size else float("nan")
        else:
            q_eff_mean = config.dl_power_per_ap_mw

        # one decision batch per natural-set length: the gains of a batch form an
        # exact (B, n) block, so every sum runs over the same terms as for one UE
        candidates = np.flatnonzero(served)
        for n in np.flatnonzero(np.bincount(size[candidates])):
            batch = candidates[size[candidates] == n]
            knowledge = knowledge_for(beta_act[batch[:, None], order[batch, :n]],
                                      obs.z[batch].real, config)
            alpha_hat[batch] = estimate(spec.kind, knowledge, config, spec.delta)
            if spec.nearby_method == "greedy":
                repeat[batch] = greedy_flexible_decide(knowledge, spec, config)
            else:
                repeat[batch] = sucre_decision(knowledge.gamma, alpha_hat[batch])

    winners = np.flatnonzero(repeat)
    region = np.zeros((winners.size, config.num_aps), dtype=bool)   # natural sets as masks
    region[np.arange(winners.size)[:, None], order[winners]] = \
        np.arange(config.num_aps) < size[winners, None]
    admit = spatial_separability_admit(region, pilots[winners], serving.mask)
    return AttemptOutcome(
        ues=active, pilots=pilots, served=served, repeat=repeat, alpha_hat=alpha_hat,
        alpha_true=alpha_true, admitted=active[winners[admit]],
        active_pilots=int(used.sum()), operative_ap_count=int(served_active.size),
        served_active_per_ap=int(served_active.sum()) / max(served_active.size, 1),
        q_eff_mean=q_eff_mean)


@dataclass
class CampaignResult:
    """Attempt counts for the tagged cohort plus campaign-wide averages."""

    attempts: np.ndarray        # per cohort UE, attempts until success or give-up
    succeeded: np.ndarray       # per cohort UE
    anaa: float                 # mean attempts over the cohort; nan when empty
    tau_bar_pl: float           # avg served active pilots per operative AP
    tau_bar: float              # avg active pilots network-wide
    l_bar: float                # avg operative APs per block
    q_eff_mw: float             # avg effective DL power per serving entry


MAX_CAMPAIGN_BLOCKS = 500


def _activate(idle: np.ndarray, probability: float, rng: np.random.Generator) -> np.ndarray:
    """The idle UEs that activate, each independently with ``probability``.

    Drawn as a Binomial(|idle|, p) count and then a uniform subset of that
    size, which has the same law as one coin per UE and costs O(new UEs).
    """
    count = rng.binomial(idle.size, probability)
    return idle[rng.choice(idle.size, count, replace=False, shuffle=False)]


def run_access_campaign(protocol: str, spec: EstimatorSpec, config: ScenarioConfig,
                        rng: np.random.Generator,
                        topology: Topology | None = None) -> CampaignResult:
    """Simulate coherence blocks until the first-block cohort is resolved.

    Failed UEs retry with the configured coin flip; fresh activations join
    every block so contention pressure stays stationary. Only the cohort is
    tracked for attempt statistics.
    """
    if topology is None:
        topology = build_topology(config, rng)
    n_ues = topology.ue_positions.shape[0]

    attempts = np.zeros(n_ues, dtype=int)
    resolved = np.zeros(n_ues, dtype=bool)      # admitted or gave up
    succeeded = np.zeros(n_ues, dtype=bool)
    in_progress = np.zeros(n_ues, dtype=bool)
    ever_active = np.zeros(n_ues, dtype=bool)

    cohort = np.sort(_activate(np.arange(n_ues), config.access_probability, rng))
    in_progress[cohort] = True
    ever_active[cohort] = True

    tau_pl_sum = tau_sum = l_sum = 0.0
    q_eff_sum = 0.0
    q_eff_blocks = 0
    blocks = 0

    for block in range(MAX_CAMPAIGN_BLOCKS):
        if resolved[cohort].all() and cohort.size:
            break
        if cohort.size == 0:
            break
        if block > 0:
            newly = _activate(np.flatnonzero(~ever_active), config.access_probability, rng)
            in_progress[newly] = True
            ever_active[newly] = True

        candidates = np.flatnonzero(in_progress)
        first_timers = attempts[candidates] == 0
        coin = rng.random(candidates.size) < config.reattempt_probability
        go = candidates[first_timers | coin]
        if go.size == 0:
            continue

        out = run_attempt(protocol, spec, topology, go, config, rng)
        attempts[go] += 1
        succeeded[out.admitted] = True
        resolved[out.admitted] = True
        in_progress[out.admitted] = False
        exhausted = go[(attempts[go] >= config.max_attempts) & ~succeeded[go]]
        resolved[exhausted] = True
        in_progress[exhausted] = False

        blocks += 1
        tau_pl_sum += out.served_active_per_ap
        tau_sum += out.active_pilots
        l_sum += out.operative_ap_count
        if np.isfinite(out.q_eff_mean):
            q_eff_sum += out.q_eff_mean
            q_eff_blocks += 1

    # anything still pending at the cap counts as given up with its attempts so far
    if cohort.size:
        anaa = float(attempts[cohort].mean())
    else:
        anaa = float("nan")
    return CampaignResult(
        attempts=attempts[cohort],
        succeeded=succeeded[cohort],
        anaa=anaa,
        tau_bar_pl=tau_pl_sum / blocks if blocks else 0.0,
        tau_bar=tau_sum / blocks if blocks else 0.0,
        l_bar=l_sum / blocks if blocks else 0.0,
        q_eff_mw=q_eff_sum / q_eff_blocks if q_eff_blocks else float("nan"),
    )
