"""Contention resolution and protocol orchestration.

One attempt runner shared by the three protocols, on per-UE and per-pilot
arrays, plus the multi-block access campaign that produces attempt counts
and power bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .access import build_serving_sets, downlink_observation, true_alpha_lt
from .channel import pilot_activity, select_pilots
from .estimators import (EstimatorSpec, estimate, greedy_flexible_decide, knowledge_for,
                         sucre_decision)
from .scenario import (ScenarioConfig, Topology, bs_topology, build_topology, drop_ues,
                       natural_sets)

PROTOCOLS = ("bcf", "cf-sucre", "ce-sucre")


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

    ues: np.ndarray             # (K,) transmitting UEs, rows of the topology
    pilots: np.ndarray          # (K,) pilot each UE chose
    served: np.ndarray          # (K,) bool; False when the UE's pilot had no serving AP
    repeat: np.ndarray          # (K,) bool repeat decision; every UE under bcf
    alpha_hat: np.ndarray       # (K,) estimated total UL power; nan where not estimated
    admitted: np.ndarray        # rows of the UEs admitted this attempt
    active_pilots: int              # pilots that some UE chose
    # APs serving any pilot above noise, an unused pilot too: its activity is noise
    # alone, above sigma^2 at ~45 % of APs when N = 8, so up to l_max APs serve it.
    # CampaignResult.l_bar averages this count; tau_bar_pl counts used pilots only
    operative_ap_count: int
    served_active_per_ap: float     # mean over operative APs of served active pilots
    q_eff_mean: float               # mean effective DL power over serving entries


def check_pairing(protocol: str, spec: EstimatorSpec) -> None:
    """Reject an unknown ``protocol``, or a ``spec`` it cannot run.

    ce-sucre runs the cellular estimator and cf-sucre any other; bcf makes
    no decision, so its ``spec`` is only a label.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "ce-sucre" and spec.kind != "cellular":
        raise ValueError("ce-sucre runs the cellular estimator")
    if protocol == "cf-sucre" and spec.kind == "cellular":
        raise ValueError("the cellular estimator only applies to ce-sucre")


def protocol_spec(protocol: str, kind: str, nearby_method: str) -> EstimatorSpec:
    """The estimator ``protocol`` runs when ``kind`` and ``nearby_method`` are asked for.

    ce-sucre always runs the cellular estimator, and only cf-sucre sizes its
    nearby sets by ``nearby_method``; a spec that fails :func:`check_pairing` is rejected.
    """
    spec = EstimatorSpec(kind="cellular") if protocol == "ce-sucre" else EstimatorSpec(
        kind=kind, nearby_method=nearby_method if protocol == "cf-sucre" else "fixed")
    check_pairing(protocol, spec)
    return spec


def run_attempt(protocol: str, spec: EstimatorSpec, topology: Topology,
                active_ues, rng: np.random.Generator) -> AttemptOutcome:
    """One coherence block of the chosen protocol for the given active UEs.

    The scenario constants are ``topology.config``. ce-sucre runs the same
    steps on a single-BS topology (:func:`bs_topology`, carrying ``bs_config``):
    its one M-antenna site lies in every UE's influence region, so
    separability admits a winner exactly when it repeats alone on its pilot.
    """
    check_pairing(protocol, spec)
    if protocol == "ce-sucre" and topology.config.num_aps != 1:
        raise ValueError("ce-sucre runs on a single-BS topology")
    config = topology.config

    active = np.asarray(active_ues, dtype=np.intp)
    beta_act = topology.beta[active]                    # (K, L)
    pilots = select_pilots(active.size, config.num_pilots, rng)
    alpha_lt = true_alpha_lt(beta_act, pilots, config)  # (T, L)
    activity = pilot_activity(alpha_lt, config.antennas_per_ap, config.noise_mw, rng)

    l_max = config.num_aps if protocol == "bcf" else config.l_max
    serving = build_serving_sets(activity, l_max, config.noise_mw)
    served = serving.mask.any(axis=1)[pilots]
    members = natural_sets(beta_act, config)
    used = np.zeros(config.num_pilots, dtype=bool)
    used[pilots] = True
    served_active = (serving.mask & used[:, None]).sum(axis=0)[serving.mask.any(axis=0)]

    # bcf has no RA response or decision: every colliding UE is a winner
    repeat = np.full(active.size, protocol == "bcf")
    alpha_hat = np.full(active.size, np.nan)
    q_eff_mean = float("nan")
    if protocol != "bcf":
        # precoded response, then the distributed decision
        normalized = spec.kind == "est3"
        obs = downlink_observation(activity, serving, beta_act, alpha_lt, pilots, config, rng,
                                   normalized)
        if normalized:
            q_vals = obs.effective_dl_power[serving.mask]
            q_eff_mean = float(q_vals.mean()) if q_vals.size else float("nan")
        else:
            q_eff_mean = config.dl_power_per_ap_mw

        # one decision batch: served UEs' nearby gains strongest first, zero-padded
        deciders = np.flatnonzero(served)
        n_max = members[deciders].sum(axis=1).max(initial=1)
        nearby = -np.sort(-np.where(members[deciders], beta_act[deciders], 0.0), axis=1)[:, :n_max]
        knowledge = knowledge_for(nearby, obs.z[deciders].real, config)
        alpha_hat[deciders] = estimate(spec.kind, knowledge, config)
        if spec.nearby_method == "greedy":
            repeat[deciders] = greedy_flexible_decide(knowledge, spec, config)
        else:
            repeat[deciders] = sucre_decision(knowledge.gamma, alpha_hat[deciders])

    winners = np.flatnonzero(repeat)
    admit = spatial_separability_admit(members[winners], pilots[winners], serving.mask)
    return AttemptOutcome(
        ues=active, pilots=pilots, served=served, repeat=repeat, alpha_hat=alpha_hat,
        admitted=active[winners[admit]], active_pilots=int(used.sum()),
        operative_ap_count=int(served_active.size),
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
    blocks: int                 # coherence blocks that carried an attempt; the averages' base
    truncated: bool             # cohort UEs pending at MAX_CAMPAIGN_BLOCKS, counted as given up


MAX_CAMPAIGN_BLOCKS = 500


def run_access_campaign(protocol: str, spec: EstimatorSpec, config: ScenarioConfig,
                        rng: np.random.Generator) -> CampaignResult:
    """Simulate coherence blocks until the first-block cohort is resolved.

    The population is a count. On each block Binomial(idle, p) of the idle
    UEs activate, and only they are dropped on the square and joined to the
    campaign's topology, whose rows are the activated UEs in activation
    order on the protocol's one site (the BS under ce-sucre, else the AP
    grid); the cohort is the first block's rows, tagged in a system with no
    backlog yet. Failed UEs retry with the configured coin flip and later
    blocks add fresh activations, so the backlog builds while the cohort is
    served: the ANAA is a cold-start reading, not a steady-state one. Only
    the cohort's attempts are returned, and the campaign ends when the
    cohort is resolved or after :data:`MAX_CAMPAIGN_BLOCKS` blocks.

    The campaign's state is ``attempts`` and ``succeeded`` per activated UE
    and the list of the blocks' :class:`AttemptOutcome`. The rest is derived
    from them: a UE is pending while it is neither admitted nor out of
    attempts, the idle count is |U| less the activated UEs, and the averages
    are block-order sums over the outcomes.
    """
    check_pairing(protocol, spec)

    def drop(num_ues: int) -> Topology:
        return (bs_topology(config, drop_ues(config, rng, num_ues)) if protocol == "ce-sucre"
                else build_topology(config, rng, num_ues=num_ues))

    def pending() -> np.ndarray:
        return ~succeeded & (attempts < config.max_attempts)

    cohort = rng.binomial(config.num_inactive_ues, config.access_probability)
    topology = drop(cohort)
    attempts = np.zeros(cohort, dtype=int)
    succeeded = np.zeros(cohort, dtype=bool)
    outcomes = []
    for block in range(MAX_CAMPAIGN_BLOCKS):
        if not pending()[:cohort].any():   # an empty cohort is resolved at once
            break
        new = (rng.binomial(config.num_inactive_ues - attempts.size, config.access_probability)
               if block > 0 else 0)
        if new:
            topology = topology.joined(drop(new))
            attempts = np.concatenate([attempts, np.zeros(new, dtype=int)])
            succeeded = np.concatenate([succeeded, np.zeros(new, dtype=bool)])

        candidates = np.flatnonzero(pending())
        first_timers = attempts[candidates] == 0
        coin = rng.random(candidates.size) < config.reattempt_probability
        go = candidates[first_timers | coin]
        if go.size == 0:
            continue
        out = run_attempt(protocol, spec, topology, go, rng)
        attempts[go] += 1
        succeeded[out.admitted] = True
        outcomes.append(out)

    blocks = len(outcomes)
    q_eff = [out.q_eff_mean for out in outcomes if np.isfinite(out.q_eff_mean)]
    return CampaignResult(
        attempts=attempts[:cohort],
        succeeded=succeeded[:cohort],
        anaa=float(attempts[:cohort].mean()) if cohort else float("nan"),
        tau_bar_pl=sum(out.served_active_per_ap for out in outcomes) / max(blocks, 1),
        tau_bar=sum(out.active_pilots for out in outcomes) / max(blocks, 1),
        l_bar=sum(out.operative_ap_count for out in outcomes) / max(blocks, 1),
        q_eff_mw=sum(q_eff) / len(q_eff) if q_eff else float("nan"),
        blocks=blocks, truncated=bool(pending()[:cohort].any()),
    )
