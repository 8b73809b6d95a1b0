"""Contention resolution and protocol orchestration.

Single-attempt runners for the three protocols plus the multi-block access
campaign that produces attempt counts and power bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .access import build_serving_sets, downlink_observation, true_alpha_lt
from .channel import (colliding_sets, correlate_uplink, draw_channels,
                      pilot_activity, select_pilots)
from .estimators import (EstimatorSpec, cpu_alpha_hat, estimate, estimate_cellular,
                         greedy_flexible_decide, knowledge_for)
from .scenario import ScenarioConfig, Topology, bs_topology, build_topology, natural_sets

PROTOCOLS = ("bcf", "cf-sucre", "ce-sucre")


def sucre_decision(gamma: float, alpha_hat: float) -> bool:
    """True (repeat) iff the UE's own power exceeds half the estimated total;
    elementwise on arrays."""
    return gamma > alpha_hat / 2.0


def _ap_bits(aps) -> int:
    """AP indices as a Python-int bitmask, so any number of APs fits."""
    bits = 0
    for l in np.asarray(aps, dtype=np.int64).ravel().tolist():
        bits |= 1 << l
    return bits


def spatial_separability_admit(winners, natural_by_ue: dict, serving_aps) -> set:
    """Winners that keep at least one exclusively-nearby serving AP.

    A winner is admitted when (a) some serving AP lies inside its influence
    region and (b) at least one of those APs is inside no other winner's
    region: ``own & serving & ~others != 0`` on AP bitmasks.
    """
    winners = list(winners)
    serving = _ap_bits(serving_aps)
    regions = [_ap_bits(natural_by_ue[k]) for k in winners]
    admitted = set()
    for k, own in zip(winners, regions):
        others = 0
        for i, region in zip(winners, regions):
            if i != k:
                others |= region
        if own & serving & ~others:
            admitted.add(k)
    return admitted


@dataclass
class AttemptOutcome:
    """Everything one access attempt produced, plus diagnostics."""

    admitted: set = field(default_factory=set)          # UE ids admitted this attempt
    winners: dict = field(default_factory=dict)         # pilot -> list of winning UE ids
    colliders: dict = field(default_factory=dict)       # pilot -> list of UE ids
    decisions: dict = field(default_factory=dict)       # UE id -> repeat decision
    alpha_hat: dict = field(default_factory=dict)       # UE id -> its estimate
    alpha_true: dict = field(default_factory=dict)      # pilot -> true total UL power
    unserved: set = field(default_factory=set)          # UEs whose pilot had no serving AP
    active_pilots: int = 0
    operative_ap_count: int = 0
    served_active_per_ap: float = 0.0   # mean over operative APs of served active pilots
    q_eff_mean: float = float("nan")    # mean effective DL power over serving entries


def _empty_outcome() -> AttemptOutcome:
    return AttemptOutcome()


def run_attempt(protocol: str, spec: EstimatorSpec, topology: Topology,
                active_ues, config: ScenarioConfig,
                rng: np.random.Generator) -> AttemptOutcome:
    """One coherence block of the chosen protocol for the given active UEs."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "ce-sucre":
        if spec.kind != "cellular":
            raise ValueError("ce-sucre requires the cellular estimator")
        return _run_attempt_cellular(topology, active_ues, config, rng)
    if protocol == "cf-sucre" and spec.kind == "cellular":
        raise ValueError("the cellular estimator only applies to ce-sucre")

    active = np.asarray(list(active_ues), dtype=int)
    if active.size == 0:
        return _empty_outcome()

    beta_act = topology.gains(active)                   # (K, L)
    pilots = select_pilots(active.size, config.num_pilots, rng)
    h = draw_channels(beta_act, config.antennas_per_ap, rng)
    y = correlate_uplink(h, pilots, config, rng)
    activity = pilot_activity(y)

    l_max = config.num_aps if protocol == "bcf" else config.l_max
    serving = build_serving_sets(activity, l_max, config.noise_mw)
    nat = natural_sets(topology, config, active)
    ues = active.tolist()
    nat_by_ue = dict(zip(ues, nat))

    out = AttemptOutcome()
    sets = colliding_sets(pilots, config.num_pilots)
    alpha_lt = true_alpha_lt(beta_act, pilots, config)
    for t, members in enumerate(sets):
        if members.size:
            out.colliders[t] = active[members].tolist()
            out.alpha_true[t] = float(alpha_lt[t, serving.p_t[t]].sum())
    out.active_pilots = sum(1 for m in sets if m.size)
    out.operative_ap_count = int(serving.operative_aps.size)
    if serving.operative_aps.size:
        active_mask = np.array([m.size > 0 for m in sets])
        served_active = (serving.mask & active_mask[:, None]).sum(axis=0)
        out.served_active_per_ap = float(served_active[serving.operative_aps].mean())

    if protocol == "bcf":
        # no RA response / decision: every colliding UE is a winner
        out.decisions = dict.fromkeys(ues, True)
        _admit_winners(out, active, sets, np.ones(active.size, dtype=bool),
                       nat_by_ue, serving)
        return out

    # CF-SUCRe: precoded response, distributed decision, separability check
    normalized = spec.kind == "est3"
    alpha_hat_t = cpu_alpha_hat(activity, config.noise_mw) if normalized else None
    obs = downlink_observation(
        y, serving, h, beta_act, pilots, config, rng,
        precoding_kind="normalized" if normalized else "standard",
        cpu_alpha_hat=alpha_hat_t)
    if normalized:
        q_vals = obs.effective_dl_power[serving.mask]
        out.q_eff_mean = float(q_vals.mean()) if q_vals.size else float("nan")
    else:
        out.q_eff_mean = config.dl_power_per_ap_mw

    # one decision batch per natural-set length: the gains of a batch form an
    # exact (B, n) block, so every sum runs over the same terms as for one UE
    repeat = np.zeros(active.size, dtype=bool)
    alpha_hat = np.zeros(active.size)
    served = np.flatnonzero(obs.served)
    lengths = np.array([m.size for m in nat])[served]
    for n in np.unique(lengths):
        batch = served[lengths == n]
        nearby = np.stack([nat[i] for i in batch])                    # (B, n)
        knowledge = knowledge_for(np.take_along_axis(beta_act[batch], nearby, axis=1),
                                  obs.z[batch].real, config)
        alpha_hat[batch] = estimate(spec.kind, knowledge, config, spec.delta)
        if spec.nearby_method == "greedy":
            repeat[batch] = greedy_flexible_decide(knowledge, spec, config)
        else:
            repeat[batch] = sucre_decision(knowledge.gamma, alpha_hat[batch])

    out.unserved = set(active[~obs.served].tolist())
    out.decisions = dict(zip(ues, repeat.tolist()))
    out.alpha_hat = dict(zip(active[served].tolist(), alpha_hat[served].tolist()))
    _admit_winners(out, active, sets, repeat, nat_by_ue, serving)
    return out


def _admit_winners(out: AttemptOutcome, active: np.ndarray, sets: list,
                   repeat: np.ndarray, nat_by_ue: dict, serving) -> None:
    """Record each pilot's repeating UEs and admit the spatially separable ones."""
    for t, members in enumerate(sets):
        winners = active[members[repeat[members]]].tolist()
        if winners:
            out.winners[t] = winners
            out.admitted |= spatial_separability_admit(winners, nat_by_ue, serving.p_t[t])


def _run_attempt_cellular(topology: Topology, active_ues, config: ScenarioConfig,
                          rng: np.random.Generator) -> AttemptOutcome:
    """Single-BS SUCRe: same machinery with one M-antenna site at the center;
    a winner is admitted only when it retransmits alone."""
    active = np.asarray(list(active_ues), dtype=int)
    if active.size == 0:
        return _empty_outcome()

    beta_act = bs_topology(config, topology.ue_positions[active]).beta   # (K, 1)
    pilots = select_pilots(active.size, config.num_pilots, rng)
    h = draw_channels(beta_act, config.bs_antennas, rng)
    y = correlate_uplink(h, pilots, config, rng)
    activity = pilot_activity(y)
    serving = build_serving_sets(activity, 1, config.noise_mw)

    obs = downlink_observation(y, serving, h, beta_act, pilots, config.bs_config, rng,
                               dl_power_mw=config.bs_dl_power_mw)

    out = AttemptOutcome()
    sets = colliding_sets(pilots, config.num_pilots)
    p_tau = config.ul_power_mw * config.num_pilots
    for t, members in enumerate(sets):
        if members.size:
            out.colliders[t] = active[members].tolist()
            out.alpha_true[t] = float(p_tau * beta_act[members, 0].sum()) \
                if serving.p_t[t].size else 0.0
    out.active_pilots = sum(1 for m in sets if m.size)
    out.operative_ap_count = 1
    out.served_active_per_ap = float(out.active_pilots)
    out.q_eff_mean = config.bs_dl_power_mw

    served = np.flatnonzero(obs.served)
    beta_k = beta_act[served, 0]
    alpha_hat = estimate_cellular(beta_k, obs.z[served].real, config)
    repeat = np.zeros(active.size, dtype=bool)
    repeat[served] = sucre_decision(p_tau * beta_k, alpha_hat)
    out.unserved = set(active[~obs.served].tolist())
    out.decisions = dict(zip(active.tolist(), repeat.tolist()))
    out.alpha_hat = dict(zip(active[served].tolist(), alpha_hat.tolist()))

    for t, members in enumerate(sets):
        winners = active[members[repeat[members]]].tolist()
        if winners:
            out.winners[t] = winners
            if len(winners) == 1:
                out.admitted.add(winners[0])
    return out


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

    cohort_mask = rng.random(n_ues) < config.access_probability
    cohort = np.flatnonzero(cohort_mask)
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
            idle = ~ever_active
            newly = idle & (rng.random(n_ues) < config.access_probability)
            in_progress |= newly
            ever_active |= newly

        candidates = np.flatnonzero(in_progress)
        first_timers = attempts[candidates] == 0
        coin = rng.random(candidates.size) < config.reattempt_probability
        go = candidates[first_timers | coin]
        if go.size == 0:
            continue

        out = run_attempt(protocol, spec, topology, go, config, rng)
        attempts[go] += 1
        for ue in out.admitted:
            succeeded[ue] = True
            resolved[ue] = True
            in_progress[ue] = False
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
