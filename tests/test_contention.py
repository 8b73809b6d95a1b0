"""Decision rule, admission set algebra and campaign bookkeeping."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cfra import contention, scenario
from cfra.contention import (AttemptOutcome, protocol_spec, run_access_campaign,
                             run_attempt, spatial_separability_admit)
from cfra.estimators import EstimatorSpec, knowledge_for, sucre_decision
from cfra.scenario import ScenarioConfig, bs_topology, build_topology, natural_sets
from helpers import reference_campaign


def test_sucre_decision():
    assert sucre_decision(1.0, 1.5)
    assert not sucre_decision(1.0, 2.0)
    assert not sucre_decision(1.0, 2.5)


def _regions(natural_by_ue, winners, num_aps):
    region = np.zeros((len(winners), num_aps), dtype=bool)
    for w, k in enumerate(winners):
        region[w, natural_by_ue[k]] = True
    return region


def _admit_one_pilot(winners, natural_by_ue, serving_aps, num_aps=8):
    """Admitted ids of winners that share one pilot, through the array rule."""
    serving = np.zeros((1, num_aps), dtype=bool)
    serving[0, serving_aps] = True
    admit = spatial_separability_admit(_regions(natural_by_ue, winners, num_aps),
                                       np.zeros(len(winners), dtype=int), serving)
    return {k for k, ok in zip(winners, admit) if ok}


def test_admit_disjoint_regions_both_win():
    natural = {1: [0, 1], 2: [2, 3]}
    admitted = _admit_one_pilot([1, 2], natural, [0, 1, 2, 3])
    assert admitted == {1, 2}


def test_admit_shared_region_blocks_both():
    natural = {1: [0], 2: [0]}
    assert _admit_one_pilot([1, 2], natural, [0]) == set()


def test_admit_partial_overlap():
    # UE 1 keeps AP 1 exclusively; UE 2 only has the contested AP 0
    natural = {1: [0, 1], 2: [0]}
    assert _admit_one_pilot([1, 2], natural, [0, 1]) == {1}


def test_admit_requires_serving_ap_in_region():
    natural = {1: [5]}
    assert _admit_one_pilot([1], natural, [0, 1]) == set()


def test_admit_overlap_outside_serving_is_harmless():
    # AP 0 is shared but not serving; exclusive serving AP 1 still admits UE 1
    natural = {1: [0, 1], 2: [0]}
    assert _admit_one_pilot([1, 2], natural, [1]) == {1}


def _admit_by_sets(winners, natural_by_ue, serving_aps):
    serving = set(int(l) for l in serving_aps)
    admitted = set()
    for k in winners:
        own = set(int(l) for l in natural_by_ue[k]) & serving
        others = set()
        for i in winners:
            if i != k:
                others |= set(int(l) for l in natural_by_ue[i])
        if own - (others & serving):
            admitted.add(k)
    return admitted


@pytest.mark.parametrize("num_aps", [4, 64, 100])
def test_admit_bitmasks_match_set_rule(num_aps):
    """The mask rule over all pilots at once equals the set rule applied
    pilot by pilot, also beyond 64 APs."""
    rng = np.random.default_rng(num_aps)
    outcomes = set()
    for _ in range(400):
        ues = rng.choice(1000, size=int(rng.integers(1, 10)), replace=False)
        natural = {int(k): rng.choice(num_aps, size=int(rng.integers(1, min(num_aps, 12) + 1)),
                                      replace=False) for k in ues}
        pilots = rng.integers(0, 3, size=ues.size)
        serving = rng.random((3, num_aps)) < rng.random()
        winners = [int(k) for k in ues]
        admit = spatial_separability_admit(_regions(natural, winners, num_aps), pilots, serving)
        expected = set()
        for t in range(3):
            on_t = [k for k, p in zip(winners, pilots) if p == t]
            expected |= _admit_by_sets(on_t, natural, np.flatnonzero(serving[t]))
        assert {k for k, ok in zip(winners, admit) if ok} == expected
        outcomes.update(admit.tolist())
    assert outcomes == {True, False}


def test_admit_on_one_ap_view_is_alone_on_pilot():
    """With one AP in every region and serving every winner's pilot (the
    single-BS view), exactly the winners alone on their pilot are admitted."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        pilots = rng.integers(0, 5, size=int(rng.integers(0, 12)))
        serving = rng.random((5, 1)) < 0.5
        serving[pilots] = True
        admit = spatial_separability_admit(np.ones((pilots.size, 1), dtype=bool), pilots, serving)
        assert np.array_equal(admit, np.bincount(pilots, minlength=5)[pilots] == 1)


def test_run_attempt_validation():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(0)
    topo = build_topology(cfg, rng, num_ues=3)
    with pytest.raises(ValueError):
        run_attempt("lte", EstimatorSpec(), topo, [0], rng)
    bs = bs_topology(cfg, topo.ue_positions)
    with pytest.raises(ValueError):
        run_attempt("ce-sucre", EstimatorSpec(kind="est1"), bs, [0], rng)
    with pytest.raises(ValueError):
        run_attempt("cf-sucre", EstimatorSpec(kind="cellular"), topo, [0], rng)
    # the cellular estimator on the AP grid would read AP 0's gain as the BS's
    with pytest.raises(ValueError, match="single-BS"):
        run_attempt("ce-sucre", EstimatorSpec(kind="cellular"), topo, [0], rng)
    run_attempt("ce-sucre", EstimatorSpec(kind="cellular"), bs, [0], rng)


def test_protocol_spec_pairs_each_protocol_with_its_estimator():
    """ce-sucre always runs the cellular estimator, and only cf-sucre keeps
    the nearby method; every spec it gives passes run_attempt, and a pairing
    no attempt could run is rejected."""
    assert protocol_spec("ce-sucre", "est2", "greedy") == EstimatorSpec(kind="cellular")
    assert protocol_spec("bcf", "est3", "greedy") == EstimatorSpec(kind="est3")
    assert protocol_spec("cf-sucre", "est3", "greedy") == EstimatorSpec("est3", "greedy")
    with pytest.raises(ValueError):
        protocol_spec("lte", "est2", "fixed")
    with pytest.raises(ValueError, match="cellular"):
        protocol_spec("cf-sucre", "cellular", "fixed")
    cfg = ScenarioConfig()
    rng = np.random.default_rng(0)
    topo = build_topology(cfg, rng, num_ues=3)
    for protocol in contention.PROTOCOLS:
        site = bs_topology(cfg, topo.ue_positions) if protocol == "ce-sucre" else topo
        run_attempt(protocol, protocol_spec(protocol, "est1", "greedy"), site, [0, 1], rng)


def test_run_attempt_empty_active_set():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(1)
    topo = build_topology(cfg, rng, num_ues=2)
    out = run_attempt("bcf", EstimatorSpec(), topo, [], rng)
    assert isinstance(out, AttemptOutcome)
    assert out.admitted.size == 0 and out.ues.size == 0 and out.active_pilots == 0


def test_bcf_lone_ue_admitted():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2)
    topo = build_topology(cfg, rng, num_ues=1)
    out = run_attempt("bcf", EstimatorSpec(), topo, [0], rng)
    assert out.admitted.tolist() == [0]
    assert out.repeat.tolist() == [True]
    assert np.isnan(out.alpha_hat).all()
    assert out.active_pilots == 1


def test_cf_sucre_lone_ue_repeats_and_wins():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(3)
    topo = build_topology(cfg, rng, num_ues=1)
    wins = 0
    for _ in range(20):
        out = run_attempt("cf-sucre", EstimatorSpec(kind="est2"), topo, [0], rng)
        wins += 0 in out.admitted
        assert np.array_equal(np.isfinite(out.alpha_hat), out.served)
    assert wins >= 18  # collision-free access succeeds essentially always


def test_ce_sucre_singleton_winner_rule():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(4)
    topo = bs_topology(cfg, build_topology(cfg, rng, num_ues=12).ue_positions)
    spec = EstimatorSpec(kind="cellular")
    saw_multi = False
    for _ in range(30):
        out = run_attempt("ce-sucre", spec, topo, range(12), rng)
        assert out.operative_ap_count <= 1
        assert not out.repeat[~out.served].any()
        per_pilot = np.bincount(out.pilots[out.repeat], minlength=cfg.num_pilots)
        saw_multi |= bool((per_pilot > 1).any())
        lone = out.repeat & (per_pilot[out.pilots] == 1)
        assert out.admitted.tolist() == out.ues[lone].tolist()
    assert saw_multi


def test_bcf_admitted_subset_of_colliders():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(5)
    topo = build_topology(cfg, rng, num_ues=20)
    out = run_attempt("bcf", EstimatorSpec(), topo, range(20), rng)
    assert out.ues.tolist() == list(range(20)) and out.repeat.all()
    assert set(out.admitted.tolist()) <= set(range(20))
    assert out.active_pilots == np.unique(out.pilots).size


@pytest.mark.parametrize("kind", ["est2", "est3"])
def test_decision_batch_is_ranked_and_zero_padded(monkeypatch, kind):
    """One knowledge batch per attempt: each served UE's natural-set gains,
    strongest first, zero-padded to the longest set."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(15)
    topo = build_topology(cfg, rng, num_ues=300)
    batches = []

    def spy(beta_nearby, re_z, config):
        batches.append(beta_nearby)
        return knowledge_for(beta_nearby, re_z, config)

    monkeypatch.setattr(contention, "knowledge_for", spy)
    out = run_attempt("cf-sucre", EstimatorSpec(kind=kind, nearby_method="greedy"),
                      topo, range(300), rng)
    assert len(batches) == 1
    block, deciders = batches[0], out.ues[out.served]
    members = natural_sets(topo.beta[deciders], cfg)
    sizes = members.sum(axis=1)
    assert block.shape == (deciders.size, sizes.max()) and (sizes < sizes.max()).any()
    assert (np.diff(block, axis=1) <= 0.0).all()
    for row, ue, mask, n in zip(block, deciders, members, sizes):
        assert np.array_equal(row[:n], np.sort(topo.beta[ue, mask])[::-1])
        assert not row[n:].any()
    assert np.isfinite(out.alpha_hat[out.served]).all()
    assert np.isnan(out.alpha_hat[~out.served]).all()


LAW_CAMPAIGNS = 150
LAW_SPECS = [("bcf", EstimatorSpec()), ("cf-sucre", EstimatorSpec(kind="est3")),
             ("ce-sucre", EstimatorSpec(kind="cellular"))]
# two statistics per spec, each family at level 0.01: 0.01 / 6 = 1.7e-3
LAW_BOUND = 0.01 / (2 * len(LAW_SPECS))


@pytest.mark.parametrize("protocol, spec", LAW_SPECS, ids=["bcf", "cf-sucre-est3", "ce-sucre"])
def test_campaign_has_the_law_of_the_population_reference(protocol, spec):
    """Drawing each UE when it activates keeps a campaign's law.

    Per-campaign ANAA (empty cohorts left out) and block counts of the
    campaign, whose population is a count, against the reference that draws
    all |U| positions up front and flips one activation coin per idle UE
    (``helpers.reference_campaign``): two-sample KS at fixed seeds, each
    p-value above the Bonferroni bound ``LAW_BOUND``.
    """
    cfg = ScenarioConfig(num_inactive_ues=1000, access_probability=0.01)
    rng = np.random.default_rng(41)
    runs = [run_access_campaign(protocol, spec, cfg, rng) for _ in range(LAW_CAMPAIGNS)]
    rng = np.random.default_rng(42)
    ref_anaa, ref_blocks = zip(*(reference_campaign(protocol, spec, cfg, rng)
                                 for _ in range(LAW_CAMPAIGNS)))
    anaa = np.array([r.anaa for r in runs])
    ref_anaa = np.array(ref_anaa)
    assert ks_2samp(anaa[np.isfinite(anaa)], ref_anaa[np.isfinite(ref_anaa)]).pvalue > LAW_BOUND
    assert ks_2samp([r.blocks for r in runs], ref_blocks).pvalue > LAW_BOUND


def test_campaign_attempt_bound_and_flags():
    cfg = ScenarioConfig(num_inactive_ues=300)
    rng = np.random.default_rng(6)
    res = run_access_campaign("cf-sucre", EstimatorSpec(kind="est2"), cfg, rng)
    assert res.attempts.shape == res.succeeded.shape
    assert (res.attempts <= cfg.max_attempts).all()
    assert (res.attempts[res.succeeded] >= 1).all()
    if res.attempts.size:
        assert res.anaa == pytest.approx(res.attempts.mean())


def test_campaign_seed_determinism():
    cfg = ScenarioConfig(num_inactive_ues=300, access_probability=0.05)
    a = run_access_campaign("bcf", EstimatorSpec(), cfg, np.random.default_rng(7))
    b = run_access_campaign("bcf", EstimatorSpec(), cfg, np.random.default_rng(7))
    assert np.array_equal(a.attempts, b.attempts)
    assert np.array_equal(a.succeeded, b.succeeded)
    assert a.anaa == b.anaa and a.tau_bar == b.tau_bar


def test_campaign_empty_cohort_is_nan():
    """An empty cohort gives a nan ANAA. A pairing no attempt could run is
    rejected before the first draw, though no attempt would run."""
    cfg = ScenarioConfig(num_inactive_ues=50, access_probability=1e-12)
    res = run_access_campaign("bcf", EstimatorSpec(), cfg, np.random.default_rng(8))
    assert res.attempts.size == 0
    assert np.isnan(res.anaa)
    untouched = np.random.default_rng(8).bit_generator.state
    for protocol, kind in [("lte", "est2"), ("cf-sucre", "cellular"), ("ce-sucre", "est2")]:
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            run_access_campaign(protocol, EstimatorSpec(kind=kind), cfg, rng)
        assert rng.bit_generator.state == untouched, (protocol, kind)


def test_campaign_counts_blocks_and_truncation(monkeypatch):
    """``blocks`` counts the blocks that carried an attempt, and the averages
    are block-order means of those attempts' outcomes, bit for bit; a
    campaign cut at the block cap with cohort UEs pending is ``truncated``.
    Checked on the four perfbench campaign specs (those of PINNED_CAMPAIGNS);
    at seed 7, np.mean would differ from the block-order sum in the last bit."""
    cfg = ScenarioConfig(num_inactive_ues=2000, access_probability=0.05)
    outcomes = _record(monkeypatch, contention, "run_attempt", lambda _, out: out)
    for protocol, spec, *_ in PINNED_CAMPAIGNS:
        for seed in (16, 7):
            outcomes.clear()
            res = run_access_campaign(protocol, spec, cfg, np.random.default_rng(seed))
            assert res.blocks == len(outcomes) > 1 and not res.truncated, protocol
            sums = [0.0, 0.0, 0.0]
            q_eff_sum, q_eff_blocks = 0.0, 0
            for out in outcomes:
                sums[0] += out.served_active_per_ap
                sums[1] += out.active_pilots
                sums[2] += out.operative_ap_count
                if np.isfinite(out.q_eff_mean):
                    q_eff_sum += out.q_eff_mean
                    q_eff_blocks += 1
            q_eff = q_eff_sum / q_eff_blocks if q_eff_blocks else float("nan")
            assert np.array_equal([res.tau_bar_pl, res.tau_bar, res.l_bar, res.q_eff_mw],
                                  [total / len(outcomes) for total in sums] + [q_eff],
                                  equal_nan=True), (protocol, seed)
    monkeypatch.setattr(contention, "MAX_CAMPAIGN_BLOCKS", 1)
    for protocol, spec, *_ in PINNED_CAMPAIGNS:
        res = run_access_campaign(protocol, spec, cfg, np.random.default_rng(16))
        assert res.blocks == 1 and res.truncated, protocol
        assert (~res.succeeded & (res.attempts < cfg.max_attempts)).any(), protocol


def _record(monkeypatch, module, name, pick):
    """Wrap ``module.name`` so that each call appends ``pick(args, result)``."""
    calls = []
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(pick(args, result))
        return result

    monkeypatch.setattr(module, name, spy)
    return calls


def test_campaign_computes_gains_only_for_transmitters(monkeypatch):
    """A campaign drops, and computes gain rows for, only the UEs that
    activate; each transmits on its first block, and the topology it runs on
    holds exactly those UEs, each row computed once."""
    cfg = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
    attempts = _record(monkeypatch, contention, "run_attempt", lambda a, _: (a[2], a[3]))
    built = _record(monkeypatch, contention, "build_topology", lambda _, t: t.ue_positions)
    run_access_campaign("cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy"),
                        cfg, np.random.default_rng(9))
    positions = np.concatenate(built)
    transmitted = np.unique(np.concatenate([active for _, active in attempts]))
    assert len(built) > 1 and 0 < positions.shape[0] < cfg.num_inactive_ues
    assert transmitted.tolist() == list(range(positions.shape[0]))
    final = attempts[-1][0]
    assert np.array_equal(final.ue_positions, positions)
    assert final.beta.shape == (positions.shape[0], cfg.num_aps)


def test_ce_sucre_gains_only_for_active_ues(monkeypatch):
    """ce-sucre drops each block's arrivals straight onto the single BS: the
    topology it runs on holds the activated UEs, in activation order."""
    cfg = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
    topologies = _record(monkeypatch, contention, "run_attempt", lambda a, _: a[2])
    bs_built = _record(monkeypatch, contention, "bs_topology", lambda a, _: a[1])
    run_access_campaign("ce-sucre", EstimatorSpec(kind="cellular"), cfg,
                        np.random.default_rng(10))
    final = topologies[-1]
    assert len(bs_built) > 1
    assert np.array_equal(np.concatenate(bs_built), final.ue_positions)
    assert final.beta.shape == (final.ue_positions.shape[0], 1)
    assert final.config is cfg.bs_config


def test_ce_sucre_campaign_builds_no_multi_ap_table(monkeypatch):
    """A ce-sucre campaign reads only the single BS, so every gain table it
    computes has one column."""
    cfg = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
    columns = _record(monkeypatch, scenario, "pathloss_beta", lambda a, _: a[0].shape[-1])
    res = run_access_campaign("ce-sucre", EstimatorSpec(kind="cellular"), cfg,
                              np.random.default_rng(10))
    assert res.blocks > 1 and set(columns) == {1}


def test_campaign_memory_follows_the_activated_ues_not_the_population():
    """At |U| = 10^7 and |U| p = 10 arrivals per block, a campaign allocates
    for the UEs that activate only: no |U|-long position, slot or state array."""
    cfg = ScenarioConfig(num_inactive_ues=10**7, access_probability=1e-6)
    for protocol, spec in LAW_SPECS:
        tracemalloc.start()
        try:
            res = run_access_campaign(protocol, spec, cfg, np.random.default_rng(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.attempts.size and peak < 2e6, (protocol, peak)


# attempts and ANAA of one small campaign per configuration (seed 7), recorded
# with the activity matrix drawn from its Gamma law and each block's arrivals
# drawn as a Binomial(idle, p) count dropped on the square
PINNED_CAMPAIGNS = [
    ("bcf", EstimatorSpec(), 1.0476190476190477,
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1]),
    ("cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy"), 1.3333333333333333,
     [1, 2, 1, 1, 2, 2, 1, 1, 2, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 2]),
    ("cf-sucre", EstimatorSpec(kind="est3"), 1.6666666666666667,
     [4, 2, 3, 1, 2, 2, 1, 1, 3, 1, 1, 1, 3, 1, 2, 1, 1, 1, 1, 1, 2]),
    ("ce-sucre", EstimatorSpec(kind="cellular"), 7.9523809523809526,
     [10, 10, 10, 10, 2, 10, 1, 10, 10, 10, 10, 10, 2, 10, 1, 10, 10, 10, 10, 1, 10]),
]
# the same campaigns' tau_bar_pl, tau_bar, l_bar and q_eff_mw; under ce-sucre
# the BS serving mask must give one operative AP serving every active pilot
PINNED_MEANS = {
    ("bcf", EstimatorSpec()): [4.984375, 5.0, 64.0, float("nan")],
    ("cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy")):
        [1.4303622507956872, 5.0, 35.166666666666664, 3.125],
    ("cf-sucre", EstimatorSpec(kind="est3")):
        [1.4489025288657642, 5.0, 34.625, 0.2958086722354065],
    ("ce-sucre", EstimatorSpec(kind="cellular")): [5.0, 5.0, 1.0, 200.0],
}


@pytest.mark.parametrize("protocol, spec, anaa, attempts", PINNED_CAMPAIGNS,
                         ids=["bcf", "cf-sucre-est2-greedy", "cf-sucre-est3", "ce-sucre-cellular"])
def test_campaign_pinned_at_fixed_seed(protocol, spec, anaa, attempts):
    cfg = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
    res = run_access_campaign(protocol, spec, cfg, np.random.default_rng(7))
    assert res.attempts.tolist() == attempts
    assert res.anaa == anaa
    assert np.array_equal([res.tau_bar_pl, res.tau_bar, res.l_bar, res.q_eff_mw],
                          PINNED_MEANS[protocol, spec], equal_nan=True)
