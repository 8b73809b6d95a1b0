"""Decision rule, admission set algebra and campaign bookkeeping."""

import numpy as np
import pytest

from cfra import contention
from cfra.contention import (AttemptOutcome, run_access_campaign, run_attempt,
                             spatial_separability_admit, sucre_decision)
from cfra.estimators import EstimatorSpec
from cfra.scenario import ScenarioConfig, Topology, build_topology


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
        run_attempt("lte", EstimatorSpec(), topo, [0], cfg, rng)
    with pytest.raises(ValueError):
        run_attempt("ce-sucre", EstimatorSpec(kind="est1"), topo, [0], cfg, rng)
    with pytest.raises(ValueError):
        run_attempt("cf-sucre", EstimatorSpec(kind="cellular"), topo, [0], cfg, rng)


def test_run_attempt_empty_active_set():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(1)
    topo = build_topology(cfg, rng, num_ues=2)
    out = run_attempt("bcf", EstimatorSpec(), topo, [], cfg, rng)
    assert isinstance(out, AttemptOutcome)
    assert out.admitted.size == 0 and out.ues.size == 0 and out.active_pilots == 0


def test_bcf_lone_ue_admitted():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2)
    topo = build_topology(cfg, rng, num_ues=1)
    out = run_attempt("bcf", EstimatorSpec(), topo, [0], cfg, rng)
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
        out = run_attempt("cf-sucre", EstimatorSpec(kind="est2"), topo, [0], cfg, rng)
        wins += 0 in out.admitted
        assert np.array_equal(np.isfinite(out.alpha_hat), out.served)
    assert wins >= 18  # collision-free access succeeds essentially always


def test_ce_sucre_singleton_winner_rule():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(4)
    topo = build_topology(cfg, rng, num_ues=12)
    spec = EstimatorSpec(kind="cellular")
    saw_multi = False
    for _ in range(30):
        out = run_attempt("ce-sucre", spec, topo, range(12), cfg, rng)
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
    out = run_attempt("bcf", EstimatorSpec(), topo, range(20), cfg, rng)
    assert out.ues.tolist() == list(range(20)) and out.repeat.all()
    assert set(out.admitted.tolist()) <= set(range(20))
    assert out.active_pilots == np.unique(out.pilots).size


def test_activations_follow_one_coin_per_ue():
    """A binomial count and a uniform subset: every idle UE activates with
    probability p, and the count has the binomial mean and variance."""
    rng = np.random.default_rng(14)
    idle = np.arange(3, 43)
    p = 0.2
    hits = np.zeros(idle.size)
    counts = []
    for _ in range(20_000):
        new = contention._activate(idle, p, rng)
        assert np.unique(new).size == new.size and np.isin(new, idle).all()
        hits[new - 3] += 1
        counts.append(new.size)
    assert np.abs(hits / 20_000 - p).max() < 0.015          # 5 standard errors
    assert np.mean(counts) == pytest.approx(idle.size * p, rel=0.01)
    assert np.var(counts) == pytest.approx(idle.size * p * (1 - p), rel=0.05)


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
    cfg = ScenarioConfig(num_inactive_ues=50, access_probability=1e-12)
    res = run_access_campaign("bcf", EstimatorSpec(), cfg, np.random.default_rng(8))
    assert res.attempts.size == 0
    assert np.isnan(res.anaa)


def test_campaign_computes_gains_only_for_transmitters(monkeypatch):
    cfg = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
    rng = np.random.default_rng(9)
    topo = build_topology(cfg, rng)
    transmitted: set = set()
    filled: list = []
    fill = Topology._fill

    def spy(protocol, spec, topology, active_ues, config, rng):
        transmitted.update(int(k) for k in active_ues)
        return run_attempt(protocol, spec, topology, active_ues, config, rng)

    def fill_spy(self, new):
        filled.extend(new.tolist())
        fill(self, new)

    monkeypatch.setattr(contention, "run_attempt", spy)
    monkeypatch.setattr(Topology, "_fill", fill_spy)
    run_access_campaign("cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy"),
                        cfg, rng, topology=topo)
    assert transmitted and len(transmitted) < cfg.num_inactive_ues
    assert sorted(filled) == sorted(transmitted)
    assert topo.computed_rows == len(transmitted)


def test_ce_sucre_gains_only_for_active_ues(monkeypatch):
    cfg = ScenarioConfig()
    rng = np.random.default_rng(10)
    topo = build_topology(cfg, rng, num_ues=50)
    computed = []
    fill = Topology._fill

    def spy(self, new):
        computed.append(self.ue_positions[new])
        fill(self, new)

    monkeypatch.setattr(Topology, "_fill", spy)
    active = [31, 4, 17]
    run_attempt("ce-sucre", EstimatorSpec(kind="cellular"), topo, active, cfg, rng)
    assert topo.computed_rows == 0
    rows = np.concatenate(computed)
    assert len(rows) == len(active)
    assert {tuple(r) for r in rows} == {tuple(topo.ue_positions[k]) for k in active}


# attempts and ANAA of one small campaign per configuration (seed 7), recorded
# with the uplink drawn from its marginal law and binomial activations
PINNED_CAMPAIGNS = [
    ("bcf", EstimatorSpec(), 1.0416666666666667,
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
    ("cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy"), 1.1666666666666667,
     [1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2]),
    ("cf-sucre", EstimatorSpec(kind="est3"), 1.5,
     [1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 2, 1, 1, 6, 1, 1, 2, 4, 1, 1, 1, 1, 1, 1]),
    ("ce-sucre", EstimatorSpec(kind="cellular"), 8.583333333333334,
     [10, 1, 10, 10, 3, 10, 10, 10, 1, 10, 10, 10, 10, 10, 1, 10, 10, 10, 10, 10,
      10, 10, 10, 10]),
]
# the same campaigns' tau_bar_pl, tau_bar, l_bar and q_eff_mw; under ce-sucre
# the BS serving mask must give one operative AP serving every active pilot
PINNED_MEANS = {
    ("bcf", EstimatorSpec()): [5.0, 5.0, 64.0, float("nan")],
    ("cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy")):
        [1.346153080608705, 4.888888888888889, 36.44444444444444, 3.125],
    ("cf-sucre", EstimatorSpec(kind="est3")):
        [1.4141420200418502, 5.0, 35.5, 0.294656367999242],
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
