"""Uplink-power estimators: identities, floors, scalings and the
closed-form optimality residual."""

from dataclasses import replace

import numpy as np
import pytest

from cfra.estimators import (BEST_PAIRS, EstimatorSpec, UEKnowledge, _prefix_estimates,
                             best_pair, cpu_alpha_hat, eps_z, estimate,
                             estimate_2_per_ap, estimate_cellular, greedy_flexible_decide,
                             knowledge_for, sucre_decision)
from cfra.scenario import ScenarioConfig


def _knowledge(rng, cfg, size=5, rez_scale=1.0):
    beta = np.sort(10.0 ** rng.uniform(-12, -7, size))[::-1]
    rez = rez_scale * np.sqrt(cfg.antennas_per_ap) * rng.uniform(1e-6, 1e-3)
    return knowledge_for(beta, rez, cfg)


def test_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec(kind="est9")
    with pytest.raises(ValueError):
        EstimatorSpec(nearby_method="psychic")
    with pytest.raises(ValueError):
        EstimatorSpec(kind="cellular", nearby_method="greedy")


def test_best_pairs_table_shape():
    for kind, table in BEST_PAIRS.items():
        assert set(table) == set(range(1, 11))
        for nearby, l_max in table.values():
            assert 1 <= nearby <= 7
            assert 1 <= l_max <= 64


def test_best_pair_rejects_sizes_outside_table():
    assert best_pair("est2", 3) == BEST_PAIRS["est2"][3]
    assert best_pair("cellular", 12) == (1, 1)
    for kind, size in (("est1", 0), ("est2", 11), ("est3", 25), ("est9", 3)):
        with pytest.raises(ValueError):
            best_pair(kind, size)


def test_knowledge_gamma():
    cfg = ScenarioConfig()
    beta = np.array([2e-9, 1e-9])
    k = knowledge_for(beta, 1.0, cfg)
    assert k.gamma == pytest.approx(cfg.ul_power_mw * cfg.num_pilots * 3e-9)


def test_estimators_floor_at_own_power():
    """A huge observation drives the raw estimate to ~0; the floor holds."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = _knowledge(rng, cfg, rez_scale=1e9)
        for kind in ("est1", "est2", "est3"):
            assert estimate(kind, k, cfg) == pytest.approx(k.gamma)
    big = estimate_cellular(1e-9, 1e6, cfg)
    assert big == pytest.approx(cfg.ul_power_mw * cfg.num_pilots * 1e-9)


def test_nonpositive_observation_clamped():
    cfg = ScenarioConfig()
    k = knowledge_for(np.array([1e-9]), -1.0, cfg)
    for kind in ("est1", "est2"):
        val = estimate(kind, k, cfg)
        assert np.isfinite(val) and val >= k.gamma
    assert np.isfinite(estimate_cellular(1e-9, -1.0, cfg))


def test_eps_z_scale():
    assert eps_z(64) == pytest.approx(8e-12)


def test_est1_equals_est2_single_ap():
    """With one nearby AP the two inversions coincide."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = _knowledge(rng, cfg, size=1)
        assert estimate("est1", k, cfg) == pytest.approx(estimate("est2", k, cfg), rel=1e-12)


def test_theorem_residual():
    """The closed-form per-AP split satisfies the observation constraint.

    Substituting the per-AP estimates back into the deterministic
    observation model must reproduce Re(z)/sqrt(N) to numerical precision.
    """
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        size = rng.integers(1, 8)
        beta = 10.0 ** rng.uniform(-12, -7, size)
        rez = np.sqrt(cfg.antennas_per_ap) * 10.0 ** rng.uniform(-6, -3)
        per_ap = estimate_2_per_ap(beta, rez, cfg)
        cte = np.sqrt(cfg.dl_power_per_ap_mw * cfg.ul_power_mw) * cfg.num_pilots * beta
        model = (cte / np.sqrt(per_ap + cfg.noise_mw)).sum()
        resid = abs(model - rez / np.sqrt(cfg.antennas_per_ap)) \
            / (rez / np.sqrt(cfg.antennas_per_ap))
        worst = max(worst, resid)
    assert worst < 1e-9


def test_cellular_reduction():
    """With L=1 and N=M, estimators 1 and 2 reduce to the single-BS form."""
    rng = np.random.default_rng(3)
    cfg = ScenarioConfig()
    reduced = ScenarioConfig(num_aps=1, l_max=1,
                             antennas_per_ap=cfg.bs_antennas,
                             dl_power_per_ap_mw=cfg.bs_dl_power_mw)
    for _ in range(1000):
        beta = 10.0 ** rng.uniform(-12, -7)
        rez = 10.0 ** rng.uniform(-6, -2)
        k = knowledge_for(np.array([beta]), rez, reduced)
        cell = estimate_cellular(beta, rez, cfg)
        assert estimate("est1", k, reduced) == pytest.approx(cell, rel=1e-12)
        assert estimate("est2", k, reduced) == pytest.approx(cell, rel=1e-12)


def test_cpu_alpha_hat():
    noise = 0.5
    activity = np.array([[1.0, 0.2, 0.7], [0.4, 0.4, 0.4]])
    out = cpu_alpha_hat(activity, noise)
    assert out == pytest.approx([0.7, 0.0])
    # a leading draw axis reduces over the APs of each draw, not over the draws
    stacked = np.random.default_rng(0).random((4, 5, 64))
    out = cpu_alpha_hat(stacked, noise)
    assert out.shape == (4, 5)
    for d in range(4):
        assert np.array_equal(out[d], cpu_alpha_hat(stacked[d], noise))


def test_est3_uses_config_delta_by_default():
    cfg = ScenarioConfig(compensation_factor=8.0)
    k = knowledge_for(np.array([1e-8, 5e-9]), 1e-4, cfg)
    halved = replace(cfg, compensation_factor=4.0)
    # est3 inverts the square of the delta-scaled observation: halving delta quadruples it
    assert estimate("est3", k, halved) == pytest.approx(4.0 * estimate("est3", k, cfg), rel=1e-12)
    assert estimate("est3", k, cfg) > k.gamma


def test_estimate_dispatch():
    cfg = ScenarioConfig()
    k = knowledge_for(np.array([1e-9]), 1e-3, cfg)
    cte = np.sqrt(cfg.dl_power_per_ap_mw * cfg.ul_power_mw) * cfg.num_pilots * 1e-9
    assert estimate("est1", k, cfg) == max(
        cfg.antennas_per_ap * (cte / 1e-3) ** 2 - cfg.noise_mw, k.gamma)
    assert estimate("cellular", k, cfg) == estimate_cellular(1e-9, 1e-3, cfg)
    batch = knowledge_for(np.array([[1e-9], [2e-9]]), np.array([1e-3, -1.0]), cfg)
    assert np.array_equal(estimate("cellular", batch, cfg),
                          estimate_cellular(np.array([1e-9, 2e-9]), np.array([1e-3, -1.0]), cfg))
    with pytest.raises(ValueError):
        estimate("est4", k, cfg)


def test_greedy_superset_of_fixed():
    """If the full-set rule says repeat, the greedy sweep also repeats."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(4)
    spec = EstimatorSpec(kind="est2", nearby_method="greedy")
    hits = 0
    for _ in range(300):
        k = _knowledge(rng, cfg, size=int(rng.integers(1, 8)))
        fixed_repeat = k.gamma > estimate(spec.kind, k, cfg) / 2.0
        greedy_repeat = greedy_flexible_decide(k, spec, cfg)
        if fixed_repeat:
            hits += 1
            assert greedy_repeat
    assert hits > 0  # the implication was actually exercised


@pytest.mark.parametrize("kind", ["est1", "est2", "est3"])
@pytest.mark.parametrize("size", [1, 3, 8, 9, 17])
def test_batched_estimators_equal_one_ue_results(kind, size):
    """A (B, n) batch gives exactly the B one-UE results, fixed and greedy."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(5)
    beta = np.sort(10.0 ** rng.uniform(-12, -7, (40, size)), axis=1)[:, ::-1].copy()
    rez = np.sqrt(cfg.antennas_per_ap) * 10.0 ** rng.uniform(-6, -3, 40)
    rez[:3] = (-1.0, 0.0, 1e30)     # clamped, zero and floored observations
    spec = EstimatorSpec(kind=kind, nearby_method="greedy")
    batch = knowledge_for(beta, rez, cfg)
    alpha = estimate(kind, batch, cfg)
    greedy = greedy_flexible_decide(batch, spec, cfg)
    assert alpha.shape == greedy.shape == (40,)
    for b in range(40):
        one = knowledge_for(beta[b], rez[b], cfg)
        assert one.gamma == batch.gamma[b]
        assert estimate(kind, one, cfg) == alpha[b]
        assert greedy_flexible_decide(one, spec, cfg) == greedy[b]


def test_batched_cellular_equals_one_ue_results():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(6)
    beta = 10.0 ** rng.uniform(-12, -7, 200)
    rez = 10.0 ** rng.uniform(-6, -2, 200) * rng.choice([-1.0, 1.0], 200)
    batch = estimate_cellular(beta, rez, cfg)
    assert batch.shape == (200,)
    assert all(estimate_cellular(float(b), float(r), cfg) == a
               for b, r, a in zip(beta, rez, batch))


N_MAX = 17


def _ragged_rows(cfg, rng, rows=80):
    """Gain rows strongest first with set lengths 1..N_MAX, zero-padded to
    N_MAX; the first observations are clamped, zero and floored."""
    lengths = np.concatenate([np.arange(1, N_MAX + 1), rng.integers(1, N_MAX + 1, rows - N_MAX)])
    beta = np.sort(10.0 ** rng.uniform(-12, -7, (rows, N_MAX)), axis=1)[:, ::-1].copy()
    beta[np.arange(N_MAX) >= lengths[:, None]] = 0.0
    rez = np.sqrt(cfg.antennas_per_ap) * 10.0 ** rng.uniform(-6, -3, rows)
    rez[:3] = (-1.0, 0.0, 1e30)
    return beta, lengths, rez


def _per_size_sweep(one: UEKnowledge, spec: EstimatorSpec, cfg) -> bool:
    """The greedy rule as one estimate call per set size, full set down to 1."""
    repeat = False
    for size in range(one.beta_nearby.size, 0, -1):
        sub = knowledge_for(one.beta_nearby[:size], one.re_z, cfg)
        repeat |= bool(sucre_decision(sub.gamma, estimate(spec.kind, sub, cfg)))
    return repeat


@pytest.mark.parametrize("kind", ["est1", "est2", "est3"])
def test_ragged_batch_equals_one_ue_decisions(kind):
    """A zero-padded batch of sets of lengths 1-17 decides exactly as each
    bare set alone, fixed and greedy, and the greedy sweep from running sums
    decides as the per-size sweep."""
    cfg = ScenarioConfig()
    beta, lengths, rez = _ragged_rows(cfg, np.random.default_rng(20))
    spec = EstimatorSpec(kind=kind, nearby_method="greedy")
    batch = knowledge_for(beta, rez, cfg)
    alpha = estimate(kind, batch, cfg)
    fixed = sucre_decision(batch.gamma, alpha)
    greedy = greedy_flexible_decide(batch, spec, cfg)
    assert alpha.shape == fixed.shape == greedy.shape == (beta.shape[0],)
    for b, n in enumerate(lengths):
        one = knowledge_for(beta[b, :n], rez[b], cfg)
        assert estimate(kind, one, cfg) == pytest.approx(alpha[b], rel=1e-12)
        assert sucre_decision(one.gamma, estimate(kind, one, cfg)) == fixed[b]
        assert greedy_flexible_decide(one, spec, cfg) == greedy[b]
        assert _per_size_sweep(one, spec, cfg) == greedy[b]
    # both rules take both outcomes, and the sweep wins where the full set loses
    assert set(fixed.tolist()) == set(greedy.tolist()) == {True, False}
    assert (greedy & ~fixed).any() and not (fixed & ~greedy).any()


@pytest.mark.parametrize("kind", ["est1", "est2", "est3"])
def test_prefix_estimates_equal_estimates_of_each_prefix(kind):
    """Running sums give every prefix's estimate; past a row's own length they
    hold its full-set value. est2's prefix total equals the sum of its per-AP
    split over that prefix."""
    cfg = ScenarioConfig()
    beta, lengths, rez = _ragged_rows(cfg, np.random.default_rng(21))
    raw = _prefix_estimates(kind, beta, rez, cfg)
    gamma_s = cfg.ul_power_mw * cfg.num_pilots * np.cumsum(beta, axis=1)
    assert raw.shape == beta.shape
    for b, n in enumerate(lengths):
        for size in range(1, n + 1):
            prefix = knowledge_for(beta[b, :size], rez[b], cfg)
            assert max(raw[b, size - 1], gamma_s[b, size - 1]) == \
                pytest.approx(estimate(kind, prefix, cfg), rel=1e-12)
            if kind == "est2":
                total = estimate_2_per_ap(beta[b, :size], rez[b], cfg).sum()
                assert raw[b, size - 1] == pytest.approx(total, rel=1e-12)
        assert (raw[b, n:] == raw[b, n - 1]).all()


def test_est2_ignores_zero_padding():
    """A zero gain is no AP: est2 of a zero-padded row equals est2 of the bare row."""
    cfg = ScenarioConfig()
    beta, lengths, rez = _ragged_rows(cfg, np.random.default_rng(22))
    for b, n in enumerate(lengths):
        padded = knowledge_for(beta[b], rez[b], cfg)
        bare = knowledge_for(beta[b, :n], rez[b], cfg)
        assert (estimate_2_per_ap(beta[b], rez[b], cfg)[n:] == 0.0).all()
        assert estimate("est2", padded, cfg) == pytest.approx(estimate("est2", bare, cfg),
                                                              rel=1e-12)
