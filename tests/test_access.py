"""Serving-set construction and the precoded downlink observation."""

import numpy as np
import pytest

from cfra.access import (build_serving_sets, downlink_observation, precoder_weights,
                         true_alpha_lt)
from cfra.channel import pilot_activity
from cfra.estimators import cpu_alpha_hat
from cfra.scenario import ScenarioConfig, build_topology
from helpers import large_n_observation


def _uplink(cfg, rng, num_ues=6, pilots=None):
    topo = build_topology(cfg, rng, num_ues=num_ues)
    if pilots is None:
        pilots = rng.integers(0, cfg.num_pilots, size=num_ues)
    alpha_lt = true_alpha_lt(topo.beta, pilots, cfg)
    return topo, pilots, alpha_lt, pilot_activity(alpha_lt, cfg.antennas_per_ap,
                                                  cfg.noise_mw, rng)


def _members(serving, t):
    """Serving APs of pilot t, strongest first."""
    return serving.order[t, :serving.size[t]]


def test_build_serving_sets_basic():
    activity = np.array([[5.0, 1.0, 3.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0]])
    serving = build_serving_sets(activity, l_max=2, noise_mw=0.5)
    assert list(_members(serving, 0)) == [0, 2]
    assert list(_members(serving, 1)) == []
    assert serving.mask[0, 0] and serving.mask[0, 2] and not serving.mask[0, 1]


def test_build_serving_sets_no_truncation_at_full_cap():
    activity = np.array([[5.0, 1.0, 3.0, 0.1]])
    serving = build_serving_sets(activity, l_max=4, noise_mw=0.5)
    assert set(_members(serving, 0)) == {0, 1, 2}  # 0.1 <= noise excluded


def test_build_serving_sets_tie_break_lower_index():
    activity = np.array([[2.0, 2.0, 2.0]])
    serving = build_serving_sets(activity, l_max=2, noise_mw=0.5)
    assert list(_members(serving, 0)) == [0, 1]


def _serving_rule_per_row(row, l_max, noise_mw):
    order = np.argsort(-row, kind="stable")
    return order[row[order] > noise_mw][:l_max]


@pytest.mark.parametrize("l_max", [1, 3, 6])
def test_stacked_serving_sets_equal_per_slice_calls(l_max):
    """Each (T, L) draw of a stack is ranked on its own, ties and empty rows included."""
    rng = np.random.default_rng(10)
    activity = rng.choice([0.0, 0.3, 1.0, 2.0, 5.0], size=(4, 3, 5, 6))   # many ties
    activity[0, 1] = 0.1           # a whole draw below noise
    activity[2, 0, 3] = 0.5        # one pilot row exactly at noise
    stacked = build_serving_sets(activity, l_max, noise_mw=0.5)
    assert stacked.mask.shape == activity.shape and stacked.size.shape == (4, 3, 5)
    assert not stacked.mask[0, 1].any() and not stacked.mask[2, 0, 3].any()
    for i in np.ndindex(4, 3):
        one = build_serving_sets(activity[i], l_max, noise_mw=0.5)
        assert np.array_equal(stacked.mask[i], one.mask)
        assert np.array_equal(stacked.order[i], one.order)
        assert np.array_equal(stacked.size[i], one.size)
        for t in range(5):
            rule = _serving_rule_per_row(activity[i][t], l_max, 0.5)
            assert np.array_equal(_members(one, t), rule)
            assert np.array_equal(stacked.order[i][t, :stacked.size[i][t]], rule)


def _stable_serving_sets(activity, l_max, noise_mw):
    """The serving rule by a stable rank and a scatter: (mask, order, size)."""
    order = np.argsort(-activity, axis=-1, kind="stable")
    size = np.minimum((activity > noise_mw).sum(axis=-1), l_max)
    mask = np.zeros(activity.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(activity.shape[-1]) < size[..., None], axis=-1)
    return mask, order, size


def _serving_stacks(lead, n_aps, rng):
    """Activity stacks (..., 5, L): Gamma draws, tie-heavy draws, noise-floor rows, one tie."""
    shape = lead + (5, n_aps)
    gamma = 0.1 + rng.gamma(2.0, 1.0, size=shape)
    yield gamma
    yield rng.choice([0.0, 0.3, 0.5, 1.0, 2.0, 5.0], size=shape)
    quiet = gamma.copy()
    quiet[..., 0, :] = 0.5 * rng.random(shape[:-2] + (n_aps,))  # one row below noise, no tie
    yield quiet
    quiet[..., 1, :] = 0.5                                      # and one row exactly at noise
    yield quiet
    if n_aps > 1:
        one_tie = gamma.copy()
        one_tie.reshape(-1, n_aps)[-1, 0] = one_tie.reshape(-1, n_aps)[-1, -1]
        yield one_tie                                          # only the last row ties
        with_nan = gamma.copy()
        with_nan.reshape(-1, n_aps)[0, 0] = np.nan
        yield with_nan


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
@pytest.mark.parametrize("n_aps", [1, 6, 64])
def test_serving_sets_equal_the_stable_rank_bit_for_bit(lead, n_aps):
    rng = np.random.default_rng(12)
    for activity in _serving_stacks(lead, n_aps, rng):
        for l_max in sorted({1, min(3, n_aps), n_aps}):
            serving = build_serving_sets(activity, l_max, noise_mw=0.5)
            mask, order, size = _stable_serving_sets(activity, l_max, 0.5)
            assert serving.mask.dtype == mask.dtype and np.array_equal(serving.mask, mask)
            assert serving.order.dtype == order.dtype and np.array_equal(serving.order, order)
            assert serving.size.dtype == size.dtype and np.array_equal(serving.size, size)


def test_stacked_precoder_and_large_n_equal_per_slice_calls():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(11)
    topo = build_topology(cfg, rng, num_ues=6)
    pilots = np.array([0, 0, 1, 2, 2, 2])
    alpha_lt = true_alpha_lt(topo.beta, pilots, cfg)
    activity = pilot_activity(np.broadcast_to(alpha_lt, (3,) + alpha_lt.shape),
                              cfg.antennas_per_ap, cfg.noise_mw, rng)   # (3, T, L)
    activity[1, 2] = 0.0                                           # pilot 2 unserved in draw 1
    serving = build_serving_sets(activity, cfg.l_max, cfg.noise_mw)
    alpha_hat = cpu_alpha_hat(activity, cfg.noise_mw)
    for normalized, alpha in ((False, None), (True, alpha_hat)):
        scale, q_eff = precoder_weights(activity, serving.mask, cfg, normalized)
        z_tilde = large_n_observation(topo.beta, pilots, serving.mask, cfg, alpha)
        assert z_tilde.shape == (3, 6) and z_tilde[1, 3:].tolist() == [0.0] * 3
        for d in range(3):
            one = None if alpha is None else alpha[d]
            s_d, q_d = precoder_weights(activity[d], serving.mask[d], cfg, normalized)
            assert np.array_equal(scale[d], s_d) and np.array_equal(q_eff[d], q_d)
            assert np.array_equal(z_tilde[d], large_n_observation(
                topo.beta, pilots, serving.mask[d], cfg, one))


def test_build_serving_sets_rejects_bad_cap():
    with pytest.raises(ValueError):
        build_serving_sets(np.ones((1, 4)), l_max=0, noise_mw=0.1)


def test_dual_view_involution():
    """order[t, :size[t]] and the mask describe the same membership; the order
    runs strongest first."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(1)
    _, _, _, activity = _uplink(cfg, rng, num_ues=12)
    serving = build_serving_sets(activity, cfg.l_max, cfg.noise_mw)
    for t in range(cfg.num_pilots):
        assert sorted(_members(serving, t)) == list(np.flatnonzero(serving.mask[t]))
        assert np.all(np.diff(activity[t, _members(serving, t)]) <= 0)


def test_true_alpha_lt_values():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2)
    topo = build_topology(cfg, rng, num_ues=3)
    pilots = np.array([1, 1, 4])
    alpha = true_alpha_lt(topo.beta, pilots, cfg)
    p_tau = cfg.ul_power_mw * cfg.num_pilots
    assert np.allclose(alpha[1], p_tau * topo.beta[:2].sum(axis=0))
    assert np.allclose(alpha[4], p_tau * topo.beta[2])
    assert np.allclose(alpha[0], 0.0)


def test_true_alpha_lt_stacked_rows_equal_per_slice_calls():
    """Gain rows on leading axes (S, 1, K, L) give each slice's (T, L) bit for bit."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(3)
    beta = build_topology(cfg, rng, num_ues=4 * 6).beta.reshape(4, 1, 6, cfg.num_aps)
    pilots = rng.integers(0, cfg.num_pilots, size=6)
    stacked = true_alpha_lt(beta, pilots, cfg)
    assert stacked.shape == (4, 1, cfg.num_pilots, cfg.num_aps)
    for s in range(4):
        assert np.array_equal(stacked[s, 0], true_alpha_lt(beta[s, 0], pilots, cfg))


def test_standard_precoding_power_accounting():
    """Every serving AP spends exactly q_l per served pilot."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(4)
    topo, pilots, alpha_lt, activity = _uplink(cfg, rng)
    serving = build_serving_sets(activity, cfg.l_max, cfg.noise_mw)
    obs = downlink_observation(activity, serving, topo.beta, alpha_lt, pilots, cfg, rng)
    assert np.allclose(obs.effective_dl_power[serving.mask], cfg.dl_power_per_ap_mw)
    assert np.allclose(obs.effective_dl_power[~serving.mask], 0.0)


def test_normalized_precoding_reduces_power():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(5)
    topo, pilots, alpha_lt, activity = _uplink(cfg, rng)
    serving = build_serving_sets(activity, cfg.num_aps, cfg.noise_mw)
    alpha_hat = cpu_alpha_hat(activity, cfg.noise_mw)
    obs = downlink_observation(activity, serving, topo.beta, alpha_lt, pilots, cfg, rng,
                               normalized=True)
    q_vals = obs.effective_dl_power[serving.mask]
    assert q_vals.size
    assert q_vals.mean() < cfg.dl_power_per_ap_mw
    # effective power formula: (q / (N alpha_hat)) * ||y||^2, with ||y||^2 = N A
    t = int(np.flatnonzero(serving.size)[0])
    l = int(serving.order[t, 0])
    y_norm_sq = cfg.antennas_per_ap * activity[t, l]
    expect = cfg.dl_power_per_ap_mw / (cfg.antennas_per_ap * alpha_hat[t]) * y_norm_sq
    assert obs.effective_dl_power[t, l] == pytest.approx(expect, rel=1e-12)


def test_unserved_flag():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(6)
    topo = build_topology(cfg, rng, num_ues=2)
    pilots = np.array([0, 0])
    alpha_lt = true_alpha_lt(topo.beta, pilots, cfg)
    activity = pilot_activity(alpha_lt, cfg.antennas_per_ap, cfg.noise_mw, rng)
    # force no serving APs by an absurd noise floor
    serving = build_serving_sets(activity, cfg.l_max, noise_mw=1e12)
    obs = downlink_observation(activity, serving, topo.beta, alpha_lt, pilots, cfg, rng)
    assert not obs.served.any()
    assert np.allclose(large_n_observation(topo.beta, pilots, serving.mask, cfg), 0.0)


def test_hardening_convergence():
    """Re(z)/sqrt(N) approaches z_tilde monotonically over N in {8,32,128}."""
    errors = []
    for n_ant in (8, 32, 128):
        cfg = ScenarioConfig(antennas_per_ap=n_ant)
        rng = np.random.default_rng(7)
        topo = build_topology(cfg, rng, num_ues=4)
        pilots = np.array([0, 0, 1, 2])
        alpha_lt = true_alpha_lt(topo.beta, pilots, cfg)
        rel = []
        for _ in range(300):
            activity = pilot_activity(alpha_lt, n_ant, cfg.noise_mw, rng)
            serving = build_serving_sets(activity, cfg.l_max, cfg.noise_mw)
            obs = downlink_observation(activity, serving, topo.beta, alpha_lt, pilots, cfg, rng)
            z_tilde = large_n_observation(topo.beta, pilots, serving.mask, cfg)
            ok = obs.served & (z_tilde > 0)
            rel.append(np.abs(obs.z[ok].real / np.sqrt(n_ant) - z_tilde[ok]) / z_tilde[ok])
        errors.append(float(np.concatenate(rel).mean()))
    assert errors[0] > errors[1] > errors[2]


def _z_tilde_loop(beta, pilots, serving, cfg, kind, alpha_hat):
    alpha_lt = true_alpha_lt(beta, pilots, cfg)
    cte = np.sqrt(cfg.dl_power_per_ap_mw * cfg.ul_power_mw) * cfg.num_pilots * beta
    z_tilde = np.zeros(len(pilots))
    for k, t in enumerate(pilots):
        members = _members(serving, t)
        if members.size == 0:
            continue
        if kind == "standard":
            z_tilde[k] = (cte[k, members] / np.sqrt(alpha_lt[t, members] + cfg.noise_mw)).sum()
        elif alpha_hat[t] > 0:
            z_tilde[k] = cte[k, members].sum() / np.sqrt(alpha_hat[t])
    return z_tilde


@pytest.mark.parametrize("kind", ["standard", "normalized"])
def test_z_tilde_matches_per_ue_loop(kind):
    cfg = ScenarioConfig()
    rng = np.random.default_rng(8)
    topo, pilots, alpha_lt, activity = _uplink(cfg, rng, num_ues=12)
    activity[pilots[0]] = 0.0          # one pilot with UEs but no serving AP
    serving = build_serving_sets(activity, cfg.l_max, cfg.noise_mw)
    alpha_hat = cpu_alpha_hat(activity, cfg.noise_mw) if kind == "normalized" else None
    obs = downlink_observation(activity, serving, topo.beta, alpha_lt, pilots, cfg, rng,
                               normalized=kind == "normalized")
    assert not obs.served.all() and obs.served.any()
    z_tilde = large_n_observation(topo.beta, pilots, serving.mask, cfg, alpha_hat)
    expect = _z_tilde_loop(topo.beta, pilots, serving, cfg, kind, alpha_hat)
    assert np.allclose(z_tilde, expect, rtol=1e-12, atol=0.0)
    assert np.all(z_tilde[~obs.served] == 0.0) and np.all(z_tilde[obs.served] > 0)
