"""Channel statistics, the activity law, uplink accumulation and the batched kernels."""

import numpy as np
import pytest
from scipy.stats import kstest

from cfra.access import true_alpha_lt
from cfra.channel import (complex_noise, correlate_uplink,
                          draw_channels, pilot_activity, select_pilots)
from cfra.kernels import accumulate_uplink, observe_downlink
from cfra.scenario import ScenarioConfig, build_topology


def test_channel_moments():
    rng = np.random.default_rng(0)
    beta = np.array([0.5, 2.0])
    h = draw_channels(np.broadcast_to(beta, (200000, 2)), 1, rng)
    var = (np.abs(h[:, :, 0]) ** 2).mean(axis=0)
    assert var == pytest.approx(beta, rel=0.02)
    assert abs(h.mean()) < 0.01


def test_channel_gaussianity_ks():
    # real and imaginary parts are independent N(0, beta/2)
    rng = np.random.default_rng(1)
    h = draw_channels(np.ones(500000), 1, rng)[:, 0]
    stat_re = kstest(h.real * np.sqrt(2.0), "norm").statistic
    stat_im = kstest(h.imag * np.sqrt(2.0), "norm").statistic
    assert stat_re < 0.002
    assert stat_im < 0.002


def test_complex_noise_variance():
    rng = np.random.default_rng(2)
    n = complex_noise((400000,), 3.0, rng)
    assert (np.abs(n) ** 2).mean() == pytest.approx(3.0, rel=0.02)


def test_select_pilots_range_and_uniformity():
    rng = np.random.default_rng(3)
    pilots = select_pilots(100000, 5, rng)
    assert pilots.min() >= 0 and pilots.max() <= 4
    counts = np.bincount(pilots, minlength=5) / pilots.size
    assert np.allclose(counts, 0.2, atol=0.01)


def test_correlate_uplink_linearity():
    """y minus the noise equals the amplitude-scaled channel sums."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(4)
    topo = build_topology(cfg, rng, num_ues=6)
    h = draw_channels(topo.beta, cfg.antennas_per_ap, rng)
    pilots = np.array([0, 0, 1, 2, 2, 2])
    state = rng.bit_generator.state
    y = correlate_uplink(h, pilots, cfg, rng)
    rng2 = np.random.default_rng()
    rng2.bit_generator.state = state
    noise = complex_noise((cfg.num_aps, cfg.num_pilots, cfg.antennas_per_ap),
                          cfg.noise_mw, rng2)
    amp = np.sqrt(cfg.ul_power_mw * cfg.num_pilots)
    clean = y - noise
    for t in range(cfg.num_pilots):
        expect = amp * h[pilots == t].sum(axis=0) if (pilots == t).any() else 0.0
        assert np.allclose(clean[:, t, :], expect, atol=1e-12)


def test_pilot_activity_mean():
    """Normalized by v_lt = alpha_lt + sigma^2, every entry of the drawn
    activity is Gamma(N, 1/N): mean 1 and variance 1/N, each within 5
    standard errors, and exponential at N = 1."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(5)
    topo = build_topology(cfg, rng, num_ues=3)
    alpha_lt = true_alpha_lt(topo.beta, np.zeros(3, dtype=int), cfg)   # pilots 1-4 unused
    reps = 4000
    for n in (1, 8, 64):
        activity = pilot_activity(np.broadcast_to(alpha_lt, (reps,) + alpha_lt.shape), n,
                                  cfg.noise_mw, rng)
        a = activity / (alpha_lt + cfg.noise_mw)                       # (R, T, L)
        var = 1.0 / n
        se_var = var * np.sqrt((2.0 + 6.0 / n) / reps)                # Gamma excess kurtosis 6/N
        assert np.abs(a.mean(axis=0) - 1.0).max() < 5 * np.sqrt(var / reps)
        assert np.abs(a.var(axis=0) - var).max() < 5 * se_var
        assert kstest(a[:, :, :8].ravel(), "gamma", args=(n, 0.0, 1.0 / n)).pvalue > 1e-3
        if n == 1:
            assert kstest(a[:, :, :8].ravel(), "expon").pvalue > 1e-3


def _accumulate_uplink_loop(h, pilots, amp, noise):
    # per pilot: the UEs' channels added one after another, then scaled, then the noise
    y = noise.copy()
    for t in np.unique(pilots):
        members = np.flatnonzero(pilots == t)
        acc = h[members[0]]
        for k in members[1:]:
            acc = acc + h[k]
        y[:, t, :] = amp * acc + noise[:, t, :]
    return y


def _observe_downlink_loop(h, y, pilots, scale, dl_noise):
    # per UE and AP: the correlation accumulated antenna by antenna in scalar
    # complex arithmetic, then weighted and summed over the APs
    z = dl_noise.copy()
    for k, t in enumerate(pilots):
        corr = np.zeros(h.shape[1], dtype=complex)
        for l in range(h.shape[1]):
            acc = 0j
            for n in range(h.shape[2]):
                acc += complex(h[k, l, n]).conjugate() * complex(y[l, t, n])
            corr[l] = acc
        z[k] = dl_noise[k] + (scale[t] * corr).sum()
    return z


def _kernel_inputs(rng, K, L, N, T=5, lead=()):
    h = (rng.standard_normal((*lead, K, L, N)) + 1j * rng.standard_normal((*lead, K, L, N))) \
        * 10.0 ** rng.uniform(-6, 0, (*lead, K, L, 1))
    pilots = rng.integers(0, T, size=K)
    noise = 0.1 * (rng.standard_normal((*lead, L, T, N)) + 1j * rng.standard_normal((*lead, L, T, N)))
    scale = rng.random((*lead, T, L)) * (rng.random((*lead, T, L)) < 0.5)
    dl_noise = 0.1 * (rng.standard_normal((*lead, K)) + 1j * rng.standard_normal((*lead, K)))
    return h, pilots, noise, scale, dl_noise


@pytest.mark.parametrize("K, L, N", [(1, 64, 8), (9, 16, 4), (60, 64, 8), (7, 1, 64)])
def test_kernels_match_per_ue_loop(K, L, N):
    """The batched kernels add in the per-UE loop's order: equal bit for bit."""
    h, pilots, noise, scale, dl_noise = _kernel_inputs(np.random.default_rng(6), K, L, N)
    y = accumulate_uplink(h, pilots, 2.5, noise)
    assert np.array_equal(y, _accumulate_uplink_loop(h, pilots, 2.5, noise))
    assert np.array_equal(observe_downlink(h, y, pilots, scale, dl_noise),
                          _observe_downlink_loop(h, y, pilots, scale, dl_noise))


@pytest.mark.parametrize("K, L, N", [(1, 64, 8), (12, 64, 8), (10, 1, 64)])
def test_stacked_calls_equal_per_slice_calls(K, L, N):
    """A leading realization axis (2 x 3 here) gives each slice's own result exactly."""
    h, pilots, noise, scale, dl_noise = _kernel_inputs(np.random.default_rng(9), K, L, N,
                                                       lead=(2, 3))
    y = accumulate_uplink(h, pilots, 2.5, noise)
    z = observe_downlink(h, y, pilots, scale, dl_noise)
    for i in np.ndindex(2, 3):
        assert np.array_equal(y[i], accumulate_uplink(h[i], pilots, 2.5, noise[i]))
        assert np.array_equal(z[i], observe_downlink(h[i], y[i], pilots, scale[i], dl_noise[i]))


def test_favorable_propagation():
    """Cross-correlation of distinct UEs' channels vanishes as N grows."""
    rng = np.random.default_rng(7)
    prev = None
    for n in (8, 64, 512):
        h = draw_channels(np.ones((2000, 2)), n, rng)
        cross = np.abs((np.conj(h[:, 0, :]) * h[:, 1, :]).sum(axis=1)) / n
        level = cross.mean()
        if prev is not None:
            assert level < prev
        prev = level
