"""The attempt's sampler against the full channel sampler, in law.

An attempt draws the uplink y from its marginal law and each UE's channel
only at its pilot's serving slots, conditioned on y (``draw_uplink``,
``conditional_channels``). The reference below is the full sampler it
replaced: every UE's N-antenna channel to every AP, the uplink built from
those channels plus fresh noise, and the downlink observation read off the
full channels. At fixed gains and pilots the two must agree in law: the
activity of every (pilot, AP), the serving-set frequencies and the
distribution, mean and variance of each UE's observation z.

The seeds are fixed, so every verdict below is deterministic. Each family
of p-values is held to a Bonferroni bound at level 0.01.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

import cfra
from cfra.access import (build_serving_sets, conditional_channels, downlink_observation,
                         precoder_weights, true_alpha_lt)
from cfra.channel import (complex_noise, draw_channels, draw_uplink, pilot_activity,
                          received_energy)
from cfra.contention import run_attempt
from cfra.estimators import EstimatorSpec, cpu_alpha_hat
from cfra.kernels import accumulate_uplink, observe_downlink
from cfra.scenario import ScenarioConfig, build_topology

REALIZATIONS = 20_000
CHUNK = 1_000
LEVEL = 0.01


def _full_sampler(beta, pilots, cfg, columns, l_max, kinds, rng, reps):
    """Reference: channels at every AP, then the uplink, then z on the full channels.

    ``columns`` pilot columns are simulated (the estimator bench simulates
    one). Returns the activity (R, columns, L), the serving masks and, per
    precoding kind, z (R, K), all from the same channels and uplink.
    """
    amp = np.sqrt(cfg.ul_power_mw * cfg.num_pilots)
    n_ant = cfg.antennas_per_ap
    h = draw_channels(np.broadcast_to(beta, (reps,) + beta.shape), n_ant, rng)
    noise = complex_noise((reps, cfg.num_aps, columns, n_ant), cfg.noise_mw, rng)
    y = accumulate_uplink(h, pilots, amp, noise)
    activity = pilot_activity(y)
    serving = build_serving_sets(activity, l_max, cfg.noise_mw)
    out = [activity, serving.mask]
    for kind in kinds:
        alpha_hat = cpu_alpha_hat(activity, cfg.noise_mw) if kind == "normalized" else None
        scale, _ = precoder_weights(y, serving.mask, cfg.dl_power_per_ap_mw, cfg.num_pilots,
                                    alpha_hat)
        eta = complex_noise((reps, pilots.size), cfg.noise_mw, rng)
        out.append(observe_downlink(h, y, pilots, scale, eta))
    return out


def _attempt_sampler(beta, pilots, cfg, columns, l_max, kinds, rng, reps):
    """The attempt's sampler: y from its marginal, channels given y at serving slots."""
    alpha_lt = true_alpha_lt(beta, pilots, cfg)[:columns]
    y = draw_uplink(np.broadcast_to(alpha_lt, (reps,) + alpha_lt.shape),
                    cfg.antennas_per_ap, cfg.noise_mw, rng)
    activity = pilot_activity(y)
    serving = build_serving_sets(activity, l_max, cfg.noise_mw)
    out = [activity, serving.mask]
    for kind in kinds:
        alpha_hat = cpu_alpha_hat(activity, cfg.noise_mw) if kind == "normalized" else None
        out.append(downlink_observation(y, serving, beta, alpha_lt, pilots, cfg, rng,
                                        precoding_kind=kind, cpu_alpha_hat=alpha_hat).z)
    return out


def _sample(sampler, seed, *args):
    rng = np.random.default_rng(seed)
    parts = [sampler(*args, rng, CHUNK) for _ in range(REALIZATIONS // CHUNK)]
    return [np.concatenate(p) for p in zip(*parts)]


def _case(name):
    """(gains, pilots, config, pilot columns, l_max, precoding kinds) of one law case.

    The cell-free cases use 16 APs, so that the full reference sampler stays
    cheap at 20k realizations.
    """
    cfg = ScenarioConfig(num_aps=16, l_max=6)
    topo = build_topology(cfg, np.random.default_rng(21), num_ues=7)
    pilots = np.array([0, 0, 0, 1, 1, 2, 4])          # pilot 3 unused
    if name == "cell-free":
        return topo.beta, pilots, cfg, cfg.num_pilots, cfg.l_max, ("standard", "normalized")
    if name == "single-bs":                          # the ce-sucre view, N = 64
        return topo.bs_view.beta, pilots, cfg.bs_config, cfg.num_pilots, 1, ("standard",)
    if name == "bench":                              # one contended pilot column
        return topo.beta[:4], np.zeros(4, dtype=int), cfg, 1, 4, ("normalized",)
    raise ValueError(name)


CASES = ("cell-free", "single-bs", "bench")


@pytest.fixture(scope="module")
def samples():
    out = {}
    for name in CASES:
        args = _case(name)
        out[name] = (_sample(_full_sampler, 31, *args), _sample(_attempt_sampler, 32, *args))
    return out


def _observations(samples):
    """(case, precoding kind, reference z, attempt z) for every case and kind."""
    for name in CASES:
        ref, new = samples[name]
        for kind, z_ref, z_new in zip(_case(name)[-1], ref[2:], new[2:]):
            yield name, kind, z_ref, z_new


def test_activity_same_law(samples):
    """Two-sample KS of the activity of every (pilot, AP)."""
    p_values = []
    for name in CASES:
        ref, new = samples[name][0][0], samples[name][1][0]
        p_values += [ks_2samp(ref[:, t, l], new[:, t, l]).pvalue
                     for t in range(ref.shape[1]) for l in range(ref.shape[2])]
    assert min(p_values) > LEVEL / len(p_values)


def test_serving_frequencies_agree(samples):
    """Each AP serves each pilot equally often; at R = 20k the standard error
    of a difference is at most 0.005."""
    for name in CASES:
        ref, new = samples[name][0][1], samples[name][1][1]
        assert np.abs(ref.mean(axis=0) - new.mean(axis=0)).max() < 0.02, name


def test_observation_same_law(samples):
    """Two-sample KS of Re z and Im z of every UE."""
    p_values = []
    for _, _, ref, new in _observations(samples):
        for part in (np.real, np.imag):
            p_values += [ks_2samp(part(ref[:, k]), part(new[:, k])).pvalue
                         for k in range(ref.shape[1])]
    assert min(p_values) > LEVEL / len(p_values)


def _moments(z):
    """Mean and variance of complex samples, each with its standard error."""
    mean = z.mean()
    dev = np.abs(z - mean) ** 2
    var = dev.mean()
    return mean, np.sqrt(var / z.size), var, np.sqrt(dev.var() / z.size)


def test_observation_mean_and_variance_agree(samples):
    for name, kind, ref, new in _observations(samples):
        for k in range(ref.shape[1]):
            m_r, se_mr, v_r, se_vr = _moments(ref[:, k])
            m_n, se_mn, v_n, se_vn = _moments(new[:, k])
            assert abs(m_r - m_n) < 5 * np.hypot(se_mr, se_mn), (name, kind, k)
            assert abs(v_r - v_n) < 5 * np.hypot(se_vr, se_vn), (name, kind, k)


def test_conditional_channel_moments():
    """Given ||y||, the drawn components have the Gaussian posterior's mean
    (a beta / v) ||y|| and covariance beta [k = j] - a^2 beta_k beta_j / v."""
    cfg = ScenarioConfig()
    a = np.sqrt(cfg.ul_power_mw * cfg.num_pilots)
    pilots = np.array([0, 0, 1])
    beta = np.array([[2e-9, 5e-10], [1e-9, 3e-9], [4e-9, 1e-9]])   # (K, J) at the slots
    alpha = np.zeros((cfg.num_pilots, 2))
    for t in (0, 1):
        alpha[t] = a * a * beta[pilots == t].sum(axis=0)
    v = alpha + cfg.noise_mw
    y_norm = np.sqrt(v.T[:, :, None] * 3.0)                   # (J, T, 1), a fixed ||y||
    reps = 200_000
    h = conditional_channels(np.broadcast_to(y_norm, (reps,) + y_norm.shape),
                             np.broadcast_to(beta, (reps,) + beta.shape),
                             np.broadcast_to(v[pilots], (reps,) + beta.shape),
                             pilots, cfg, np.random.default_rng(33))[..., 0]   # (R, K, J)
    mean = a * beta / v[pilots] * y_norm[:, pilots, 0].T
    same = pilots[:, None] == pilots[None, :]
    for j in range(2):
        cov = np.where(same, np.diag(beta[:, j]) - a * a * np.outer(beta[:, j], beta[:, j])
                       / v[pilots, j][:, None], 0.0)
        dev = h[:, :, j] - mean[:, j]
        got = (dev[:, :, None] * np.conj(dev[:, None, :])).mean(axis=0)
        sd = np.sqrt(beta[:, j].max())     # 0.02 sd is about 9 standard errors at 200k draws
        assert np.abs(h[:, :, j].mean(axis=0) - mean[:, j]).max() < 0.02 * sd
        assert np.abs(got - cov).max() < 0.02 * sd ** 2


def test_projection_onto_uplink_gives_the_same_observation():
    """For a full (h, y), observe_downlink on (u^H h, ||y||) equals it on (h, y)."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(34)
    topo = build_topology(cfg, rng, num_ues=9)
    pilots = rng.integers(0, cfg.num_pilots, size=9)
    h = draw_channels(topo.beta, cfg.antennas_per_ap, rng)
    y = accumulate_uplink(h, pilots, np.sqrt(cfg.ul_power_mw * cfg.num_pilots),
                          complex_noise((cfg.num_aps, cfg.num_pilots, cfg.antennas_per_ap),
                                        cfg.noise_mw, rng))
    norm = np.sqrt(np.swapaxes(received_energy(y), 0, 1))[..., None]       # (L, T, 1)
    u = y / norm
    h_p = np.einsum("lkn,kln->kl", np.conj(u[:, pilots]), h)[..., None]   # (K, L, 1)
    scale = rng.random((cfg.num_pilots, cfg.num_aps))
    eta = complex_noise(9, cfg.noise_mw, rng)
    np.testing.assert_allclose(observe_downlink(h_p, norm, pilots, scale, eta),
                               observe_downlink(h, y, pilots, scale, eta), rtol=1e-12)


# --- draw budget -----------------------------------------------------------

@pytest.fixture
def drawn(monkeypatch):
    """Records the shape of every draw_channels and complex_noise result,
    wherever in the package the two functions are called from."""
    record = []
    for name in ("draw_channels", "complex_noise"):
        original = getattr(cfra.channel, name)

        def wrapper(*args, _f=original, _name=name, **kwargs):
            out = _f(*args, **kwargs)
            record.append((_name, out.shape))
            return out

        for module in vars(cfra).values():
            if getattr(module, "__name__", "").startswith("cfra.") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return record


@pytest.mark.parametrize("protocol, spec", [
    ("bcf", EstimatorSpec()),
    ("cf-sucre", EstimatorSpec(kind="est2", nearby_method="greedy")),
    ("cf-sucre", EstimatorSpec(kind="est3")),
    ("ce-sucre", EstimatorSpec(kind="cellular")),
])
def test_attempt_draw_budget(drawn, protocol, spec):
    """An attempt draws the uplink (L T N entries) and, with a downlink
    response, K J channel entries, J T prior-uplink noise entries and K
    downlink noise entries, J being the largest serving set of a used pilot:
    never a channel to every AP."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(35)
    topo = build_topology(cfg, rng, num_ues=300)
    phy = cfg.bs_config if protocol == "ce-sucre" else cfg
    bound_ul = phy.num_aps * phy.num_pilots * phy.antennas_per_ap
    for active in (range(300), range(40), [7]):
        drawn.clear()
        out = run_attempt(protocol, spec, topo, active, cfg, rng)
        k = out.ues.size
        entries = sum(int(np.prod(shape)) for _, shape in drawn)
        channels = [shape for name, shape in drawn if name == "draw_channels"]
        if protocol == "bcf":
            assert channels == [] and entries <= bound_ul
            continue
        (shape,) = channels
        j = shape[1]
        assert shape == (k, j, 1) and j <= phy.l_max
        assert entries <= bound_ul + k * j + j * phy.num_pilots + k
