"""Serving-cap training and compensation-factor calibration."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cfra import calibration
from cfra.calibration import TrainingConfig, calibrate_delta, train_lmax
from cfra.channel import pilot_activity
from cfra.scenario import ScenarioConfig
from helpers import mean_of_activity_draws


def _small_cfg(**kw):
    return ScenarioConfig(num_inactive_ues=200, **kw)


def test_training_config_validation():
    cfg = ScenarioConfig()
    with pytest.raises(ValueError):
        TrainingConfig(scenario=cfg, rounds=0)
    with pytest.raises(ValueError):
        TrainingConfig(scenario=cfg, repetitions=0)
    TrainingConfig(scenario=cfg, rounds=10, repetitions=20)


@pytest.mark.parametrize("field", ["rounds", "repetitions"])
@pytest.mark.parametrize("value", [2.5, True, 0])
def test_training_config_rejects_non_counts(field, value):
    """Counts follow ``ScenarioConfig``'s rule: an integer >= 1 that is not a bool."""
    with pytest.raises(ValueError, match=field):
        TrainingConfig(scenario=ScenarioConfig(), **{field: value})


def test_training_config_accepts_numpy_integers():
    cfg = _small_cfg(access_probability=0.05)
    training = TrainingConfig(scenario=cfg, rounds=np.int64(3), repetitions=np.int64(3))
    l_max, trace = train_lmax(training, np.random.default_rng(0))
    assert 1 <= l_max <= cfg.num_aps and len(trace) == 3


def test_train_lmax_bounds_and_reproducibility():
    cfg = _small_cfg(access_probability=0.02)
    training = TrainingConfig(scenario=cfg, rounds=10, repetitions=10)
    l_max_a, trace_a = train_lmax(training, np.random.default_rng(0))
    l_max_b, trace_b = train_lmax(training, np.random.default_rng(0))
    assert l_max_a == l_max_b
    assert trace_a == trace_b
    assert 1 <= l_max_a <= cfg.num_aps
    assert 0 < len(trace_a) <= training.rounds


def test_train_lmax_all_idle_raises():
    cfg = ScenarioConfig(num_inactive_ues=20, access_probability=1e-12)
    training = TrainingConfig(scenario=cfg, rounds=5, repetitions=5)
    with pytest.raises(RuntimeError):
        train_lmax(training, np.random.default_rng(1))


# |U| = 2000 at p = 0.01: about 20 active UEs a round, so every round draws
# the full (T, L) = (5, 64) activity matrix
LAW_CONFIG = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
LAW_ROUNDS = 20
LAW_REPETITIONS = (5, 100)
# one KS test per repetition count; Bonferroni keeps the family's false-alarm rate at 1 %
LAW_FAMILY_ALPHA = 0.01
LAW_TEST_ALPHA = LAW_FAMILY_ALPHA / len(LAW_REPETITIONS)


@pytest.mark.parametrize("repetitions", LAW_REPETITIONS)
def test_training_average_has_the_law_of_the_mean_of_draws(repetitions, monkeypatch):
    """Each round's averaged activity over v_lt = alpha_lt + sigma^2, pooled
    over (round, t, l), against the mean of ``repetitions`` separate draws
    (``helpers.mean_of_activity_draws``) on the same gains: two-sample KS."""
    cfg = LAW_CONFIG
    seen = []

    def spy(alpha_lt, n_antennas, noise_mw, rng):
        out = pilot_activity(alpha_lt, n_antennas, noise_mw, rng)
        seen.append((alpha_lt, out))
        return out

    monkeypatch.setattr(calibration, "pilot_activity", spy)
    train_lmax(TrainingConfig(cfg, rounds=LAW_ROUNDS, repetitions=repetitions),
               np.random.default_rng(31))
    rng = np.random.default_rng(32)
    new, ref = [], []
    for alpha_lt, avg in seen:
        assert avg.shape == (cfg.num_pilots, cfg.num_aps), "one draw per round"
        variance = alpha_lt + cfg.noise_mw
        new.append(avg / variance)
        ref.append(mean_of_activity_draws(alpha_lt, cfg.antennas_per_ap, cfg.noise_mw,
                                          repetitions, rng) / variance)
    new, ref = np.concatenate(new, axis=None), np.concatenate(ref, axis=None)
    assert new.size == ref.size >= 0.9 * LAW_ROUNDS * cfg.num_pilots * cfg.num_aps
    assert ks_2samp(new, ref).pvalue > LAW_TEST_ALPHA
    # the test has power: one repetition's law is rejected at these sizes
    single = rng.standard_gamma(cfg.antennas_per_ap, new.size) / cfg.antennas_per_ap
    assert ks_2samp(new, single).pvalue < LAW_TEST_ALPHA


def test_train_lmax_memory_is_flat_in_the_repetitions():
    """The traced allocation peak at 10,000 repetitions stays within 1.3x of the peak at 10."""
    def peak(repetitions):
        training = TrainingConfig(LAW_CONFIG, rounds=3, repetitions=repetitions)
        tracemalloc.start()
        try:
            train_lmax(training, np.random.default_rng(5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10_000) <= 1.3 * peak(10)


def test_calibrate_delta_reproducible_and_sane():
    cfg = _small_cfg()
    delta_a, q_a = calibrate_delta(cfg, cfg.num_aps, np.random.default_rng(2), draws=200)
    delta_b, q_b = calibrate_delta(cfg, cfg.num_aps, np.random.default_rng(2), draws=200)
    assert delta_a == delta_b and q_a == q_b
    # normalized precoding never spends more than the per-AP budget on average
    assert 0.0 < q_a < cfg.dl_power_per_ap_mw
    assert delta_a >= 1.0


def test_calibrate_delta_matches_power_identity():
    cfg = _small_cfg()
    delta, q_avg = calibrate_delta(cfg, cfg.num_aps, np.random.default_rng(3), draws=100)
    assert delta == pytest.approx((cfg.dl_power_per_ap_mw / q_avg) ** 0.5, rel=1e-12)


@pytest.mark.parametrize("draws", [25, 5, 0, -10])
def test_calibrate_delta_rejects_uneven_draws(draws):
    """``draws`` is split evenly over the ten collision sizes, never rounded."""
    cfg = _small_cfg()
    with pytest.raises(ValueError, match="draws"):
        calibrate_delta(cfg, cfg.num_aps, np.random.default_rng(2), draws=draws)
