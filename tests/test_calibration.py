"""Serving-cap training and compensation-factor calibration."""

import numpy as np
import pytest

from cfra.calibration import TrainingConfig, calibrate_delta, train_lmax
from cfra.scenario import ScenarioConfig


def _small_cfg(**kw):
    return ScenarioConfig(num_inactive_ues=200, **kw)


def test_training_config_validation():
    cfg = ScenarioConfig()
    with pytest.raises(ValueError):
        TrainingConfig(scenario=cfg, rounds=0)
    with pytest.raises(ValueError):
        TrainingConfig(scenario=cfg, repetitions=0)
    TrainingConfig(scenario=cfg, rounds=10, repetitions=20)


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
