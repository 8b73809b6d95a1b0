"""Metric arithmetic and CSV report round-trips."""

from dataclasses import asdict

import numpy as np
import pytest

from cfra.contention import CampaignResult
from cfra.metrics import CSV_COLUMNS, MetricsReport, iqr, tcp, write_table
from cfra.scenario import ScenarioConfig
from helpers import read_reports


def test_iqr():
    assert iqr([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.5)
    assert np.isnan(iqr([]))


def _campaign(anaa, tau_bar_pl=1.5, tau_bar=3.0, l_bar=30.0, q_eff_mw=float("nan")):
    return CampaignResult(attempts=np.array([1]), succeeded=np.array([True]), anaa=anaa,
                          tau_bar_pl=tau_bar_pl, tau_bar=tau_bar, l_bar=l_bar,
                          q_eff_mw=q_eff_mw, blocks=1, truncated=False)


def test_tcp_formulas():
    cfg = ScenarioConfig()
    tau_fac = cfg.num_pilots + 1
    # no measured effective power: cf-sucre charges the configured per-AP budget
    cf = tcp("cf-sucre", _campaign(2.0), cfg)
    assert cf == pytest.approx(2.0 * tau_fac * cfg.dl_power_per_ap_mw * 1.5 * 30.0)
    cf_eff = tcp("cf-sucre", _campaign(2.0, q_eff_mw=0.05), cfg)
    assert cf_eff == pytest.approx(2.0 * tau_fac * 0.05 * 1.5 * 30.0)
    # ce-sucre charges every active pilot network-wide; bcf every AP, ignoring q_eff
    ce = tcp("ce-sucre", _campaign(2.0, q_eff_mw=0.05), cfg)
    assert ce == pytest.approx(2.0 * tau_fac * cfg.bs_dl_power_mw * 3.0)
    bcf = tcp("bcf", _campaign(1.0, l_bar=64.0, q_eff_mw=0.05), cfg)
    assert bcf == pytest.approx(cfg.dl_power_per_ap_mw * 1.5 * cfg.num_aps)
    with pytest.raises(ValueError):
        tcp("aloha", _campaign(1.0), cfg)


def test_report_roundtrip_bit_exact(tmp_path):
    reports = [
        MetricsReport(sweep_axis="num_inactive_ues", sweep_value=5000.0,
                      protocol="cf-sucre", estimator="est3", nearby_method="fixed",
                      anaa=1.0 / 3.0, tcp_mw_symbols=1.23456789e-7,
                      nmse_median=0.1, nmse_iqr=float("nan"),
                      neb_median=-0.27, neb_iqr=0.05, trials=500, seed=42),
        MetricsReport(sweep_axis="collision_size", sweep_value=2.0,
                      estimator="est1", anaa=float("inf")),
    ]
    path = tmp_path / "out.csv"
    write_table([asdict(r) for r in reports], path, CSV_COLUMNS)
    back = read_reports(path)
    assert len(back) == 2
    for orig, got in zip(reports, back):
        for name in CSV_COLUMNS:
            a, b = getattr(orig, name), getattr(got, name)
            if isinstance(a, float) and np.isnan(a):
                assert np.isnan(b)
            else:
                assert a == b  # repr round-trip keeps floats bit-exact


def test_read_reports_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_reports(path)


def test_csv_columns_fixed_contract():
    assert CSV_COLUMNS == [
        "sweep_axis", "sweep_value", "protocol", "estimator", "nearby_method",
        "anaa", "tcp_mw_symbols", "nmse_median", "nmse_iqr", "neb_median",
        "neb_iqr", "nmd_mean", "trials", "seed",
    ]
