"""Metric arithmetic and CSV report round-trips."""

import numpy as np
import pytest

from cfra.cli import main
from cfra.contention import CampaignResult
from cfra.metrics import iqr, tcp, write_table
from cfra.scenario import ScenarioConfig
from helpers import BENCH_COLUMNS, SWEEP_COLUMNS, read_reports


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


def test_csv_columns_fixed_contract(tmp_path):
    """Each report table writes exactly its own columns, in a fixed order."""
    sweep_header = ["num_inactive_ues", "protocol", "estimator", "nearby_method", "anaa",
                    "tcp_mw_symbols", "trials", "truncated", "seed"]
    bench_header = ["collision_size", "protocol", "estimator", "nearby_method",
                    "nmse_median", "nmse_iqr", "neb_median", "neb_iqr", "nmd_mean",
                    "trials", "seed"]
    assert SWEEP_COLUMNS == sweep_header and BENCH_COLUMNS == bench_header
    cfg = tmp_path / "busy.cfg"
    cfg.write_text("num_inactive_ues = 200\naccess_probability = 0.05\n")
    runs = (["sweep", "--values", "200", "--trials", "1", "--protocols", "bcf"],
            ["estimators-bench", "--trials", "1", "--collision-sizes", "2", "--estimators", "est1"])
    for argv, header in zip(runs, (sweep_header, bench_header)):
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{argv[0]}.csv").read_text().splitlines()[0] == ",".join(header)


def test_report_roundtrip_bit_exact(tmp_path):
    reports = [
        {"num_inactive_ues": 5000, "protocol": "cf-sucre", "estimator": "est3",
         "nearby_method": "fixed", "anaa": 1.0 / 3.0, "tcp_mw_symbols": 1.23456789e-7,
         "trials": 500, "truncated": 2, "seed": 42},
        {"num_inactive_ues": 200, "protocol": "bcf", "estimator": "est1",
         "nearby_method": "fixed", "anaa": float("inf"), "tcp_mw_symbols": float("nan"),
         "trials": 0, "truncated": 0, "seed": 0},
    ]
    path = tmp_path / "out.csv"
    write_table(reports, path)
    back = read_reports(path, SWEEP_COLUMNS)
    assert len(back) == 2
    for orig, got in zip(reports, back):
        assert list(got) == list(orig)
        for name, a in orig.items():
            b = got[name]
            assert type(a) is type(b), name
            if isinstance(a, float) and np.isnan(a):
                assert np.isnan(b)
            else:
                assert a == b  # repr round-trip keeps floats bit-exact


def test_read_reports_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_reports(path, SWEEP_COLUMNS)


def test_write_table_rejects_an_empty_table(tmp_path):
    """A table's header is its first row's keys, so an empty one has none."""
    for name in ("empty.csv", "empty.json"):
        with pytest.raises(ValueError, match="row"):
            write_table([], tmp_path / name)
    assert not any(tmp_path.iterdir())
