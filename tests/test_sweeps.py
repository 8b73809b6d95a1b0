"""Sweep descriptors, execution order and output serialization."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from cfra import sweeps
from cfra.scenario import ScenarioConfig
from cfra.sweeps import SweepDescriptor, run_sweep, write_outputs
from helpers import read_reports


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SweepDescriptor(trials=0)
    with pytest.raises(ValueError):
        SweepDescriptor(protocols=("lte",))
    with pytest.raises(ValueError):
        SweepDescriptor(estimators=("est9",))
    with pytest.raises(ValueError):
        SweepDescriptor(nearby_method="psychic")
    with pytest.raises(ValueError):
        SweepDescriptor(values=(200,), protocols=())
    with pytest.raises(ValueError):
        SweepDescriptor(values=(200,), protocols=("bcf",), estimators=())


def test_empty_values_yield_no_reports(tmp_path):
    desc = SweepDescriptor(values=())
    reports = run_sweep(desc, ScenarioConfig())
    write_outputs([asdict(r) for r in reports], tmp_path / "sweep.csv", ScenarioConfig(),
                  asdict(desc))
    assert reports == []
    assert read_reports(tmp_path / "sweep.csv") == []


def test_campaign_rows_carry_tcp():
    """Every campaign row carries both its mean ANAA and its mean TCP; bcf and
    ce-sucre give one row per |U|, cf-sucre one per estimator."""
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    desc = SweepDescriptor(values=(200, 300), trials=3, seed=7, estimators=("est2", "est3"))
    reports = run_sweep(desc, cfg)
    assert [(r.sweep_value, r.protocol, r.estimator) for r in reports] == [
        (num, protocol, kind) for num in (200.0, 300.0)
        for protocol, kind in (("bcf", "est2"), ("cf-sucre", "est2"), ("cf-sucre", "est3"),
                               ("ce-sucre", "cellular"))]
    assert all(np.isfinite(r.anaa) and np.isfinite(r.tcp_mw_symbols) and r.tcp_mw_symbols > 0.0
               for r in reports)


def test_campaign_sweep_and_manifest(tmp_path):
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    desc = SweepDescriptor(values=(200,), trials=2, seed=3, protocols=("bcf",))
    reports = run_sweep(desc, cfg)
    manifest_path = write_outputs([asdict(r) for r in reports], tmp_path / "sweep.csv", cfg,
                                  asdict(desc))
    assert manifest_path == tmp_path / "sweep.manifest.json"
    assert len(reports) == 1
    assert reports[0].protocol == "bcf"
    assert reports[0].sweep_axis == "num_inactive_ues"
    assert np.isfinite(reports[0].anaa)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["arguments"]["seed"] == 3
    assert manifest["arguments"]["protocols"] == ["bcf"]
    assert manifest["rows"] == 1
    assert manifest["config"]["num_inactive_ues"] == 200
    assert "provenance" in manifest


def test_sweep_seed_reproducibility():
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    desc = SweepDescriptor(values=(200,), trials=2, seed=5, protocols=("bcf",))
    a = run_sweep(desc, cfg)
    b = run_sweep(desc, cfg)
    assert a[0].anaa == b[0].anaa


def test_campaign_trials_count_nonempty_cohorts(tmp_path, monkeypatch):
    """A sweep row reports the campaigns that gave an ANAA; the manifest keeps
    the requested count."""
    run_campaign = sweeps.run_access_campaign
    anaa = []

    def spy(*args, **kwargs):
        result = run_campaign(*args, **kwargs)
        anaa.append(result.anaa)
        return result

    monkeypatch.setattr(sweeps, "run_access_campaign", spy)
    cfg = ScenarioConfig(access_probability=0.01)
    desc = SweepDescriptor(values=(50,), trials=12, seed=4, protocols=("bcf",))
    reports = run_sweep(desc, cfg)
    manifest_path = write_outputs([asdict(r) for r in reports], tmp_path / "sweep.csv", cfg,
                                  asdict(desc))
    effective = int(np.isfinite(anaa).sum())
    assert len(anaa) == 12 and 0 < effective < 12      # some cohorts were empty
    assert reports[0].trials == effective
    assert read_reports(tmp_path / "sweep.csv")[0].trials == effective
    assert json.loads(manifest_path.read_text())["arguments"]["trials"] == 12
