"""Sweep descriptors, execution order and output serialization."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from cfra import sweeps
from cfra.scenario import ScenarioConfig
from cfra.sweeps import SweepDescriptor, run_sweep, write_outputs
from helpers import SWEEP_COLUMNS, read_reports


def test_descriptor_validation():
    with pytest.raises(ValueError, match="trials"):
        SweepDescriptor(values=(200,), trials=0)
    with pytest.raises(ValueError, match="protocol"):
        SweepDescriptor(values=(200,), protocols=("lte",))
    with pytest.raises(ValueError, match="estimator"):
        SweepDescriptor(values=(200,), estimators=("est9",))
    with pytest.raises(ValueError, match="nearby_method"):
        SweepDescriptor(values=(200,), nearby_method="psychic")
    with pytest.raises(ValueError, match="at least one protocol"):
        SweepDescriptor(values=(200,), protocols=())
    with pytest.raises(ValueError, match="at least one protocol and one estimator"):
        SweepDescriptor(values=(200,), protocols=("bcf",), estimators=())
    with pytest.raises(ValueError, match="whole number"):
        SweepDescriptor(values=(200, 200.5))


def test_empty_values_are_rejected():
    """A sweep of no |U| would be a table with no rows, and so no header."""
    with pytest.raises(ValueError, match="at least one value"):
        SweepDescriptor(values=())


def test_non_physical_value_stops_the_sweep_before_any_campaign(monkeypatch):
    """Each |U| is checked as a scenario config up front, so a bad last value
    does not cost the campaigns of the values before it."""
    calls = []
    monkeypatch.setattr(sweeps, "run_access_campaign", lambda *a, **k: calls.append(a))
    desc = SweepDescriptor(values=(200, 0), trials=2, protocols=("bcf",))
    with pytest.raises(ValueError, match="num_inactive_ues"):
        run_sweep(desc, ScenarioConfig())
    assert calls == []


def test_campaign_rows_carry_tcp():
    """Every campaign row carries both its mean ANAA and its mean TCP; bcf and
    ce-sucre give one row per |U|, cf-sucre one per estimator."""
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    desc = SweepDescriptor(values=(200, 300), trials=3, seed=7, estimators=("est2", "est3"))
    reports = run_sweep(desc, cfg)
    assert [(r["num_inactive_ues"], r["protocol"], r["estimator"]) for r in reports] == [
        (num, protocol, kind) for num in (200, 300)
        for protocol, kind in (("bcf", "est2"), ("cf-sucre", "est2"), ("cf-sucre", "est3"),
                               ("ce-sucre", "cellular"))]
    assert all(list(r) == SWEEP_COLUMNS for r in reports)
    assert all(np.isfinite(r["anaa"]) and np.isfinite(r["tcp_mw_symbols"])
               and r["tcp_mw_symbols"] > 0.0 for r in reports)


def test_campaign_sweep_and_manifest(tmp_path):
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    desc = SweepDescriptor(values=(200,), trials=2, seed=3, protocols=("bcf",))
    reports = run_sweep(desc, cfg)
    manifest_path = write_outputs(reports, tmp_path / "sweep.csv", cfg, asdict(desc))
    assert manifest_path == tmp_path / "sweep.manifest.json"
    assert len(reports) == 1
    assert reports[0]["protocol"] == "bcf"
    assert reports[0]["num_inactive_ues"] == 200
    assert np.isfinite(reports[0]["anaa"])
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
    assert a[0]["anaa"] == b[0]["anaa"]


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
    manifest_path = write_outputs(reports, tmp_path / "sweep.csv", cfg, asdict(desc))
    effective = int(np.isfinite(anaa).sum())
    assert len(anaa) == 12 and 0 < effective < 12      # some cohorts were empty
    assert reports[0]["trials"] == effective
    assert read_reports(tmp_path / "sweep.csv", SWEEP_COLUMNS)[0]["trials"] == effective
    assert json.loads(manifest_path.read_text())["arguments"]["trials"] == 12
