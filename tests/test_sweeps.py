"""Sweep descriptors, execution order and output serialization."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from cfra import sweeps
from cfra.metrics import read_reports
from cfra.scenario import ScenarioConfig
from cfra.sweeps import SweepDescriptor, run_sweep, write_outputs


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SweepDescriptor(figure_class="mystery")
    with pytest.raises(ValueError):
        SweepDescriptor(figure_class="anaa-sweep", trials=0)
    with pytest.raises(ValueError):
        SweepDescriptor(figure_class="anaa-sweep", protocols=("lte",))
    with pytest.raises(ValueError):
        SweepDescriptor(figure_class="anaa-sweep", estimators=("est9",))
    with pytest.raises(ValueError):
        SweepDescriptor(figure_class="anaa-sweep", nearby_method="psychic")


def test_descriptor_axis_defaults():
    desc = SweepDescriptor(figure_class="estimator-bench")
    assert desc.axis == "collision_size"
    assert SweepDescriptor(figure_class="ee-sweep").axis == "num_inactive_ues"


def test_empty_values_yield_no_reports(tmp_path):
    desc = SweepDescriptor(figure_class="anaa-sweep", values=())
    reports = run_sweep(desc, ScenarioConfig())
    write_outputs(desc, ScenarioConfig(), reports, tmp_path)
    assert reports == []
    assert read_reports(tmp_path / "anaa-sweep.csv") == []


def test_anaa_and_ee_sweeps_give_equal_rows():
    """Every campaign row carries its TCP: the two campaign figure classes
    differ only in their name."""
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    rows = {}
    for figure_class in ("anaa-sweep", "ee-sweep"):
        desc = SweepDescriptor(figure_class=figure_class, values=(200, 300), trials=3,
                               seed=7, estimators=("est2", "est3"))
        rows[figure_class] = [asdict(r) for r in run_sweep(desc, cfg)]
    assert len(rows["anaa-sweep"]) == 8
    assert rows["anaa-sweep"] == rows["ee-sweep"]
    assert all(np.isfinite(r["tcp_mw_symbols"]) and r["tcp_mw_symbols"] > 0.0
               for r in rows["anaa-sweep"])


def test_campaign_sweep_and_manifest(tmp_path):
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    desc = SweepDescriptor(figure_class="anaa-sweep", values=(200,),
                           trials=2, seed=3, protocols=("bcf",))
    reports = run_sweep(desc, cfg)
    write_outputs(desc, cfg, reports, tmp_path)
    assert len(reports) == 1
    assert reports[0].protocol == "bcf"
    assert np.isfinite(reports[0].anaa)
    manifest = json.loads((tmp_path / "anaa-sweep.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["rows"] == 1
    assert manifest["descriptor"]["figure_class"] == "anaa-sweep"
    assert manifest["config"]["num_inactive_ues"] == 200
    assert "provenance" in manifest


def test_sweep_seed_reproducibility():
    cfg = ScenarioConfig(num_inactive_ues=200, access_probability=0.05)
    desc = SweepDescriptor(figure_class="anaa-sweep", values=(200,),
                           trials=2, seed=5, protocols=("bcf",))
    a = run_sweep(desc, cfg)
    b = run_sweep(desc, cfg)
    assert a[0].anaa == b[0].anaa


def test_bench_sweep_row_shape():
    desc = SweepDescriptor(figure_class="estimator-bench", values=(2,),
                           trials=5, protocols=("cf-sucre", "ce-sucre"),
                           estimators=("est1",))
    reports = run_sweep(desc, ScenarioConfig())
    kinds = [r.estimator for r in reports]
    assert kinds == ["est1", "cellular"]
    for r in reports:
        assert np.isfinite(r.nmse_median)
        assert np.isfinite(r.neb_median)


def test_bench_sweep_rejects_untuned_size():
    desc = SweepDescriptor(figure_class="estimator-bench", values=(11,), trials=1,
                           protocols=("cf-sucre",), estimators=("est2",))
    with pytest.raises(ValueError, match="collision size 11"):
        run_sweep(desc, ScenarioConfig())


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
    desc = SweepDescriptor(figure_class="anaa-sweep", values=(50,), trials=12, seed=4,
                           protocols=("bcf",))
    reports = run_sweep(desc, cfg)
    write_outputs(desc, cfg, reports, tmp_path)
    effective = int(np.isfinite(anaa).sum())
    assert len(anaa) == 12 and 0 < effective < 12      # some cohorts were empty
    assert reports[0].trials == effective
    assert read_reports(tmp_path / "anaa-sweep.csv")[0].trials == effective
    manifest = json.loads((tmp_path / "anaa-sweep.manifest.json").read_text())
    assert manifest["descriptor"]["trials"] == 12
