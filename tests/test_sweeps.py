"""The campaign sweep table, run through ``cfra sweep`` in CSV and JSON:
execution order, row contents, the manifest and reproducibility."""

import json

import numpy as np
import pytest

from cfra import cli
from cfra.cli import main
from helpers import SWEEP_COLUMNS, read_reports

FORMATS = ("csv", "json")


@pytest.fixture
def busy_cfg(tmp_path):
    path = tmp_path / "busy.cfg"
    path.write_text("num_inactive_ues = 200\naccess_probability = 0.05\n")
    return path


def _sweep(out, fmt, *argv):
    """Run ``cfra sweep`` into ``out`` and return its rows and manifest."""
    assert main(["sweep", *argv, "--out", str(out), "--format", fmt]) == 0
    table = out / f"sweep.{fmt}"
    rows = (json.loads(table.read_text()) if fmt == "json"
            else read_reports(table, SWEEP_COLUMNS))
    return rows, json.loads((out / "sweep.manifest.json").read_text())


def test_non_physical_value_stops_the_sweep_before_any_campaign(tmp_path, monkeypatch, capsys):
    """Each |U| is checked as a scenario config up front, so a bad last value
    does not cost the campaigns of the values before it."""
    calls = []
    monkeypatch.setattr(cli, "run_access_campaign", lambda *a, **k: calls.append(a))
    for fmt in FORMATS:
        assert main(["sweep", "--values", "200", "0", "--trials", "2", "--protocols", "bcf",
                     "--out", str(tmp_path / fmt), "--format", fmt]) == 1
        assert "num_inactive_ues" in capsys.readouterr().err
    assert calls == []
    assert not any(tmp_path.iterdir())


def test_campaign_rows_carry_tcp(tmp_path, busy_cfg):
    """Every campaign row carries both its mean ANAA and its mean TCP; bcf and
    ce-sucre give one row per |U|, cf-sucre one per estimator."""
    for fmt in FORMATS:
        rows, _ = _sweep(tmp_path / fmt, fmt, "--config", str(busy_cfg), "--values", "200",
                         "300", "--trials", "3", "--seed", "7", "--estimators", "est2", "est3")
        assert [(r["num_inactive_ues"], r["protocol"], r["estimator"]) for r in rows] == [
            (num, protocol, kind) for num in (200, 300)
            for protocol, kind in (("bcf", "est2"), ("cf-sucre", "est2"),
                                   ("cf-sucre", "est3"), ("ce-sucre", "cellular"))]
        assert all(list(r) == SWEEP_COLUMNS for r in rows)
        assert all(np.isfinite(r["anaa"]) and np.isfinite(r["tcp_mw_symbols"])
                   and r["tcp_mw_symbols"] > 0.0 for r in rows)


def test_campaign_sweep_and_manifest(tmp_path, busy_cfg):
    for fmt in FORMATS:
        rows, manifest = _sweep(tmp_path / fmt, fmt, "--config", str(busy_cfg),
                                "--values", "200", "--trials", "2", "--seed", "3",
                                "--protocols", "bcf")
        assert len(rows) == 1
        assert rows[0]["protocol"] == "bcf"
        assert rows[0]["num_inactive_ues"] == 200
        assert np.isfinite(rows[0]["anaa"])
        assert manifest["arguments"]["seed"] == 3
        assert manifest["arguments"]["protocols"] == ["bcf"]
        assert manifest["rows"] == 1
        assert manifest["config"]["num_inactive_ues"] == 200
        assert "provenance" in manifest


def test_sweep_seed_reproducibility(tmp_path, busy_cfg):
    """The same seed writes the same table, byte for byte."""
    for fmt in FORMATS:
        tables = []
        for run in ("a", "b"):
            _sweep(tmp_path / run, fmt, "--config", str(busy_cfg), "--values", "200",
                   "--trials", "2", "--seed", "5", "--protocols", "bcf")
            tables.append((tmp_path / run / f"sweep.{fmt}").read_bytes())
        assert tables[0] == tables[1]


def test_campaign_trials_count_nonempty_cohorts(tmp_path, monkeypatch):
    """A sweep row reports the campaigns that gave an ANAA; the manifest keeps
    the requested count."""
    run_campaign = cli.run_access_campaign
    anaa = []

    def spy(*args, **kwargs):
        result = run_campaign(*args, **kwargs)
        anaa.append(result.anaa)
        return result

    monkeypatch.setattr(cli, "run_access_campaign", spy)
    path = tmp_path / "quiet.cfg"
    path.write_text("access_probability = 0.01\n")
    for fmt in FORMATS:
        anaa.clear()
        rows, manifest = _sweep(tmp_path / fmt, fmt, "--config", str(path), "--values", "50",
                                "--trials", "12", "--seed", "4", "--protocols", "bcf")
        effective = int(np.isfinite(anaa).sum())
        assert len(anaa) == 12 and 0 < effective < 12      # some cohorts were empty
        assert rows[0]["trials"] == effective
        assert manifest["arguments"]["trials"] == 12
