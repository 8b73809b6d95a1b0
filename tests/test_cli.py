"""End-to-end CLI coverage: exit codes, file outputs, formats."""

import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import cfra
from cfra import cli, contention
from cfra.bench import run_estimator_bench
from cfra.cli import build_parser, main
from cfra.estimators import best_pair
from cfra.metrics import iqr, tcp
from cfra.scenario import ScenarioConfig
from helpers import BENCH_COLUMNS, SWEEP_COLUMNS, read_reports


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("num_inactive_ues = 200\n")
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_analyze_csv(tmp_path):
    code = main(["analyze", "--out", str(tmp_path), "--num-ues", "1000", "5000"])
    assert code == 0
    rows = _read_csv(tmp_path / "analyze.csv")
    assert len(rows) == 2
    assert float(rows[0]["psi"]) == pytest.approx(1.0)


def test_analyze_separability_rows(tmp_path):
    """``analyze`` is the separability table: psi in [0, 1], non-increasing
    over |U|, and the expected exclusive APs in (0, L]."""
    assert main(["analyze", "--out", str(tmp_path), "--format", "json",
                 "--num-ues", "1000", "5000", "10000", "50000"]) == 0
    rows = json.loads((tmp_path / "analyze.json").read_text())
    assert [r["num_inactive_ues"] for r in rows] == [1000, 5000, 10000, 50000]
    psi = [r["psi"] for r in rows]
    assert all(0.0 <= v <= 1.0 for v in psi)
    assert psi == sorted(psi, reverse=True)
    assert all(0.0 < r["exclusive_aps"] <= 64 for r in rows)


def test_analyze_rejects_non_physical_ue_counts(tmp_path, capsys):
    """Each |U| point is a scenario config, so |U| < 1 fails its validation:
    exit 1, and no table is written."""
    assert main(["analyze", "--out", str(tmp_path), "--num-ues", "1000", "-1000", "0"]) == 1
    assert "num_inactive_ues" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_analyze_json(tmp_path):
    assert main(["analyze", "--out", str(tmp_path), "--format", "json",
                 "--num-ues", "2e3"]) == 0
    rows = json.loads((tmp_path / "analyze.json").read_text())
    assert rows[0]["num_inactive_ues"] == 2000


def test_simulate(tmp_path, small_cfg):
    code = main(["simulate", "--config", str(small_cfg), "--out", str(tmp_path),
                 "--trials", "2", "--seed", "1", "--protocol", "bcf"])
    assert code == 0
    rows = _read_csv(tmp_path / "simulate.csv")
    assert len(rows) == 2
    assert rows[0]["protocol"] == "bcf"


def test_sweep_writes_manifest(tmp_path, small_cfg):
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(small_cfg), "--out", str(out),
                 "--values", "200", "--trials", "2", "--protocols", "bcf"])
    assert code == 0
    assert sorted(f.name for f in out.iterdir()) == ["sweep.csv", "sweep.manifest.json"]
    manifest = json.loads((out / "sweep.manifest.json").read_text())
    assert manifest["arguments"] == {"seed": 0, "trials": 2, "values": [200.0],
                                     "protocols": ["bcf"], "estimators": ["est2"],
                                     "nearby_method": "fixed"}
    assert manifest["rows"] == 1


def test_train_lmax(tmp_path, small_cfg):
    code = main(["train-lmax", "--config", str(small_cfg), "--out", str(tmp_path),
                 "--rounds", "50", "--repetitions", "5", "--seed", "0"])
    assert code == 0
    rows = _read_csv(tmp_path / "train-lmax.csv")
    assert rows[-1]["round"] == "result"
    assert 1 <= int(rows[-1]["mean_serving_count"]) <= 64


def test_calibrate_delta(tmp_path, small_cfg):
    code = main(["calibrate-delta", "--config", str(small_cfg),
                 "--out", str(tmp_path), "--draws", "100"])
    assert code == 0
    rows = _read_csv(tmp_path / "calibrate-delta.csv")
    assert float(rows[0]["delta"]) >= 1.0


def test_estimators_bench(tmp_path, small_cfg):
    code = main(["estimators-bench", "--config", str(small_cfg),
                 "--out", str(tmp_path), "--trials", "5",
                 "--collision-sizes", "2", "--estimators", "est1", "cellular"])
    assert code == 0
    reports = read_reports(tmp_path / "estimators-bench.csv", BENCH_COLUMNS)
    assert [(r["estimator"], r["protocol"], r["nearby_method"]) for r in reports] == [
        ("est1", "cf-sucre", "fixed"), ("cellular", "ce-sucre", "fixed")]
    for r in reports:
        assert np.isfinite(r["nmse_median"])
        assert np.isfinite(r["neb_median"])
    manifest = json.loads((tmp_path / "estimators-bench.manifest.json").read_text())
    assert manifest["arguments"]["estimators"] == ["est1", "cellular"]
    assert manifest["config"]["num_inactive_ues"] == 200
    assert manifest["rows"] == 2


def test_estimators_bench_csv_reads_back_as_reports(tmp_path, small_cfg):
    """The estimators-bench CSV is in the package's own report format."""
    assert main(["estimators-bench", "--config", str(small_cfg), "--out", str(tmp_path),
                 "--trials", "2", "--collision-sizes", "2", "--estimators", "est1"]) == 0
    reports = read_reports(tmp_path / "estimators-bench.csv", BENCH_COLUMNS)
    assert [(r["estimator"], r["collision_size"], r["trials"]) for r in reports] == [
        ("est1", 2, 2)]
    assert np.isfinite(reports[0]["nmd_mean"])


def test_estimators_bench_rows_summarize_run_estimator_bench(tmp_path):
    """Each CLI row summarizes ``run_estimator_bench`` at the size's best
    nearby-set size and serving cap, with every point drawn from one
    generator in row order."""
    assert main(["estimators-bench", "--out", str(tmp_path), "--format", "json",
                 "--trials", "2", "--seed", "4", "--collision-sizes", "1", "3",
                 "--estimators", "est2", "cellular"]) == 0
    rows = json.loads((tmp_path / "estimators-bench.json").read_text())
    cfg = ScenarioConfig()
    rng = np.random.default_rng(4)
    expect = []
    for size in (1, 3):
        for kind in ("est2", "cellular"):
            result = run_estimator_bench(kind, size, *best_pair(kind, size), cfg, rng,
                                         num_setups=2, num_realizations=100)
            expect.append({
                "collision_size": size,
                "protocol": "ce-sucre" if kind == "cellular" else "cf-sucre",
                "estimator": kind, "nearby_method": "fixed",
                "nmse_median": float(np.median(result.nmse)), "nmse_iqr": iqr(result.nmse),
                "neb_median": float(np.median(result.neb)), "neb_iqr": iqr(result.neb),
                "nmd_mean": float(np.nanmean(result.nmd)), "trials": 2, "seed": 4})
    assert len(rows) == len(expect)
    for got, want in zip(rows, expect):
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name] == (None if value != value else value), name


def test_estimators_bench_rejects_untuned_size(tmp_path, capsys):
    code = main(["estimators-bench", "--out", str(tmp_path), "--trials", "1",
                 "--collision-sizes", "11", "--estimators", "est2"])
    assert code == 1
    assert "collision size 11" in capsys.readouterr().err


def test_validation_failure_exit_code(tmp_path, capsys):
    """A config value that parses but fails validation exits 1, naming its file."""
    path = tmp_path / "bad.cfg"
    path.write_text("num_pilots = 0\n")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path),
                 "--values", "100"])
    assert code == 1
    assert f"error: {path}: num_pilots" in capsys.readouterr().err


def test_unrunnable_pairing_is_a_validation_failure(tmp_path, capsys):
    """cf-sucre cannot run the cellular estimator: exit 1 and no table, also
    under a config whose cohorts are all empty, where no attempt runs."""
    path = tmp_path / "silent.cfg"
    path.write_text("access_probability = 0.0\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out), "--trials", "2",
                 "--protocol", "cf-sucre", "--estimator", "cellular"])
    assert code == 1
    assert "error: the cellular estimator only applies to ce-sucre" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["noise_power_dbm = 4000", "power_constant_db = 3090"])
def test_overflowing_db_field_is_a_validation_failure(line, tmp_path):
    """A dB value whose linear power overflows a float fails validation like
    any other: exit 1, naming the file and the field, with no traceback."""
    path = tmp_path / "loud.cfg"
    path.write_text(line + "\n")
    out = _run_cli("analyze", "--config", str(path), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert f"error: {path}: {line.split()[0]}: linear power" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_missing_config_exit_code(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_readme_cli_lines_parse():
    """Every ``cfra ...`` line of the README's CLI block uses flags the parser declares."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("cfra ")]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]


def _readme_cli_table(heading: str) -> dict:
    """The README CLI table whose second column is ``heading``: subcommand -> cell."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## CLI", 1)[1]
    lines = section.split(f"| Subcommand | {heading} |\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for line in lines.splitlines()[1:]:
        name, cell = [c.strip() for c in line.strip().strip("|").split("|")]
        table[name.strip("`")] = cell
    return table


def test_readme_flags_table_matches_parser():
    """The README's flags table lists exactly the flags each subcommand
    declares, besides the shared --config, --out and --format."""
    table = {name: set(re.findall(r"`(--[a-z-]+)`", cell))
             for name, cell in _readme_cli_table("Flags (default)").items()}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    shared = {"-h", "--help", "--config", "--out", "--format"}
    declared = {name: {opt for action in sub._actions for opt in action.option_strings} - shared
                for name, sub in subparsers.choices.items()}
    assert table == declared


def test_readme_package_layout_matches_modules():
    """The README's package-layout table has one row per ``cfra`` module."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(cfra\.\w+)` \|", section, flags=re.MULTILINE))
    modules = {f"cfra.{path.stem}" for path in Path(cfra.__file__).parent.glob("*.py")
               if path.stem != "__init__"}
    assert rows == modules


def _run_cli(*argv):
    src = str(Path(cfra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "cfra.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_simulate_zero_trials_is_a_usage_error():
    """A count flag of 0 stops at the parser, with a message and no traceback."""
    out = _run_cli("simulate", "--trials", "0")
    assert out.returncode != 0
    assert "error:" in out.stderr and "--trials" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("size", ["0", "-2"])
def test_estimators_bench_non_positive_size_is_a_usage_error(size, tmp_path):
    """A collision size below 1 stops at the parser (exit 2), before any array is built."""
    out = _run_cli("estimators-bench", "--collision-sizes", size, "--estimators", "cellular",
                   "--trials", "1", "--out", str(tmp_path))
    assert out.returncode == 2
    assert "error:" in out.stderr and "--collision-sizes" in out.stderr
    assert "Traceback" not in out.stderr
    assert not any(tmp_path.iterdir())


def test_calibrate_delta_uneven_draws_is_a_validation_failure(tmp_path):
    """Draws split evenly over the collision sizes or the run stops: no
    silent rounding, and the table is not written."""
    out = _run_cli("calibrate-delta", "--draws", "25", "--out", str(tmp_path))
    assert out.returncode == 1
    assert "error:" in out.stderr and "draws" in out.stderr
    assert "Traceback" not in out.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["analyze", "--trials", "5"],
    ["analyze", "--seed", "1"],
    ["train-lmax", "--trials", "5"],
    ["calibrate-delta", "--trials", "5"],
    ["sweep", "--values", "1000.5"],
    ["analyze", "--num-ues", "2500.5"],
    ["calibrate-delta", "--draws", "0"],
    ["sweep", "--figure-class", "anaa-sweep", "--values", "1000"],
    ["sweep", "--values", "100", "--protocols", "aloha"],
    ["sweep", "--values", "100", "--estimators", "est9"],
    ["sweep", "--values", "100", "--estimators", "cellular"],
    ["estimators-bench", "--estimators", "est9"],
    ["sweep", "--values", "100", "--trials", "0"],
    ["sweep", "--values", "100", "--nearby-method", "psychic"],
    ["sweep", "--values"],
    ["sweep", "--values", "100", "--protocols"],
    ["sweep", "--values", "100", "--estimators"],
])
def test_parser_rejects_unread_or_invalid_flags(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_json_holds_the_csv_rows(tmp_path, small_cfg):
    """``--format json`` writes the rows the CSV run writes, and no CSV; a
    NaN of the CSV is null in the JSON."""
    for fmt in ("csv", "json"):
        assert main(["sweep", "--config", str(small_cfg), "--out", str(tmp_path / fmt),
                     "--values", "200", "2e2", "--protocols", "bcf", "cf-sucre",
                     "--trials", "2", "--seed", "5", "--format", fmt]) == 0
        assert sorted(f.name for f in (tmp_path / fmt).iterdir()) == [
            f"sweep.{fmt}", "sweep.manifest.json"]
    from_json = json.loads((tmp_path / "json" / "sweep.json").read_text())
    from_csv = read_reports(tmp_path / "csv" / "sweep.csv", SWEEP_COLUMNS)
    assert len(from_json) == len(from_csv) == 4
    for got, want in zip(from_json, from_csv):
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name] == (None if value != value else value), name


# one cheap run of each subcommand, the flags it reads with their values, and its header
SUBCOMMAND_RUNS = {
    "simulate": (["--trials", "2", "--protocol", "cf-sucre", "--estimator", "est3"],
                 {"seed": 0, "trials": 2, "protocol": "cf-sucre", "estimator": "est3",
                  "nearby_method": "fixed"},
                 ["trial", "protocol", "estimator", "anaa", "success_rate", "cohort_size",
                  "l_bar", "tau_bar", "blocks", "truncated", "tcp_mw_symbols"]),
    "sweep": (["--values", "200", "--trials", "2", "--protocols", "bcf", "cf-sucre"],
              {"seed": 0, "trials": 2, "values": [200.0], "protocols": ["bcf", "cf-sucre"],
               "estimators": ["est2"], "nearby_method": "fixed"},
              SWEEP_COLUMNS),
    "analyze": (["--num-ues", "1000", "5000"], {"num_ues": [1000.0, 5000.0]},
                ["num_inactive_ues", "psi", "exclusive_aps", "dominant_area_m2", "d_lim_m",
                 "avg_collision_size"]),
    "train-lmax": (["--rounds", "20", "--repetitions", "2"],
                   {"seed": 0, "rounds": 20, "repetitions": 2},
                   ["round", "mean_serving_count"]),
    "calibrate-delta": (["--draws", "100", "--l-max", "8"],
                        {"seed": 0, "l_max": 8, "draws": 100},
                        ["delta", "q_avg_mw", "l_max", "draws"]),
    "estimators-bench": (["--trials", "2", "--collision-sizes", "2", "--estimators", "est1"],
                         {"seed": 0, "trials": 2, "collision_sizes": [2],
                          "estimators": ["est1"]},
                         BENCH_COLUMNS),
}


@pytest.mark.parametrize("command", ["simulate", "sweep", "train-lmax", "calibrate-delta",
                                     "estimators-bench"])
def test_negative_seed_is_a_usage_error(command, tmp_path, capsys):
    """numpy's generators take no seed below 0, so the parser stops it: exit
    2 with a message naming ``--seed``, and nothing written."""
    argv, _, _ = SUBCOMMAND_RUNS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--seed", "-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--seed" in err
    assert not any(tmp_path.iterdir())


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(SUBCOMMAND_RUNS))
def test_every_subcommand_writes_its_table_and_manifest(command, fmt, tmp_path, small_cfg):
    """``--out`` holds the table and its manifest, which counts the table's
    rows and records exactly the flags the subcommand reads. Every row has
    exactly the subcommand's columns, in order: the CSV header and each
    JSON row's keys. A JSON table is strict JSON (RFC 8259): no NaN or
    Infinity tokens."""
    argv, arguments, columns = SUBCOMMAND_RUNS[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--config", str(small_cfg), "--out", str(out),
                 "--format", fmt]) == 0
    assert sorted(f.name for f in out.iterdir()) == sorted(
        [f"{command}.{fmt}", f"{command}.manifest.json"])
    table = out / f"{command}.{fmt}"
    rows = (json.loads(table.read_text(), parse_constant=_reject_constant) if fmt == "json"
            else _read_csv(table))
    assert all(list(row) == columns for row in rows)
    manifest = json.loads((out / f"{command}.manifest.json").read_text())
    assert manifest["rows"] == len(rows) > 0
    assert manifest["arguments"] == arguments
    assert manifest["config"] == asdict(ScenarioConfig(num_inactive_ues=200))


@pytest.mark.parametrize("command", ["sweep", "estimators-bench"])
def test_report_tables_have_no_all_null_column(command, tmp_path):
    """With non-empty cohorts every column of a report table holds a value
    in some row: no column belongs only to the other table."""
    cfg = tmp_path / "busy.cfg"
    cfg.write_text("num_inactive_ues = 200\naccess_probability = 0.05\n")
    argv, _, _ = SUBCOMMAND_RUNS[command]
    assert main([command, *argv, "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "json"]) == 0
    rows = json.loads((tmp_path / f"{command}.json").read_text())
    assert [name for name in rows[0] if all(row[name] is None for row in rows)] == []


def test_tables_count_blocks_and_truncated_campaigns(tmp_path, monkeypatch):
    """At a low block cap some campaigns stop at the cap: a sweep row counts
    them in ``truncated``, and each ``simulate`` row carries its campaign's
    ``blocks``, ``truncated`` and TCP."""
    run_campaign = contention.run_access_campaign
    results = []

    def spy(*args, **kwargs):
        results.append(run_campaign(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(contention, "MAX_CAMPAIGN_BLOCKS", 4)
    monkeypatch.setattr(cli, "run_access_campaign", spy)
    path = tmp_path / "overloaded.cfg"
    path.write_text("num_inactive_ues = 1000\naccess_probability = 0.02\n")
    config = ScenarioConfig(num_inactive_ues=1000, access_probability=0.02)

    assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--format", "json",
                 "--values", "1000", "--trials", "6", "--protocols", "bcf", "cf-sucre",
                 "--seed", "3"]) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert len(results) == 12
    counts = [sum(r.truncated for r in results[i:i + 6]) for i in (0, 6)]
    assert [row["truncated"] for row in rows] == counts
    assert 0 < sum(counts) < 12

    results.clear()
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path), "--format",
                 "json", "--trials", "6", "--protocol", "cf-sucre", "--seed", "3"]) == 0
    rows = json.loads((tmp_path / "simulate.json").read_text())
    assert [(row["blocks"], row["truncated"]) for row in rows] == [
        (r.blocks, r.truncated) for r in results]
    assert 0 < sum(r.truncated for r in results) < 6
    for row, result in zip(rows, results):
        want = tcp("cf-sucre", result, config)
        assert row["tcp_mw_symbols"] == (None if want != want else want)


def test_readme_columns_table_matches_the_tables():
    """The README's columns table gives each subcommand's header as written."""
    table = {name: re.findall(r"`(\w+)`", cell)
             for name, cell in _readme_cli_table("Columns").items()}
    assert table == {name: columns for name, (_, _, columns) in SUBCOMMAND_RUNS.items()}
