"""The two report tables: the campaign sweep over |U| and the estimator bench.

A :class:`SweepDescriptor` names the |U| values, protocols, estimators and
trial budget of a campaign sweep, which :func:`run_sweep` executes in
deterministic order; :func:`bench_point` is one row of the estimator table.
:func:`write_outputs` writes any table of dict rows plus a JSON run
manifest; every ``cfra`` subcommand's output goes through it. The
closed-form separability curve is ``cfra analyze``'s table.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import run_estimator_bench
from .contention import PROTOCOLS, protocol_spec, run_access_campaign
from .estimators import CF_ESTIMATORS, NEARBY_METHODS, best_pair
from .metrics import CSV_COLUMNS, MetricsReport, iqr, tcp, write_table
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class SweepDescriptor:
    """What to sweep: |U| values, protocols/estimators, budget."""

    values: tuple = ()
    trials: int = 100
    seed: int = 0
    protocols: tuple = PROTOCOLS
    estimators: tuple = ("est2",)
    nearby_method: str = "fixed"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.protocols or not self.estimators:
            raise ValueError("a sweep needs at least one protocol and one estimator")
        for proto in self.protocols:
            if proto not in PROTOCOLS:
                raise ValueError(f"unknown protocol {proto!r}")
        for est in self.estimators:
            if est not in CF_ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}")
        if self.nearby_method not in NEARBY_METHODS:
            raise ValueError(f"unknown nearby_method {self.nearby_method!r}")


def bench_point(size: int, kind: str, config: ScenarioConfig, rng,
                trials: int, seed: int) -> MetricsReport:
    """One estimator-bench row: NMSE/NEB/NMD of ``kind`` at collision size ``size``."""
    nearby_size, l_max = best_pair(kind, size)
    result = run_estimator_bench(
        kind, size, nearby_size, l_max, config, rng,
        num_setups=trials, num_realizations=100)
    return MetricsReport(
        sweep_axis="collision_size", sweep_value=float(size),
        protocol="ce-sucre" if kind == "cellular" else "cf-sucre",
        estimator=kind, nearby_method="fixed",
        nmse_median=float(np.median(result.nmse)), nmse_iqr=iqr(result.nmse),
        neb_median=float(np.median(result.neb)), neb_iqr=iqr(result.neb),
        nmd_mean=float(np.nanmean(result.nmd)),
        trials=trials, seed=seed)


def _campaign_point(desc: SweepDescriptor, num_ues: int, protocol: str,
                    kind: str, config: ScenarioConfig, rng) -> MetricsReport:
    point_config = replace(config, num_inactive_ues=num_ues)
    spec = protocol_spec(protocol, kind, desc.nearby_method)
    anaa_vals, tcp_vals = [], []
    for _ in range(desc.trials):
        result = run_access_campaign(protocol, spec, point_config, rng)
        if not np.isfinite(result.anaa):
            continue
        anaa_vals.append(result.anaa)
        tcp_vals.append(tcp(protocol, result, point_config))
    return MetricsReport(
        sweep_axis="num_inactive_ues", sweep_value=float(num_ues),
        protocol=protocol, estimator=spec.kind, nearby_method=spec.nearby_method,
        anaa=float(np.mean(anaa_vals)) if anaa_vals else float("nan"),
        tcp_mw_symbols=float(np.mean(tcp_vals)) if tcp_vals else float("nan"),
        trials=len(anaa_vals), seed=desc.seed)


def run_sweep(desc: SweepDescriptor, config: ScenarioConfig) -> list[MetricsReport]:
    """Execute every sweep point in order (:func:`write_outputs` saves their ``asdict`` rows).

    cf-sucre runs every listed estimator; bcf and ce-sucre give one row per
    |U|, under the first.
    """
    rng = np.random.default_rng(desc.seed)
    reports: list[MetricsReport] = []
    for value in desc.values:
        for protocol in desc.protocols:
            kinds = desc.estimators if protocol == "cf-sucre" else desc.estimators[:1]
            for kind in kinds:
                reports.append(_campaign_point(desc, int(value), protocol, kind, config, rng))
    return reports


def write_outputs(rows: list[dict], path, config: ScenarioConfig, arguments: dict) -> Path:
    """Write the table ``rows`` to ``path`` and its run manifest next to it.

    The table is JSON if ``path`` ends in ``.json``, else CSV, whose header is
    the first row's keys (``CSV_COLUMNS`` for an empty table, as a
    :class:`~cfra.metrics.MetricsReport` table has); the manifest
    ``<stem>.manifest.json`` records the run's ``arguments``, the scenario
    config and the row count. Returns the manifest's path.
    """
    path = Path(path)
    write_table(rows, path, list(rows[0]) if rows else CSV_COLUMNS)
    manifest = {
        "provenance": f"cfra {__version__} python {platform.python_version()} "
                      f"numpy {np.__version__}",
        "arguments": arguments,
        "config": asdict(config),
        "rows": len(rows),
    }
    manifest_path = path.with_name(f"{path.stem}.manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path
