"""Experiment sweep orchestration.

A :class:`SweepDescriptor` names one of the three figure classes, which fixes
the varied axis, the axis values and the trial budget; :func:`run_sweep`
executes the points in deterministic order and :func:`write_outputs`
serializes a CSV of :class:`~cfra.metrics.MetricsReport` rows plus a JSON
run manifest. The closed-form separability curve is ``cfra analyze``'s table.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import run_estimator_bench
from .contention import PROTOCOLS, run_access_campaign
from .estimators import CF_ESTIMATORS, NEARBY_METHODS, EstimatorSpec, best_pair
from .metrics import MetricsReport, iqr, tcp, write_reports
from .scenario import ScenarioConfig

FIGURE_CLASSES = ("estimator-bench", "anaa-sweep", "ee-sweep")

_AXES = {
    "estimator-bench": "collision_size",
    "anaa-sweep": "num_inactive_ues",
    "ee-sweep": "num_inactive_ues",
}


@dataclass(frozen=True)
class SweepDescriptor:
    """What to sweep: figure class, axis values, protocols/estimators, budget."""

    figure_class: str
    values: tuple = ()
    trials: int = 100
    seed: int = 0
    protocols: tuple = PROTOCOLS
    estimators: tuple = ("est2",)
    nearby_method: str = "fixed"

    def __post_init__(self):
        if self.figure_class not in FIGURE_CLASSES:
            raise ValueError(
                f"figure_class must be one of {FIGURE_CLASSES}, got {self.figure_class!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for proto in self.protocols:
            if proto not in PROTOCOLS:
                raise ValueError(f"unknown protocol {proto!r}")
        for est in self.estimators:
            if est not in CF_ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}")
        if self.nearby_method not in NEARBY_METHODS:
            raise ValueError(f"unknown nearby_method {self.nearby_method!r}")

    @property
    def axis(self) -> str:
        """The config field this figure class sweeps."""
        return _AXES[self.figure_class]


def bench_point(desc: SweepDescriptor, size: int, kind: str,
                config: ScenarioConfig, rng) -> MetricsReport:
    """One estimator-bench row: NMSE/NEB/NMD of ``kind`` at collision size ``size``."""
    nearby_size, l_max = best_pair(kind, size)
    result = run_estimator_bench(
        kind, size, nearby_size, l_max, config, rng,
        num_setups=desc.trials, num_realizations=100)
    return MetricsReport(
        sweep_axis=desc.axis, sweep_value=float(size),
        protocol="ce-sucre" if kind == "cellular" else "cf-sucre",
        estimator=kind, nearby_method=desc.nearby_method,
        nmse_median=float(np.median(result.nmse)), nmse_iqr=iqr(result.nmse),
        neb_median=float(np.median(result.neb)), neb_iqr=iqr(result.neb),
        nmd_mean=float(np.nanmean(result.nmd)),
        trials=desc.trials, seed=desc.seed)


def _campaign_point(desc: SweepDescriptor, num_ues: int, protocol: str,
                    kind: str, config: ScenarioConfig, rng) -> MetricsReport:
    point_config = replace(config, num_inactive_ues=num_ues)
    spec = EstimatorSpec(kind=kind, nearby_method=desc.nearby_method) \
        if protocol == "cf-sucre" else \
        EstimatorSpec(kind="cellular" if protocol == "ce-sucre" else kind)
    anaa_vals, tcp_vals = [], []
    for _ in range(desc.trials):
        result = run_access_campaign(protocol, spec, point_config, rng)
        if not np.isfinite(result.anaa):
            continue
        anaa_vals.append(result.anaa)
        tcp_vals.append(tcp(protocol, result, point_config))
    return MetricsReport(
        sweep_axis=desc.axis, sweep_value=float(num_ues),
        protocol=protocol, estimator=spec.kind, nearby_method=spec.nearby_method,
        anaa=float(np.mean(anaa_vals)) if anaa_vals else float("nan"),
        tcp_mw_symbols=float(np.mean(tcp_vals)) if tcp_vals else float("nan"),
        trials=len(anaa_vals), seed=desc.seed)


def run_sweep(desc: SweepDescriptor, config: ScenarioConfig) -> list[MetricsReport]:
    """Execute every sweep point in order (:func:`write_outputs` saves them)."""
    rng = np.random.default_rng(desc.seed)
    reports: list[MetricsReport] = []
    for value in desc.values:
        value = int(value)
        if desc.figure_class == "estimator-bench":
            kinds = list(desc.estimators)
            if "ce-sucre" in desc.protocols:
                kinds.append("cellular")
            for kind in kinds:
                reports.append(bench_point(desc, value, kind, config, rng))
        else:
            for protocol in desc.protocols:
                kinds = desc.estimators if protocol == "cf-sucre" else (desc.estimators[0],)
                for kind in kinds:
                    reports.append(_campaign_point(desc, value, protocol, kind, config, rng))
    return reports


def write_outputs(desc: SweepDescriptor, config: ScenarioConfig,
                  reports, out_dir) -> tuple[Path, Path]:
    """Serialize the CSV of reports and the JSON run manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{desc.figure_class}.csv"
    manifest_path = out_dir / f"{desc.figure_class}.manifest.json"
    write_reports(reports, csv_path)
    manifest = {
        "provenance": f"cfra {__version__} python {platform.python_version()} "
                      f"numpy {np.__version__}",
        "seed": desc.seed,
        "descriptor": {**asdict(desc), "values": list(desc.values),
                       "protocols": list(desc.protocols),
                       "estimators": list(desc.estimators)},
        "config": asdict(config),
        "rows": len(reports),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return csv_path, manifest_path
