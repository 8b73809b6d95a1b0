"""The two report tables: the campaign sweep over |U| and the estimator bench.

A :class:`SweepDescriptor` names the |U| values, protocols, estimators and
trial budget of a campaign sweep, which :func:`run_sweep` executes in
deterministic order; :func:`bench_point` is one row of the estimator table.
Each row is a dict of its own table's columns, built where it is computed.
:func:`write_outputs` writes any table of dict rows, under a header of the
rows' keys, plus a JSON run manifest; every ``cfra`` subcommand's output
goes through it. The closed-form separability curve is ``cfra analyze``'s
table.
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
from .metrics import iqr, tcp, write_table
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class SweepDescriptor:
    """What to sweep: |U| values, protocols/estimators, budget."""

    values: tuple
    trials: int = 100
    seed: int = 0
    protocols: tuple = PROTOCOLS
    estimators: tuple = ("est2",)
    nearby_method: str = "fixed"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.values:
            raise ValueError("a sweep needs at least one value")
        for value in self.values:
            if not float(value).is_integer():
                raise ValueError(f"sweep value {value!r} is not a whole number of UEs")
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
                trials: int, seed: int) -> dict:
    """One estimator-bench row: NMSE/NEB/NMD of ``kind`` at collision size ``size``."""
    nearby_size, l_max = best_pair(kind, size)
    result = run_estimator_bench(
        kind, size, nearby_size, l_max, config, rng,
        num_setups=trials, num_realizations=100)
    return {
        "collision_size": size,
        "protocol": "ce-sucre" if kind == "cellular" else "cf-sucre",
        "estimator": kind, "nearby_method": "fixed",
        "nmse_median": float(np.median(result.nmse)), "nmse_iqr": iqr(result.nmse),
        "neb_median": float(np.median(result.neb)), "neb_iqr": iqr(result.neb),
        "nmd_mean": float(np.nanmean(result.nmd)),
        "trials": trials, "seed": seed,
    }


def _campaign_point(desc: SweepDescriptor, point_config: ScenarioConfig, protocol: str,
                    kind: str, rng) -> dict:
    spec = protocol_spec(protocol, kind, desc.nearby_method)
    anaa_vals, tcp_vals = [], []
    truncated = 0
    for _ in range(desc.trials):
        result = run_access_campaign(protocol, spec, point_config, rng)
        truncated += result.truncated
        if not np.isfinite(result.anaa):
            continue
        anaa_vals.append(result.anaa)
        tcp_vals.append(tcp(protocol, result, point_config))
    return {
        "num_inactive_ues": point_config.num_inactive_ues,
        "protocol": protocol, "estimator": spec.kind, "nearby_method": spec.nearby_method,
        "anaa": float(np.mean(anaa_vals)) if anaa_vals else float("nan"),
        "tcp_mw_symbols": float(np.mean(tcp_vals)) if tcp_vals else float("nan"),
        "trials": len(anaa_vals), "truncated": truncated, "seed": desc.seed,
    }


def run_sweep(desc: SweepDescriptor, config: ScenarioConfig) -> list[dict]:
    """Execute every sweep point in order and return its rows.

    cf-sucre runs every listed estimator; bcf and ce-sucre give one row per
    |U|, under the first. ``trials`` counts the campaigns that gave an ANAA,
    ``truncated`` those of all ``desc.trials`` that stopped at
    :data:`~cfra.contention.MAX_CAMPAIGN_BLOCKS`.
    """
    rng = np.random.default_rng(desc.seed)
    # every |U| is checked as a scenario config before any campaign runs
    points = [replace(config, num_inactive_ues=int(value)) for value in desc.values]
    rows = []
    for point_config in points:
        for protocol in desc.protocols:
            kinds = desc.estimators if protocol == "cf-sucre" else desc.estimators[:1]
            for kind in kinds:
                rows.append(_campaign_point(desc, point_config, protocol, kind, rng))
    return rows


def write_outputs(rows: list[dict], path, config: ScenarioConfig, arguments: dict) -> Path:
    """Write the table ``rows`` to ``path`` and its run manifest next to it.

    The table is JSON if ``path`` ends in ``.json``, else CSV, whose header is
    the rows' keys (:func:`~cfra.metrics.write_table`, which rejects an
    empty table); the manifest ``<stem>.manifest.json`` records the run's
    ``arguments``, the scenario config and the row count. Returns the
    manifest's path.
    """
    path = Path(path)
    write_table(rows, path)
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
