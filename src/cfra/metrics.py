"""Evaluation metrics and the one table writer, CSV or JSON."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .scenario import ScenarioConfig, parse_field


def iqr(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    q75, q25 = np.percentile(values, [75.0, 25.0])
    return float(q75 - q25)


def tcp(protocol: str, anaa: float, config: ScenarioConfig,
        tau_bar_pl: float, l_bar: float, q_eff_mw: float | None = None) -> float:
    """Total consumed power per access campaign, in mW * symbols.

    ``tau_bar_pl`` is the average number of active pilots each transmitting
    node serves; ``l_bar`` the average number of operative APs.
    """
    tau_p = config.num_pilots
    if protocol == "cf-sucre":
        q = config.dl_power_per_ap_mw if q_eff_mw is None else q_eff_mw
        return anaa * (tau_p + 1) * (q * tau_bar_pl) * l_bar
    if protocol == "ce-sucre":
        return anaa * (tau_p + 1) * (config.bs_dl_power_mw * tau_bar_pl) * 1.0
    if protocol == "bcf":
        return anaa * 1.0 * (config.dl_power_per_ap_mw * tau_bar_pl) * config.num_aps
    raise ValueError(f"unknown protocol {protocol!r}")


@dataclass
class MetricsReport:
    """One sweep point's results; one row of a report table."""

    sweep_axis: str
    sweep_value: float
    protocol: str = ""
    estimator: str = ""
    nearby_method: str = ""
    anaa: float = float("nan")
    tcp_mw_symbols: float = float("nan")
    nmse_median: float = float("nan")
    nmse_iqr: float = float("nan")
    neb_median: float = float("nan")
    neb_iqr: float = float("nan")
    nmd_mean: float = float("nan")
    trials: int = 0     # campaigns that gave an ANAA, or bench setups; 0 when closed-form
    seed: int = 0


CSV_COLUMNS = [f.name for f in fields(MetricsReport)]


def write_table(rows: list[dict], path, columns) -> None:
    """Write ``rows`` to ``path``: a JSON list if it ends in ``.json``, else CSV.

    The CSV header is ``columns``, so an empty table still has one; floats
    are written in their shortest round-trip form and read back bit-exact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        path.write_text(json.dumps(rows, indent=2) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_reports(reports, path) -> None:
    write_table([asdict(r) for r in reports], path, CSV_COLUMNS)


def read_reports(path) -> list[MetricsReport]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
        return [MetricsReport(**{f.name: parse_field(f, row[f.name])
                                 for f in fields(MetricsReport)}) for row in reader]
