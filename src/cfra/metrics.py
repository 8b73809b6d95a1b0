"""Evaluation metrics and the CSV report format."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .scenario import ScenarioConfig


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
    """One sweep point's results; serializes to one CSV row."""

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

    def to_row(self) -> list[str]:
        out = []
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            out.append(repr(value) if isinstance(value, float) else str(value))
        return out

    @classmethod
    def from_row(cls, row: list[str]) -> "MetricsReport":
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        for name, raw in zip(CSV_COLUMNS, row):
            if types[name] == "int":
                kwargs[name] = int(raw)
            elif types[name] == "float":
                kwargs[name] = float(raw)
            else:
                kwargs[name] = raw
        return cls(**kwargs)


CSV_COLUMNS = [f.name for f in fields(MetricsReport)]


def write_reports(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.to_row())


def read_reports(path) -> list[MetricsReport]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {header}")
        return [MetricsReport.from_row(row) for row in reader]
