"""Evaluation metrics and the one table writer, CSV or JSON."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .scenario import ScenarioConfig


def iqr(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    q75, q25 = np.percentile(values, [75.0, 25.0])
    return float(q75 - q25)


def tcp(protocol: str, result, config: ScenarioConfig) -> float:
    """Total consumed power of one access campaign, in mW * symbols.

    ``result`` is the campaign's :class:`~cfra.contention.CampaignResult`.
    The cell-free protocols charge each operative AP for the active pilots
    it serves (``tau_bar_pl``), cf-sucre at the measured effective DL power
    ``q_eff_mw`` when the campaign has one, else at the configured
    ``dl_power_per_ap_mw``; ce-sucre charges the BS for every active pilot
    (``tau_bar``).
    """
    tau_p = config.num_pilots
    if protocol == "cf-sucre":
        q = result.q_eff_mw if np.isfinite(result.q_eff_mw) else config.dl_power_per_ap_mw
        return result.anaa * (tau_p + 1) * (q * result.tau_bar_pl) * result.l_bar
    if protocol == "ce-sucre":
        return result.anaa * (tau_p + 1) * (config.bs_dl_power_mw * result.tau_bar) * 1.0
    if protocol == "bcf":
        return result.anaa * 1.0 * (config.dl_power_per_ap_mw * result.tau_bar_pl) * config.num_aps
    raise ValueError(f"unknown protocol {protocol!r}")


def write_table(rows: list[dict], path) -> None:
    """Write ``rows`` to ``path``: a JSON list if it ends in ``.json``, else CSV.

    The CSV header is the first row's keys, so an empty ``rows`` raises
    ``ValueError`` in either format; floats are written in their shortest
    round-trip form and read back bit-exact. The JSON is strict (RFC 8259):
    a NaN or infinite float is written as null.
    """
    if not rows:
        raise ValueError("a table needs at least one row")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        strict = [{name: None if isinstance(value, float) and not math.isfinite(value) else value
                   for name, value in row.items()} for row in rows]
        path.write_text(json.dumps(strict, indent=2, allow_nan=False) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
