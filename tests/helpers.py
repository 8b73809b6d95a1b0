"""Helpers that only the tests read: a dB conversion, the lens area of two
disks and the reader of the sweep tables ``cfra.metrics`` writes."""

import csv
import math
from dataclasses import fields

import numpy as np

from cfra.metrics import CSV_COLUMNS, MetricsReport
from cfra.scenario import parse_field


def linear_to_db(value):
    """Inverse of :func:`cfra.scenario.db_to_linear`."""
    return 10.0 * (np.log10(value) if isinstance(value, np.ndarray) else math.log10(value))


def overlap_area(d: float, radius: float) -> float:
    """Lens area of two equal circles with centers ``d`` apart; 0 beyond 2r."""
    if d >= 2.0 * radius:
        return 0.0
    h1 = 2.0 * radius ** 2 * math.acos(d / (2.0 * radius))
    h2 = (d / 2.0) * math.sqrt(4.0 * radius ** 2 - d * d)
    return h1 - h2


def read_reports(path) -> list[MetricsReport]:
    """The rows of a CSV table written by :func:`cfra.metrics.write_reports`."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
        return [MetricsReport(**{f.name: parse_field(f, row[f.name])
                                 for f in fields(MetricsReport)}) for row in reader]
