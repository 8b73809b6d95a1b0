"""Closed-form spatial-separability analysis on the square region.

Distance distribution between two uniform points, expected overlap of two
influence disks, and the probability that a nearby AP serves a UE
exclusively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import ScenarioConfig, limit_distance

_SQRT2 = math.sqrt(2.0)
_EDGE_TOL = 1e-9
# I_n = int_0^1 x^n (acos x - x sqrt(1 - x^2)) dx for n = 1, 2, 3: moments of
# the unit lens shape, exact by x = cos(theta) and integration by parts
_LENS_MOMENTS = (math.pi / 16.0, 4.0 / 45.0, math.pi / 64.0)


def _pdf_polynomial(side: float) -> tuple[float, tuple[float, float, float]]:
    """Scale 2/s^4 and coefficients c_1, c_2, c_3 of the short-range density
    (2/s^4) * sum_n c_n d^n, with s = 2*side."""
    span = 2.0 * side
    return 2.0 / span ** 4, ((1.0 + math.pi) * span ** 2, -4.0 * span, -1.0)


def distance_cdf(d: float, side: float) -> float:
    """Model CDF of the distance between two uniform points on the square.

    The integral from 0 to ``d`` of the density polynomial of
    :func:`distance_pdf`, (2/s^4) * sum_n c_n d^(n+1) / (n+1). The closed
    form is normalized over the full difference-coordinate range s = 2*side
    (each coordinate difference spans [-side, side]). Every argument in
    [0, sqrt(2)*side] lies below 2*side, where this polynomial branch of
    the piecewise law holds.
    """
    if d < -_EDGE_TOL or d > _SQRT2 * side + _EDGE_TOL:
        raise ValueError(f"distance {d} outside [0, sqrt(2)*{side}]")
    d = min(max(d, 0.0), _SQRT2 * side)
    scale, coeffs = _pdf_polynomial(side)
    val = scale * sum(c * d ** (n + 1) / (n + 1) for n, c in enumerate(coeffs, start=1))
    return min(max(val, 0.0), 1.0)


def distance_pdf(d: float, side: float) -> float:
    """Density matching :func:`distance_cdf`, short-range branch (d <= side)."""
    if d < -_EDGE_TOL or d > side + _EDGE_TOL:
        raise ValueError(f"distance {d} outside the short-range branch [0, {side}]")
    d = min(max(d, 0.0), side)
    scale, coeffs = _pdf_polynomial(side)
    return scale * sum(c * d ** n for n, c in enumerate(coeffs, start=1))


def expected_overlap_area(d_lim: float, side: float) -> float:
    """Unconditional expectation of the overlap of two influence disks.

    Valid in the short-range regime 2*d_lim <= side, where only the first
    branch of the distance density contributes. With d = 2*d_lim*x the lens
    area is 2 d_lim^2 (acos x - x sqrt(1 - x^2)), so the term c_n d^n of the
    density contributes 2 d_lim^2 c_n (2 d_lim)^(n+1) I_n to the integral
    over [0, 2 d_lim].
    """
    if d_lim <= 0.0:
        return 0.0
    if 2.0 * d_lim > side:
        raise ValueError("expected_overlap_area requires 2*d_lim <= side")
    scale, coeffs = _pdf_polynomial(side)
    moments = sum(c * (2.0 * d_lim) ** (n + 1) * i_n
                  for n, (c, i_n) in enumerate(zip(coeffs, _LENS_MOMENTS), start=1))
    return scale * 2.0 * d_lim ** 2 * moments


@dataclass
class SeparabilityPrediction:
    """Closed-form separability figures for one scenario point."""

    d_lim: float
    area_influence: float
    expected_overlap: float
    neighbor_prob: float
    avg_collision_size: float
    dominant_area: float
    psi: float
    exclusive_aps: float


def separability_prediction(config: ScenarioConfig) -> SeparabilityPrediction:
    """Probability of an exclusively-serving nearby AP and the area behind it,
    at the config's |U| (``num_inactive_ues``)."""
    side = config.square_length_m
    d_lim = limit_distance(config)
    area = math.pi * d_lim ** 2
    neighbor_prob = distance_cdf(2.0 * d_lim, side)
    avg_collision = config.num_inactive_ues * config.access_probability / config.num_pilots
    overlap = expected_overlap_area(d_lim, side)
    psi = 1.0 - neighbor_prob * max(avg_collision - 1.0, 0.0) * overlap / area
    psi = min(max(psi, 0.0), 1.0)
    dominant = psi * area
    density = config.num_aps / side ** 2
    return SeparabilityPrediction(
        d_lim=d_lim, area_influence=area, expected_overlap=overlap,
        neighbor_prob=neighbor_prob, avg_collision_size=avg_collision,
        dominant_area=dominant, psi=psi, exclusive_aps=density * dominant,
    )
