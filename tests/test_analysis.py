"""Closed-form distance law, overlap integrals and separability figures."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import cfra
from cfra.analysis import (distance_cdf, distance_pdf, expected_overlap_area,
                           separability_prediction)
from cfra.scenario import ScenarioConfig, limit_distance
from helpers import overlap_area

SIDE = 400.0


def test_cdf_endpoints_and_reference_value():
    assert distance_cdf(0.0, SIDE) == 0.0
    assert distance_cdf(math.sqrt(2.0) * SIDE, SIDE) == pytest.approx(1.0, abs=1e-9)
    cfg = ScenarioConfig()
    d_lim = limit_distance(cfg)
    assert distance_cdf(2.0 * d_lim, SIDE) == pytest.approx(0.122, abs=0.002)
    # probability that two UEs both pick one pilot and are mutual neighbors
    assert distance_cdf(2.0 * d_lim, SIDE) / cfg.num_pilots == pytest.approx(
        0.024, abs=0.001)


def test_cdf_monotone():
    grid = np.linspace(0.0, math.sqrt(2.0) * SIDE, 400)
    vals = [distance_cdf(float(d), SIDE) for d in grid]
    assert (np.diff(vals) >= -1e-12).all()


def test_cdf_domain_rejection():
    with pytest.raises(ValueError):
        distance_cdf(-1.0, SIDE)
    with pytest.raises(ValueError):
        distance_cdf(math.sqrt(2.0) * SIDE + 1.0, SIDE)
    with pytest.raises(ValueError):
        distance_pdf(SIDE + 1.0, SIDE)


def test_pdf_integrates_to_cdf():
    for d in (30.0, 146.6, 250.0, SIDE):
        integral, _ = quad(distance_pdf, 0.0, d, args=(SIDE,), epsabs=1e-12, limit=200)
        assert abs(integral - distance_cdf(d, SIDE)) < 1e-6


def test_overlap_area_lens():
    r = 10.0
    assert overlap_area(0.0, r) == pytest.approx(math.pi * r * r)
    assert overlap_area(2.0 * r, r) == 0.0
    assert overlap_area(25.0, r) == 0.0
    # hand value at d = r: 2 r^2 acos(1/2) - (r/2) sqrt(3) r
    expect = 2.0 * r * r * math.acos(0.5) - (r / 2.0) * math.sqrt(3.0) * r
    assert overlap_area(r, r) == pytest.approx(expect)


def test_expected_overlap_bounds():
    cfg = ScenarioConfig()
    d_lim = limit_distance(cfg)
    avg = expected_overlap_area(d_lim, SIDE)
    assert 0.0 < avg < math.pi * d_lim ** 2 * distance_cdf(2.0 * d_lim, SIDE)
    assert expected_overlap_area(0.0, SIDE) == 0.0
    with pytest.raises(ValueError):
        expected_overlap_area(SIDE, SIDE)  # needs 2*d_lim <= side


def _quad_overlap(d_lim, side):
    """E[overlap] by adaptive quadrature of the two lens terms against the density."""
    def h1(d):
        return 2.0 * d_lim ** 2 * math.acos(min(d / (2.0 * d_lim), 1.0)) * distance_pdf(d, side)

    def h2(d):
        return (d / 2.0) * math.sqrt(max(4.0 * d_lim ** 2 - d * d, 0.0)) * distance_pdf(d, side)

    e_h1, _ = quad(h1, 0.0, 2.0 * d_lim, epsabs=1e-10, limit=200)
    e_h2, _ = quad(h2, 0.0, 2.0 * d_lim, epsabs=1e-10, limit=200)
    return e_h1 - e_h2


@pytest.mark.parametrize("side", [SIDE, 1000.0])
def test_expected_overlap_closed_form_matches_quadrature(side):
    d_lim_ref = limit_distance(ScenarioConfig())
    for d_lim in (1.0, 20.0, d_lim_ref, 150.0, side / 2.0):
        assert expected_overlap_area(d_lim, side) == pytest.approx(
            _quad_overlap(d_lim, side), rel=1e-12)


def test_runtime_imports_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter loads no scipy."""
    src = str(Path(cfra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, cfra, cfra.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_separability_prediction_reference_point():
    pred = separability_prediction(ScenarioConfig(num_inactive_ues=1000))
    # <= one expected collider: no contention, every nearby AP exclusive
    assert pred.avg_collision_size <= 1.0
    assert pred.psi == 1.0
    assert pred.exclusive_aps == pytest.approx(6.75, abs=0.05)
    assert pred.dominant_area == pytest.approx(math.pi * pred.d_lim ** 2)


def test_separability_psi_nonincreasing():
    last = 2.0
    for num in (1000, 2000, 5000, 10000, 50000):
        pred = separability_prediction(ScenarioConfig(num_inactive_ues=num))
        assert pred.psi <= last + 1e-12
        assert 0.0 <= pred.psi <= 1.0
        last = pred.psi
