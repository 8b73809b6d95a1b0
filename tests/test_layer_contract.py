"""The benchmark's layer contract: every traced function exists and is reached.

``perfbench/tracing.py`` wraps named ``cfra`` functions from outside the
package and reports a function it cannot find, or never sees called, as
missing. This test reads that list as it stands and checks the package
against it, so a refactor that renames, inlines or bypasses a traced
function fails here instead of in a traced benchmark run.
"""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cfra import bench, calibration, contention, scenario
from cfra.calibration import TrainingConfig
from cfra.estimators import best_pair
from cfra.scenario import ScenarioConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_layer_functions_exist(perfbench):
    tracing, _ = perfbench
    for module, names in tracing.LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"cfra.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"cfra.{module}.{name}"


def test_campaigns_reach_every_traced_function(perfbench):
    tracing, workloads = perfbench
    config = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
    expected = set(tracing.QUALIFIED) - workloads.build("campaign-sparse").expected_unreached
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for seed, (_, protocol, spec) in enumerate(workloads.CAMPAIGN_SPECS):
            res = contention.run_access_campaign(protocol, spec, config,
                                                 np.random.default_rng(seed))
            assert res.attempts.size
    finally:
        tracer.uninstall()
    calls = Counter(tracer.names[i] for i in tracer.name_ix)
    assert not tracer.missing
    assert not tracer.hook_errors
    assert sorted(name for name in expected if not calls[name]) == []


def test_offline_ops_reach_every_traced_function(perfbench):
    """One reduced op of each offline-phy kind reaches what the workload must reach."""
    tracing, workloads = perfbench
    config = ScenarioConfig()
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind in workloads.BENCH_KINDS:
            nearby, l_max = best_pair(kind, 3)
            res = bench.run_estimator_bench(kind, 3, nearby, l_max, config, rng,
                                            num_setups=1, num_realizations=8)
            assert np.isfinite(res.nmse).all()
        calibration.calibrate_delta(config, config.num_aps, rng, draws=50)
        training = TrainingConfig(ScenarioConfig(num_inactive_ues=2000, access_probability=0.01),
                                  rounds=2, repetitions=4)
        calibration.train_lmax(training, rng)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_ix]
    calls = Counter(names)
    assert not tracer.missing
    assert not tracer.hook_errors
    assert sorted(name for name in workloads._IN_OFFLINE if not calls[name]) == []
    # calibration ranks all draws of a collision size in one row-wise call
    in_calibration = [n for n, parent in zip(names, tracer.parent)
                      if n == "access.build_serving_sets"
                      and names[parent] == "calibration.calibrate_delta"]
    assert len(in_calibration) == 10


def test_traced_gain_rows_equal_the_rows_computed(perfbench, monkeypatch):
    """The traced ``scenario.gain_rows`` counts the gain rows the untraced
    program computes: per campaign spec, the tracer's counter equals the
    rows ``scenario.pathloss_beta`` returns in an untraced run of the same
    seed."""
    tracing, workloads = perfbench
    config = ScenarioConfig(num_inactive_ues=2000, access_probability=0.01)
    pathloss_beta = scenario.pathloss_beta
    for seed, (label, protocol, spec) in enumerate(workloads.CAMPAIGN_SPECS):
        rows = []

        def spy(distances, config):
            rows.append(distances.shape[0])
            return pathloss_beta(distances, config)

        with monkeypatch.context() as patch:
            patch.setattr(scenario, "pathloss_beta", spy)
            contention.run_access_campaign(protocol, spec, config, np.random.default_rng(seed))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            contention.run_access_campaign(protocol, spec, config, np.random.default_rng(seed))
        finally:
            tracer.uninstall()
        assert not tracer.hook_errors
        assert tracer.counters["gain_rows"] == sum(rows) > 0, label
