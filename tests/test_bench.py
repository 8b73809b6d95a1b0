"""Fixed-seed outputs of the estimator bench, δ calibration and l_max training.

The values were recorded with the sampler that draws the activity matrix
||y_lt||^2 / N from its Gamma law and the channels only at the serving APs,
given ||y_lt||; they must be reproduced exactly.
"""

import numpy as np
import pytest

from cfra.bench import run_estimator_bench
from cfra.calibration import TrainingConfig, calibrate_delta, train_lmax
from cfra.estimators import best_pair
from cfra.scenario import ScenarioConfig

# (kind, collision size) -> (nmse, neb, nmd); 2 setups x 16 realizations, seed 11
PINNED_BENCH = {
    ("est1", 1): (
        [1.1111686926387552e-06, 1.9288963104352977e-06],
        [0.0009405937543454905, 0.0006574023694897983],
        [-0.0009408195697081469, -0.0006588921619660336],
    ),
    ("est1", 3): (
        [133657.62027384067, 0.34176050015772574, 0.06284965972800871, 0.9989887704129617,
         0.9997963636341257, 0.10239778990472394],
        [90.45868811138106, -0.5747464056545664, -0.1367904006954145, -0.9994942500573394,
         -0.9998981765530838, 0.19896230347762112],
        [-39.959694631623826, -0.1252027627886407, -0.07216250922761153, -0.028140730583145923,
         -0.0950912425032794, -9.763803839684636e-06],
    ),
    ("est2", 1): (
        [0.0015654815485428915, 0.0032864855830930465],
        [-0.02923309477490166, 0.025071257270761683],
        [0.03627507460722604, 0.00033749153054848317],
    ),
    ("est2", 3): (
        [0.5856039318653008, 0.18737587146960424, 0.07888012908959158, 0.38888056030516727,
         0.7576344722290218, 0.06149213745028222],
        [-0.7592201378267652, -0.28740482012722807, 0.002173467642845412, -0.608671656036182,
         -0.8689764175227999, -0.16665683303074125],
        [-0.1799987439406452, -0.09603498357244655, -0.04268112404656678, -0.013904655103370111,
         -0.04033372994365101, -0.0101306236300438],
    ),
    ("est3", 1): (
        [0.02473184633324682, 0.0],
        [0.09477799485003016, 0.0],
        [-0.10633211440107602, 0.0],
    ),
    ("est3", 3): (
        [3.583505354534606e+29, 0.4677667109481499, 0.07980081501162542, 0.8942654047197081,
         9.422779762914614e+24, 2.3837524536839925e-07],
        [149149374260329.0, -0.6839398009086691, -0.28248632700009824, -0.9431359007879119,
         2426775443398.7334, -0.00048823254000007044],
        [-41.05702828970006, -0.13465247052546223, -0.07628431441281204, -0.030401590060659324,
         -0.11400435917393026, -1.1249212874003583e-05],
    ),
    ("cellular", 1): (
        [0.013828517918018136, 0.00951681264162297],
        [0.06951554414791795, 0.04851028637179273],
        [0.0, 0.0],
    ),
    ("cellular", 3): (
        [0.0351453737836612, 0.11646817286229805, 0.7844398400563235, 0.01804816262728989,
         0.1823560677833111, 4.843858868524648e+25],
        [-0.026178788717286242, -0.05574298707008575, 0.5688587389701354, -0.03457168611136856,
         0.15819702904465902, 2460655113106.565],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ),
}

# l_max -> (delta, q_avg); 200 draws, seed 12
PINNED_DELTA = {64: (7.979043322669579, 0.049084952546141376),
                8: (2.8986377692927334, 0.37193078619956166)}
# 5 rounds x 20 repetitions at |U| = 2000, p = 0.01, seed 13
PINNED_LMAX = (4, [3.0, 4.2, 3.6, 4.4, 4.4])


@pytest.mark.parametrize("kind, size", sorted(PINNED_BENCH))
def test_bench_pinned_at_fixed_seed(kind, size):
    nearby, l_max = best_pair(kind, size)
    res = run_estimator_bench(kind, size, nearby, l_max, ScenarioConfig(),
                              np.random.default_rng(11), num_setups=2, num_realizations=16)
    for name, want in zip(("nmse", "neb", "nmd"), PINNED_BENCH[kind, size]):
        assert getattr(res, name).tolist() == want, name


@pytest.mark.parametrize("l_max", sorted(PINNED_DELTA))
def test_calibrate_delta_pinned_at_fixed_seed(l_max):
    got = calibrate_delta(ScenarioConfig(), l_max, np.random.default_rng(12), draws=200)
    assert got == PINNED_DELTA[l_max]


def test_train_lmax_pinned_at_fixed_seed():
    training = TrainingConfig(ScenarioConfig(num_inactive_ues=2000, access_probability=0.01),
                              rounds=5, repetitions=20)
    assert train_lmax(training, np.random.default_rng(13)) == PINNED_LMAX
