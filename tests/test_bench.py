"""Fixed-seed outputs of the estimator bench, δ calibration and l_max training.

The values were recorded with the sampler that draws the activity matrix
||y_lt||^2 / N from its Gamma law and the channels only at the serving APs,
given ||y_lt||; they must be reproduced exactly. The bench stacks its setups
in one pass, so its stream differs from a per-setup loop's; a one-setup call
still draws exactly what one setup of that loop drew (``SINGLE_SETUP_BENCH``),
and both streams have one law.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cfra import bench, scenario
from cfra.bench import SETUP_BLOCK, run_estimator_bench
from cfra.calibration import TrainingConfig, calibrate_delta, train_lmax
from cfra.estimators import ESTIMATOR_KINDS, best_pair
from cfra.scenario import ScenarioConfig

# (kind, collision size) -> (nmse, neb, nmd); 2 setups stacked x 16 realizations, seed 11
PINNED_BENCH = {
    ("est1", 1): (
        [1.548248470555708e-06, 2.5481158662837867e-07],
        [0.0011101752109224736, 0.0002522033636087289],
        [-0.0011104899607676864, -0.0002523943277038641],
    ),
    ("est1", 3): (
        [0.523147098829594, 0.23489980120964696, 0.07586788155631269, 0.15246585758339315,
         0.18184866516836112, 2.846569792453213e+32],
        [-0.7076068377549096, -0.43157161382163, -0.274499089428559, -0.2873289859545556,
         -0.2713175078380468, 7688073196832692.0],
        [-2.0331356909611804, -0.14805644032771026, -0.06799803624406495, -0.18679089566157042,
         -0.3757421756421192, -325.495256622721],
    ),
    ("est2", 1): (
        [0.001248613449376902, 0.0013156122427421982],
        [-0.03480477379329976, 0.006313769287604734],
        [0.03640614886949131, 0.006947689488143114],
    ),
    ("est2", 3): (
        [0.5573468697803913, 0.17671753639038465, 0.052758938089044076, 0.09935462773392757,
         0.11004329101190184, 0.33325200377731967],
        [-0.7430601174110263, -0.38650710135719085, -0.1416873932539151, -0.11949279404445842,
         -0.24257073238597643, -0.4208909266719774],
        [-0.2557398740912817, -0.06533058543782394, -0.04271517859623519, -0.07673489610276711,
         -0.06433205342693994, -0.30245101983032285],
    ),
    ("est3", 1): (
        [0.009277180384369072, 0.0],
        [0.04121115156162018, 0.0],
        [-0.04701905313434965, 0.0],
    ),
    ("est3", 3): (
        [0.6278655318620998, 0.4681135492095281, 0.08012223930232094, 0.17361380109353478,
         0.20634374291495577, 9.944559441431674e+30],
        [-0.7848786120999697, -0.6841909975123519, -0.28305658860934746, -0.41711799304675484,
         -0.4548303197677019, 2032190249059098.0],
        [-2.114395131812438, -0.1576980784264166, -0.07210383159289321, -0.1958410004176618,
         -0.3927415798433954, -334.72238417429486],
    ),
    ("cellular", 1): (
        [0.018292653042824864, 0.011056180338879583],
        [0.07961182819993141, 0.05188307177414287],
        [0.0, 0.0],
    ),
    ("cellular", 3): (
        [0.08318693112126423, 0.20156005189572773, 0.3490100519794672, 1.6241712598562954e+25,
         1.0104912722907392e+26, 0.009797290215026821],
        [0.14883657393918712, 0.02086555884037389, -0.011263356062845233, 1745084843849.475,
         2513079873746.033, 0.0367092695871038],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ),
}

# (kind, collision size) -> (nmse, neb, nmd) of two one-setup calls on one generator
# (the per-setup loop's stream); 16 realizations, seed 11
SINGLE_SETUP_BENCH = {
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
# 5 rounds x 20 repetitions at |U| = 2000, p = 0.01, seed 13; each round's
# active set a Binomial(|U|, p) count dropped on the square, and its average
# over the repetitions one Gamma(N R) draw per entry
PINNED_LMAX = (5, [3.0, 5.2, 2.8, 5.0, 4.6])
# the same training at one repetition, where the average is the one draw: the
# values of averaging repetitions drawn one by one, bit for bit
PINNED_LMAX_ONE_REPETITION = (5, [3.2, 3.4, 4.4, 5.25, 5.4])


@pytest.mark.parametrize("kind, size", sorted(PINNED_BENCH))
def test_bench_pinned_at_fixed_seed(kind, size):
    nearby, l_max = best_pair(kind, size)
    res = run_estimator_bench(kind, size, nearby, l_max, ScenarioConfig(),
                              np.random.default_rng(11), num_setups=2, num_realizations=16)
    for name, want in zip(("nmse", "neb", "nmd"), PINNED_BENCH[kind, size]):
        assert getattr(res, name).tolist() == want, name


@pytest.mark.parametrize("kind, size", sorted(SINGLE_SETUP_BENCH))
def test_single_setup_calls_reproduce_the_setup_loop(kind, size):
    """Two one-setup calls on one generator give the per-setup loop's values."""
    nearby, l_max = best_pair(kind, size)
    rng = np.random.default_rng(11)
    runs = [run_estimator_bench(kind, size, nearby, l_max, ScenarioConfig(), rng,
                                num_setups=1, num_realizations=16) for _ in range(2)]
    for i, name in enumerate(("nmse", "neb", "nmd")):
        got = np.concatenate([getattr(r, name) for r in runs]).tolist()
        assert got == SINGLE_SETUP_BENCH[kind, size][i], name


KS_CASES = [(kind, size) for kind in ESTIMATOR_KINDS for size in (1, 3, 7)]
KS_SETUPS, KS_REALIZATIONS = 120, 32
# two statistics per case; Bonferroni keeps the whole family's false-alarm rate at 1 %
KS_FAMILY_ALPHA = 0.01
KS_TEST_ALPHA = KS_FAMILY_ALPHA / (2 * len(KS_CASES))


@pytest.mark.parametrize("kind, size", KS_CASES)
def test_one_call_over_many_setups_has_the_single_setup_law(kind, size):
    """Per-setup NMSE and NEB (mean over the setup's UEs) of one call over
    ``KS_SETUPS`` setups against a loop of one-setup calls: two-sample KS."""
    nearby, l_max = best_pair(kind, size)
    config = ScenarioConfig()
    many = run_estimator_bench(kind, size, nearby, l_max, config, np.random.default_rng(21),
                               num_setups=KS_SETUPS, num_realizations=KS_REALIZATIONS)
    rng = np.random.default_rng(22)
    loop = [run_estimator_bench(kind, size, nearby, l_max, config, rng,
                                num_setups=1, num_realizations=KS_REALIZATIONS)
            for _ in range(KS_SETUPS)]
    for name in ("nmse", "neb"):
        per_setup = getattr(many, name).reshape(KS_SETUPS, size).mean(axis=1)
        reference = [getattr(r, name).mean() for r in loop]
        p_value = ks_2samp(per_setup, reference).pvalue
        assert p_value > KS_TEST_ALPHA, (name, p_value)


def test_cellular_bench_builds_no_multi_ap_table(monkeypatch):
    """The cellular estimator reads only the single-BS view, so every gain
    table its bench computes has one column."""
    columns = []
    pathloss_beta = scenario.pathloss_beta

    def spy(distances, config):
        columns.append(distances.shape[-1])
        return pathloss_beta(distances, config)

    monkeypatch.setattr(scenario, "pathloss_beta", spy)
    run_estimator_bench("cellular", 3, 1, 1, ScenarioConfig(), np.random.default_rng(5),
                        num_setups=45, num_realizations=4)
    assert columns and set(columns) == {1}


def test_setups_run_in_fixed_blocks(monkeypatch):
    """45 setups make ceil(45 / SETUP_BLOCK) stacked downlink passes, not 45."""
    blocks = []
    downlink = bench.downlink_observation

    def spy(activity, *args, **kwargs):
        blocks.append(activity.shape[0])
        return downlink(activity, *args, **kwargs)

    monkeypatch.setattr(bench, "downlink_observation", spy)
    nearby, l_max = best_pair("est2", 3)
    res = run_estimator_bench("est2", 3, nearby, l_max, ScenarioConfig(),
                              np.random.default_rng(3), num_setups=45, num_realizations=4)
    assert len(blocks) == math.ceil(45 / SETUP_BLOCK)
    assert sum(blocks) == 45
    assert max(blocks) > 1, "each pass stacks several setups"
    assert res.nmse.shape == res.neb.shape == res.nmd.shape == (45 * 3,)


@pytest.mark.parametrize("kind, name, value", [
    ("est2", "num_setups", 0),
    ("est2", "num_realizations", 0),
    ("est2", "collision_size", 0),
    ("est2", "nearby_size", 0),
    ("est2", "nearby_size", 100),       # L = 64
    ("cellular", "nearby_size", 2),     # the single BS: L = 1
])
def test_bench_rejects_non_physical_input(kind, name, value):
    """A count below 1 or a nearby set larger than the site raises a
    ValueError naming the argument, before anything is drawn."""
    nearby, l_max = best_pair(kind, 3)
    args = {"collision_size": 3, "nearby_size": nearby, "num_setups": 2,
            "num_realizations": 4, name: value}
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match=name):
        run_estimator_bench(kind, args.pop("collision_size"), args.pop("nearby_size"), l_max,
                            ScenarioConfig(), rng, **args)
    assert rng.random() == np.random.default_rng(6).random()


def test_bench_memory_is_flat_in_the_setup_count():
    """The traced allocation peak at 100 setups stays within 1.3x of the peak at 20."""
    nearby, l_max = best_pair("est2", 10)

    def peak(setups):
        tracemalloc.start()
        try:
            run_estimator_bench("est2", 10, nearby, l_max, ScenarioConfig(),
                                np.random.default_rng(4), num_setups=setups)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100) <= 1.3 * peak(20)


@pytest.mark.parametrize("l_max", sorted(PINNED_DELTA))
def test_calibrate_delta_pinned_at_fixed_seed(l_max):
    got = calibrate_delta(ScenarioConfig(), l_max, np.random.default_rng(12), draws=200)
    assert got == PINNED_DELTA[l_max]


def test_train_lmax_pinned_at_fixed_seed():
    training = TrainingConfig(ScenarioConfig(num_inactive_ues=2000, access_probability=0.01),
                              rounds=5, repetitions=20)
    assert train_lmax(training, np.random.default_rng(13)) == PINNED_LMAX


def test_train_lmax_at_one_repetition_keeps_the_per_draw_stream():
    """At one repetition the averaged draw is the single draw, bit for bit."""
    training = TrainingConfig(ScenarioConfig(num_inactive_ues=2000, access_probability=0.01),
                              rounds=5, repetitions=1)
    assert train_lmax(training, np.random.default_rng(13)) == PINNED_LMAX_ONE_REPETITION
