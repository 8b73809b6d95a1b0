"""Configuration, topology and natural nearby-set tests."""

import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from cfra.scenario import (MIN_DISTANCE_M, ScenarioConfig, Topology, _distances, ap_grid,
                           bs_topology, build_topology, db_to_linear,
                           limit_distance, load_config, natural_sets, pathloss_beta)
from helpers import linear_to_db


def test_db_roundtrip():
    for v in (-94.0, -30.5, 0.0, 23.0):
        assert linear_to_db(db_to_linear(v)) == pytest.approx(v, abs=1e-12)


def test_noise_power_linear():
    cfg = ScenarioConfig()
    assert cfg.noise_mw == pytest.approx(10 ** (-9.4), rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(num_pilots=0)
    with pytest.raises(ValueError):
        ScenarioConfig(l_max=65)
    with pytest.raises(ValueError):
        ScenarioConfig(access_probability=1.5)


@pytest.mark.parametrize("field, value", [
    ("square_length_m", -1.0),
    ("square_length_m", float("nan")),
    ("ul_power_mw", -1.0),
    ("dl_power_per_ap_mw", 0.0),
    ("compensation_factor", 0.5),
    ("num_inactive_ues", 0),
    ("num_aps", 10),
    ("power_constant_db", float("nan")),
    ("noise_power_dbm", float("nan")),
    ("noise_power_dbm", 4000.0),
    ("noise_power_dbm", -4000.0),
    ("power_constant_db", 3090.0),
    ("pathloss_exponent", 0.0),
    ("pathloss_exponent", float("nan")),
    ("bs_antennas", 0),
    ("bs_dl_power_mw", 0.0),
    ("bs_dl_power_mw", float("nan")),
    ("ul_power_mw", float("inf")),
    ("dl_power_per_ap_mw", float("inf")),
    ("compensation_factor", float("inf")),
    ("num_pilots", 2.5),
    ("num_pilots", True),
    ("max_attempts", True),
])
def test_config_rejects_non_physical(field, value):
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = ScenarioConfig(num_pilots=np.int64(3), num_inactive_ues=np.int32(200))
    assert (cfg.num_pilots, cfg.num_inactive_ues) == (3, 200)


def test_derived_constants_cached_outside_fields():
    cfg = ScenarioConfig()
    assert cfg.noise_mw == db_to_linear(cfg.noise_power_dbm)
    assert cfg.omega_lin == db_to_linear(cfg.power_constant_db)
    fresh = ScenarioConfig()
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert asdict(cfg) == asdict(fresh)
    assert "noise_mw" not in asdict(cfg)


def test_bs_config_is_single_site_view():
    cfg = ScenarioConfig()
    bs = cfg.bs_config
    assert bs is cfg.bs_config
    assert (bs.num_aps, bs.l_max) == (1, 1)
    assert bs.antennas_per_ap == cfg.bs_antennas
    assert bs.dl_power_per_ap_mw == cfg.bs_dl_power_mw
    assert bs.noise_mw == cfg.noise_mw


def test_load_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# comment line\n"
        "square_length_m = 200\n"
        "num_pilots = 3   # trailing comment\n"
        "\n"
        "ul_power_mw = 50\n")
    cfg = load_config(path)
    assert cfg.square_length_m == 200.0
    assert cfg.num_pilots == 3
    assert cfg.ul_power_mw == 50.0
    assert cfg.num_aps == 64  # untouched default


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_field = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


def test_load_config_type_error_names_line_and_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_aps = 64\nnum_pilots = 2.5\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: num_pilots: "):
        load_config(path)


def test_load_config_validation_error_names_file(tmp_path):
    """A value that parses but fails validation is reported with its file."""
    path = tmp_path / "bad.cfg"
    path.write_text("num_pilots = 0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: num_pilots must be"):
        load_config(path)


def test_load_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_pilots = 3\nnum_pilots = 7\n")
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(str(path))}:2: duplicate key 'num_pilots'"):
        load_config(path)


def test_load_config_rejects_iota(tmp_path):
    """The natural set is the one nearby-set rule: no threshold knob."""
    path = tmp_path / "bad.cfg"
    path.write_text("iota = 2\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(path)


def test_ap_grid_geometry():
    aps = ap_grid(64, 400.0)
    assert aps.shape == (64, 2)
    assert aps.min() == pytest.approx(25.0)
    assert aps.max() == pytest.approx(375.0)
    # pitch 50 m in both directions
    xs = np.unique(aps[:, 0])
    assert np.allclose(np.diff(xs), 50.0)


def test_ap_grid_rejects_non_square():
    with pytest.raises(ValueError):
        ap_grid(60, 400.0)


def test_pathloss_reference_values():
    cfg = ScenarioConfig()
    # limit radius of the reference scenario and its edge gain
    d_lim = limit_distance(cfg)
    assert d_lim == pytest.approx(73.30, abs=0.05)
    beta_db = linear_to_db(pathloss_beta(np.array([d_lim]), cfg))[0]
    assert beta_db == pytest.approx(-99.0, abs=1.5)
    # at the limit radius the received DL power meets the noise floor
    assert cfg.dl_power_per_ap_mw * db_to_linear(beta_db) == pytest.approx(
        cfg.noise_mw, rel=1e-9)


def test_distance_clamp():
    cfg = ScenarioConfig()
    beta = pathloss_beta(np.array([0.0]), cfg)
    assert np.isfinite(beta).all()
    assert beta[0] == pytest.approx(cfg.omega_lin * MIN_DISTANCE_M ** (-cfg.pathloss_exponent))


@pytest.mark.parametrize("num_ues", [1, 10, 5000])
def test_pathloss_beta_bits_and_argument_untouched(num_ues):
    """The gains are computed in a clamped copy: the bits of the plain
    formula, and the distances passed in are left as they were."""
    cfg = ScenarioConfig()
    distances = np.random.default_rng(num_ues).uniform(0.0, 600.0, (num_ues, cfg.num_aps))
    distances[0, :2] = 0.0, MIN_DISTANCE_M / 2.0          # both clamped
    before = distances.copy()
    want = cfg.omega_lin * np.maximum(distances, MIN_DISTANCE_M) ** -cfg.pathloss_exponent
    assert pathloss_beta(distances, cfg).tobytes() == want.tobytes()
    assert distances.tobytes() == before.tobytes()


def test_pathloss_beta_takes_scalars():
    cfg = ScenarioConfig()
    for d in (50.0, 0.0, np.float64(50.0), np.array(50.0), np.array(0.0)):
        kept = np.copy(d)
        want = cfg.omega_lin * np.maximum(d, MIN_DISTANCE_M) ** -cfg.pathloss_exponent
        got = pathloss_beta(d, cfg)
        assert np.ndim(got) == 0 and got == want and np.isfinite(got)
        assert np.array_equal(d, kept)


def test_build_topology_shapes_and_bounds():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(0)
    topo = build_topology(cfg, rng, num_ues=10)
    assert topo.beta.shape == (10, 64)
    assert (topo.ue_positions >= 0).all()
    assert (topo.ue_positions <= 400).all()
    # distances consistent with positions
    distances, _ = _eager_tables(topo, cfg)
    assert distances.shape == (10, 64)
    d = np.linalg.norm(topo.ue_positions[3] - topo.ap_positions[17])
    assert distances[3, 17] == pytest.approx(d)


def test_topology_fixed_positions():
    cfg = ScenarioConfig()
    pos = np.array([[25.0, 25.0]])
    topo = Topology(ap_grid(cfg.num_aps, cfg.square_length_m), pos, cfg)
    # UE atop the first AP: that AP has the largest gain
    assert topo.beta[0].argmax() == 0


def _eager_tables(topo, cfg):
    diff = topo.ue_positions[:, None, :] - topo.ap_positions[None, :, :]
    distances = np.sqrt((diff ** 2).sum(axis=2))
    return distances, pathloss_beta(distances, cfg)


def test_gains_bit_equal_to_eager_table():
    """The table is computed at build time, and a joined topology copies
    both tables' rows: bits equal to the table of the joined positions."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(11)
    a, b = build_topology(cfg, rng, num_ues=40), build_topology(cfg, rng, num_ues=7)
    assert np.array_equal(a.beta, _eager_tables(a, cfg)[1])
    joined = a.joined(b)
    assert np.array_equal(joined.ue_positions, np.concatenate([a.ue_positions, b.ue_positions]))
    ref = Topology(joined.ap_positions, joined.ue_positions, cfg)
    assert joined.beta.tobytes() == ref.beta.tobytes()
    assert joined.config is cfg and joined.ap_positions is a.ap_positions


def test_beta_is_read_only():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(12)
    topo = build_topology(cfg, rng, num_ues=5)
    _, beta_ref = _eager_tables(topo, cfg)
    topo.beta[[1, 2]][:] = 0.0          # a fancy-indexed read is a copy
    for table in (topo.beta, topo.joined(build_topology(cfg, rng, num_ues=2)).beta,
                  bs_topology(cfg, topo.ue_positions).beta):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
    assert np.array_equal(topo.beta, beta_ref)


def test_build_topology_draws_positions_only():
    """The drop draws the UE positions and nothing else from the generator."""
    cfg = ScenarioConfig()
    a = build_topology(cfg, np.random.default_rng(13), num_ues=30)
    rng = np.random.default_rng(13)
    expected = rng.uniform(0.0, cfg.square_length_m, size=(30, 2))
    assert np.array_equal(a.ue_positions, expected)
    assert build_topology(cfg, rng, num_ues=0).beta.shape == (0, cfg.num_aps)
    assert rng.random() == np.random.default_rng(13).uniform(size=61)[-1]


def test_bs_topology_center():
    cfg = ScenarioConfig()
    topo = bs_topology(cfg, np.array([[200.0, 200.0], [0.0, 0.0]]))
    assert topo.beta.shape == (2, 1)
    distances, _ = _eager_tables(topo, cfg)
    assert distances[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert distances[1, 0] == pytest.approx(200.0 * math.sqrt(2.0))


def test_nearby_set_threshold_and_fallback():
    cfg = ScenarioConfig()
    topo = build_topology(cfg, np.random.default_rng(1), num_ues=50)
    members = natural_sets(topo.beta, cfg)
    assert members.shape == (50, cfg.num_aps) and members.dtype == bool
    assert (members.sum(axis=1) >= 1).all()
    # every AP inside d_lim is a member, and only those
    assert np.array_equal(members, _eager_tables(topo, cfg)[0] < limit_distance(cfg))


def test_nearby_set_fallback_single_strongest():
    cfg = ScenarioConfig(dl_power_per_ap_mw=1e-12)  # threshold excludes all
    topo = build_topology(cfg, np.random.default_rng(2), num_ues=5)
    members = natural_sets(topo.beta, cfg)
    assert (members.sum(axis=1) == 1).all()
    assert np.array_equal(members.argmax(axis=1), topo.beta.argmax(axis=1))


def test_natural_sets_deaf_tie_keeps_lower_index():
    cfg = ScenarioConfig(num_aps=4, l_max=4)
    loud = 2.0 * cfg.noise_mw / cfg.dl_power_per_ap_mw      # heard above noise
    quiet = 0.5 * cfg.noise_mw / cfg.dl_power_per_ap_mw     # not heard
    beta = np.array([[quiet, loud, quiet / 2, loud],
                     [quiet / 4, quiet, quiet / 2, quiet],    # deaf, tie on APs 1 and 3
                     [quiet, quiet / 2, quiet / 4, quiet / 8],  # deaf
                     [loud, quiet, loud, loud]])
    assert natural_sets(beta, cfg).tolist() == [[False, True, False, True],
                                                [False, True, False, False],
                                                [True, False, False, False],
                                                [True, False, True, True]]


def test_natural_sets_match_single_calls():
    cfg = ScenarioConfig()
    topo = build_topology(cfg, np.random.default_rng(4), num_ues=6)
    beta = topo.beta
    members = natural_sets(beta, cfg)
    for ue in range(6):
        assert np.array_equal(members[ue], natural_sets(beta[ue:ue + 1], cfg)[0])
        # the members are the strongest members.sum() APs of the row
        size = int(members[ue].sum())
        assert beta[ue, members[ue]].min() > np.sort(beta[ue])[::-1][size:].max(initial=0.0)


def test_natural_sets_follow_config():
    cfg = ScenarioConfig()
    quiet = ScenarioConfig(dl_power_per_ap_mw=cfg.dl_power_per_ap_mw / 50.0)
    beta = build_topology(cfg, np.random.default_rng(5), num_ues=8).beta
    few, many = natural_sets(beta, quiet), natural_sets(beta, cfg)
    assert (few.sum(axis=1) >= 1).all() and not (few & ~many).any()
    assert (few.sum(axis=1) < many.sum(axis=1)).any()


def test_bs_topology_is_the_single_bs_site():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(6)
    topo = build_topology(cfg, rng, num_ues=30)
    site = bs_topology(cfg, topo.ue_positions)
    centre = np.array([[cfg.square_length_m / 2.0, cfg.square_length_m / 2.0]])
    ref = Topology(centre, topo.ue_positions, cfg.bs_config)
    assert site.beta.tobytes() == ref.beta.tobytes()    # row indices are the topology's
    assert natural_sets(site.beta, cfg.bs_config).all()
    # the site carries the single-BS config, read by whatever runs on it
    assert site.config == cfg.bs_config
    assert site.config is cfg.bs_config and topo.config is cfg


@pytest.mark.parametrize("num_ues", [1, 10, 5000])
def test_distances_equal_the_summed_square_form(num_ues):
    """``_distances`` squares each coordinate gap on its own; the bits match
    the (N, L, 2) difference tensor summed over its last axis."""
    cfg = ScenarioConfig()
    ues = np.random.default_rng(num_ues).uniform(0.0, cfg.square_length_m, (num_ues, 2))
    centre = np.array([[cfg.square_length_m / 2.0, cfg.square_length_m / 2.0]])
    for aps in (ap_grid(cfg.num_aps, cfg.square_length_m), centre):
        diff = ues[:, None, :] - aps[None, :, :]
        want = np.sqrt((diff ** 2).sum(axis=2))
        assert _distances(ues, aps).tobytes() == want.tobytes()
