"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints "criterion N: PASS/FAIL <detail>" before asserting, so the
verbose run doubles as the acceptance report. Full module runtime is a few
minutes; the campaign-based criteria (9, 11) dominate.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from cfra.analysis import distance_cdf, distance_pdf, separability_prediction
from cfra.access import build_serving_sets, downlink_observation, true_alpha_lt
from cfra.bench import run_estimator_bench
from cfra.calibration import calibrate_delta
from cfra.channel import draw_uplink, pilot_activity
from cfra.contention import run_access_campaign, run_attempt
from cfra.estimators import (BEST_PAIRS, EstimatorSpec, estimate_1, estimate_2,
                             estimate_2_per_ap, estimate_cellular, knowledge_for)
from cfra.metrics import CSV_COLUMNS, MetricsReport, read_reports, tcp, write_reports
from cfra.scenario import (ScenarioConfig, build_topology, limit_distance,
                           linear_to_db, pathloss_beta)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_limit_radius():
    d_lim = limit_distance(ScenarioConfig(), iota=1.0)
    ok = abs(d_lim - 73.30) <= 0.05
    assert _report(1, ok, f"d_lim = {d_lim:.3f} m (want 73.30 +/- 0.05)")


def test_criterion_02_pathloss_edge():
    cfg = ScenarioConfig()
    d_lim = limit_distance(cfg, iota=1.0)
    beta_db = float(linear_to_db(pathloss_beta(np.array([d_lim]), cfg))[0])
    ok = abs(beta_db - (-99.0)) <= 1.5
    assert _report(2, ok, f"beta(d_lim) = {beta_db:.2f} dB (want -99 +/- 1.5)")


def test_criterion_03_neighbor_probability():
    cfg = ScenarioConfig()
    d_lim = limit_distance(cfg, iota=1.0)
    prob = distance_cdf(2.0 * d_lim, cfg.square_length_m) / cfg.num_pilots
    ok = abs(prob - 0.024) <= 0.005
    assert _report(3, ok, f"(1/tau_p) F(2 d_lim) = {prob:.4f} (want 0.024 +/- 0.005)")


def test_criterion_04_delta_calibration():
    cfg = ScenarioConfig()
    delta, q_avg = calibrate_delta(cfg, cfg.num_aps, np.random.default_rng(40),
                                   draws=10000)
    ok = abs(q_avg - 0.0489) <= 0.2 * 0.0489 and abs(delta - 8.0) <= 1.0
    assert _report(4, ok, f"q_avg = {q_avg:.4f} mW, delta = {delta:.2f} "
                          "(want 0.0489 +/- 20%, 8 +/- 1)")


def _bench_medians(sizes, kinds, config, seed, antennas=None):
    cfg = config if antennas is None else replace(config, antennas_per_ap=antennas)
    rng = np.random.default_rng(seed)
    nmse, neb = {}, {}
    for size in sizes:
        for kind in kinds:
            nearby, l_max = (1, 1) if kind == "cellular" else BEST_PAIRS[kind][size]
            res = run_estimator_bench(kind, size, nearby, l_max, cfg, rng,
                                      num_setups=100, num_realizations=100)
            nmse[size, kind] = float(np.median(res.nmse))
            neb[size, kind] = float(np.median(res.neb))
    return nmse, neb


def test_criterion_05_estimator_ordering():
    cfg = ScenarioConfig()
    kinds = ("est1", "est2", "est3", "cellular")
    nmse, _ = _bench_medians(range(1, 11), kinds, cfg, seed=50)
    ok_a = nmse[1, "est3"] <= min(nmse[1, "est1"], nmse[1, "est2"]) + 1e-12
    ok_b = all(nmse[s, "est2"] <= 1.02 * min(nmse[s, "est1"], nmse[s, "est3"])
               for s in range(2, 11))
    bad_c = [s for s in range(2, 11)
             if not all(nmse[s, k] < nmse[s, "cellular"]
                        for k in ("est1", "est2", "est3"))]
    ok_c = not bad_c
    detail = (f"(a) est3 lowest at |S_t|=1: {ok_a}; (b) est2 lowest 2..10: {ok_b}; "
              f"(c) CF beats cellular for |S_t|>=2: {ok_c}"
              + (f" (fails at {bad_c})" if bad_c else ""))
    assert _report(5, ok_a and ok_b and ok_c, detail)


def test_criterion_06_underestimation():
    cfg = ScenarioConfig()
    worst = -np.inf
    for n in (8, 16, 32, 64):
        _, neb = _bench_medians([2], ("est1", "est2", "est3"), cfg, seed=60 + n,
                                antennas=n)
        worst = max(worst, max(neb.values()))
    ok = worst <= 0.0
    assert _report(6, ok, f"max median NEB over N in {{8,16,32,64}} = {worst:.3f} "
                          "(want <= 0)")


def test_criterion_07_per_ap_split_residual():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(1000):
        size = rng.integers(1, 8)
        beta = 10.0 ** rng.uniform(-12, -7, size)
        rez = np.sqrt(cfg.antennas_per_ap) * 10.0 ** rng.uniform(-6, -3)
        per_ap = estimate_2_per_ap(beta, rez, cfg)
        cte = np.sqrt(cfg.dl_power_per_ap_mw * cfg.ul_power_mw) * cfg.num_pilots * beta
        model = (cte / np.sqrt(per_ap + cfg.noise_mw)).sum()
        target = rez / np.sqrt(cfg.antennas_per_ap)
        worst = max(worst, abs(model - target) / target)
    ok = worst < 1e-9
    assert _report(7, ok, f"worst relative residual = {worst:.2e} (want < 1e-9)")


def test_criterion_08_cellular_reduction():
    cfg = ScenarioConfig()
    reduced = ScenarioConfig(num_aps=1, l_max=1,
                             antennas_per_ap=cfg.bs_antennas,
                             dl_power_per_ap_mw=cfg.bs_dl_power_mw)
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(1000):
        beta = 10.0 ** rng.uniform(-12, -7)
        rez = 10.0 ** rng.uniform(-6, -2)
        k = knowledge_for(np.array([beta]), rez, reduced)
        cell = estimate_cellular(beta, rez, cfg)
        for est in (estimate_1(k, reduced), estimate_2(k, reduced)):
            worst = max(worst, abs(est - cell) / cell)
    ok = worst < 1e-12
    assert _report(8, ok, f"worst relative deviation = {worst:.2e} (want ~0)")


def _mean_anaa(protocol, spec, num_ues, trials, seed):
    cfg = ScenarioConfig(num_inactive_ues=num_ues)
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(trials):
        anaa = run_access_campaign(protocol, spec, cfg, rng).anaa
        if np.isfinite(anaa):
            vals.append(anaa)
    return float(np.mean(vals))


def test_criterion_09_protocol_ordering():
    trials = 500
    rows, ok = [], True
    bcf_5k = None
    for num in (1000, 5000, 10000):
        b = _mean_anaa("bcf", EstimatorSpec(), num, trials, 900 + num)
        c = _mean_anaa("cf-sucre",
                       EstimatorSpec(kind="est2", nearby_method="greedy"),
                       num, trials, 901 + num)
        e = _mean_anaa("ce-sucre", EstimatorSpec(kind="cellular"),
                       num, trials, 902 + num)
        ok &= b <= c <= e
        if num == 5000:
            bcf_5k = b
        rows.append(f"|U|={num}: {b:.3f} <= {c:.3f} <= {e:.3f}")
    ok &= bcf_5k <= 1.5
    assert _report(9, ok, "; ".join(rows) + f"; BCF@5e3 = {bcf_5k:.3f} (want <= 1.5)")


def test_criterion_10_analysis_vs_simulation():
    cfg0 = ScenarioConfig()
    exact = separability_prediction(cfg0, num_inactive_ues=1000)
    ok = exact.avg_collision_size <= 1.0 and exact.psi == 1.0
    rows = []
    for num in (1000, 10000):
        cfg = ScenarioConfig(num_inactive_ues=num)
        rng = np.random.default_rng(100 + num)
        admitted = active = 0
        for _ in range(300):
            topo = build_topology(cfg, rng)
            act = np.flatnonzero(rng.random(num) < cfg.access_probability)
            if act.size == 0:
                continue
            out = run_attempt("bcf", EstimatorSpec(), topo, act, cfg, rng)
            admitted += len(out.admitted)
            active += act.size
        frac = admitted / active
        psi = separability_prediction(cfg, num_inactive_ues=num).psi
        ok &= abs(frac - psi) <= 0.1
        rows.append(f"|U|={num}: sim {frac:.3f} vs psi {psi:.3f}")
    assert _report(10, ok, "; ".join(rows))


def _mean_tcp(protocol, spec, num_ues, trials, seed):
    cfg = ScenarioConfig(num_inactive_ues=num_ues)
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(trials):
        r = run_access_campaign(protocol, spec, cfg, rng)
        if not np.isfinite(r.anaa):
            continue
        q_eff = r.q_eff_mw if np.isfinite(r.q_eff_mw) else None
        tau = r.tau_bar if protocol == "ce-sucre" else r.tau_bar_pl
        vals.append(tcp(protocol, r.anaa, cfg, tau, r.l_bar, q_eff_mw=q_eff))
    return float(np.mean(vals))


def test_criterion_11_energy_regime():
    trials, num = 200, 5000
    cf3 = _mean_tcp("cf-sucre", EstimatorSpec(kind="est3"), num, trials, 111)
    cf2 = _mean_tcp("cf-sucre", EstimatorSpec(kind="est2"), num, trials, 112)
    bcf = _mean_tcp("bcf", EstimatorSpec(), num, trials, 113)
    ce = _mean_tcp("ce-sucre", EstimatorSpec(kind="cellular"), num, trials, 114)
    best_cf = min(cf2, cf3)
    ratio = ce / best_cf
    ok = cf3 < bcf < ce and ratio >= 40.0
    assert _report(11, ok, f"TCP est3 {cf3:.1f} < BCF {bcf:.1f} < Ce {ce:.1f}; "
                           f"Ce / best CF = {ratio:.1f} (want >= 40)")


def test_criterion_12_property_suites():
    side = 400.0
    # (i) empirical sample from the model law vs the closed-form CDF, KS < 0.002
    grid = np.linspace(0.0, math.sqrt(2.0) * side, 20001)
    cdf_grid = np.array([distance_cdf(float(d), side) for d in grid])
    rng = np.random.default_rng(120)
    samples = np.sort(np.interp(rng.random(1_000_000), cdf_grid, grid))
    cdf_at = np.interp(samples, grid, cdf_grid)
    n = samples.size
    ks = max(np.max(np.arange(1, n + 1) / n - cdf_at),
             np.max(cdf_at - np.arange(0, n) / n))
    ok_ks = ks < 0.002

    # (ii) hardening: Re(z)/sqrt(N) approaches z_tilde monotonically in N
    errors = []
    for n_ant in (8, 32, 128):
        cfg = ScenarioConfig(antennas_per_ap=n_ant)
        rng = np.random.default_rng(121)
        topo = build_topology(cfg, rng, num_ues=4)
        pilots = np.array([0, 0, 1, 2])
        alpha_lt = true_alpha_lt(topo.beta, pilots, cfg)
        rel = []
        for _ in range(200):
            y = draw_uplink(alpha_lt, n_ant, cfg.noise_mw, rng)
            serving = build_serving_sets(pilot_activity(y), cfg.l_max, cfg.noise_mw)
            obs = downlink_observation(y, serving, topo.beta, alpha_lt, pilots, cfg, rng)
            sel = obs.served & (obs.z_tilde > 0)
            rel.append(np.abs(obs.z[sel].real / np.sqrt(n_ant) - obs.z_tilde[sel])
                       / obs.z_tilde[sel])
        errors.append(float(np.concatenate(rel).mean()))
    ok_hard = errors[0] > errors[1] > errors[2]

    # (iii) pdf/cdf quadrature self-consistency < 1e-6
    worst_quad = 0.0
    for d in (50.0, 146.6, 300.0, side):
        integral, _ = quad(distance_pdf, 0.0, d, args=(side,), epsabs=1e-12, limit=200)
        worst_quad = max(worst_quad, abs(integral - distance_cdf(d, side)))
    ok_quad = worst_quad < 1e-6

    # (iv) CSV round-trip and seed determinism, bit-exact
    import tempfile
    from pathlib import Path
    report = MetricsReport(sweep_axis="num_inactive_ues", sweep_value=5000.0,
                           protocol="cf-sucre", estimator="est3",
                           nearby_method="fixed", anaa=1.0 / 3.0,
                           tcp_mw_symbols=76.123456789, trials=500, seed=12)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.csv"
        write_reports([report], path)
        back = read_reports(path)[0]
        ok_csv = all(getattr(report, c) == getattr(back, c) for c in CSV_COLUMNS
                     if not (isinstance(getattr(report, c), float)
                             and np.isnan(getattr(report, c))))
    cfg = ScenarioConfig(num_inactive_ues=300, access_probability=0.05)
    a = run_access_campaign("bcf", EstimatorSpec(), cfg, np.random.default_rng(122))
    b = run_access_campaign("bcf", EstimatorSpec(), cfg, np.random.default_rng(122))
    ok_seed = (np.array_equal(a.attempts, b.attempts)
               and np.array_equal(a.succeeded, b.succeeded)
               and a.anaa == b.anaa)

    ok = ok_ks and ok_hard and ok_quad and ok_csv and ok_seed
    assert _report(12, ok, f"KS = {ks:.5f} (< 0.002): {ok_ks}; hardening "
                           f"monotone {['%.3f' % e for e in errors]}: {ok_hard}; "
                           f"quadrature {worst_quad:.2e} (< 1e-6): {ok_quad}; "
                           f"CSV round-trip: {ok_csv}; seed determinism: {ok_seed}")
