"""Helpers that only the tests read: a dB conversion, the lens area of two
disks, the typed reader of the CSV tables ``cfra.metrics`` writes, the large-N
downlink observation, the reference access campaign over a |U|-long
population, and the reference average of repeated activity draws."""

import csv
import math

import numpy as np

from cfra.access import true_alpha_lt
from cfra.channel import pilot_activity
from cfra.contention import MAX_CAMPAIGN_BLOCKS, run_attempt
from cfra.scenario import ScenarioConfig, bs_topology, build_topology


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


# the headers of the two report tables, as ``cfra sweep`` and ``cfra estimators-bench`` write them
SWEEP_COLUMNS = ["num_inactive_ues", "protocol", "estimator", "nearby_method", "anaa",
                 "tcp_mw_symbols", "trials", "truncated", "seed"]
BENCH_COLUMNS = ["collision_size", "protocol", "estimator", "nearby_method", "nmse_median",
                 "nmse_iqr", "neb_median", "neb_iqr", "nmd_mean", "trials", "seed"]


def _typed(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_reports(path, columns) -> list[dict]:
    """The rows of a CSV table written by :func:`cfra.metrics.write_table`.

    Each value is read as an int, else a float, else kept as text; the
    header must be ``columns``, else ``ValueError``.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(columns):
            raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
        return [{name: _typed(text) for name, text in row.items()} for row in reader]


def large_n_observation(beta_active: np.ndarray, pilots: np.ndarray,
                        serving_mask: np.ndarray, config: ScenarioConfig,
                        cpu_alpha_hat: np.ndarray | None = None) -> np.ndarray:
    """Deterministic large-N value of Re(z_k)/sqrt(N) for every UE, shape (..., K).

    Standard precoding (``cpu_alpha_hat`` is None) weighs each serving AP by
    1/sqrt(alpha_lt + sigma^2); normalized precoding divides the summed
    gains by sqrt(alpha_hat_t). UEs on an unserved pilot, or on a pilot with
    alpha_hat_t = 0, get 0.
    """
    amplitude = np.sqrt(config.dl_power_per_ap_mw * config.ul_power_mw) * config.num_pilots
    cte = amplitude * beta_active                                           # (K, L)
    if cpu_alpha_hat is None:
        alpha_lt = true_alpha_lt(beta_active, pilots, config)
        per_ap = cte / np.sqrt(alpha_lt + config.noise_mw)[pilots]
        return np.where(serving_mask[..., pilots, :], per_ap, 0.0).sum(axis=-1)
    summed = np.where(serving_mask[..., pilots, :], cte, 0.0).sum(axis=-1)
    alpha_k = cpu_alpha_hat[..., pilots]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(alpha_k > 0, summed / np.sqrt(alpha_k), 0.0)


def reference_campaign(protocol: str, spec, config, rng: np.random.Generator) -> tuple[float, int]:
    """One access campaign over a |U|-long population: (cohort ANAA, blocks).

    The law reference for :func:`cfra.contention.run_access_campaign`. Every
    UE's position is drawn up front, every idle UE flips its own activation
    coin on every block, and the same retry, give-up and block-cap rules run
    on :func:`cfra.contention.run_attempt`; ce-sucre runs on the single-BS
    topology of the same UEs. The ANAA is nan for an empty cohort.
    """
    n, p = config.num_inactive_ues, config.access_probability
    topology = build_topology(config, rng, num_ues=n)
    if protocol == "ce-sucre":
        topology = bs_topology(config, topology.ue_positions)
    attempts = np.zeros(n, dtype=int)
    in_progress = rng.random(n) < p
    activated = in_progress.copy()
    cohort = np.flatnonzero(in_progress)
    blocks = 0
    for block in range(MAX_CAMPAIGN_BLOCKS):
        if not in_progress[cohort].any():
            break
        if block > 0:
            idle = np.flatnonzero(~activated)
            newly = idle[rng.random(idle.size) < p]
            activated[newly] = in_progress[newly] = True
        candidates = np.flatnonzero(in_progress)
        go = candidates[(attempts[candidates] == 0)
                        | (rng.random(candidates.size) < config.reattempt_probability)]
        if go.size == 0:
            continue
        out = run_attempt(protocol, spec, topology, go, rng)
        attempts[go] += 1
        in_progress[out.admitted] = False
        in_progress[go[attempts[go] >= config.max_attempts]] = False
        blocks += 1
    anaa = float(attempts[cohort].mean()) if cohort.size else float("nan")
    return anaa, blocks


def mean_of_activity_draws(alpha_lt: np.ndarray, n_antennas: int, noise_mw: float,
                           repetitions: int, rng: np.random.Generator) -> np.ndarray:
    """The mean (T, L) of ``repetitions`` independent activity matrices.

    The law reference for the averaged activity of
    :func:`cfra.calibration.train_lmax`, which draws that mean in one pass:
    here each repetition is drawn on its own and the draws are averaged.
    """
    draws = pilot_activity(np.broadcast_to(alpha_lt, (repetitions,) + alpha_lt.shape),
                           n_antennas, noise_mw, rng)
    return draws.mean(axis=0)
