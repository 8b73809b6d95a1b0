"""UE-side estimation of the colliding UEs' total uplink signal power.

Three cell-free estimators plus the single-BS baseline. Every estimator is
floored at the UE's own power so a degenerate observation can only make the
UE back off, never falsely win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig

CF_ESTIMATORS = ("est1", "est2", "est3")
ESTIMATOR_KINDS = CF_ESTIMATORS + ("cellular",)
NEARBY_METHODS = ("fixed", "greedy")

# Tuned (nearby-set size, serving cap) pairs per collision size, N = 8.
BEST_PAIRS = {
    "est1": {1: (6, 6), 2: (7, 4), 3: (5, 4), 4: (5, 5), 5: (7, 7),
             6: (5, 9), 7: (7, 10), 8: (6, 10), 9: (7, 11), 10: (6, 12)},
    "est2": {1: (6, 9), 2: (7, 7), 3: (7, 7), 4: (6, 7), 5: (6, 7),
             6: (7, 8), 7: (7, 9), 8: (7, 10), 9: (7, 12), 10: (7, 11)},
    "est3": {1: (1, 1), 2: (7, 3), 3: (7, 4), 4: (7, 7), 5: (7, 8),
             6: (7, 10), 7: (6, 11), 8: (7, 10), 9: (6, 11), 10: (7, 12)},
}


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator a UE runs and how it sizes its nearby set."""

    kind: str = "est2"
    nearby_method: str = "fixed"

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.nearby_method not in NEARBY_METHODS:
            raise ValueError(f"unknown nearby method {self.nearby_method!r}")
        if self.kind == "cellular" and self.nearby_method == "greedy":
            raise ValueError("the cellular estimator has no nearby set sizes to sweep")


def best_pair(kind: str, size: int) -> tuple[int, int]:
    """Tuned (nearby-set size, serving cap) for ``kind`` at collision size ``size``.

    The cellular estimator has no nearby set and uses (1, 1) at every size.
    Raises ValueError outside the tuned table instead of guessing a pair.
    """
    if kind == "cellular":
        return 1, 1
    try:
        return BEST_PAIRS[kind][size]
    except KeyError:
        raise ValueError(f"no tuned (nearby size, l_max) pair for {kind!r} "
                         f"at collision size {size}") from None


@dataclass
class UEKnowledge:
    """What one UE, or a batch of UEs, knows when it runs its estimator.

    ``beta_nearby`` holds the gains toward the nearby APs, strongest first,
    shape (n,) or (B, n); a batch pads shorter sets with zero gains, which
    every estimator ignores. ``re_z`` is the real part of the correlated
    downlink observation and ``gamma`` the UE's own power, shape () or (B,).
    """

    gamma: float | np.ndarray
    beta_nearby: np.ndarray
    re_z: float | np.ndarray


def knowledge_for(beta_nearby: np.ndarray, re_z, config: ScenarioConfig) -> UEKnowledge:
    beta_nearby = np.asarray(beta_nearby, dtype=float)
    gamma = config.ul_power_mw * config.num_pilots * beta_nearby.sum(axis=-1)
    return UEKnowledge(gamma=gamma, beta_nearby=beta_nearby,
                       re_z=np.asarray(re_z, dtype=float)[()])


def eps_z(n_antennas: int) -> float:
    """Clamp floor for near-zero observations before division."""
    return 1e-12 * np.sqrt(n_antennas)


def _cte(beta: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    return np.sqrt(config.dl_power_per_ap_mw * config.ul_power_mw) * config.num_pilots * beta


# Every estimator below works on one UE or on a batch: gains reduce over the
# last axis, and squares use np.square so that scalars and arrays round alike.

def _invert(kind: str, cte_sum, re_z, config: ScenarioConfig):
    """Raw est1 or est3 estimate from ``cte_sum``, a set's summed scaled gain or a running sum.

    est3 inverts the compensated, noise-offset rescaling of the observation,
    delta (Re z - sigma) / sqrt(N), with delta = ``config.compensation_factor``.
    """
    n = config.antennas_per_ap
    if kind == "est1":
        return n * np.square(cte_sum / np.maximum(re_z, eps_z(n))) - config.noise_mw
    rez3 = config.compensation_factor * (re_z - np.sqrt(config.noise_mw)) / np.sqrt(n)
    return np.square(cte_sum / np.maximum(rez3, eps_z(n)))


def estimate_2_per_ap(beta: np.ndarray, re_z, config: ScenarioConfig) -> np.ndarray:
    """Closed-form per-AP power split minimizing the total under the observation
    constraint; the sum over APs (the last axis) is the estimate. A zero gain gets 0."""
    n = config.antennas_per_ap
    rez = np.maximum(re_z, eps_z(n))
    cte23 = _cte(np.asarray(beta, dtype=float), config) ** (2.0 / 3.0)
    factor = n * np.square(cte23.sum(axis=-1) / rez)
    return np.where(cte23 > 0.0, np.expand_dims(factor, -1) * cte23 - config.noise_mw, 0.0)


def cpu_alpha_hat(activity: np.ndarray, noise_mw: float) -> np.ndarray:
    """CPU-side per-pilot aggregate of above-noise activity: (..., T, L) -> (..., T)."""
    return np.maximum(activity - noise_mw, 0.0).sum(axis=-1)


def estimate_cellular(beta_k, re_z, config: ScenarioConfig):
    """Single-BS baseline estimate from the gain toward the BS, elementwise."""
    m = config.bs_antennas
    q = config.bs_dl_power_mw
    p = config.ul_power_mw
    tau = config.num_pilots
    rez = np.maximum(re_z, eps_z(m))
    raw = m * q * p * tau ** 2 * np.square(beta_k) / np.square(rez) - config.noise_mw
    return np.maximum(raw, p * tau * beta_k)


def estimate(kind: str, knowledge: UEKnowledge, config: ScenarioConfig):
    """Run estimator ``kind`` on ``knowledge``, floored at the UE's own power.

    est1 inverts the observation assuming equal power per AP, est2 sums the
    closed-form per-AP split, and est3 is the inversion tailored to the
    normalized (power-equalized) precoding. ``cellular`` reads the gain
    toward the one site of the single-BS view, the first (and only) nearby gain.
    """
    beta, re_z = knowledge.beta_nearby, knowledge.re_z
    if kind == "cellular":
        return estimate_cellular(beta[..., 0], re_z, config)
    if kind == "est2":
        raw = estimate_2_per_ap(beta, re_z, config).sum(axis=-1)
    elif kind in ("est1", "est3"):
        raw = _invert(kind, _cte(beta, config).sum(axis=-1), re_z, config)
    else:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return np.maximum(raw, knowledge.gamma)


def sucre_decision(gamma: float, alpha_hat: float) -> bool:
    """True (repeat) iff the UE's own power exceeds half the estimated total;
    elementwise on arrays."""
    return gamma > alpha_hat / 2.0


def _prefix_estimates(kind: str, beta: np.ndarray, re_z, config: ScenarioConfig) -> np.ndarray:
    """Raw estimate of ``kind`` over every prefix of the gains ``beta`` (..., n),
    from running sums; est2's is N (C_s / Re z)^2 C_s - s sigma^2 over s APs."""
    re_z = np.expand_dims(re_z, -1)
    if kind != "est2":
        return _invert(kind, np.cumsum(_cte(beta, config), axis=-1), re_z, config)
    n = config.antennas_per_ap
    c_s = np.cumsum(_cte(beta, config) ** (2.0 / 3.0), axis=-1)
    return (n * np.square(c_s / np.maximum(re_z, eps_z(n))) * c_s
            - np.cumsum(beta > 0.0, axis=-1) * config.noise_mw)


def greedy_flexible_decide(knowledge: UEKnowledge, spec: EstimatorSpec,
                           config: ScenarioConfig):
    """Retransmit if any nearby-set size, from the full natural set down to 1,
    wins the contention rule; all sizes are read at once from running sums.

    Both the estimate and the UE's own-power reference shrink with the set,
    keeping the two sides of the rule consistent at every size. A batch of
    B rows gives B decisions; a zero-padded row repeats its full-set decision.
    """
    gamma_s = config.ul_power_mw * config.num_pilots * np.cumsum(knowledge.beta_nearby, axis=-1)
    raw = _prefix_estimates(spec.kind, knowledge.beta_nearby, knowledge.re_z, config)
    return sucre_decision(gamma_s, np.maximum(raw, gamma_s)).any(axis=-1)
