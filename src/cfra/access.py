"""CPU-side pilot-serving-AP allocation and the precoded RA response.

Covers the central heuristic (threshold the activity matrix, keep the
strongest entries per pilot) and the maximum-ratio downlink response that
produces each colliding UE's scalar observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import kernels
from .channel import complex_noise
from .scenario import ScenarioConfig


@dataclass
class ServingSets:
    """Pilot-serving APs in both views: per pilot (p_t) and per AP (t_l)."""

    mask: np.ndarray          # (T, L) bool, mask[t, l] iff AP l serves pilot t
    p_t: list                 # per pilot: AP indices ordered by descending activity
    t_l: list                 # per AP: served pilot indices
    operative_aps: np.ndarray  # APs serving at least one pilot


def build_serving_sets(activity: np.ndarray, l_max: int, noise_mw: float) -> ServingSets:
    """Keep, per pilot, the ``l_max`` strongest APs whose activity exceeds noise.

    Entries at or below the noise power are irrelevant and never serve; ties
    on equal activity go to the lower AP index.
    """
    n_pilots, n_aps = activity.shape
    if not 1 <= l_max <= n_aps:
        raise ValueError("l_max out of range")
    mask = np.zeros((n_pilots, n_aps), dtype=bool)
    p_t = []
    for t in range(n_pilots):
        row = activity[t]
        order = np.argsort(-row, kind="stable")
        keep = order[row[order] > noise_mw][:l_max]
        mask[t, keep] = True
        p_t.append(keep)
    t_l = [np.flatnonzero(mask[:, l]) for l in range(n_aps)]
    return ServingSets(mask=mask, p_t=p_t, t_l=t_l,
                       operative_aps=np.flatnonzero(mask.any(axis=0)))


def serving_sets_from_mask(mask: np.ndarray, activity: np.ndarray) -> ServingSets:
    """Rebuild the dual views from a membership mask (ordering by activity)."""
    n_pilots, n_aps = mask.shape
    p_t = []
    for t in range(n_pilots):
        members = np.flatnonzero(mask[t])
        order = np.argsort(-activity[t, members], kind="stable")
        p_t.append(members[order])
    t_l = [np.flatnonzero(mask[:, l]) for l in range(n_aps)]
    return ServingSets(mask=mask, p_t=p_t, t_l=t_l,
                       operative_aps=np.flatnonzero(mask.any(axis=0)))


@dataclass
class DownlinkObservation:
    """Each colliding UE's scalar observation of the RA response."""

    z: np.ndarray              # (K,) complex correlated DL observation
    served: np.ndarray         # (K,) bool; False when the UE's pilot is inactive
    precoding_kind: str        # "standard" | "normalized"
    effective_dl_power: np.ndarray  # (T, L): q_l (standard) or q~_lt on serving entries
    large_n: Callable[[], np.ndarray] = field(repr=False)  # evaluates z_tilde

    @cached_property
    def z_tilde(self) -> np.ndarray:
        """(K,) deterministic large-N approximation of Re(z)/sqrt(N).

        Evaluated on first access only; the access protocols never read it.
        """
        return self.large_n()


def true_alpha_lt(beta_active: np.ndarray, pilots: np.ndarray,
                  config: ScenarioConfig) -> np.ndarray:
    """Ground-truth per-(pilot, AP) UL signal power, shape (T, L)."""
    n_pilots = config.num_pilots
    alpha = np.zeros((n_pilots, beta_active.shape[1]))
    for t in range(n_pilots):
        on_t = pilots == t
        if on_t.any():
            alpha[t] = config.ul_power_mw * config.num_pilots * beta_active[on_t].sum(axis=0)
    return alpha


def downlink_observation(y: np.ndarray, serving: ServingSets, h: np.ndarray,
                         beta_active: np.ndarray, pilots: np.ndarray,
                         config: ScenarioConfig, rng: np.random.Generator,
                         precoding_kind: str = "standard",
                         cpu_alpha_hat: np.ndarray | None = None,
                         dl_power_mw: float | None = None) -> DownlinkObservation:
    """Correlated scalar z_k at every transmitting UE.

    Standard precoding points each AP's unit-norm beam along its received
    uplink signature; normalized precoding divides by sqrt(N * alpha_hat_t)
    instead, which is required when the UEs apply the compensation-factor
    estimator. ``cpu_alpha_hat`` must be given exactly in that case.
    """
    if precoding_kind not in ("standard", "normalized"):
        raise ValueError(f"unknown precoding kind {precoding_kind!r}")
    if (cpu_alpha_hat is None) != (precoding_kind == "standard"):
        raise ValueError("cpu_alpha_hat must be provided iff precoding is normalized")
    if dl_power_mw is None:
        dl_power_mw = config.dl_power_per_ap_mw

    n_ues, n_aps, n_ant = h.shape
    tau_p = config.num_pilots
    y_norm_sq = (np.abs(y) ** 2).sum(axis=2)          # (L, T)
    mask_lt = serving.mask.T                          # (L, T)

    scale = np.zeros((n_aps, tau_p))
    q_eff = np.zeros((tau_p, n_aps))
    if precoding_kind == "standard":
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(mask_lt & (y_norm_sq > 0),
                             np.sqrt(dl_power_mw * tau_p) / np.sqrt(y_norm_sq), 0.0)
        q_eff = np.where(serving.mask, dl_power_mw, 0.0)
    else:
        denom = n_ant * cpu_alpha_hat                  # (T,)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(mask_lt & (denom[None, :] > 0),
                             np.sqrt(dl_power_mw * tau_p) / np.sqrt(denom)[None, :], 0.0)
            q_eff = np.where(serving.mask & (denom[:, None] > 0),
                             (dl_power_mw / denom[:, None]) * y_norm_sq.T, 0.0)

    eta = complex_noise((n_ues,), config.noise_mw, rng)
    z = kernels.observe_downlink(h, y, pilots, scale, eta)

    served = serving.mask.any(axis=1)[pilots]
    return DownlinkObservation(
        z=z, served=served, precoding_kind=precoding_kind, effective_dl_power=q_eff,
        large_n=partial(large_n_observation, beta_active, pilots, serving.mask, config,
                        dl_power_mw, cpu_alpha_hat))


def large_n_observation(beta_active: np.ndarray, pilots: np.ndarray,
                        serving_mask: np.ndarray, config: ScenarioConfig,
                        dl_power_mw: float,
                        cpu_alpha_hat: np.ndarray | None = None) -> np.ndarray:
    """Deterministic large-N value of Re(z_k)/sqrt(N) for every UE, shape (K,).

    Standard precoding (``cpu_alpha_hat`` is None) weighs each serving AP by
    1/sqrt(alpha_lt + sigma^2); normalized precoding divides the summed
    gains by sqrt(alpha_hat_t). UEs on an unserved pilot, or on a pilot with
    alpha_hat_t = 0, get 0.
    """
    cte = np.sqrt(dl_power_mw * config.ul_power_mw) * config.num_pilots * beta_active  # (K, L)
    if cpu_alpha_hat is None:
        alpha_lt = true_alpha_lt(beta_active, pilots, config)
        per_ap = cte / np.sqrt(alpha_lt + config.noise_mw)[pilots]
        return np.where(serving_mask[pilots], per_ap, 0.0).sum(axis=1)
    summed = np.where(serving_mask[pilots], cte, 0.0).sum(axis=1)
    alpha_k = cpu_alpha_hat[pilots]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(alpha_k > 0, summed / np.sqrt(alpha_k), 0.0)
