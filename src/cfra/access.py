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
from .channel import complex_noise, received_energy
from .scenario import ScenarioConfig


@dataclass
class ServingSets:
    """Pilot-serving APs of one draw (T, L), or of draws stacked on leading axes."""

    mask: np.ndarray    # (..., T, L) bool, mask[..., t, l] iff AP l serves pilot t
    order: np.ndarray   # (..., T, L) APs by descending activity, ties to the lower index
    size: np.ndarray    # (..., T) serving APs per pilot: the first ``size`` of ``order``

    @cached_property
    def p_t(self) -> list:
        """Per pilot (leading axes flattened): serving APs by descending activity."""
        rows = self.order.reshape(-1, self.order.shape[-1])
        return [row[:n] for row, n in zip(rows, self.size.ravel().tolist())]

    @cached_property
    def operative_aps(self) -> np.ndarray:
        """APs serving at least one pilot of a single (T, L) draw."""
        return np.flatnonzero(self.mask.any(axis=-2))


def build_serving_sets(activity: np.ndarray, l_max: int, noise_mw: float) -> ServingSets:
    """Keep, per pilot, the ``l_max`` strongest APs whose activity exceeds noise.

    ``activity`` is (..., T, L); every row is ranked on its own. Entries at or
    below the noise power are irrelevant and never serve; ties on equal
    activity go to the lower AP index.
    """
    n_aps = activity.shape[-1]
    if not 1 <= l_max <= n_aps:
        raise ValueError("l_max out of range")
    order = np.argsort(-activity, axis=-1, kind="stable")
    # rows are ranked, so the above-noise APs are a prefix of each order row
    size = np.minimum((activity > noise_mw).sum(axis=-1), l_max)
    mask = np.zeros(activity.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(n_aps) < size[..., None], axis=-1)
    return ServingSets(mask=mask, order=order, size=size)


def precoder_weights(y: np.ndarray, serving_mask: np.ndarray, dl_power_mw: float,
                     num_pilots: int, cpu_alpha_hat: np.ndarray | None = None):
    """Precoder scale and effective downlink power per (pilot, AP), each (..., T, L).

    Standard precoding (``cpu_alpha_hat`` is None) points each serving AP's
    unit-norm beam along its received uplink signature y_lt: the scale is
    sqrt(q tau_p) / ||y_lt|| and the power is q. Normalized precoding divides
    by sqrt(N alpha_hat_t) instead, which spends q ||y_lt||^2 / (N alpha_hat_t).
    Non-serving entries, and pilots with alpha_hat_t = 0, get 0.
    """
    energy = received_energy(y)
    amplitude = np.sqrt(dl_power_mw * num_pilots)
    with np.errstate(divide="ignore", invalid="ignore"):
        if cpu_alpha_hat is None:
            scale = np.where(serving_mask & (energy > 0), amplitude / np.sqrt(energy), 0.0)
            return scale, np.where(serving_mask, dl_power_mw, 0.0)
        denom = (y.shape[-1] * cpu_alpha_hat)[..., None]      # (..., T, 1)
        on = serving_mask & (denom > 0)
        scale = np.where(on, amplitude / np.sqrt(denom), 0.0)
        return scale, np.where(on, (dl_power_mw / denom) * energy, 0.0)


@dataclass
class DownlinkObservation:
    """Each colliding UE's scalar observation of the RA response."""

    z: np.ndarray              # (..., K) complex correlated DL observation
    served: np.ndarray         # (..., K) bool; False when the UE's pilot is inactive
    precoding_kind: str        # "standard" | "normalized"
    effective_dl_power: np.ndarray  # (..., T, L): q_l (standard) or q~_lt on serving entries
    large_n: Callable[[], np.ndarray] = field(repr=False)  # evaluates z_tilde

    @cached_property
    def z_tilde(self) -> np.ndarray:
        """(..., K) deterministic large-N approximation of Re(z)/sqrt(N).

        Evaluated on first access only; the access protocols never read it.
        """
        return self.large_n()


def true_alpha_lt(beta_active: np.ndarray, pilots: np.ndarray,
                  config: ScenarioConfig) -> np.ndarray:
    """Ground-truth per-(pilot, AP) UL signal power, shape (T, L)."""
    alpha = np.zeros((config.num_pilots, beta_active.shape[1]))
    for t, members in kernels.pilot_groups(pilots, config.num_pilots):
        alpha[t] = config.ul_power_mw * config.num_pilots * beta_active[members].sum(axis=0)
    return alpha


def downlink_observation(y: np.ndarray, serving: ServingSets, h: np.ndarray,
                         beta_active: np.ndarray, pilots: np.ndarray,
                         config: ScenarioConfig, rng: np.random.Generator,
                         precoding_kind: str = "standard",
                         cpu_alpha_hat: np.ndarray | None = None) -> DownlinkObservation:
    """Correlated scalar z_k at every transmitting UE, shape (..., K).

    ``h`` is (..., K, L, N) and ``y``, ``serving`` and ``cpu_alpha_hat`` carry
    the same leading axes. Normalized precoding (see :func:`precoder_weights`)
    is required when the UEs apply the compensation-factor estimator;
    ``cpu_alpha_hat`` must be given exactly in that case.
    """
    if precoding_kind not in ("standard", "normalized"):
        raise ValueError(f"unknown precoding kind {precoding_kind!r}")
    if (cpu_alpha_hat is None) != (precoding_kind == "standard"):
        raise ValueError("cpu_alpha_hat must be provided iff precoding is normalized")

    scale, q_eff = precoder_weights(y, serving.mask, config.dl_power_per_ap_mw,
                                    config.num_pilots, cpu_alpha_hat)
    eta = complex_noise(h.shape[:-2], config.noise_mw, rng)
    z = kernels.observe_downlink(h, y, pilots, scale, eta)

    served = serving.mask.any(axis=-1)[..., pilots]
    return DownlinkObservation(
        z=z, served=served, precoding_kind=precoding_kind, effective_dl_power=q_eff,
        large_n=partial(large_n_observation, beta_active, pilots, serving.mask, config,
                        cpu_alpha_hat))


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
