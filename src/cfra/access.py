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
from .channel import complex_noise, correlate_uplink, draw_channels, received_energy
from .scenario import ScenarioConfig


@dataclass
class ServingSets:
    """Pilot-serving APs of one draw (T, L), or of draws stacked on leading axes."""

    mask: np.ndarray    # (..., T, L) bool, mask[..., t, l] iff AP l serves pilot t
    order: np.ndarray   # (..., T, L) APs by descending activity, ties to the lower index
    size: np.ndarray    # (..., T) serving APs per pilot: the first ``size`` of ``order``

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


def _at_slots(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per-(pilot, AP) ``values`` (..., T, L) at each pilot's slots (..., T, J);
    ``values`` may omit the leading axes of ``slots``."""
    shape = slots.shape[:-1] + values.shape[-1:]
    return np.take_along_axis(np.broadcast_to(values, shape), slots, axis=-1)


def conditional_channels(y_norm: np.ndarray, beta_at: np.ndarray, v_at: np.ndarray,
                         pilots: np.ndarray, config: ScenarioConfig,
                         rng: np.random.Generator) -> np.ndarray:
    """Each UE's channel at the serving slots of its pilot, drawn given the uplink.

    ``y_norm`` (..., J, T, 1) holds ||y_lt|| at slot j of pilot t, ``beta_at``
    (..., K, J) and ``v_at`` (..., K, J) the gain beta_kl and the uplink
    variance v_lt at UE k's slot j. Returns h_p of shape (..., K, J, 1), the
    component u^H h_kl of the channel along u = y_lt / ||y_lt||: the downlink
    reads a channel only through h_kl^H y_lt = ||y_lt|| conj(h_p), so h_p in
    place of h_kl and ||y_lt|| in place of y_lt give the same observation.

    Derivation. Given the gains, h_kl ~ CN(0, beta_kl I_N) independently and
    y_lt = a sum_{k on t} h_kl + n_lt with a = sqrt(p tau_p), n_lt ~ CN(0, sigma^2 I_N).
    So y_lt ~ CN(0, v_lt I_N) with v_lt = a^2 sum_{k on t} beta_kl + sigma^2,
    independent over (l, t), which is how :func:`cfra.channel.draw_uplink`
    draws it. Given y_lt, the channels of pilot t at AP l are jointly Gaussian
    with mean (a beta_kl / v_lt) y_lt and covariance
    (beta_kl [k = j] - a^2 beta_kl beta_jl / v_lt) I_N, so their components
    along u are jointly CN((a beta_kl / v_lt) ||y_lt||, beta_kl [k = j] -
    a^2 beta_kl beta_jl / v_lt): the law of one-antenna channels given a
    one-antenna observation equal to ||y_lt||. Matheron's rule draws it
    exactly: draw a prior one-antenna pair (h0, y0) with
    :func:`cfra.channel.draw_channels` and :func:`cfra.channel.correlate_uplink`,
    then h_p = h0 + (a beta_kl / v_lt) (||y_lt|| - y0_lt). Distinct (l, t)
    are independent given the gains, so all slots are drawn in one call.

    Drawing only after the serving sets are chosen keeps the law exact: the
    serving sets, ``cpu_alpha_hat`` and the precoder weights are functions of
    y alone (of ||y_lt||^2), so conditioning on y conditions on them too, and
    the channels given y do not depend on which slots were selected.

    References: J. T. Wilson et al., "Efficiently Sampling Functions from
    Gaussian Process Posteriors", ICML 2020; A. Doucet, "A note on efficient
    conditional simulation of Gaussian distributions", 2010.
    """
    amp = np.sqrt(config.ul_power_mw * config.num_pilots)
    h = draw_channels(beta_at, 1, rng)                                   # (..., K, J, 1)
    y0 = correlate_uplink(h, pilots, config, rng)                        # (..., J, T, 1)
    residual = np.swapaxes(y_norm[..., pilots, 0] - y0[..., pilots, 0], -1, -2)
    h[..., 0] += (amp * beta_at / v_at) * residual
    return h


def downlink_observation(y: np.ndarray, serving: ServingSets, beta_active: np.ndarray,
                         alpha_lt: np.ndarray, pilots: np.ndarray,
                         config: ScenarioConfig, rng: np.random.Generator,
                         precoding_kind: str = "standard",
                         cpu_alpha_hat: np.ndarray | None = None) -> DownlinkObservation:
    """Correlated scalar z_k at every transmitting UE, shape (..., K).

    ``y`` is the uplink (..., L, T, N) drawn under the gains ``beta_active``
    (K, L), whose per-(pilot, AP) signal power ``alpha_lt`` (T, L) is given by
    :func:`true_alpha_lt`; ``serving`` and ``cpu_alpha_hat`` carry the leading
    axes of ``y``. The channels are drawn here, at each pilot's serving slots
    only and conditioned on y (:func:`conditional_channels`). Normalized
    precoding (see :func:`precoder_weights`) is required when the UEs apply
    the compensation-factor estimator; ``cpu_alpha_hat`` must be given
    exactly in that case.
    """
    if precoding_kind not in ("standard", "normalized"):
        raise ValueError(f"unknown precoding kind {precoding_kind!r}")
    if (cpu_alpha_hat is None) != (precoding_kind == "standard"):
        raise ValueError("cpu_alpha_hat must be provided iff precoding is normalized")

    scale, q_eff = precoder_weights(y, serving.mask, config.dl_power_per_ap_mw,
                                    config.num_pilots, cpu_alpha_hat)
    # slot j of pilot t is its j-th strongest AP; slots past size[t] carry scale 0
    slots = serving.order[..., :int(serving.size[..., pilots].max(initial=0))]  # (..., T, J)
    y_norm = np.swapaxes(np.sqrt(_at_slots(received_energy(y), slots)), -1, -2)[..., None]
    beta_at = beta_active[np.arange(pilots.size)[:, None], slots[..., pilots, :]]  # (..., K, J)
    v_at = _at_slots(alpha_lt + config.noise_mw, slots)[..., pilots, :]
    h = conditional_channels(y_norm, beta_at, v_at, pilots, config, rng)
    eta = complex_noise(beta_at.shape[:-1], config.noise_mw, rng)
    z = kernels.observe_downlink(h, y_norm, pilots, _at_slots(scale, slots), eta)

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
