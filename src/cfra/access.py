"""CPU-side pilot-serving-AP allocation and the precoded RA response.

Covers the central heuristic (threshold the activity matrix, keep the
strongest entries per pilot) and the maximum-ratio downlink response that
produces each colliding UE's scalar observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .channel import complex_noise, correlate_uplink, draw_channels
from .estimators import cpu_alpha_hat
from .scenario import ScenarioConfig


@dataclass
class ServingSets:
    """Pilot-serving APs of one draw (T, L), or of draws stacked on leading axes."""

    mask: np.ndarray    # (..., T, L) bool, mask[..., t, l] iff AP l serves pilot t
    order: np.ndarray   # (..., T, L) APs by descending activity, ties to the lower index
    size: np.ndarray    # (..., T) serving APs per pilot: the first ``size`` of ``order``


def build_serving_sets(activity: np.ndarray, l_max: int, noise_mw: float) -> ServingSets:
    """Keep, per pilot, the ``l_max`` strongest APs whose activity exceeds noise.

    ``activity`` is (..., T, L); every row is ranked on its own. Entries at or
    below the noise power are irrelevant and never serve; ties on equal
    activity go to the lower AP index.

    Rows are ranked with numpy's default sort and the mask is a threshold at
    each row's ``l_max``-th largest value: a row of distinct values has one
    descending order, so any sort gives it. Only when some row holds two
    equal activities (a Gamma draw never does), or a NaN, is the stack
    ranked with the stable sort, which sends the tie to the lower AP index.
    """
    n_aps = activity.shape[-1]
    if not 1 <= l_max <= n_aps:
        raise ValueError("l_max out of range")
    size = np.minimum((activity > noise_mw).sum(axis=-1), l_max)
    ranked = np.sort(activity, axis=-1)
    if (ranked[..., 1:] > ranked[..., :-1]).all():
        order = np.argsort(-activity, axis=-1)
        mask = (activity >= ranked[..., n_aps - l_max, None]) & (activity > noise_mw)
        return ServingSets(mask=mask, order=order, size=size)
    order = np.argsort(-activity, axis=-1, kind="stable")
    # rows are ranked, so the above-noise APs are a prefix of each order row
    mask = np.zeros(activity.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(n_aps) < size[..., None], axis=-1)
    return ServingSets(mask=mask, order=order, size=size)


def precoder_weights(activity: np.ndarray, serving_mask: np.ndarray, config: ScenarioConfig,
                     normalized: bool = False):
    """Precoder scale and effective downlink power per (pilot, AP), each (..., T, L).

    Standard precoding points each serving AP's unit-norm beam along its
    received uplink signature y_lt: the scale is sqrt(q tau_p) / ||y_lt||,
    with ||y_lt||^2 = N A_lt read off the activity matrix, and the power is
    q. Normalized precoding divides by sqrt(N alpha_hat_t) instead, where
    alpha_hat_t is the CPU's aggregate :func:`~cfra.estimators.cpu_alpha_hat`
    of the same activity, which spends q ||y_lt||^2 / (N alpha_hat_t)
    = q A_lt / alpha_hat_t. Non-serving entries, and pilots with
    alpha_hat_t = 0, get 0.
    """
    q, n = config.dl_power_per_ap_mw, config.antennas_per_ap
    amplitude = np.sqrt(q * config.num_pilots)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not normalized:
            scale = np.where(serving_mask & (activity > 0),
                             amplitude / np.sqrt(n * activity), 0.0)
            return scale, np.where(serving_mask, q, 0.0)
        alpha_hat = cpu_alpha_hat(activity, config.noise_mw)[..., None]   # (..., T, 1)
        on = serving_mask & (alpha_hat > 0)
        scale = np.where(on, amplitude / np.sqrt(n * alpha_hat), 0.0)
        return scale, np.where(on, (q / alpha_hat) * activity, 0.0)


@dataclass
class DownlinkObservation:
    """Each colliding UE's scalar observation of the RA response."""

    z: np.ndarray              # (..., K) complex correlated DL observation
    served: np.ndarray         # (..., K) bool; False when the UE's pilot is inactive
    effective_dl_power: np.ndarray  # (..., T, L): q_l (standard) or q~_lt on serving entries


def true_alpha_lt(beta_active: np.ndarray, pilots: np.ndarray,
                  config: ScenarioConfig) -> np.ndarray:
    """Ground-truth per-(pilot, AP) UL signal power (..., T, L) of the gain rows (..., K, L)."""
    alpha = np.zeros(beta_active.shape[:-2] + (config.num_pilots, beta_active.shape[-1]))
    for t, members in kernels.pilot_groups(pilots, config.num_pilots):
        alpha[..., t, :] = (config.ul_power_mw * config.num_pilots
                            * beta_active[..., members, :].sum(axis=-2))
    return alpha


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
    independent over (l, t), so ||y_lt||^2 is v_lt times a Gamma(N, 1)
    variable: :func:`cfra.channel.pilot_activity` draws it, divided by N.
    Given y_lt, the channels of pilot t at AP l are jointly Gaussian with
    mean (a beta_kl / v_lt) y_lt and covariance
    (beta_kl [k = j] - a^2 beta_kl beta_jl / v_lt) I_N, so their components
    along u are jointly CN((a beta_kl / v_lt) ||y_lt||, beta_kl [k = j] -
    a^2 beta_kl beta_jl / v_lt): the law of one-antenna channels given a
    one-antenna observation equal to ||y_lt||. Matheron's rule draws it
    exactly: draw a prior one-antenna pair (h0, y0) with
    :func:`cfra.channel.draw_channels` and :func:`cfra.channel.correlate_uplink`,
    then h_p = h0 + (a beta_kl / v_lt) (||y_lt|| - y0_lt). Distinct (l, t)
    are independent given the gains, so all slots are drawn in one call.

    The law of h_p given y reads y only through ||y_lt||, so drawing ||y_lt||
    first and h_p given it is exact, and the direction of y is never drawn.
    Drawing only after the serving sets are chosen keeps the law exact too:
    the serving sets, the CPU's alpha_hat_t and the precoder weights are
    functions of ||y_lt||^2 alone, so conditioning on ||y_lt|| conditions on
    them, and the channels given ||y_lt|| do not depend on which slots were
    selected.

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


def downlink_observation(activity: np.ndarray, serving: ServingSets, beta_active: np.ndarray,
                         alpha_lt: np.ndarray, pilots: np.ndarray,
                         config: ScenarioConfig, rng: np.random.Generator,
                         normalized: bool = False) -> DownlinkObservation:
    """Correlated scalar z_k at every transmitting UE, shape (..., K).

    ``activity`` is the activity matrix A_lt = ||y_lt||^2 / N (..., T, L)
    drawn under the gains ``beta_active`` (..., K, L), whose per-(pilot, AP)
    signal power ``alpha_lt`` (..., T, L) is given by :func:`true_alpha_lt`;
    the leading axes of both broadcast against those of ``activity``, and
    ``serving`` carries them in full.
    The channels are drawn here, at each pilot's serving slots only and
    conditioned on ||y_lt|| = sqrt(N A_lt) (:func:`conditional_channels`).
    ``normalized`` selects normalized precoding (see :func:`precoder_weights`),
    which the compensation-factor estimator needs.
    """
    scale, q_eff = precoder_weights(activity, serving.mask, config, normalized)
    # slot j of pilot t is its j-th strongest AP; slots past size[t] carry scale 0
    slots = serving.order[..., :int(serving.size[..., pilots].max(initial=0))]  # (..., T, J)
    ue_slots = slots[..., pilots, :]                                   # (..., K, J)
    # one gather for every per-(row, AP) table: an open grid over the leading axes
    lead, pilot_rows = slots.shape[:-2], np.arange(slots.shape[-2])
    grid = tuple(i[..., None, None] for i in np.indices(lead, sparse=True))

    def gather(values, rows, at):
        return np.broadcast_to(values, lead + values.shape[-2:])[grid + (rows[:, None], at)]

    energy = config.antennas_per_ap * gather(activity, pilot_rows, slots)
    y_norm = np.swapaxes(np.sqrt(energy), -1, -2)[..., None]          # (..., J, T, 1)
    beta_at = gather(beta_active, np.arange(pilots.size), ue_slots)   # (..., K, J)
    v_at = gather(alpha_lt + config.noise_mw, pilots, ue_slots)
    h = conditional_channels(y_norm, beta_at, v_at, pilots, config, rng)
    eta = complex_noise(beta_at.shape[:-1], config.noise_mw, rng)
    z = kernels.observe_downlink(h, y_norm, pilots, gather(scale, pilot_rows, slots), eta)

    served = serving.mask.any(axis=-1)[..., pilots]
    return DownlinkObservation(z=z, served=served, effective_dl_power=q_eff)
