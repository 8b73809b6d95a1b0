"""Batched numpy kernels: uplink accumulation and downlink observation.

Both consume pre-drawn random arrays, so their results depend only on the
inputs, and both take any number of leading axes (realizations, draws): a
stacked call equals the per-slice calls bit for bit. The campaigns, the
estimator bench and the calibration all run these two functions.
"""

from __future__ import annotations

import numpy as np


def pilot_groups(pilots, num_pilots):
    """Yield ``(t, members)`` for every used pilot t, members in UE order.

    One stable sort of ``pilots`` replaces a ``pilots == t`` scan per pilot.
    """
    by_pilot = np.argsort(pilots, kind="stable")
    end = 0
    for t, n in enumerate(np.bincount(pilots, minlength=num_pilots).tolist()):
        if n:
            yield t, by_pilot[end:end + n]
            end += n


def accumulate_uplink(h, pilots, amp, noise):
    """Per-pilot matched-filter output at every AP.

    h: (..., K, L, N) complex channels, pilots: (K,) pilot index per UE,
    amp: scalar sqrt(p * tau_p), noise: (..., L, T, N) complex.
    Returns y with y[..., l, t] = amp * sum_{k: pilots[k]=t} h[..., k, l] + noise[..., l, t];
    the channels of a pilot are summed in UE order before scaling.
    """
    y = noise.copy()
    for t, members in pilot_groups(pilots, noise.shape[-2]):
        if members[-1] - members[0] + 1 == members.size:   # a run of UEs: no gather copy
            members = slice(members[0], members[-1] + 1)
        y[..., t, :] = amp * h[..., members, :, :].sum(axis=-3) + noise[..., t, :]
    return y


def observe_downlink(h, y, pilots, scale, dl_noise):
    """Scalar downlink observation per UE after pilot correlation.

    scale: (..., T, L) real weights folding serving membership and precoder
    normalization; zero entries mean the AP does not serve that pilot.
    dl_noise: (..., K) complex receiver noise. Returns z of shape (..., K).
    """
    y_k = y[..., pilots, :]                                   # (..., L, K, N), a copy
    np.conjugate(y_k, out=y_k)
    # conj(sum h * conj(y)) equals sum conj(h) * y bit for bit, without copying h
    corr = np.conj(np.einsum("...kln,...lkn->...kl", h, y_k))  # (..., K, L)
    return dl_noise + (scale[..., pilots, :] * corr).sum(axis=-1)
