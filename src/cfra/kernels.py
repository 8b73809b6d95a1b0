"""Batched numpy kernels: uplink accumulation and downlink observation.

Both consume pre-drawn random arrays, so their results depend only on the
inputs. Each sums in the same order as a per-UE loop and is bit-identical
to one.
"""

from __future__ import annotations

import numpy as np


def accumulate_uplink(h, pilots, amp, noise):
    """Per-pilot matched-filter output at every AP.

    h: (K, L, N) complex channels, pilots: (K,) pilot index per UE,
    amp: scalar sqrt(p * tau_p), noise: (L, T, N) complex.
    Returns y with y[l, t] = amp * sum_{k: pilots[k]=t} h[k, l] + noise[l, t].
    """
    y = noise.copy()
    for t in np.unique(pilots):
        members = np.flatnonzero(pilots == t)
        # a reduction over the leading axis adds the rows one after another,
        # noise first, exactly like accumulating UE by UE
        y[:, t] = np.concatenate([noise[None, :, t], amp * h[members]]).sum(axis=0)
    return y


def observe_downlink(h, y, pilots, scale, dl_noise):
    """Scalar downlink observation per UE after pilot correlation.

    scale: (L, T) real weights folding serving membership and precoder
    normalization; zero entries mean the AP does not serve that pilot.
    dl_noise: (K,) complex receiver noise. Returns z of shape (K,).
    """
    y_k = y[:, pilots].transpose(1, 0, 2)                 # (K, L, N): each UE's pilot
    corr = (np.conj(h) * y_k).sum(axis=2)                 # (K, L)
    return dl_noise + (scale[:, pilots].T * corr).sum(axis=1)
