"""Random channels, pilot choice and uplink pilot reception.

Pilots are never materialized: their orthonormality is applied analytically,
so the per-(AP, pilot) matched-filter output is generated directly with an
independent effective noise draw per pilot.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .scenario import ScenarioConfig


def draw_channels(beta: np.ndarray, n_antennas: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. complex-normal channels with per-entry variance ``beta``.

    Output shape is ``beta.shape + (n_antennas,)``.
    """
    shape = beta.shape + (n_antennas,)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return np.sqrt(np.asarray(beta)[..., None] / 2.0) * (re + 1j * im)


def complex_noise(shape, variance_mw: float, rng: np.random.Generator) -> np.ndarray:
    """CN(0, variance) samples of the given shape."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return np.sqrt(variance_mw / 2.0) * (re + 1j * im)


def select_pilots(num_ues: int, num_pilots: int, rng: np.random.Generator) -> np.ndarray:
    """Each UE picks a pilot i.i.d. uniform from the pool."""
    if num_pilots < 1:
        raise ValueError("num_pilots must be >= 1")
    return rng.integers(0, num_pilots, size=num_ues)


def correlate_uplink(h: np.ndarray, pilots: np.ndarray, config: ScenarioConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Matched-filter uplink outputs y[..., l, t] of shape (..., L, T, N).

    y[l, t] = sqrt(p * tau_p) * sum over UEs on pilot t of h[k, l], plus an
    effective CN(0, sigma^2 I) noise vector, fresh per (l, t). ``h`` is
    (..., K, L, N); leading axes stack independent realizations.
    """
    *lead, _, n_aps, n_ant = h.shape
    noise = complex_noise((*lead, n_aps, config.num_pilots, n_ant), config.noise_mw, rng)
    amp = np.sqrt(config.ul_power_mw * config.num_pilots)
    return kernels.accumulate_uplink(h, pilots, amp, noise)


def pilot_activity(y: np.ndarray) -> np.ndarray:
    """Per-antenna average received energy ||y_lt||^2 / N, shape (..., T, L)."""
    return received_energy(y) / y.shape[-1]


def received_energy(y: np.ndarray) -> np.ndarray:
    """||y_lt||^2 summed over the antennas, shape (..., T, L)."""
    return np.swapaxes((np.abs(y) ** 2).sum(axis=-1), -1, -2)
