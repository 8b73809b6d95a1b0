"""Random channels, pilot choice and uplink pilot reception.

Pilots are never materialized: their orthonormality is applied analytically,
so each AP's matched-filter output on pilot t is y_lt = sqrt(p tau_p) times
the sum of the channels of the UEs on t, plus CN(0, sigma^2 I_N) noise.
Given the gains these outputs are independent CN(0, v_lt I_N) vectors, so
an attempt draws them straight from that law (:func:`draw_uplink`) and
never draws the channels behind them. The channels the downlink response
reads are drawn afterwards, at the serving APs only and conditioned on y
(:func:`cfra.access.conditional_channels`), through :func:`draw_channels`
and :func:`correlate_uplink` at one antenna.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .scenario import ScenarioConfig


def _complex_normal(shape, variance, rng: np.random.Generator) -> np.ndarray:
    """CN(0, variance) of the given shape, built in place from two real draws.

    The two public draws share this body instead of calling each other, so a
    wrapper on either one (the benchmark's tracer, the draw-budget test)
    counts every draw exactly once.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= np.sqrt(np.asarray(variance) / 2.0)
    return out


def draw_channels(beta: np.ndarray, n_antennas: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. complex-normal channels with per-entry variance ``beta``.

    Output shape is ``beta.shape + (n_antennas,)``.
    """
    return _complex_normal(np.shape(beta) + (n_antennas,), np.asarray(beta)[..., None], rng)


def complex_noise(shape, variance_mw, rng: np.random.Generator) -> np.ndarray:
    """CN(0, variance) samples of the given shape; ``variance_mw`` broadcasts to it."""
    return _complex_normal(shape, variance_mw, rng)


def select_pilots(num_ues: int, num_pilots: int, rng: np.random.Generator) -> np.ndarray:
    """Each UE picks a pilot i.i.d. uniform from the pool."""
    if num_pilots < 1:
        raise ValueError("num_pilots must be >= 1")
    return rng.integers(0, num_pilots, size=num_ues)


def draw_uplink(alpha_lt: np.ndarray, n_antennas: int, noise_mw: float,
                rng: np.random.Generator) -> np.ndarray:
    """Matched-filter outputs y of shape (..., L, T, N), drawn from their law.

    ``alpha_lt`` (..., T, L) is the true uplink signal power p tau_p sum_k beta_kl
    of each pilot at each AP (:func:`cfra.access.true_alpha_lt`). Given the
    gains, y_lt is CN(0, (alpha_lt + sigma^2) I_N), independent over (l, t):
    the same law as :func:`correlate_uplink` on i.i.d. channels.
    """
    variance = np.swapaxes(alpha_lt, -1, -2)[..., None] + noise_mw     # (..., L, T, 1)
    return complex_noise(variance.shape[:-1] + (n_antennas,), variance, rng)


def correlate_uplink(h: np.ndarray, pilots: np.ndarray, config: ScenarioConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Matched-filter uplink outputs y[..., l, t] of shape (..., L, T, N) for given channels.

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
