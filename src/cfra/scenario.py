"""Scenario configuration, unit conversion, topology and natural nearby sets.

All internal computation is done in linear scale (mW, meters); dB/dBm only
appear at the configuration and reporting boundaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

# Distances are clamped from below so a UE dropped exactly on top of an AP
# does not produce an infinite channel gain.
MIN_DISTANCE_M = 1e-9


def db_to_linear(value_db):
    """Convert dB to linear scale (dBm inputs give mW)."""
    return 10.0 ** (value_db / 10.0)


def check_fields(config) -> None:
    """Reject ``int`` fields that are not integers >= 1 (a bool is not) and non-finite floats."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and not (isinstance(value, numbers.Integral)
                                    and not isinstance(value, bool) and value >= 1):
            raise ValueError(f"{f.name} must be an integer >= 1, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and protocol constants plus experiment controls.

    Power fields ending in ``_db``/``_dbm`` are in log scale; ``_mw`` fields
    are linear milliwatts. Defaults correspond to the reference 400 m square
    with an 8x8 AP grid.
    """

    square_length_m: float = 400.0
    power_constant_db: float = -30.5
    pathloss_exponent: float = 3.67
    noise_power_dbm: float = -94.0
    num_pilots: int = 5
    num_aps: int = 64
    antennas_per_ap: int = 8
    dl_power_per_ap_mw: float = 200.0 / 64.0
    ul_power_mw: float = 100.0
    compensation_factor: float = 8.0
    num_inactive_ues: int = 5000
    access_probability: float = 0.001
    bs_antennas: int = 64
    bs_dl_power_mw: float = 200.0
    max_attempts: int = 10
    reattempt_probability: float = 0.5
    l_max: int = 10

    def __post_init__(self):
        check_fields(self)
        if not self.square_length_m > 0.0:
            raise ValueError("square_length_m must be positive")
        if not self.pathloss_exponent > 0.0:
            raise ValueError("pathloss_exponent must be positive")
        if math.isqrt(self.num_aps) ** 2 != self.num_aps:
            raise ValueError(f"num_aps={self.num_aps} is not a perfect square; "
                             "grid placement undefined")
        if not self.l_max <= self.num_aps:
            raise ValueError("l_max must lie in [1, num_aps]")
        if not 0.0 <= self.access_probability <= 1.0:
            raise ValueError("access_probability must lie in [0, 1]")
        if not 0.0 <= self.reattempt_probability <= 1.0:
            raise ValueError("reattempt_probability must lie in [0, 1]")
        if not self.ul_power_mw >= 0.0:
            raise ValueError("ul_power_mw must be >= 0")
        if not self.dl_power_per_ap_mw > 0.0:
            raise ValueError("dl_power_per_ap_mw must be positive")
        if not self.bs_dl_power_mw > 0.0:
            raise ValueError("bs_dl_power_mw must be positive")
        if not self.compensation_factor >= 1.0:
            raise ValueError("compensation_factor must be >= 1")
        for name in ("noise_power_dbm", "power_constant_db"):
            try:   # 10 ** (dB / 10) overflows past ~3082 dB and underflows to 0
                positive = db_to_linear(getattr(self, name)) > 0.0
            except OverflowError:
                positive = False
            if not positive:
                raise ValueError(f"{name}: linear power must be finite and > 0")

    # Derived once per instance; the cached values live outside the fields,
    # so equality, hashing and asdict() are unaffected.
    @cached_property
    def noise_mw(self) -> float:
        return db_to_linear(self.noise_power_dbm)

    @cached_property
    def omega_lin(self) -> float:
        return db_to_linear(self.power_constant_db)

    @cached_property
    def bs_config(self) -> ScenarioConfig:
        """The single-BS site's config: one M-antenna BS with the BS power budget."""
        return replace(self, antennas_per_ap=self.bs_antennas,
                       dl_power_per_ap_mw=self.bs_dl_power_mw, num_aps=1, l_max=1)


# the field annotations are strings (postponed evaluation), so map them by name
_PARSERS = {"int": int, "float": float}


def load_config(path) -> ScenarioConfig:
    """Read a flat ``key = value`` config file; each value takes its field's type."""
    known = {f.name: f.type for f in fields(ScenarioConfig)}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[known[key]](val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    try:
        return ScenarioConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class Topology:
    """One site's AP positions, UE positions and their ``[ue, ap]`` channel-gain table.

    The site is the AP grid (:func:`build_topology`) or the BS (:func:`bs_topology`),
    and ``config`` is the one a run on it reads. The table is computed when the
    topology is built and is read-only. A campaign grows its topology of
    activated UEs with :meth:`joined`, so no gain row is ever computed twice.
    """

    def __init__(self, ap_positions: np.ndarray, ue_positions: np.ndarray,
                 config: ScenarioConfig, beta: np.ndarray | None = None):
        self.ap_positions = ap_positions
        self.ue_positions = ue_positions
        self.config = config
        if beta is None:
            beta = pathloss_beta(_distances(ue_positions, ap_positions), config)
        beta.flags.writeable = False
        self.beta = beta

    def joined(self, other: Topology) -> Topology:
        """This topology's UEs followed by ``other``'s, on the same APs and config.

        The gain rows are copied, not recomputed.
        """
        return Topology(self.ap_positions, np.concatenate([self.ue_positions, other.ue_positions]),
                        self.config, np.concatenate([self.beta, other.beta]))


def _distances(ue_positions: np.ndarray, ap_positions: np.ndarray) -> np.ndarray:
    dx = ue_positions[:, None, 0] - ap_positions[None, :, 0]
    dy = ue_positions[:, None, 1] - ap_positions[None, :, 1]
    dx *= dx
    dx += np.square(dy, out=dy)
    return np.sqrt(dx, out=dx)


@lru_cache(maxsize=None)
def ap_grid(num_aps: int, square_length_m: float) -> np.ndarray:
    """Centered uniform sqrt(L) x sqrt(L) grid; rejects non-square L.

    Built once per layout and shared read-only: the bench and the
    calibration drop a fresh topology for every setup.
    """
    side = math.isqrt(num_aps)
    if side * side != num_aps:
        raise ValueError(f"num_aps={num_aps} is not a perfect square; grid placement undefined")
    pitch = square_length_m / side
    coords = pitch / 2.0 + pitch * np.arange(side)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    grid.flags.writeable = False
    return grid


def pathloss_beta(distances: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Average channel gain Omega * d^(-zeta) in linear scale."""
    beta = np.maximum(distances, MIN_DISTANCE_M)      # a copy: ``distances`` is never written
    beta **= -config.pathloss_exponent
    beta *= config.omega_lin
    return beta


def build_topology(config: ScenarioConfig, rng: np.random.Generator,
                   num_ues: int) -> Topology:
    """Place the AP grid and drop ``num_ues`` UEs (:func:`drop_ues`)."""
    return Topology(ap_grid(config.num_aps, config.square_length_m),
                    drop_ues(config, rng, num_ues), config)


def drop_ues(config: ScenarioConfig, rng: np.random.Generator, num_ues: int) -> np.ndarray:
    """Positions (K, 2) of ``num_ues`` UEs dropped i.i.d. uniform on the square."""
    return rng.uniform(0.0, config.square_length_m, size=(num_ues, 2))


def bs_topology(config: ScenarioConfig, ue_positions: np.ndarray) -> Topology:
    """The given UEs under ``config.bs_config``: one 'AP' at the square center."""
    return Topology(ap_grid(1, config.square_length_m), np.asarray(ue_positions, dtype=float),
                    config.bs_config)


def limit_distance(config: ScenarioConfig) -> float:
    """Radius in meters inside which a UE hears an AP above the noise."""
    base = config.omega_lin * config.dl_power_per_ap_mw / config.noise_mw
    return base ** (1.0 / config.pathloss_exponent)


def natural_sets(beta: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Natural nearby sets of the UEs whose gain rows are ``beta`` (K, L).

    Returns the (K, L) mask of the APs each UE hears above noise,
    q_l beta_kl > sigma^2. A UE that hears none keeps its strongest AP, the
    lower index on a tie, so every set is non-empty.
    """
    members = config.dl_power_per_ap_mw * beta > config.noise_mw
    deaf = np.flatnonzero(~members.any(axis=1))
    members[deaf, beta[deaf].argmax(axis=1)] = True
    return members
