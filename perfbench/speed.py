"""Machine-speed reference, interleaved with the ops of a run.

On a shared 2-core VM, the same op with the same inputs was measured at
244 ms and at 433 ms within one minute: the host alternates between fast
and slow phases lasting 10-20 s, and all code slows with it, though not
by the same factor. A fixed reference kernel, timed every ``INTERVAL_S``
between ops, tracks those phases. Each op's latency is scaled by ``NOMINAL_S`` over the median
reference time within ``WINDOW_S`` of the op, giving its latency at nominal
machine speed. The kernel touches no cfra code, so a change to cfra moves
the op times and not the reference.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.25
WINDOW_S = 3.0
# Typical kernel time on a 2-core Intel Xeon VM (Python 3.11, numpy 2.4) in
# a fast phase; it only sets the scale of the corrected times.
NOMINAL_S = 0.003

_UES = np.random.default_rng(0).uniform(0.0, 400.0, size=(1000, 1, 2))
_APS = np.random.default_rng(1).uniform(0.0, 400.0, size=(1, 64, 2))


def reference_kernel() -> float:
    """Interpreter arithmetic, a distance/path-loss table and a normal draw.

    Timed against campaign and offline ops over 100 s of fast and slow
    phases, these three tracked the ops best (the log-residual of the
    smoothed op time fell from 0.10-0.12 to 0.05-0.06); a plain
    memory-bandwidth pass did not track them at all.
    """
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    gains = np.sqrt(((_UES - _APS) ** 2).sum(axis=2)) ** -3.67
    draw = np.random.default_rng(2).standard_normal(50_000)
    return acc + float(gains.sum()) + float(draw.sum())


class SpeedProbe:
    """Reference-kernel samples taken during a run, and per-op speed factors."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.times and now - self.times[-1] < INTERVAL_S:
            return
        reference_kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.durations.append(end - now)
        self.spent += end - now

    def factor_now(self, samples: int = 5) -> float:
        """Nominal over the median of ``samples`` back-to-back reference runs."""
        durations = []
        for _ in range(samples):
            start = time.perf_counter()
            reference_kernel()
            durations.append(time.perf_counter() - start)
        return NOMINAL_S / float(np.median(durations))

    def factors(self, at) -> np.ndarray:
        """Nominal over local reference time, for each instant in ``at``."""
        times = np.asarray(self.times)
        durations = np.asarray(self.durations)
        at = np.asarray(at, dtype=float)
        lo = np.searchsorted(times, at - WINDOW_S)
        hi = np.searchsorted(times, at + WINDOW_S)
        out = np.empty(at.size)
        for j in range(at.size):
            window = durations[lo[j]:hi[j]]
            if window.size == 0:
                nearest = min(int(lo[j]), times.size - 1)
                window = durations[nearest:nearest + 1]
            out[j] = NOMINAL_S / float(np.median(window))
        return out
