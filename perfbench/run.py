"""cfra benchmark: one workload, one process, a closed loop with one client.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-sparse --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``campaign-sparse``: access campaigns at |U| = 10 000, p = 0.001, cycling
  bcf, cf-sucre/est2/greedy, cf-sucre/est3/fixed and ce-sucre/cellular.
* ``campaign-dense``: the same mix at |U| = 50 000 (overload).
* ``offline-phy``: estimator bench, delta calibration and l_max training.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(script start to the first timed op, including the ``cfra`` import and one
warm-up op; median of the run's own set-up and ``SETUP_PROBES`` fresh
processes, each scaled by the reference kernel timed right after it),
``ops_per_s`` (timed ops over their summed latency), ``op_p50_ms``,
``op_tail_ms`` (highest percentile leaving >= 10 ops above it, recorded in
the report) and ``peak_rss_mb``. ``failed_share`` is printed with them and carried by the
``attempted``/``failed`` fields of the result. With ``--trace 1`` the named
layer functions are wrapped (``tracing.py``) and the run reports per-layer
calls, self time and counters per timed op, plus ``setup.import_s`` and
``trace.overhead_ratio``.

Op times are scaled to nominal machine speed by a reference kernel timed
between ops (``speed.py``); the unscaled figures are in the report line.
BLAS/OpenMP threads are capped at 1 and glibc's mmap threshold is pinned,
and both settings are recorded with the environment.

Every op's output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is a JSON report with the environment, the output digest, tail percentile,
span statistics and anything missing from the trace.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
WARMUP_STREAM = 2**32 - 1      # op index reserved for the warm-up op's generator
REPLAY_SHARE = 0.2             # share of --seconds replayed untraced for the overhead ratio
MIN_TAIL_SAMPLES = 10
# glibc raises its mmap threshold each time a large mmapped block is freed, so
# whether a 25 MB array lands on the heap depends on the allocation history and
# peak RSS came out bimodal across seeds (207 or 229 MB on campaign-dense).
# Pinning the threshold at glibc's own ceiling (32 MiB) gives the state the
# dynamic rule converges to, from the first allocation on.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign-sparse", "campaign-dense", "offline-phy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up op, print set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _pin_mmap_threshold():
    """Fix glibc's mmap threshold; returns the value set, or None off glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    return MMAP_THRESHOLD_BYTES if libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) else None


def _environment(np, mmap_threshold):
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    dirty = None if sha is None else bool(_git("status", "--porcelain", "--untracked-files=no"))
    scipy = sys.modules.get("scipy")
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "malloc_mmap_threshold": mmap_threshold,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def _run_setup_probes(args):
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{out.stderr}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _tail(latencies, percentile):
    """Latency at ``percentile``, stepped down until >= 10 samples lie above it."""
    import numpy as np

    lat = np.asarray(latencies)
    q = percentile
    while q > 0.5 and lat.size * (1.0 - q) < MIN_TAIL_SAMPLES:
        q = round(q - 0.05, 2)
    value = float(np.quantile(lat, q))
    return value, q, int((lat > value).sum())


class Failures:
    """Failed-op count plus the first few messages."""

    def __init__(self):
        self.count = 0
        self.messages = []

    def add(self, n, message):
        self.count += n
        if len(self.messages) < 10:
            self.messages.append(message)


def _run_op(op, rng, failures, where):
    """Run and check one op; return (result or None on failure, start, end).

    Only ``op.run`` lies between start and end.
    """
    start = time.perf_counter()
    try:
        result = op.run(rng)
    except Exception:  # a failed op is counted, and the loop goes on
        result = None
        failures.add(1, f"{where} {op.label} raised:\n{traceback.format_exc()}")
    end = time.perf_counter()
    if result is not None:
        problems = op.check(result)
        if problems:
            result = None
            failures.add(1, f"{where} {op.label}: {'; '.join(problems)}")
    return result, start, end


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    mmap_threshold = _pin_mmap_threshold()

    src = ROOT / "src"
    if not (src / "cfra" / "__init__.py").is_file():
        print(f"error: no cfra sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t_import = time.perf_counter()
    import cfra
    import_s = time.perf_counter() - t_import
    if not Path(cfra.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: cfra imported from {cfra.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    import speed
    import tracing
    import workloads

    workload = workloads.build(args.workload)
    cycle = workload.cycle
    failures = Failures()
    _run_op(cycle[0], np.random.default_rng([args.seed, WARMUP_STREAM]), failures, "warm-up")
    setup_raw = time.perf_counter() - _T_START
    probe = speed.SpeedProbe()
    setup_self = setup_raw * probe.factor_now()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_self, "unscaled_s": setup_raw}))
        return 0

    setup_samples = [setup_self] if args.trace else [setup_self] + _run_setup_probes(args)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    latencies, mids = [], []
    digest = hashlib.sha256()
    digest_ops = 0
    anaa = defaultdict(list)
    labels = defaultdict(int)
    probe.sample(force=True)
    t0 = time.perf_counter()
    i = 0
    while True:
        op = cycle[i % len(cycle)]
        rng = np.random.default_rng([args.seed, i])
        sid = tracer.begin_op(i) if tracer else None
        result, start, end = _run_op(op, rng, failures, f"op {i}")
        if tracer:
            tracer.close(sid)
        latencies.append(end - start)
        mids.append(0.5 * (start + end))
        labels[op.label] += 1
        if result is not None:
            if i < len(cycle):
                digest.update(op.digest(result))
                digest_ops += 1
            if op.anaa is not None and np.isfinite(op.anaa(result)):
                anaa[op.label].append(op.anaa(result))
        i += 1
        if end - t0 >= args.seconds:
            break
        probe.sample()
    elapsed = end - t0
    probe.sample(force=True)
    ops = len(latencies)
    factors = probe.factors(mids)
    scaled = np.asarray(latencies) * factors

    anaa_means = {label: float(np.mean(vals)) for label, vals in anaa.items()}
    for label, (lo, hi) in workload.anaa_bands.items():
        mean = anaa_means.get(label)
        if mean is not None and not lo <= mean <= hi:
            failures.add(max(1, len(anaa[label])),
                         f"mean ANAA of {label} = {mean} outside reference band [{lo}, {hi}]")

    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": _environment(np, mmap_threshold),
        "ops": ops, "ops_by_label": dict(labels), "elapsed_s": elapsed,
        "failed_share": failures.count / (ops + 1), "failures": failures.messages,
        "digest": {"sha256": digest.hexdigest() if digest_ops == len(cycle) else None,
                   "seed": args.seed, "ops": f"0-{len(cycle) - 1}"},
        "mean_anaa": anaa_means,
        "setup": {"samples_s": setup_samples, "unscaled_s": setup_raw, "import_s": import_s},
        "speed": {"nominal_s": speed.NOMINAL_S, "reference_samples": len(probe.durations),
                  "reference_median_s": float(np.median(probe.durations)),
                  "factor_min": float(factors.min()), "factor_max": float(factors.max())},
    }
    if tracer:
        stats = tracer.span_stats(factors)
        layer, missing = tracer.layer_metrics(stats, ops, workload.expected_unreached)
        tracer.uninstall()
        # replay the first ops untraced: identical inputs, so the ratio is the overhead
        k = int(np.searchsorted(np.cumsum(latencies), REPLAY_SHARE * args.seconds)) + 1
        k = min(k, ops)
        replay, replay_mids = [], []
        for j in range(k):
            _, start, end = _run_op(cycle[j % len(cycle)], np.random.default_rng([args.seed, j]),
                                    Failures(), "replay")
            replay.append(end - start)
            replay_mids.append(0.5 * (start + end))
            probe.sample(force=j == k - 1)
        untraced = float((np.asarray(replay) * probe.factors(replay_mids)).sum())
        layer["setup.import_s"] = (import_s, "s")
        layer["trace.overhead_ratio"] = (float(scaled[:k].sum()) / untraced, "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        report["trace_missing"] = missing
        report["trace_replay_ops"] = k
        report["spans"] = {name: s for name, s in stats.items() if not name.startswith("_")}
        rows = [(name, v, u) for name, (v, u) in layer.items()]
        by_self = sorted(tracing.QUALIFIED, key=lambda n: -stats[n]["self_s"])[:5]
        rows += [(f"top self time: {name}", stats[name]["self_s"] / ops, "s/op")
                 for name in by_self]
    else:
        tail, q, above = _tail(scaled, workload.tail_percentile)
        report["tail"] = {"percentile": q, "samples_above": above, "samples": ops}
        report["unscaled"] = {
            "ops_per_s": ops / (elapsed - probe.spent),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * _tail(latencies, workload.tail_percentile)[0],
        }
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": ops / float(scaled.sum()), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * float(np.median(scaled)), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
        rows.append(("failed_share", report["failed_share"], "ratio"))

    print(f"cfra benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ops={ops}")
    for name, value, unit in rows:
        print(f"  {name:48s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  op_tail_ms is p{100 * q:g} over {ops} ops, {above} samples above")
    for name, reason in report.get("trace_missing", {}).items():
        print(f"  {name:48s} MISSING ({reason})")
    for message in failures.messages:
        print(f"  FAILED: {message}")
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": failures.count == 0, "attempted": ops + 1,
                      "failed": failures.count, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
