"""In-memory span tracing of cfra's layer functions, installed from outside.

The benchmark never edits ``src/``. Instead it replaces each named layer
function with a wrapper in every ``cfra`` module namespace that holds a
reference to it, so callers that imported the function by name
(``from .channel import draw_channels``) and callers that look it up on its
module (``kernels.accumulate_uplink``) both go through the wrapper.

Each call records one span: name, parent span, op id, start and end. Spans
stay in memory until the run ends; a span's self time is its duration minus
the durations of its direct children. Counters are updated by small hooks
that read the arguments and result at the same boundary.

Only the functions in ``LAYER_FUNCTIONS`` are wrapped. Wrapping a helper such
as ``scenario.pathloss_beta`` would move its time out of its caller's self
time, and the per-layer metrics are defined on the named functions.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYER_FUNCTIONS = {
    "scenario": ("build_topology", "bs_topology", "natural_sets"),
    "channel": ("draw_channels", "complex_noise", "correlate_uplink", "pilot_activity"),
    "kernels": ("accumulate_uplink", "observe_downlink"),
    "access": ("build_serving_sets", "downlink_observation", "true_alpha_lt"),
    "estimators": ("estimate", "estimate_2_per_ap", "greedy_flexible_decide",
                   "knowledge_for", "estimate_cellular", "cpu_alpha_hat"),
    "contention": ("run_access_campaign", "run_attempt", "spatial_separability_admit"),
    "bench": ("run_estimator_bench",),
    "calibration": ("calibrate_delta", "train_lmax"),
}

QUALIFIED = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)

_TOPOLOGY = ("scenario.build_topology", "scenario.bs_topology")
_ATTEMPT = ("contention.run_attempt",)
_CAMPAIGN = ("contention.run_access_campaign",)

# Counter name -> (unit, the named functions whose boundary it is measured at).
COUNT_METRICS = {
    "scenario.gain_rows": ("1/op", _TOPOLOGY),
    "scenario.gain_rows_used_ratio": ("ratio", _TOPOLOGY + _ATTEMPT + _CAMPAIGN),
    "channel.draw_channels.entries": ("1/op", ("channel.draw_channels",)),
    "kernels.accumulate_uplink.macs": ("1/op", ("kernels.accumulate_uplink",)),
    "kernels.observe_downlink.macs": ("1/op", ("kernels.observe_downlink",)),
    "access.build_serving_sets.rows": ("1/op", ("access.build_serving_sets",)),
    "access.unserved_share": ("ratio", ("access.downlink_observation",)),
    "estimators.greedy_sizes_per_decision": ("1/call", ("estimators.greedy_flexible_decide",
                                                        "estimators.estimate")),
    "contention.ue_transmissions": ("1/op", _ATTEMPT),
    "contention.admit_ratio": ("ratio", _ATTEMPT),
    "contention.blocks_per_campaign": ("1/campaign", _ATTEMPT + _CAMPAIGN),
    "contention.truncated_campaigns": ("1/op", _CAMPAIGN),
    "bench.realizations": ("1/op", ("bench.run_estimator_bench",)),
    "calibration.draws": ("1/op", ("calibration.calibrate_delta",)),
}


def _h_topology(c, topo, *args, **kwargs):
    c["gain_rows"] += topo.beta.shape[0]


def _h_draw_channels(c, h, *args, **kwargs):
    c["draw_entries"] += h.size


def _h_accumulate(c, y, h, *args, **kwargs):
    c["accumulate_macs"] += h.size


def _h_observe(c, z, h, *args, **kwargs):
    c["observe_macs"] += h.size


def _h_serving(c, serving, activity, *args, **kwargs):
    c["serving_rows"] += activity.shape[0]


def _h_downlink(c, obs, *args, **kwargs):
    c["dl_observed"] += obs.served.size
    c["dl_unserved"] += int((~obs.served).sum())


def _h_attempt(c, out, protocol, spec, topology, active_ues, *args, **kwargs):
    active = np.asarray(list(active_ues), dtype=int)
    c["ue_transmissions"] += active.size
    c["admitted"] += len(out.admitted)
    c["attempts"] += 1
    c.transmitters.setdefault(id(topology), set()).update(active.tolist())


def _h_campaign(c, res, protocol, spec, config, *args, **kwargs):
    c["campaigns"] += 1
    pending = (~res.succeeded) & (res.attempts < config.max_attempts)
    c["truncated_campaigns"] += int(pending.any())
    c["used_rows"] += sum(len(s) for s in c.transmitters.values())
    c.transmitters.clear()


def _h_bench(c, res, kind, collision_size, nearby_size, l_max, config, rng,
             num_setups=100, num_realizations=100, delta=None):
    c["bench_realizations"] += num_setups * num_realizations


def _h_calibrate(c, res, config, l_max, rng, draws=20000, collision_sizes=range(1, 11)):
    sizes = list(collision_sizes)
    c["calibration_draws"] += max(1, draws // len(sizes)) * len(sizes)


HOOKS = {
    "scenario.build_topology": _h_topology,
    "scenario.bs_topology": _h_topology,
    "channel.draw_channels": _h_draw_channels,
    "kernels.accumulate_uplink": _h_accumulate,
    "kernels.observe_downlink": _h_observe,
    "access.build_serving_sets": _h_serving,
    "access.downlink_observation": _h_downlink,
    "contention.run_attempt": _h_attempt,
    "contention.run_access_campaign": _h_campaign,
    "bench.run_estimator_bench": _h_bench,
    "calibration.calibrate_delta": _h_calibrate,
}


class Counters(defaultdict):
    """Hook counters plus the per-topology transmitter sets of open campaigns."""

    def __init__(self):
        super().__init__(float)
        self.transmitters: dict = {}


class Tracer:
    """Span store and wrapper installer for one traced run."""

    def __init__(self):
        self.names = ["op"] + list(QUALIFIED)
        self.name_ix = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.op = -1
        self.counters = Counters()
        self.missing: dict[str, str] = {}   # qualified name -> reason
        self.hook_errors: dict[str, str] = {}
        self._patched: list = []            # (module, attribute, original)

    # -- spans ---------------------------------------------------------------
    def open(self, ix: int) -> int:
        sid = len(self.t0)
        self.name_ix.append(ix)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualified: str, fn):
        ix = self.names.index(qualified)
        hook = HOOKS.get(qualified)
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None and qualified not in tracer.hook_errors:
                try:
                    hook(counters, result, *args, **kwargs)
                except Exception as exc:  # a refactor changed the boundary
                    tracer.hook_errors[qualified] = f"{type(exc).__name__}: {exc}"
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualified)
        return wrapper

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every named function in every loaded ``cfra`` namespace."""
        for qualified in QUALIFIED:
            mod_name, fn_name = qualified.split(".")
            try:
                module = importlib.import_module(f"cfra.{mod_name}")
            except ImportError as exc:
                self.missing[qualified] = f"module not importable: {exc}"
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing[qualified] = "function not found"
                continue
            wrapper = self._wrap(qualified, original)
            for name, ns in list(sys.modules.items()):
                if ns is None or not (name == "cfra" or name.startswith("cfra.")):
                    continue
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def begin_op(self, op: int) -> int:
        self.op = op
        return self.open(0)

    # -- analysis ------------------------------------------------------------
    def span_stats(self, op_factors) -> dict:
        """Per name: calls, total (inclusive) and self seconds.

        Each span's times are scaled by its op's machine-speed factor.
        """
        n = len(self.t0)
        t0 = np.frombuffer(self.t0, dtype=np.float64, count=n)
        t1 = np.frombuffer(self.t1, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        names = np.frombuffer(self.name_ix, dtype=np.int32, count=n)
        ops = np.frombuffer(self.op_id, dtype=np.int32, count=n)
        dur = (t1 - t0) * np.asarray(op_factors)[ops]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        stats = {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                 "self_s": float(own[i])} for i in range(k)}
        greedy = self.names.index("estimators.greedy_flexible_decide")
        estimate = self.names.index("estimators.estimate")
        in_greedy = (names == estimate) & has_parent
        in_greedy[in_greedy] = names[parent[in_greedy]] == greedy
        stats["_greedy_estimates"] = int(in_greedy.sum())
        return stats

    def layer_metrics(self, stats: dict, ops: int,
                      expected_unreached: frozenset) -> tuple[dict, dict]:
        """Per-layer metrics normalised per timed op, plus what is missing.

        A named function that could not be wrapped, or that was wrapped but
        never reached on a workload that should reach it, is reported as
        missing instead of as zero.
        """
        missing = dict(self.missing)
        metrics: dict = {}
        for qualified in QUALIFIED:
            if qualified in missing:
                continue
            calls = stats[qualified]["calls"]
            if calls == 0 and qualified not in expected_unreached:
                missing[qualified] = "wrapped but never reached"
                continue
            metrics[f"{qualified}.calls"] = (calls / ops, "1/op")
            metrics[f"{qualified}.self_s"] = (stats[qualified]["self_s"] / ops, "s/op")

        c = self.counters
        derived = {
            "scenario.gain_rows": c["gain_rows"] / ops,
            "scenario.gain_rows_used_ratio":
                c["used_rows"] / c["gain_rows"] if c["gain_rows"] else 0.0,
            "channel.draw_channels.entries": c["draw_entries"] / ops,
            "kernels.accumulate_uplink.macs": c["accumulate_macs"] / ops,
            "kernels.observe_downlink.macs": c["observe_macs"] / ops,
            "access.build_serving_sets.rows": c["serving_rows"] / ops,
            "access.unserved_share":
                c["dl_unserved"] / c["dl_observed"] if c["dl_observed"] else 0.0,
            "estimators.greedy_sizes_per_decision":
                stats["_greedy_estimates"] / stats["estimators.greedy_flexible_decide"]["calls"]
                if stats["estimators.greedy_flexible_decide"]["calls"] else 0.0,
            "contention.ue_transmissions": c["ue_transmissions"] / ops,
            "contention.admit_ratio":
                c["admitted"] / c["ue_transmissions"] if c["ue_transmissions"] else 0.0,
            "contention.blocks_per_campaign":
                c["attempts"] / c["campaigns"] if c["campaigns"] else 0.0,
            "contention.truncated_campaigns": c["truncated_campaigns"] / ops,
            "bench.realizations": c["bench_realizations"] / ops,
            "calibration.draws": c["calibration_draws"] / ops,
        }
        # a counter whose hook broke, or whose function is missing, is missing too
        for name, value in derived.items():
            unit, sources = COUNT_METRICS[name]
            broken = [f for f in sources if f in missing or f in self.hook_errors]
            if broken:
                missing[name] = "source missing or hook failed: " + ", ".join(broken)
            else:
                metrics[name] = (float(value), unit)
        for qualified, err in self.hook_errors.items():
            missing.setdefault(f"{qualified} (hook)", err)
        return metrics, missing
