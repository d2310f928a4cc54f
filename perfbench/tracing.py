"""Spans around calls into nscontrol's modules, recorded from outside.

``instrument(tracer)`` replaces public names where their callers look them
up (module globals such as ``nscontrol.harness.simulate``, and methods such
as ``GPCController.update``) with wrappers that record a span, then puts
the originals back.  ``src/`` is not edited.  Spans stay in memory as
``[name, start, end, parent, run_id]`` lists; ``layer_metrics`` turns one
pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time
from collections import defaultdict

NAME, START, END, PARENT = range(4)


def maxrss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and boundary counts of the current traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.run_id = -1
        self.warning_log: list = []
        self._stack: list = []

    def begin_run(self, warning_log: list) -> None:
        """Start a new run id; ``warning_log`` is the run's recorded warnings."""
        self.run_id += 1
        self.warning_log = warning_log

    def take(self) -> tuple:
        """Hand over the spans and counts recorded so far and start afresh."""
        taken = (self.spans, dict(self.counts))
        self.spans, self.counts = [], defaultdict(float)
        return taken

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` recording a span named ``name`` on each call.

        ``on_exit(tracer, args, kwargs, warning_mark)`` runs after a call
        that returned, for counts taken at the boundary.
        """
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(self.spans))
            self.spans.append(record)
            mark = len(self.warning_log)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(self, args, kwargs, mark)
            return result

        return traced


def _written_bytes(tracer, args, kwargs, mark):
    tracer.counts["serialize.write.bytes"] += os.path.getsize(args[0])


def _basis_built(tracer, args, kwargs, mark):
    T = int(args[0])
    tracer.counts["filtering.Z_bytes_computed"] += 8 * T * T


def _comparator_warnings(tracer, args, kwargs, mark):
    tracer.counts["harness.comparator.warnings"] += sum(
        1 for w in tracer.warning_log[mark:] if "comparator" in str(w.message)
    )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from nscontrol import cli, filtering, harness, online_control, policies, sysid

    saved = []

    def patch(owner, attr, span, on_exit=None, fn=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(span, fn or original, on_exit))

    simulate = harness.simulate
    spectral_basis = filtering.spectral_basis

    def simulate_with_traced_callback(system, controller, *args, **kwargs):
        callback = tracer.wrap("harness.controller_callback", controller)
        return simulate(system, callback, *args, **kwargs)

    def spectral_basis_watching_rss(*args, **kwargs):
        before = maxrss_mb()
        try:
            return spectral_basis(*args, **kwargs)
        finally:
            tracer.counts["filtering.spectral_basis.rss_rise_mb"] += maxrss_mb() - before

    try:
        patch(harness, "simulate", "lds_core.simulate", fn=simulate_with_traced_callback)
        for owner in (harness, cli):
            patch(owner, "generate_perturbations", "harness.perturbations")
        for attr in ("best_dac_in_hindsight", "best_drc_in_hindsight"):
            patch(harness, attr, "harness.comparator", _comparator_warnings)
        for attr in ("dac_rollout_costs", "drc_rollout_costs"):
            patch(harness, attr, "harness.rollout")
        for owner in (harness, sysid):
            patch(owner, "dare_solve", "optimal_control.dare_solve")
        for owner in (harness, cli):
            for attr in ("write_csv", "write_json_summary"):
                patch(owner, attr, "serialize.write", _written_bytes)
        patch(online_control, "spectral_radius", "lds_core.spectral_radius")
        for cls, prefix in (
            (online_control.GPCController, "online_control.gpc"),
            (online_control.GRCController, "online_control.grc"),
        ):
            patch(cls, "act", prefix + ".act")
            patch(cls, "update", prefix + ".update")
        for attr in ("observe", "advance"):
            patch(policies.NaturesYTracker, attr, "policies.ynat")
        for owner in (filtering, cli):
            patch(owner, "spectral_basis", "filtering.spectral_basis", _basis_built,
                  fn=spectral_basis_watching_rss)
        patch(cli, "cached_basis", "filtering.cached_basis")
        patch(cli, "kalman_step", "filtering.kalman_step")
        patch(filtering.OnlineSpectralFilter, "step", "filtering.spectral_step")
        patch(cli, "identify_then_control", "sysid.identify_then_control")
        patch(sysid, "excite_and_record", "sysid.excite")
        for attr in ("estimate_moments", "recover_AB"):
            patch(sysid, attr, "sysid.estimate")
        patch(sysid, "control_with_model", "sysid.control_with_model")
        for attr in ("best_dac_in_hindsight", "dac_rollout_costs"):
            patch(sysid, attr, "sysid.comparator")
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (s[END] - s[START]) - covered(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    counts = defaultdict(float, counts)
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        total[span[NAME]] += span[END] - span[START]
        calls[span[NAME]] += 1
        own[span[NAME]] += self_s

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    run_s = total["harness.run_experiment"]
    simulate_self = own["lds_core.simulate"]
    steps = calls["harness.controller_callback"]
    metrics = {
        "harness.run_experiment.s": run_s,
        "harness.comparator.s": total["harness.comparator"],
        "harness.comparator.calls": calls["harness.comparator"],
        "harness.comparator.warnings": counts["harness.comparator.warnings"],
        "harness.comparator.share": total["harness.comparator"] / run_s if run_s else 0.0,
        "harness.rollout.s": total["harness.rollout"],
        "harness.perturbations.s": total["harness.perturbations"],
        "lds_core.simulate.self_s": simulate_self,
        "lds_core.simulate.step_us": 1e6 * simulate_self / steps if steps else 0.0,
        "lds_core.spectral_radius.calls": calls["lds_core.spectral_radius"],
        "policies.ynat.calls": calls["policies.ynat"],
        "policies.ynat.s": total["policies.ynat"],
        "filtering.spectral_basis.s": total["filtering.spectral_basis"],
        "filtering.spectral_basis.rss_rise_mb": counts["filtering.spectral_basis.rss_rise_mb"],
        "filtering.spectral_step_us": per_call_us("filtering.spectral_step"),
        "filtering.kalman_step_us": per_call_us("filtering.kalman_step"),
        "filtering.Z_bytes_computed": counts["filtering.Z_bytes_computed"],
        "sysid.excite.s": total["sysid.excite"],
        "sysid.estimate.s": total["sysid.estimate"],
        "sysid.control_with_model.s": total["sysid.control_with_model"],
        "sysid.comparator.s": total["sysid.comparator"],
        "optimal_control.dare_solve.s": total["optimal_control.dare_solve"],
        "optimal_control.dare_solve.calls": calls["optimal_control.dare_solve"],
        "serialize.write.s": total["serialize.write"],
        "serialize.write.bytes": counts["serialize.write.bytes"],
    }
    for kind in ("gpc", "grc"):
        prefix = "online_control." + kind
        metrics[prefix + ".act_us"] = per_call_us(prefix + ".act")
        metrics[prefix + ".update_us"] = per_call_us(prefix + ".update")
        metrics[prefix + ".calls"] = calls[prefix + ".act"]
    for command in ("spectral", "filter", "sysid"):
        metrics[f"cli.{command}.s"] = total["cli." + command]
    return metrics


def write_spans(path: str, passes: list, origin: float) -> None:
    """One JSON line per span of each traced pass, times in seconds from
    ``origin``; ``parent`` indexes the spans of the same pass."""
    fields = ["pass", "name", "start", "end", "parent", "run_id"]
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": fields}) + "\n")
        for number, spans in enumerate(passes):
            for name, start, end, parent, run_id in spans:
                record = [number, name, start - origin, end - origin, parent, run_id]
                fh.write(json.dumps(record) + "\n")
