"""debug-sqlite-130x80: closed-loop performance-fault debugging.

One ``UnicornDebugger.debug_fault`` session runs at a time on SQLite/Xavier
with 130 options and 80 events (Table 3's largest scenario).  The input is a
fixed panel of catalogued ``QueryTime`` faults; ``--seed`` rotates the order
the panel is worked in.  A run repeats whole panel cycles until the time
budget has passed (and at least ``min_cycles`` cycles), so each panel fault
is debugged equally often.  A session whose recommended repair does not
improve every faulty objective counts as failed.

Time on a shared host is corrected twice.  Each session is cut into steps at
the end of every ``Unicorn.measure_and_update`` call, with a speed probe
(``common.speed_probe``) before and after each step, outside it; a step's
time is rescaled by the probes around it (``common.host_scaled``).  Repeated
sessions of one panel fault do the same work (the debugger, its seed and the
simulated subject are fixed), so a fault's session time is the sum over
steps of the fastest repetition of that step: a dip in host speed that the
probes missed has to hit every repetition of a step to count, while a change
that slows a step slows every repetition of it.  The raw wall times are on
the detail line.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time

import numpy as np

from common import host_scaled, peak_rss_mb, speed_probe
from tracing import SpanRecorder, install_layer_wrappers, layer_metrics


def _system(workload: dict):
    from repro.systems.registry import get_system

    return get_system(workload["system"], hardware=workload["hardware"],
                      n_extra_options=workload["n_extra_options"],
                      n_extra_events=workload["n_extra_events"])


def _debugger(workload: dict, debugger_seed: int):
    from repro.core.debugger import UnicornDebugger
    from repro.core.unicorn import UnicornConfig

    return UnicornDebugger(_system(workload), UnicornConfig(
        initial_samples=workload["initial_samples"],
        budget=workload["budget"], seed=debugger_seed,
        max_condition_size=workload["max_condition_size"]))


def _setup(workload: dict):
    """Catalogue the faults and pick the panel."""
    from repro.systems.faults import discover_faults

    catalogue_spec = workload["catalogue"]
    objective = workload["objective"]
    catalogue = discover_faults(
        _system(workload), n_samples=catalogue_spec["n_samples"],
        percentile=catalogue_spec["percentile"], objectives=[objective],
        seed=catalogue_spec["seed"])
    pool = catalogue.single_objective(objective) or catalogue.faults
    return [(pool[entry["fault_index"]], entry["debugger_seed"])
            for entry in workload["panel"]]


def _session(debugger, fault, objectives: list,
             recorder: SpanRecorder | None):
    """One debug session: its result, step durations and speed probes.

    ``probes[i]`` and ``probes[i + 1]`` are taken right before and right
    after step ``i``; probe time is not part of any step.
    """
    steps: list[float] = []
    probes = [speed_probe()]
    mark = [time.perf_counter()]
    step = debugger.unicorn.measure_and_update

    def timed_step(*args, **kwargs):
        try:
            return step(*args, **kwargs)
        finally:
            steps.append(time.perf_counter() - mark[0])
            probes.append(speed_probe())
            mark[0] = time.perf_counter()

    debugger.unicorn.measure_and_update = timed_step
    if recorder is None:
        result = debugger.debug_fault(fault, objectives=objectives)
    else:
        result = recorder.span("debug.session", debugger.debug_fault,
                               fault, objectives=objectives)
    steps.append(time.perf_counter() - mark[0])
    probes.append(speed_probe())
    return result, steps, probes


def _sessions(workload: dict, panel, seed: int, seconds: float,
              recorder: SpanRecorder | None = None,
              min_cycles: int = 1) -> list[dict]:
    """Debug whole panel cycles until ``seconds`` of session time passed."""
    shift = seed % len(panel)
    order = panel[shift:] + panel[:shift]
    objectives = [workload["objective"]]
    sessions: list[dict] = []
    started = time.perf_counter()
    for cycle in itertools.count(1):
        for fault, debugger_seed in order:
            result, steps, probes = _session(
                _debugger(workload, debugger_seed), fault, objectives,
                recorder)
            sessions.append({
                "fault": panel.index((fault, debugger_seed)),
                "debugger_seed": debugger_seed,
                "seconds": sum(steps),
                "steps_s": steps,
                "probes_s": probes,
                "scaled_steps_s": [host_scaled(t, probes[i], probes[i + 1])
                                   for i, t in enumerate(steps)],
                "iterations": result.iterations,
                "gain_pct": result.mean_gain,
                "ok": all(g > 0 for g in result.gains.values()),
            })
        if (cycle >= min_cycles
                and time.perf_counter() - started >= seconds):
            return sessions


def _fault_seconds(sessions: list[dict]) -> dict[int, float]:
    """Per panel fault: the sum over scaled steps of the fastest repetition."""
    repeats: dict[int, list[list[float]]] = {}
    for session in sessions:
        repeats.setdefault(session["fault"], []).append(
            session["scaled_steps_s"])
    return {fault: sum(min(column) for column in zip(*steps, strict=True))
            for fault, steps in repeats.items()}


def _summary(sessions: list[dict]) -> dict:
    per_fault = _fault_seconds(sessions)
    times = list(per_fault.values())
    iterations = {s["fault"]: s["iterations"] for s in sessions}
    return {
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": float(np.percentile(times, 90)) * 1e3,
        "capacity_per_s": sum(iterations[f] for f in per_fault) / sum(times),
        "answer_quality_pct": statistics.fmean(s["gain_pct"]
                                               for s in sessions),
    }


def run(name: str, workload: dict, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    setups, scaled_setups = [], []
    for _ in range(workload["setup_repeats"] if not trace else 1):
        probe = speed_probe()
        began = time.perf_counter()
        panel = _setup(workload)
        setups.append(time.perf_counter() - began)
        scaled_setups.append(host_scaled(setups[-1], probe, speed_probe()))

    sessions = _sessions(workload, panel, seed, seconds,
                         min_cycles=1 if trace else workload["min_cycles"])
    summary = _summary(sessions)
    failed = sum(not s["ok"] for s in sessions)
    detail = {
        "workload": name, "seed": seed, "sessions": sessions,
        "setup_samples_s": setups,
        "scaled_setup_samples_s": scaled_setups,
        "debug_s_per_fault": sum(s["seconds"] for s in sessions)
        / len(sessions),
        "fault_session_s": _fault_seconds(sessions),
        "repair_gain_pct": summary["answer_quality_pct"],
        "phases": {"debug": {"sent": len(sessions),
                             "ok": len(sessions) - failed,
                             "failed": failed}},
    }
    result = {"correct": failed == 0, "attempted": len(sessions),
              "failed": failed, "detail": detail}
    if not trace:
        result["end_to_end"] = dict(summary,
                                    setup_s=statistics.median(scaled_setups),
                                    peak_rss_mb=peak_rss_mb())
        return result

    recorder = SpanRecorder()
    uninstall = install_layer_wrappers(recorder)
    try:
        traced = _sessions(workload, panel, seed, seconds, recorder)
    finally:
        uninstall()
    traced_summary = _summary(traced)
    traced_failed = sum(not s["ok"] for s in traced)
    recorder.write(os.path.join(out_dir, f"{name}-seed{seed}.spans.jsonl"))
    overhead_ms = traced_summary["latency_p50_ms"] - summary["latency_p50_ms"]
    layers = layer_metrics(recorder)
    layers.update({
        "client.sent": float(len(traced)),
        "client.ok": float(len(traced) - traced_failed),
        "client.failed": float(traced_failed),
        "client.late_ms_max": 0.0,
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": 100.0 * overhead_ms / summary["latency_p50_ms"],
        "trace.named_share": recorder.root_share("debug.session"),
    })
    detail["traced_sessions"] = traced
    detail["phases"]["debug-traced"] = {"sent": len(traced),
                                        "ok": len(traced) - traced_failed,
                                        "failed": traced_failed}
    result.update(per_layer=layers,
                  attempted=len(sessions) + len(traced),
                  failed=failed + traced_failed,
                  correct=failed + traced_failed == 0)
    return result
