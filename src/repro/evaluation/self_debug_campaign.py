"""Self-debugging campaign: the reproduction tunes its own serving stack.

The paper's pipeline debugs misconfigured systems through a causal
model; the ROADMAP's flagship open item is to point that pipeline at
*this repository's own deployment*.  The ``self_debugging`` cell closes
the loop in three phases:

1. **Record** — a deterministic mixed workload is served by the real
   serving tier under a deliberately *misconfigured* deployment (huge
   batch window, disabled result cache, …), with the
   :class:`~repro.service.tracing.Tracer` on; the run yields replayable
   trace records plus measured p99 latency and throughput.
2. **Debug** — the deployment is handed to the paper's own
   :class:`~repro.core.debugger.UnicornDebugger` as a configuration of
   :func:`repro.systems.serving_system.make_serving_system` (the
   analytic causal twin of the serving stack), which diagnoses the
   misconfiguration and recommends a repaired configuration.
3. **Replay** — the *same seeded workload* is served again under the
   recommended configuration (mapped back onto real service arguments
   via :func:`repro.systems.serving_system.
   configuration_to_service_kwargs`), and the cell verifies the twin's
   advice holds on the genuine article: replayed p99 latency improves
   by a large factor while the answers stay byte-identical — serving
   knobs must never change *what* is answered, only *how fast*.

:func:`run_self_debugging` is registered as the ``self_debugging`` cell
kind: its result is JSON-serializable and rides the standard campaign
runner (seed trees, resumable artifact store); the companion benchmark
``benchmarks/test_self_debugging.py`` gates the improvement factor and
``docs/observability.md`` walks through the whole loop.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.debugger import UnicornDebugger
from repro.core.unicorn import UnicornConfig
from repro.evaluation.runner import register_cell_kind
from repro.service.batcher import RequestBatcher
from repro.service.registry import ModelRegistry
from repro.service.service import QueryService
from repro.service.sharding import ShardedQueryService
from repro.service.tracing import TraceRecorder, Tracer, trace_summary
from repro.service.workload import (
    canonical_answers,
    latency_percentiles,
    mixed_workload,
    serve_concurrently,
)
from repro.systems.registry import get_system
from repro.systems.serving_system import configuration_to_service_kwargs

#: The deliberately broken deployment the campaign starts from: a 50 ms
#: dispatcher window (every request pays it), no result cache, and a
#: twitchy drift threshold.  ``Shards`` stays at 1 so the replay
#: exercises the single-process tier by default.
DEFAULT_FAULTY_OVERRIDES = {
    "BatchWindowMs": 50.0,
    "ResultCacheSize": 0.0,
    "DriftThreshold": 0.5,
}


def _replay(specs: Mapping[str, Mapping], requests: Sequence,
            service_kwargs: Mapping, n_clients: int,
            tracer=None) -> tuple[list, float, dict]:
    """Serve ``requests`` under one deployment; return (responses,
    seconds, latency percentiles)."""
    if int(service_kwargs["shards"]) <= 1:
        registry = ModelRegistry(
            capacity=max(2, len(specs)),
            result_cache_size=int(service_kwargs["result_cache_size"]) or
            None,
            drift_threshold=service_kwargs["drift_threshold"])
        for subject, spec in specs.items():
            entry = registry.register_spec(subject, spec)
            # Untimed warm-up (the service_campaign idiom): fill the
            # engine's one-time caches so first-touch cost lands in
            # neither deployment's tail.
            RequestBatcher().dispatch(
                entry, [r for r in requests if r.subject == subject])
        with QueryService(
                registry,
                batch_window=float(service_kwargs["batch_window"]),
                fairness_quantum=int(service_kwargs["fairness_quantum"]),
                max_batch=512, tracer=tracer) as service:
            responses, seconds, _ = serve_concurrently(
                service, requests, int(n_clients))
    else:
        with ShardedQueryService(
                specs, shards=int(service_kwargs["shards"]),
                use_processes=False,
                batch_window=float(service_kwargs["batch_window"]),
                result_cache_size=int(service_kwargs["result_cache_size"])
                or None,
                drift_threshold=service_kwargs["drift_threshold"],
                tracer=tracer) as service:
            responses, seconds, _ = serve_concurrently(
                service, requests, int(n_clients))
    return responses, seconds, latency_percentiles(responses)


@register_cell_kind("self_debugging")
def run_self_debugging(system: str = "cache_example",
                       hardware: str | None = None,
                       faulty_overrides: Mapping[str, float] | None = None,
                       n_clients: int = 8, requests_per_client: int = 12,
                       n_samples: int = 60, seed: int = 0,
                       initial_samples: int = 30, budget: int = 60,
                       trace_path: str | None = None) -> dict:
    """Record → debug → replay the serving stack once (see module doc).

    Parameters
    ----------
    system, hardware:
        The *served subject* (what the workload queries); the *debugged
        system* is always the serving twin
        (:func:`~repro.systems.serving_system.make_serving_system`).
    faulty_overrides:
        Option overrides defining the misconfigured deployment
        (defaults to :data:`DEFAULT_FAULTY_OVERRIDES`).
    n_clients, requests_per_client:
        Concurrent clients and queries per client of the recorded
        workload.
    n_samples, seed:
        Subject-model sample size and the root seed of the whole cell
        (model fit, workload and debugging all derive from it).
    initial_samples, budget:
        The debugger's sampling budget on the serving twin.
    trace_path:
        When set, the recorded (wall-clock-stripped) trace JSONL is
        written there.

    Returns
    -------
    dict
        ``p99_improvement`` (baseline p99 / recommended p99 on the real
        replay), ``identical`` (byte-identity of baseline vs recommended
        answers), both deployments' p99/throughput, the recommended
        configuration, the debugger's changed options, and a trace
        summary of the recorded run.
    """
    serving_system = get_system("serving")
    faulty = serving_system.space.clamp(dict(
        DEFAULT_FAULTY_OVERRIDES if faulty_overrides is None
        else faulty_overrides))

    # --- phase 1: record the misconfigured deployment ------------------
    subject_spec = {"system": system, "hardware": hardware,
                    "n_samples": int(n_samples), "seed": int(seed)}
    specs = {system: subject_spec}
    reference = ModelRegistry(capacity=2, result_cache_size=None)
    entry = reference.register_spec(system, subject_spec)
    requests = mixed_workload(
        system, entry.engine, get_system(system, hardware=hardware).objectives,
        int(n_clients) * int(requests_per_client), seed=seed)

    faulty_kwargs = configuration_to_service_kwargs(faulty)
    tracer = Tracer(enabled=True)
    baseline_responses, baseline_seconds, baseline_latency = _replay(
        specs, requests, faulty_kwargs, n_clients, tracer=tracer)
    traces = tracer.drain()
    recorder = TraceRecorder(root_seed=int(seed))
    if trace_path is not None:
        recorder.write(trace_path, traces)

    # --- phase 2: debug the deployment on its causal twin --------------
    config = UnicornConfig(initial_samples=int(initial_samples),
                           budget=int(budget), max_condition_size=2,
                           seed=int(seed) + 1)
    debug = UnicornDebugger(serving_system, config).debug(
        faulty, objectives=["P99LatencyMs"])
    recommended = serving_system.space.clamp(
        dict(debug.recommended_configuration))
    recommended_kwargs = configuration_to_service_kwargs(recommended)

    # --- phase 3: replay the recommendation on the real stack ----------
    recommended_responses, recommended_seconds, recommended_latency = \
        _replay(specs, requests, recommended_kwargs, n_clients)

    identical = (canonical_answers(baseline_responses)
                 == canonical_answers(recommended_responses))
    improvement = (baseline_latency["p99_ms"]
                   / max(recommended_latency["p99_ms"], 1e-9))
    return {
        "system": system,
        "n_queries": len(requests),
        "n_clients": int(n_clients),
        "faulty_configuration": {k: float(v) for k, v in faulty.items()},
        "recommended_configuration": {k: float(v)
                                      for k, v in recommended.items()},
        "changed_options": list(debug.changed_options),
        "twin_gains": {k: float(v) for k, v in debug.gains.items()},
        "baseline_p99_ms": baseline_latency["p99_ms"],
        "recommended_p99_ms": recommended_latency["p99_ms"],
        "baseline_throughput_qps": len(requests)
        / max(baseline_seconds, 1e-9),
        "recommended_throughput_qps": len(requests)
        / max(recommended_seconds, 1e-9),
        "p99_improvement": improvement,
        "identical": identical,
        "trace_records": len(traces),
        "trace_summary": trace_summary(traces),
    }
