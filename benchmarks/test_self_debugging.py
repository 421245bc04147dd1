"""Benchmark: observability overhead and the self-debugging loop.

Two acceptance gates from ISSUE 10:

* **tracing is near-free** — the 64-client workload served with
  per-request tracing *enabled* must stay within 5% of the tracing-off
  throughput (``tracing_overhead_ratio <= 1.05``).  The workload is
  half mixed traffic, half a QoS-threshold sweep (every client checks
  a *different* SLO threshold — distinct item keys the result cache
  and coalescer cannot collapse), so every round performs real engine
  work and the ratio measures tracing against serving, not against an
  idle cache loop.  Both sides replay the same warmed service in
  back-to-back pairs (garbage collected before each timed round, so a
  GC pause inherited from earlier tests cannot land on one side), and
  the side that runs first alternates from pair to pair, so a warm-up
  or cool-down inside a pair is charged to both sides alike.  The gate
  is the *median of the paired ratios*: one lucky pair cannot pass it
  and one disturbed pair cannot fail it, while a real regression moves
  the middle pair and shows.
* **the stack can debug itself** — the recorded workload served under a
  deliberately misconfigured deployment (50 ms dispatcher window, no
  result cache), debugged on the serving stack's causal twin and
  replayed under the recommendation, must improve replayed p99 latency
  by **>= 30%** (``self_debug_p99_improvement >= 1.30``) with answers
  byte-identical to the baseline — serving knobs change *how fast*,
  never *what*.

Both metrics are recorded into ``summary.json`` for the
``check_perf_regression.py`` gate, and the run leaves its observability
artifacts — the deterministic trace JSONL and a metrics snapshot — in
``benchmarks/fresh-results/`` for CI to upload.  ``SELF_DEBUG_BENCH_QUICK=1``
trims the workload size for CI runners (round count and the observed-row
denominator stay at full size); the gates are unchanged.
"""

from __future__ import annotations

import gc
import os

import numpy as np

from repro.core.unicorn import Unicorn, UnicornConfig
from repro.evaluation.self_debug_campaign import run_self_debugging
from repro.inference.engine import QoSConstraint
from repro.service import (
    ModelRegistry,
    QueryService,
    RequestBatcher,
    SatisfactionRequest,
    Tracer,
    canonical_answers,
    mixed_workload,
    serve_concurrently,
)
from _results_io import FRESH_DIR, write_results_json
from repro.systems.cache_example import make_cache_example

QUICK = os.environ.get("SELF_DEBUG_BENCH_QUICK") == "1"
N_CLIENTS = 64
#: per client: half mixed traffic, half distinct QoS-threshold checks.
MIXED_PER_CLIENT = 2 if QUICK else 4
SWEEP_PER_CLIENT = 2 if QUICK else 4
#: observed-data rows behind the served model — satisfaction scans are
#: vectorized over every observed context, so the row count sets the
#: real engine work per sweep request.  Not trimmed under QUICK: the
#: overhead gate needs rounds dominated by engine work to measure
#: tracing against serving rather than against scheduler noise.
N_SAMPLES = 1000
#: off/on pairs of the overhead gate.  A round takes ~150-250 ms on a
#: single core and single pairs read anywhere from 0.5 to 1.6; the median
#: of 5 pairs read above 1.05 in 4 of 6 runs, of 15 pairs in 1 of 13,
#: and of 25 pairs stayed within 1.006-1.031 over 8 runs.
ROUNDS = 25
MAX_TRACING_OVERHEAD = 1.05
MIN_P99_IMPROVEMENT = 1.30
SEED = 29

TRACE_PATH = FRESH_DIR / "self_debug_trace.jsonl"
METRICS_PATH = FRESH_DIR / "metrics_snapshot.json"


def _qos_sweep(subject, engine, directions, n, seed):
    """``n`` satisfaction checks, every one at a *distinct* threshold.

    Models an SLO-monitoring fleet: each client probes its own
    threshold, so no two requests share an item key — the coalescer and
    result cache cannot collapse them, and every round performs ``n``
    real vectorized engine evaluations.
    """
    rng = np.random.default_rng(seed)
    data = engine.learned_model.data
    objectives = [o for o in directions if o in data.columns]
    domains = engine.domains
    constraints = engine.constraints
    options = [o for o in constraints.options()
               if o in domains and len(domains[o]) >= 2
               and constraints.is_intervenable(o)]
    requests = []
    for i in range(n):
        objective = objectives[i % len(objectives)]
        column = data.column(objective)
        lo, hi = float(np.min(column)), float(np.max(column))
        threshold = lo + (hi - lo) * (i + 1) / (n + 1)
        option = options[int(rng.integers(len(options)))]
        value = float(domains[option][
            int(rng.integers(len(domains[option])))])
        requests.append(SatisfactionRequest.of(
            subject, QoSConstraint(objective, directions[objective],
                                   threshold),
            {option: value}))
    return requests


def _served_workload():
    """A fitted registry plus the 64-client workload, engine warmed.

    The registry runs without a result cache: the overhead gate must
    compare tracing against rounds that do real engine work, not
    against a loop of memoized answers.
    """
    system = make_cache_example()
    unicorn = Unicorn(system, UnicornConfig(
        initial_samples=N_SAMPLES, budget=400, max_condition_size=2,
        seed=SEED, batched_queries=True))
    registry = ModelRegistry(capacity=2, result_cache_size=None)
    entry = registry.register("cache", unicorn)
    mixed = mixed_workload("cache", entry.engine, system.objectives,
                           N_CLIENTS * MIXED_PER_CLIENT, seed=SEED,
                           max_repairs=24)
    sweep = _qos_sweep("cache", entry.engine, system.objectives,
                       N_CLIENTS * SWEEP_PER_CLIENT, seed=SEED + 1)
    # Interleave per client so every client slice carries both kinds.
    requests = []
    for client in range(N_CLIENTS):
        requests.extend(mixed[client * MIXED_PER_CLIENT:
                              (client + 1) * MIXED_PER_CLIENT])
        requests.extend(sweep[client * SWEEP_PER_CLIENT:
                              (client + 1) * SWEEP_PER_CLIENT])
    # Untimed warm-up: one-time engine caches (ranked paths, residual
    # columns) must not land in either timed side's first round.
    RequestBatcher().dispatch(entry, requests)
    return registry, requests


def test_tracing_overhead_within_five_percent(results_recorder):
    registry, requests = _served_workload()
    reference = None
    timings = {"off": [], "on": []}
    tracer = Tracer(enabled=True)
    contexts_before = tracer.contexts_created
    snapshot = None

    # Pair off/on rounds so slow machine phases hit both sides, and swap
    # which side goes first in every other pair.
    for round_index in range(ROUNDS):
        order = ("off", "on") if round_index % 2 == 0 else ("on", "off")
        for mode in order:
            active = tracer if mode == "on" else None
            # Start each timed round with a clean heap: in a full-suite
            # run the earlier benchmarks leave a large live heap, and an
            # inherited gen-2 collection pausing only one side of a pair
            # would be charged to tracing.
            gc.collect()
            with QueryService(registry, batch_window=0.002,
                              tracer=active) as service:
                responses, seconds, _ = serve_concurrently(
                    service, requests, N_CLIENTS)
                if mode == "on":
                    snapshot = service.metrics_snapshot()
            assert all(r.ok for r in responses)
            timings[mode].append(seconds)
            answers = canonical_answers(responses)
            if reference is None:
                reference = answers
            assert answers == reference  # tracing never changes answers
        tracer.drain()

    # Each iteration times off and on back to back, so the two sides of
    # a pair share whatever machine phase the runner is in.  The median
    # paired ratio is the typical pair: it ignores the luckiest pair as
    # well as the most disturbed one, so it can fail when tracing does
    # cost more than the bound.
    off_seconds = float(np.median(timings["off"]))
    on_seconds = float(np.median(timings["on"]))
    ratio = float(np.median([on / max(off, 1e-9) for off, on
                             in zip(timings["off"], timings["on"])]))
    n_queries = len(requests)
    assert tracer.contexts_created - contexts_before == \
        n_queries * ROUNDS

    write_results_json(METRICS_PATH, snapshot.as_dict())
    payload = {
        "n_clients": N_CLIENTS,
        "n_queries": n_queries,
        "rounds": ROUNDS,
        "tracing_off_ms": off_seconds * 1000.0,
        "tracing_on_ms": on_seconds * 1000.0,
        "throughput_qps": n_queries / on_seconds,
        "tracing_overhead_ratio": ratio,
        "max_overhead_ratio": MAX_TRACING_OVERHEAD,
        "quick": QUICK,
    }
    results_recorder("tracing_overhead", payload)
    print(f"\n{n_queries}-query workload, {N_CLIENTS} clients, "
          f"{ROUNDS} rounds: tracing off {payload['tracing_off_ms']:.1f} ms"
          f" vs on {payload['tracing_on_ms']:.1f} ms -> ratio "
          f"{ratio:.3f} ({payload['throughput_qps']:.0f} qps traced)")

    assert ratio <= MAX_TRACING_OVERHEAD, (
        f"tracing costs {(ratio - 1.0) * 100:.1f}% throughput "
        f"(off {off_seconds:.4f}s vs on {on_seconds:.4f}s)")


def test_self_debugging_loop_beats_misconfigured_baseline(results_recorder):
    outcome = run_self_debugging(
        n_clients=8, requests_per_client=4 if QUICK else 8,
        n_samples=40 if QUICK else 60, seed=SEED,
        trace_path=str(TRACE_PATH))

    payload = {
        "n_queries": outcome["n_queries"],
        "faulty_configuration": outcome["faulty_configuration"],
        "recommended_configuration": outcome["recommended_configuration"],
        "changed_options": outcome["changed_options"],
        "baseline_p99_ms": outcome["baseline_p99_ms"],
        "recommended_p99_ms": outcome["recommended_p99_ms"],
        "self_debug_p99_improvement": outcome["p99_improvement"],
        "min_p99_improvement": MIN_P99_IMPROVEMENT,
        "identical": outcome["identical"],
        "trace_summary": outcome["trace_summary"],
        "quick": QUICK,
    }
    results_recorder("self_debugging", payload)
    print(f"\nself-debug loop: p99 {outcome['baseline_p99_ms']:.1f} ms "
          f"(misconfigured) -> {outcome['recommended_p99_ms']:.1f} ms "
          f"(recommended) = {outcome['p99_improvement']:.1f}x better, "
          f"changed {outcome['changed_options']}, identical answers: "
          f"{outcome['identical']}")

    assert outcome["identical"], \
        "recommended deployment changed an answer"
    assert outcome["p99_improvement"] >= MIN_P99_IMPROVEMENT, (
        f"replayed p99 improved only {outcome['p99_improvement']:.2f}x "
        f"(need >= {MIN_P99_IMPROVEMENT}x)")
    assert TRACE_PATH.exists(), "trace artifact missing"
