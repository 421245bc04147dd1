"""Benchmark: batched interventional query engine vs. the scalar oracle.

The acceptance gate of the batched-query subsystem: a 256-candidate repair
scan over the SQLite subject (candidate grid enumerated from the ground-truth
causal structure, equations fitted on 80 measured configurations) must run
at least 5x faster through ``BatchedFittedModel`` than through the scalar
reference path, while producing a byte-identical repair ranking — the same
``(option, value)`` change tuples in the same deterministic order.

A second (informational, softly gated) measurement times the
satisfaction-probability path, whose scalar form replays one counterfactual
per observed context.

Both speedups are the median of per-pair ratios: each pair times the scalar
then the batched call back to back, so a swing in host speed moves both
sides of a ratio together, and the median over many pairs drops the few
pairs a swing splits.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.discovery.pipeline import LearnedModel
from repro.graph.paths import backtrack_causal_paths
from repro.inference.engine import CausalInferenceEngine
from repro.inference.paths import CausalPath
from repro.inference.queries import QoSConstraint
from repro.inference.repairs import generate_repair_set
from repro.systems.sqlite import make_sqlite

QUICK = os.environ.get("BATCHED_BENCH_QUICK") == "1"
PAIRS = 5 if QUICK else 21
REQUIRED_SPEEDUP = 5.0
N_CANDIDATES = 256
TOP_K = 10


def _paired_speedup(scalar, batched,
                    pairs: int = PAIRS) -> tuple[float, float, float]:
    """Median scalar and batched seconds, and the median per-pair ratio."""
    scalar_seconds: list[float] = []
    batched_seconds: list[float] = []
    for _ in range(pairs):
        for function, seconds in ((scalar, scalar_seconds),
                                  (batched, batched_seconds)):
            started = time.perf_counter()
            function()
            seconds.append(time.perf_counter() - started)
    ratios = [s / b for s, b in zip(scalar_seconds, batched_seconds)]
    return (float(np.median(scalar_seconds)),
            float(np.median(batched_seconds)), float(np.median(ratios)))


def _build_scan():
    """Engine + pinned 256-candidate repair scan on the SQLite subject."""
    system = make_sqlite()
    _, data = system.random_dataset(80, np.random.default_rng(17))
    graph = system.scm.dag.to_mixed_graph()
    constraints = system.constraints()
    learned = LearnedModel(graph=graph, pag=graph, constraints=constraints,
                           data=data)
    domains = {name: system.space.option(name).values
               for name in system.space.option_names}
    engine = CausalInferenceEngine(learned, domains)

    objective = "QueryTime"
    # Pin the path order to the deterministic backtracking enumeration so
    # the candidate grid (and therefore the scan size) is stable across
    # machines and ACE refits.
    paths = [CausalPath(nodes=tuple(nodes), objective=objective, ace=0.0)
             for nodes in backtrack_causal_paths(graph, objective)]
    faulty_configuration = system.space.default_configuration()
    faulty_measurement = {
        objective: float(system.true_objective(faulty_configuration,
                                               objective) * 1.5)}
    directions = {objective: system.objectives[objective]}
    return (engine, paths, constraints, domains, faulty_configuration,
            faulty_measurement, directions)


def test_batched_repair_scan_speedup_and_identity(results_recorder):
    (engine, paths, constraints, domains, faulty_configuration,
     faulty_measurement, directions) = _build_scan()
    model = engine.fitted_model
    evaluator = engine.batched_evaluator

    def scalar():
        return generate_repair_set(
            model, paths, constraints, domains, faulty_configuration,
            faulty_measurement, directions, max_combined_options=5,
            max_repairs=N_CANDIDATES)

    def batched():
        return generate_repair_set(
            model, paths, constraints, domains, faulty_configuration,
            faulty_measurement, directions, max_combined_options=5,
            max_repairs=N_CANDIDATES, evaluator=evaluator,
            plan=engine.query_plan)

    scalar_set = scalar()
    batched_set = batched()

    # The scan really is 256 candidates wide.
    assert len(scalar_set) == N_CANDIDATES
    assert len(batched_set) == N_CANDIDATES

    # Byte-identical ranking: same change tuples in the same order, for the
    # top-k and for the full set (the deterministic tie-breaking contract).
    assert [r.changes for r in batched_set.top(TOP_K)] == \
        [r.changes for r in scalar_set.top(TOP_K)]
    assert [r.changes for r in batched_set] == \
        [r.changes for r in scalar_set]
    assert np.allclose([r.ice for r in batched_set],
                       [r.ice for r in scalar_set], rtol=1e-9, atol=1e-9)

    scalar_seconds, batched_seconds, speedup = _paired_speedup(scalar,
                                                               batched)

    payload = {
        "n_candidates": len(scalar_set),
        "scalar_ms": scalar_seconds * 1000.0,
        "batched_ms": batched_seconds * 1000.0,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "top_repair": dict(batched_set.best().changes),
    }
    results_recorder("batched_queries_repair_scan", payload)
    print(f"\n256-candidate repair scan: scalar {payload['scalar_ms']:.1f} ms "
          f"vs batched {payload['batched_ms']:.1f} ms -> {speedup:.1f}x")

    assert speedup >= REQUIRED_SPEEDUP


def test_batched_satisfaction_probability_speedup(results_recorder):
    (engine, _, _, _, faulty_configuration, _, directions) = _build_scan()
    scalar_engine = CausalInferenceEngine(engine.learned_model,
                                          engine.domains, batched=False)
    objective = next(iter(directions))
    threshold = float(np.median(
        engine.learned_model.data.column(objective)))
    constraint = QoSConstraint(objective, directions[objective],
                               threshold=threshold)
    intervention = {name: engine.domains[name][-1]
                    for name in ("PRAGMA_CACHE_SIZE", "CPUFrequency")
                    if name in engine.domains}

    def scalar():
        return scalar_engine.satisfaction_probability(constraint,
                                                      intervention)

    def batched():
        return engine.satisfaction_probability(constraint, intervention)

    scalar_value = scalar()
    batched_value = batched()
    assert scalar_value == batched_value

    scalar_seconds, batched_seconds, speedup = _paired_speedup(scalar,
                                                               batched)
    payload = {
        "scalar_ms": scalar_seconds * 1000.0,
        "batched_ms": batched_seconds * 1000.0,
        "speedup": speedup,
        "probability": batched_value,
    }
    results_recorder("batched_queries_satisfaction", payload)
    print(f"\nsatisfaction probability: scalar {payload['scalar_ms']:.2f} ms "
          f"vs batched {payload['batched_ms']:.2f} ms -> {speedup:.1f}x")
    # Informational speedup, softly gated: batching must never be slower.
    assert speedup > 1.0
