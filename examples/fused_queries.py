"""Fused-query walkthrough: scalar oracle vs fused programs.

This is the `docs/query-api.md` "Fused execution and cross-request
memoization" companion.  It

1. fits a causal performance model of the SQLite subject and builds the
   pinned 256-candidate repair scan the benchmarks gate on,
2. runs the scan through both propagation paths — the scalar reference
   oracle and the fused per-level GEMM programs — verifying they produce
   the identical repair ranking,
3. times warm repeated scans of each path (the steady serving state:
   compiled programs, memoized candidate grids, scalar-fold memos),
4. serves the same repair query twice through a ``QueryService`` and
   shows the second answer coming from the cross-request result cache
   (no engine call), then folds in fresh observations and shows the
   refresh invalidating it.

Run with:  python examples/fused_queries.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.discovery.pipeline import LearnedModel
from repro.graph.paths import backtrack_causal_paths
from repro.inference.engine import CausalInferenceEngine
from repro.inference.paths import CausalPath
from repro.inference.query_plan import QueryPlan
from repro.inference.repairs import generate_repair_set
from repro.scm.batched import BatchedFittedModel
from repro.service import ModelRegistry, QueryService, RepairRequest
from repro.systems.sqlite import make_sqlite

N_SAMPLES = 80
N_CANDIDATES = 256
ROUNDS = 9
SEED = 17


def median_ms(function, rounds: int = ROUNDS) -> float:
    """Median wall-clock milliseconds of ``rounds`` warm calls."""
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        function()
        timings.append(time.perf_counter() - started)
    return float(np.median(timings)) * 1000.0


def main() -> None:
    # ------------------------------------------------------ fit the subject
    print(f"Fitting sqlite model on {N_SAMPLES} samples ...")
    system = make_sqlite()
    _, data = system.random_dataset(N_SAMPLES, np.random.default_rng(SEED))
    graph = system.scm.dag.to_mixed_graph()
    learned = LearnedModel(graph=graph, pag=graph,
                           constraints=system.constraints(), data=data)
    domains = {name: system.space.option(name).values
               for name in system.space.option_names}
    engine = CausalInferenceEngine(learned, domains)
    model = engine.fitted_model

    # ------------------------------------------- the pinned repair scan
    objective = "QueryTime"
    paths = [CausalPath(nodes=tuple(nodes), objective=objective, ace=0.0)
             for nodes in backtrack_causal_paths(graph, objective)]
    faulty_configuration = system.space.default_configuration()
    faulty_measurement = {objective: float(
        system.true_objective(faulty_configuration, objective) * 1.5)}
    directions = {objective: system.objectives[objective]}

    def scan(evaluator, plan):
        return generate_repair_set(
            model, paths, system.constraints(), domains,
            faulty_configuration, faulty_measurement, directions,
            max_combined_options=5, max_repairs=N_CANDIDATES,
            evaluator=evaluator, plan=plan)

    fused = BatchedFittedModel(model)
    fused_plan = QueryPlan(model.dag)

    # ---------------------------------------- identical rankings, two ways
    scalar_set = scan(None, None)
    fused_set = scan(fused, fused_plan)
    identical = ([r.changes for r in fused_set]
                 == [r.changes for r in scalar_set])
    max_diff = max(abs(f.ice - s.ice)
                   for f, s in zip(fused_set, scalar_set))
    best = fused_set.best()
    print(f"  {len(fused_set)}-candidate repair scan; identical ranking "
          f"scalar vs fused: {identical} (max ICE diff {max_diff:.1e})")
    print(f"  best repair: {dict(best.changes)} (ICE {best.ice:.3f})\n")

    # ------------------------------------------------ warm repeated scans
    print("Warm repeated scans (median of "
          f"{ROUNDS}, candidate grid and fused programs cached):")
    scalar_ms = median_ms(lambda: scan(None, None), rounds=3)
    fused_ms = median_ms(lambda: scan(fused, fused_plan))
    print(f"  scalar oracle      {scalar_ms:8.1f} ms")
    print(f"  fused per-level    {fused_ms:8.1f} ms "
          f"({scalar_ms / fused_ms:.1f}x vs scalar)\n")

    # ------------------------------------- cross-request result memoization
    registry = ModelRegistry(capacity=2, result_cache_size=64)
    entry = registry.get_or_fit({"system": "sqlite",
                                 "n_samples": N_SAMPLES, "seed": SEED})
    request = RepairRequest.of(
        entry.key, objectives=directions,
        faulty_configuration=faulty_configuration,
        faulty_measurement=faulty_measurement, max_repairs=64)
    with QueryService(registry) as service:
        started = time.perf_counter()
        first = service.submit(request)
        first_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        second = service.submit(request)
        second_ms = (time.perf_counter() - started) * 1000.0
        same = first.value == second.value
        print("Cross-request memoization (QueryService):")
        print(f"  first repair query  {first_ms:7.1f} ms (engine)")
        print(f"  repeat              {second_ms:7.1f} ms (cache hit, "
              f"identical answer: {same})")
        print(f"  cache hits {service.stats.cache_hits}, "
              f"misses {service.stats.cache_misses}")

        rng = np.random.default_rng(SEED + 1)
        fresh = system.measure_many(
            system.space.sample_configurations(10, rng), rng=rng)
        version = registry.observe(entry.key, fresh)
        refreshed = service.submit(request)
        print(f"  after observe() -> model version {version}: answer "
              f"recomputed at version {refreshed.model_version} "
              f"(cache invalidated)")


if __name__ == "__main__":
    main()
