"""Scalability experiments (Table 3).

Each scenario of Table 3 selects a number of configuration options and system
events for SQLite or Deepstream; the runner learns a causal performance model
on that variable set, counts causal paths and candidate queries, measures the
discovery and query-evaluation times and runs one debugging pass to obtain
the gain, its time and the total time per fault — the columns of Table 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.debugger import UnicornDebugger
from repro.core.unicorn import Unicorn, UnicornConfig, LoopState
from repro.systems.faults import discover_faults
from repro.systems.registry import get_system


@dataclass
class ScalabilityRow:
    """One row of Table 3."""

    system: str
    n_options: int
    n_events: int
    n_paths: int
    n_queries: int
    average_degree: float
    gain: float
    discovery_seconds: float
    query_seconds: float
    debug_seconds: float
    total_seconds: float


def _evaluate_candidate_queries(engine, system, probe,
                                objectives) -> int:
    """Run one batched repair scan and report how many candidate queries it
    evaluated.

    The probe measurement stands in as the fault, so the ``query_seconds``
    column times what Stage V actually does at this scale: enumerate the
    candidate grid once and score every candidate counterfactual in a single
    vectorized call.
    """
    directions = {o: system.objectives[o] for o in objectives
                  if o in system.objectives}
    if not directions:
        return 1
    repair_set = engine.repair_set(
        dict(probe.configuration),
        {o: probe.objectives[o] for o in directions},
        directions)
    return max(len(repair_set), 1)


def run_scalability_scenario(system_name: str, hardware: str,
                             n_extra_options: int = 0,
                             n_extra_events: int = 0,
                             objective: str = "QueryTime",
                             n_samples: int = 60,
                             debug_budget: int = 40,
                             seed: int = 0) -> ScalabilityRow:
    """Learn a model and debug one fault at the requested scale."""
    kwargs = {}
    if system_name == "sqlite":
        kwargs = {"n_extra_options": n_extra_options,
                  "n_extra_events": n_extra_events}
    system = get_system(system_name, hardware=hardware, **kwargs)

    config = UnicornConfig(initial_samples=n_samples, budget=n_samples,
                           seed=seed, max_condition_size=1)
    unicorn = Unicorn(system, config)
    state = LoopState()
    started = time.perf_counter()
    unicorn.collect_initial_samples(state)
    sampling_seconds = time.perf_counter() - started

    started = time.perf_counter()
    engine = unicorn.learn(state)
    discovery_seconds = time.perf_counter() - started

    objectives = [objective] if objective in system.objective_names \
        else system.objective_names[:1]
    started = time.perf_counter()
    paths = engine.ranked_paths(objectives)
    n_queries = _evaluate_candidate_queries(engine, system,
                                            state.measurements[0], objectives)
    query_seconds = time.perf_counter() - started

    # One debugging pass at this scale for the gain / time-per-fault columns.
    fault_system = get_system(system_name, hardware=hardware, **kwargs)
    catalogue = discover_faults(fault_system, n_samples=150, percentile=95.0,
                                objectives=objectives, seed=seed)
    pool = catalogue.single_objective(objectives[0]) or catalogue.faults
    gain_value = 0.0
    debug_seconds = 0.0
    if pool:
        debug_system = get_system(system_name, hardware=hardware, **kwargs)
        debugger = UnicornDebugger(
            debug_system,
            UnicornConfig(initial_samples=15, budget=debug_budget, seed=seed,
                          max_condition_size=1))
        started = time.perf_counter()
        result = debugger.debug_fault(pool[0], objectives=objectives)
        debug_seconds = time.perf_counter() - started
        gain_value = float(np.mean(list(result.gains.values())))

    return ScalabilityRow(
        system=system_name,
        n_options=len(system.space),
        n_events=len(system.events),
        n_paths=len(paths),
        n_queries=n_queries,
        average_degree=state.learned.graph.average_degree(),
        gain=gain_value,
        discovery_seconds=discovery_seconds,
        query_seconds=query_seconds,
        debug_seconds=debug_seconds,
        total_seconds=sampling_seconds + discovery_seconds + query_seconds
        + debug_seconds)
