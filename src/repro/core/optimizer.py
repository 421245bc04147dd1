"""Performance optimization with Unicorn.

``UnicornOptimizer`` runs the active loop for optimization queries: it uses
the causal model's repair machinery with the *current best* configuration in
the role of the fault, so every iteration proposes the configuration change
with the largest counterfactually estimated improvement, measures it, and
updates the model.  For multi-objective optimization the objectives are
scalarised with rotating Chebyshev weights and the Pareto front of everything
measured is maintained — Fig. 15 reports both the single-objective traces and
the multi-objective hypervolume error against PESMO.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.unicorn import LoopState, Unicorn, UnicornConfig
from repro.metrics.optimization import pareto_front
from repro.systems.base import ConfigurableSystem, Measurement


@dataclass
class OptimizationResult:
    """Outcome of one optimization run."""

    system: str
    environment: str
    objectives: dict[str, str]
    best_configuration: dict[str, float]
    best_objectives: dict[str, float]
    iterations: int
    samples_used: int
    wall_clock_seconds: float
    simulated_hours: float
    #: best-so-far value of each objective after every measurement
    trace: list[dict[str, float]] = field(default_factory=list)
    #: all measured objective vectors (for Pareto-front construction)
    evaluated: list[dict[str, float]] = field(default_factory=list)
    #: wall-clock seconds of each model (re-)learn during the loop
    relearn_seconds: list[float] = field(default_factory=list)

    def best_so_far(self, objective: str) -> list[float]:
        return [entry[objective] for entry in self.trace]

    def pareto_points(self, objectives: Sequence[str] | None = None
                      ) -> list[tuple[float, ...]]:
        """Pareto front of all evaluated configurations (all minimised)."""
        names = list(objectives or self.objectives)
        points = []
        for entry in self.evaluated:
            point = []
            for name in names:
                value = entry[name]
                point.append(value if self.objectives[name] == "minimize"
                             else -value)
            points.append(tuple(point))
        return pareto_front(points)


class UnicornOptimizer:
    """Optimize one or several performance objectives with causal reasoning."""

    def __init__(self, system: ConfigurableSystem,
                 config: UnicornConfig | None = None) -> None:
        self.unicorn = Unicorn(system, config)
        self.system = system
        self.config = self.unicorn.config

    def optimize(self, objectives: Sequence[str] | None = None,
                 initial_measurements: Sequence[Measurement] = ()
                 ) -> OptimizationResult:
        """Run the optimization loop until the measurement budget is spent."""
        started = time.perf_counter()
        objective_names = list(objectives or self.system.objective_names)
        directions = {o: self.system.objectives[o] for o in objective_names}

        state = LoopState()
        self.unicorn.collect_initial_samples(state, initial_measurements)
        engine = self.unicorn.learn(state)

        best_config, best_objectives = self._incumbent(state.measurements,
                                                       directions)
        trace: list[dict[str, float]] = [dict(best_objectives)]
        evaluated = [dict(m.objectives) for m in state.measurements]
        weight_rng = np.random.default_rng(self.config.seed + 1)

        while self.unicorn.remaining_budget(state) > 0:
            weights = self._scalarisation_weights(objective_names, weight_rng)
            # One batched repair scan: the candidate grid is enumerated once
            # and every candidate's counterfactual objectives are scored in
            # a single vectorized call inside the engine.
            repair_set = engine.repair_set(best_config, best_objectives,
                                           directions)
            candidate = None
            best_predicted = -np.inf
            top = repair_set.top(10)
            if top:
                scores = self._scalarised_improvements(
                    top, best_objectives, directions, weights)
                index = int(np.argmax(scores))
                best_predicted = float(scores[index])
                candidate = dict(best_config)
                candidate.update(top[index].as_dict())
            if candidate is None or best_predicted <= 0:
                candidate = self.unicorn.propose_exploration(state, best_config)

            measurement = self.unicorn.measure_and_update(state, candidate)
            evaluated.append(dict(measurement.objectives))
            # The incremental path refreshes the engine in place; the cold
            # fallback replaces it.  Either way the loop keeps querying the
            # current one.
            engine = state.engine

            if self._dominates_or_improves(measurement.objectives,
                                           best_objectives, directions):
                best_config = dict(measurement.configuration)
                best_objectives = {o: measurement.objectives[o]
                                   for o in objective_names}
            trace.append(dict(best_objectives))

        elapsed = time.perf_counter() - started
        return OptimizationResult(
            system=self.system.name,
            environment=self.system.environment.name,
            objectives=directions,
            best_configuration=best_config,
            best_objectives=best_objectives,
            iterations=state.iterations,
            samples_used=state.samples_used,
            wall_clock_seconds=elapsed,
            simulated_hours=(state.samples_used
                             * self.system.measurement_cost_seconds / 3600.0),
            trace=trace,
            evaluated=evaluated,
            relearn_seconds=list(state.relearn_seconds))

    # ------------------------------------------------------------------ impl
    def _incumbent(self, measurements: Sequence[Measurement],
                   directions: Mapping[str, str]
                   ) -> tuple[dict[str, float], dict[str, float]]:
        """Best configuration among the measurements (scalarised equally)."""
        best_config: dict[str, float] = {}
        best_objectives: dict[str, float] = {}
        best_score = -np.inf
        for measurement in measurements:
            score = 0.0
            for objective, direction in directions.items():
                value = measurement.objectives[objective]
                score += -value if direction == "minimize" else value
            if score > best_score:
                best_score = score
                best_config = dict(measurement.configuration)
                best_objectives = {o: measurement.objectives[o]
                                   for o in directions}
        return best_config, best_objectives

    @staticmethod
    def _scalarisation_weights(objectives: Sequence[str],
                               rng: np.random.Generator) -> dict[str, float]:
        if len(objectives) == 1:
            return {objectives[0]: 1.0}
        raw = rng.dirichlet(np.ones(len(objectives)))
        return {o: float(w) for o, w in zip(objectives, raw)}

    @staticmethod
    def _scalarised_improvement(predicted: Mapping[str, float],
                                incumbent: Mapping[str, float],
                                directions: Mapping[str, str],
                                weights: Mapping[str, float]) -> float:
        total = 0.0
        for objective, direction in directions.items():
            baseline = float(incumbent[objective])
            value = float(predicted.get(objective, baseline))
            scale = max(abs(baseline), 1e-9)
            delta = (baseline - value) if direction == "minimize" else (value - baseline)
            total += weights.get(objective, 1.0) * delta / scale
        return total

    @classmethod
    def _scalarised_improvements(cls, repairs: Sequence,
                                 incumbent: Mapping[str, float],
                                 directions: Mapping[str, str],
                                 weights: Mapping[str, float]) -> np.ndarray:
        """Scalarised predicted improvement of each candidate repair."""
        return np.array([
            cls._scalarised_improvement(repair.predicted_objectives(),
                                        incumbent, directions, weights)
            for repair in repairs
        ], dtype=float)

    @staticmethod
    def _dominates_or_improves(measured: Mapping[str, float],
                               incumbent: Mapping[str, float],
                               directions: Mapping[str, str]) -> bool:
        """True if the new point improves the (equal-weight) scalarisation."""
        total = 0.0
        for objective, direction in directions.items():
            baseline = float(incumbent[objective])
            value = float(measured[objective])
            scale = max(abs(baseline), 1e-9)
            delta = (baseline - value) if direction == "minimize" else (value - baseline)
            total += delta / scale
        return total > 0
