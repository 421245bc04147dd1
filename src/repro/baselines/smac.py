"""SMAC: sequential model-based algorithm configuration.

SMAC (Hutter et al.) alternates between fitting a random-forest surrogate of
the objective over the configuration space and selecting the next
configuration by maximising expected improvement (EI) over a candidate pool
built from random configurations plus local perturbations of the incumbent.
This implementation follows that loop for a single minimised (or maximised)
objective and reports the same :class:`OptimizationResult` as Unicorn's
optimizer so the Fig. 15a/b traces are directly comparable.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from repro.baselines.trees import RandomForestRegressor
from repro.core.optimizer import OptimizationResult
from repro.systems.base import ConfigurableSystem, Measurement


class SMACOptimizer:
    """Random-forest based sequential model-based optimization."""

    name = "smac"

    def __init__(self, system: ConfigurableSystem, budget: int = 100,
                 initial_samples: int = 25, n_repeats: int = 3,
                 n_candidates: int = 200, n_trees: int = 20,
                 seed: int = 0,
                 relevant_options: Sequence[str] | None = None) -> None:
        self.system = system
        self.budget = budget
        self.initial_samples = initial_samples
        self.n_repeats = n_repeats
        self.n_candidates = n_candidates
        self.n_trees = n_trees
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        names = system.space.option_names
        if relevant_options is not None:
            wanted = [o for o in relevant_options if o in names]
            self.option_names = wanted or names
        else:
            self.option_names = names

    # ------------------------------------------------------------------ API
    def optimize(self, objective: str,
                 initial_measurements: Sequence[Measurement] = ()
                 ) -> OptimizationResult:
        started = time.perf_counter()
        direction = self.system.objectives[objective]
        sign = 1.0 if direction == "minimize" else -1.0

        measurements: list[Measurement] = list(initial_measurements)
        needed = self.initial_samples - len(measurements)
        if needed > 0:
            configs = self.system.space.sample_configurations(needed, self._rng)
            measurements.extend(self.system.measure_many(
                configs, n_repeats=self.n_repeats, rng=self._rng))

        def value_of(measurement: Measurement) -> float:
            return sign * measurement.objectives[objective]

        incumbent = min(measurements, key=value_of)
        trace = [{objective: incumbent.objectives[objective]}]
        evaluated = [dict(m.objectives) for m in measurements]

        while len(measurements) < self.budget:
            x = self._matrix(measurements)
            y = np.array([value_of(m) for m in measurements])
            forest = RandomForestRegressor(n_trees=self.n_trees,
                                           random_state=self.seed)
            forest.fit(x, y)

            candidates = self._candidates(incumbent)
            candidate_matrix = np.array(
                [[c[name] for name in self.option_names] for c in candidates])
            mean, std = forest.predict_with_std(candidate_matrix)
            best_y = float(y.min())
            ei = self._expected_improvement(mean, std, best_y)
            chosen = candidates[int(np.argmax(ei))]

            measurement = self.system.measure(chosen, n_repeats=self.n_repeats,
                                              rng=self._rng)
            measurements.append(measurement)
            evaluated.append(dict(measurement.objectives))
            if value_of(measurement) < value_of(incumbent):
                incumbent = measurement
            trace.append({objective: incumbent.objectives[objective]})

        elapsed = time.perf_counter() - started
        return OptimizationResult(
            system=self.system.name,
            environment=self.system.environment.name,
            objectives={objective: direction},
            best_configuration=dict(incumbent.configuration),
            best_objectives={objective: incumbent.objectives[objective]},
            iterations=len(measurements) - len(initial_measurements),
            samples_used=len(measurements),
            wall_clock_seconds=elapsed,
            simulated_hours=(len(measurements)
                             * self.system.measurement_cost_seconds / 3600.0),
            trace=trace,
            evaluated=evaluated)

    # ------------------------------------------------------------------ impl
    def _matrix(self, measurements: Sequence[Measurement]) -> np.ndarray:
        return np.array([[m.configuration[name] for name in self.option_names]
                         for m in measurements])

    def _candidates(self, incumbent: Measurement) -> list[dict[str, float]]:
        """Random configurations plus local perturbations of the incumbent."""
        candidates = self.system.space.sample_configurations(
            self.n_candidates // 2, self._rng)
        for _ in range(self.n_candidates - len(candidates)):
            candidate = dict(incumbent.configuration)
            names = self._rng.choice(self.option_names,
                                     size=min(2, len(self.option_names)),
                                     replace=False)
            for name in names:
                candidate[name] = float(self._rng.choice(
                    self.system.space.option(name).values))
            candidates.append(self.system.space.clamp(candidate))
        return candidates

    @staticmethod
    def _expected_improvement(mean: np.ndarray, std: np.ndarray,
                              best: float) -> np.ndarray:
        std = np.maximum(std, 1e-9)
        z = (best - mean) / std
        # The standard normal cdf and pdf, bit for bit as scipy.stats.norm
        # computes them, without importing scipy.stats.
        pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
        return (best - mean) * ndtr(z) + std * pdf
