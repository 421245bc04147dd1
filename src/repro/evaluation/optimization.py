"""Optimization experiments (Fig. 15).

``run_single_objective_comparison`` traces the best-so-far objective of
Unicorn and SMAC over the same measurement budget (Fig. 15a/b);
``run_multi_objective_comparison`` compares Unicorn and the PESMO-style
baseline on the joint latency/energy task, reporting hypervolume error over
iterations and the final Pareto fronts (Fig. 15c/d).  The single-objective
comparison is also the ``single_objective_optimization`` campaign cell kind
(:func:`single_objective_summary`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines.pesmo import PESMOOptimizer
from repro.baselines.smac import SMACOptimizer
from repro.core.optimizer import OptimizationResult, UnicornOptimizer
from repro.core.unicorn import UnicornConfig
from repro.evaluation.relevant import relevant_options_for
from repro.evaluation.runner import register_cell_kind
from repro.metrics.optimization import hypervolume_error, pareto_front
from repro.systems.registry import get_system


@dataclass
class SingleObjectiveComparison:
    """Best-so-far traces of Unicorn and SMAC on one objective."""

    system: str
    hardware: str
    objective: str
    unicorn: OptimizationResult
    smac: OptimizationResult

    def unicorn_best(self) -> float:
        return self.unicorn.best_objectives[self.objective]

    def smac_best(self) -> float:
        return self.smac.best_objectives[self.objective]

    def summary(self) -> dict:
        """Best values and sample counts of both optimizers, as plain JSON."""
        return {
            "system": self.system,
            "hardware": self.hardware,
            "objective": self.objective,
            "unicorn_best": self.unicorn_best(),
            "smac_best": self.smac_best(),
            "unicorn_samples": self.unicorn.samples_used,
            "smac_samples": self.smac.samples_used,
        }


@dataclass
class MultiObjectiveComparison:
    """Hypervolume-error traces and Pareto fronts for the MO task."""

    system: str
    objectives: tuple[str, ...]
    unicorn: OptimizationResult
    pesmo: OptimizationResult
    unicorn_front: list[tuple[float, ...]] = field(default_factory=list)
    pesmo_front: list[tuple[float, ...]] = field(default_factory=list)
    unicorn_hv_error: float = 1.0
    pesmo_hv_error: float = 1.0


def run_single_objective_comparison(system: str, hardware: str,
                                    objective: str, budget: int = 60,
                                    initial_samples: int = 20,
                                    seed: int = 0) -> SingleObjectiveComparison:
    """Unicorn vs SMAC on one objective with the same measurement budget."""
    relevant = relevant_options_for(system)

    unicorn_system = get_system(system, hardware=hardware)
    unicorn = UnicornOptimizer(
        unicorn_system,
        UnicornConfig(initial_samples=initial_samples, budget=budget,
                      seed=seed, relevant_options=relevant))
    unicorn_result = unicorn.optimize(objectives=[objective])

    smac_system = get_system(system, hardware=hardware)
    smac = SMACOptimizer(smac_system, budget=budget,
                         initial_samples=initial_samples, seed=seed,
                         relevant_options=relevant)
    smac_result = smac.optimize(objective)

    return SingleObjectiveComparison(system=system, hardware=hardware,
                                     objective=objective,
                                     unicorn=unicorn_result,
                                     smac=smac_result)


@register_cell_kind("single_objective_optimization")
def single_objective_summary(**kwargs) -> dict:
    """Campaign cell: :func:`run_single_objective_comparison` (same keyword
    arguments) reduced to its JSON-serializable
    :meth:`~SingleObjectiveComparison.summary`."""
    return run_single_objective_comparison(**kwargs).summary()


def _minimised_points(result: OptimizationResult,
                      objectives: Sequence[str]) -> list[tuple[float, ...]]:
    points = []
    for entry in result.evaluated:
        point = []
        for objective in objectives:
            value = entry[objective]
            if result.objectives[objective] == "maximize":
                value = -value
            point.append(value)
        points.append(tuple(point))
    return points


def run_multi_objective_comparison(system_name: str, hardware: str,
                                   objectives: Sequence[str],
                                   budget: int = 60,
                                   initial_samples: int = 20,
                                   seed: int = 0) -> MultiObjectiveComparison:
    """Unicorn vs the PESMO-style baseline on several objectives."""
    relevant = relevant_options_for(system_name)
    objective_names = list(objectives)

    unicorn_system = get_system(system_name, hardware=hardware)
    unicorn = UnicornOptimizer(
        unicorn_system,
        UnicornConfig(initial_samples=initial_samples, budget=budget,
                      seed=seed, relevant_options=relevant))
    unicorn_result = unicorn.optimize(objectives=objective_names)

    pesmo_system = get_system(system_name, hardware=hardware)
    pesmo = PESMOOptimizer(pesmo_system, budget=budget,
                           initial_samples=initial_samples, seed=seed,
                           relevant_options=relevant)
    pesmo_result = pesmo.optimize(objective_names)

    unicorn_points = _minimised_points(unicorn_result, objective_names)
    pesmo_points = _minimised_points(pesmo_result, objective_names)
    all_points = unicorn_points + pesmo_points
    reference_front = pareto_front(all_points)
    reference_point = tuple(
        float(np.max([p[i] for p in all_points]) * 1.1 + 1e-6)
        for i in range(len(objective_names)))

    comparison = MultiObjectiveComparison(
        system=system_name, objectives=tuple(objective_names),
        unicorn=unicorn_result, pesmo=pesmo_result,
        unicorn_front=pareto_front(unicorn_points),
        pesmo_front=pareto_front(pesmo_points))
    comparison.unicorn_hv_error = hypervolume_error(
        comparison.unicorn_front, reference_front, reference_point)
    comparison.pesmo_hv_error = hypervolume_error(
        comparison.pesmo_front, reference_front, reference_point)
    return comparison
