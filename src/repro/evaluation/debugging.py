"""Debugging-effectiveness experiments (Table 2a/2b, Table 14, Fig. 14).

``run_debugging_comparison`` takes one subject system, discovers (or is
given) a set of non-functional faults, runs Unicorn and the requested
correlational baselines on each fault, and reports the paper's metrics:
ACE-weighted accuracy, precision, recall, gain per objective and time.
``run_sample_efficiency`` sweeps the sampling budget for the Fig. 14 curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.bugdoc import BugDocDebugger
from repro.baselines.cbi import CBIDebugger
from repro.baselines.delta_debugging import DeltaDebugger
from repro.baselines.encore import EnCoreDebugger
from repro.core.debugger import DebugResult, UnicornDebugger
from repro.core.unicorn import UnicornConfig
from repro.evaluation.relevant import relevant_options_for
from repro.metrics.debugging import ace_weighted_accuracy, precision_recall
from repro.systems.base import ConfigurableSystem
from repro.systems.faults import Fault, discover_faults
from repro.systems.registry import get_system

#: Baseline name -> debugger class.
BASELINE_CLASSES = {
    "cbi": CBIDebugger,
    "dd": DeltaDebugger,
    "encore": EnCoreDebugger,
    "bugdoc": BugDocDebugger,
}


@dataclass
class ApproachOutcome:
    """Aggregated metrics of one approach over a set of faults."""

    approach: str
    accuracy: float
    precision: float
    recall: float
    gains: dict[str, float]
    mean_gain: float
    hours: float
    samples: float
    results: list[DebugResult] = field(default_factory=list)


@dataclass
class DebuggingComparison:
    """Outcome of one system/objective debugging comparison."""

    system: str
    environment: str
    objectives: tuple[str, ...]
    n_faults: int
    outcomes: dict[str, ApproachOutcome] = field(default_factory=dict)

    def best_approach(self, metric: str = "accuracy") -> str:
        return max(self.outcomes,
                   key=lambda name: getattr(self.outcomes[name], metric))

    def rows(self) -> list[dict[str, float | str]]:
        out: list[dict[str, float | str]] = []
        for name, outcome in self.outcomes.items():
            row: dict[str, float | str] = {
                "approach": name,
                "accuracy": round(outcome.accuracy, 1),
                "precision": round(outcome.precision, 1),
                "recall": round(outcome.recall, 1),
                "gain": round(outcome.mean_gain, 1),
                "hours": round(outcome.hours, 2),
                "samples": round(outcome.samples, 1),
            }
            out.append(row)
        return out


def _true_root_causes(system: ConfigurableSystem, objectives: Sequence[str],
                      top_n: int = 5,
                      restrict_to: Sequence[str] | None = None
                      ) -> tuple[list[str], dict[str, float]]:
    """Ground-truth root causes and ACE weights for the accuracy metric.

    ``restrict_to`` limits the candidate options to the set every compared
    approach is allowed to modify (the "relevant options" of the scenario),
    so no approach is penalised for options outside the studied space.
    """
    weights: dict[str, float] = {}
    allowed = set(restrict_to) if restrict_to is not None else None
    for objective in objectives:
        for option, effect in system.true_option_effects(objective).items():
            if allowed is not None and option not in allowed:
                continue
            weights[option] = weights.get(option, 0.0) + effect
    ranked = sorted(weights, key=weights.get, reverse=True)
    return ranked[:top_n], weights


def _evaluate(result: DebugResult, true_causes: Sequence[str],
              weights: Mapping[str, float]) -> dict[str, float]:
    accuracy = ace_weighted_accuracy(result.root_causes, true_causes, weights)
    pr = precision_recall(result.root_causes, true_causes)
    return {"accuracy": 100.0 * accuracy, "precision": 100.0 * pr["precision"],
            "recall": 100.0 * pr["recall"]}


def run_debugging_comparison(system_name: str, hardware: str,
                             objectives: Sequence[str],
                             approaches: Sequence[str] = ("unicorn", "cbi",
                                                          "dd", "encore",
                                                          "bugdoc"),
                             n_faults: int = 2,
                             budget: int = 50,
                             initial_samples: int = 20,
                             fault_percentile: float = 97.0,
                             fault_samples: int = 300,
                             seed: int = 0,
                             faults: Sequence[Fault] | None = None
                             ) -> DebuggingComparison:
    """Run Unicorn and baselines on faults of one system.

    ``objectives`` selects single-objective (one name) or multi-objective
    (several names) faults, matching Table 2a vs. Table 2b.
    """
    relevant = relevant_options_for(system_name)
    objective_names = list(objectives)

    if faults is None:
        catalogue_system = get_system(system_name, hardware=hardware)
        catalogue = discover_faults(catalogue_system, n_samples=fault_samples,
                                    percentile=fault_percentile,
                                    objectives=objective_names, seed=seed)
        if len(objective_names) == 1:
            pool = catalogue.single_objective(objective_names[0])
        else:
            pool = catalogue.multi_objective(objective_names)
        if not pool:
            pool = catalogue.faults
        faults = pool[:n_faults]
    faults = list(faults)
    if not faults:
        raise RuntimeError(
            f"no faults found for {system_name} / {objective_names}")

    comparison = DebuggingComparison(
        system=system_name, environment=hardware,
        objectives=tuple(objective_names), n_faults=len(faults))

    reference_system = get_system(system_name, hardware=hardware)
    true_causes, weights = _true_root_causes(reference_system, objective_names,
                                             restrict_to=relevant)

    for approach in approaches:
        per_fault: list[DebugResult] = []
        metrics = {"accuracy": [], "precision": [], "recall": []}
        gains: dict[str, list[float]] = {o: [] for o in objective_names}
        hours: list[float] = []
        samples: list[float] = []
        for i, fault in enumerate(faults):
            system = get_system(system_name, hardware=hardware)
            if approach == "unicorn":
                config = UnicornConfig(initial_samples=initial_samples,
                                       budget=budget, seed=seed + i,
                                       relevant_options=relevant)
                debugger = UnicornDebugger(system, config)
                result = debugger.debug_fault(fault,
                                              objectives=objective_names)
            else:
                cls = BASELINE_CLASSES[approach]
                baseline = cls(system, budget=budget, seed=seed + i,
                               relevant_options=relevant)
                result = baseline.debug(fault.configuration_dict(),
                                        fault.measured_dict(),
                                        objectives=objective_names)
            per_fault.append(result)
            scores = _evaluate(result, true_causes, weights)
            for key, value in scores.items():
                metrics[key].append(value)
            for objective in objective_names:
                gains[objective].append(result.gains[objective])
            hours.append(result.simulated_hours)
            samples.append(result.samples_used)

        comparison.outcomes[approach] = ApproachOutcome(
            approach=approach,
            accuracy=float(np.mean(metrics["accuracy"])),
            precision=float(np.mean(metrics["precision"])),
            recall=float(np.mean(metrics["recall"])),
            gains={o: float(np.mean(v)) for o, v in gains.items()},
            mean_gain=float(np.mean([np.mean(v) for v in gains.values()])),
            hours=float(np.mean(hours)),
            samples=float(np.mean(samples)),
            results=per_fault)
    return comparison


def run_sample_efficiency(system_name: str, hardware: str, objective: str,
                          budgets: Sequence[int] = (30, 60, 100),
                          approaches: Sequence[str] = ("unicorn", "bugdoc"),
                          seed: int = 0) -> dict[str, list[dict[str, float]]]:
    """Gain as a function of the sampling budget (Fig. 14 curves)."""
    curves: dict[str, list[dict[str, float]]] = {a: [] for a in approaches}
    for budget in budgets:
        comparison = run_debugging_comparison(
            system_name, hardware, [objective], approaches=approaches,
            n_faults=1, budget=budget,
            initial_samples=min(20, max(budget // 3, 5)), seed=seed)
        for approach in approaches:
            outcome = comparison.outcomes[approach]
            curves[approach].append({"budget": float(budget),
                                     "gain": outcome.mean_gain,
                                     "samples": outcome.samples})
    return curves
