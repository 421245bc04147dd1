"""Transferability experiments (Fig. 4/5, Fig. 16, Fig. 17, Fig. 21/22, Table 15).

Three runners:

* :func:`run_hardware_transfer` — debug a fault in a *target* hardware
  environment reusing knowledge from a *source* environment (Reuse / +N /
  Rerun), the Fig. 16 / Table 15 experiment.
* :func:`run_workload_transfer` — optimize latency on larger workloads
  reusing the model learned on the small workload (Fig. 17).
* :func:`run_stability_analysis` — learn a performance-influence model and a
  causal performance model in a source environment and compare their terms,
  coefficients and prediction error against the target environment
  (Fig. 4, Fig. 5, and the sample-size sweeps of Fig. 21/22).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines.bugdoc import BugDocDebugger
from repro.baselines.influence_model import PerformanceInfluenceModel
from repro.baselines.smac import SMACOptimizer
from repro.core.transfer import TransferMode, transfer_debug, transfer_optimize
from repro.core.unicorn import UnicornConfig
from repro.discovery.pipeline import CausalModelLearner
from repro.evaluation.relevant import relevant_options_for
from repro.metrics.debugging import ace_weighted_accuracy, gain, precision_recall
from repro.metrics.regression import (
    mean_absolute_percentage_error,
    rank_correlation,
    term_stability,
)
from repro.scm.fitting import fit_structural_equations
from repro.systems.faults import discover_faults
from repro.systems.registry import get_system


# ---------------------------------------------------------------------------
# Hardware transfer (Fig. 16, Table 15)
# ---------------------------------------------------------------------------
@dataclass
class HardwareTransferOutcome:
    """Metrics of one transfer mode (and the BugDoc rerun reference)."""

    scenario: str
    accuracy: float
    precision: float
    recall: float
    gain: float
    hours: float


def run_hardware_transfer(system_name: str, source_hardware: str,
                          target_hardware: str, objective: str,
                          budget: int = 50, seed: int = 0,
                          modes: Sequence[TransferMode] = (
                              TransferMode.REUSE, TransferMode.FINE_TUNE,
                              TransferMode.RERUN),
                          include_bugdoc: bool = True
                          ) -> dict[str, HardwareTransferOutcome]:
    """Debug one fault on the target hardware under each transfer mode."""
    relevant = relevant_options_for(system_name)
    target_for_faults = get_system(system_name, hardware=target_hardware)
    catalogue = discover_faults(target_for_faults, n_samples=250,
                                percentile=97.0, objectives=[objective],
                                seed=seed)
    pool = catalogue.single_objective(objective) or catalogue.faults
    fault = pool[0]

    reference = get_system(system_name, hardware=target_hardware)
    weights = reference.true_option_effects(objective)
    true_causes = sorted(weights, key=weights.get, reverse=True)[:5]

    outcomes: dict[str, HardwareTransferOutcome] = {}
    config = UnicornConfig(initial_samples=20, budget=budget, seed=seed,
                           relevant_options=relevant)
    for mode in modes:
        source = get_system(system_name, hardware=source_hardware)
        target = get_system(system_name, hardware=target_hardware)
        transfer = transfer_debug(source, target, fault, mode, config=config,
                                  source_samples=30, fine_tune_samples=25,
                                  objectives=[objective])
        result = transfer.debug_result
        pr = precision_recall(result.root_causes, true_causes)
        outcomes[f"unicorn_{mode.value}"] = HardwareTransferOutcome(
            scenario=f"unicorn ({mode.value})",
            accuracy=100.0 * ace_weighted_accuracy(result.root_causes,
                                                   true_causes, weights),
            precision=100.0 * pr["precision"],
            recall=100.0 * pr["recall"],
            gain=result.gains[objective],
            hours=transfer.extra_target_samples
            * target.measurement_cost_seconds / 3600.0)

    if include_bugdoc:
        target = get_system(system_name, hardware=target_hardware)
        bugdoc = BugDocDebugger(target, budget=budget, seed=seed,
                                relevant_options=relevant)
        result = bugdoc.debug(fault.configuration_dict(),
                              fault.measured_dict(), objectives=[objective])
        pr = precision_recall(result.root_causes, true_causes)
        outcomes["bugdoc_rerun"] = HardwareTransferOutcome(
            scenario="bugdoc (rerun)",
            accuracy=100.0 * ace_weighted_accuracy(result.root_causes,
                                                   true_causes, weights),
            precision=100.0 * pr["precision"],
            recall=100.0 * pr["recall"],
            gain=result.gains[objective],
            hours=result.simulated_hours)
    return outcomes


# ---------------------------------------------------------------------------
# Workload transfer (Fig. 17)
# ---------------------------------------------------------------------------
def run_workload_transfer(system_name: str, hardware: str, objective: str,
                          base_workload: float, target_workloads: Sequence[float],
                          budget: int = 50, seed: int = 0
                          ) -> dict[float, dict[str, float]]:
    """Optimization gain on larger workloads for Unicorn vs SMAC reuse modes.

    Gain is measured relative to the target system's default configuration,
    matching the Fig. 17 presentation ("in comparison with the default
    configuration").
    """
    relevant = relevant_options_for(system_name)
    results: dict[float, dict[str, float]] = {}
    workload_kwarg = {"xception": "n_test_images", "bert": "n_reviews",
                      "deepspeech": "audio_hours"}.get(system_name,
                                                       "n_test_images")

    for target_size in target_workloads:
        source = get_system(system_name, hardware=hardware,
                            **{workload_kwarg: base_workload})
        row: dict[str, float] = {}

        def default_value(system) -> float:
            return system.measure(
                system.space.default_configuration()).objectives[objective]

        for mode in (TransferMode.REUSE, TransferMode.FINE_TUNE):
            target = get_system(system_name, hardware=hardware,
                                **{workload_kwarg: target_size})
            config = UnicornConfig(initial_samples=15, budget=budget,
                                   seed=seed, relevant_options=relevant)
            transfer = transfer_optimize(source, target, mode, config=config,
                                         source_samples=25,
                                         budget_fraction=0.2,
                                         objectives=[objective])
            best = transfer.optimization_result.best_objectives[objective]
            row[f"unicorn_{mode.value}"] = gain(default_value(target), best,
                                                target.objectives[objective])

        for label, smac_budget in (("smac_reuse", 27),
                                   ("smac_fine_tune", 25 + budget // 4)):
            target = get_system(system_name, hardware=hardware,
                                **{workload_kwarg: target_size})
            smac = SMACOptimizer(target, budget=smac_budget,
                                 initial_samples=15, seed=seed,
                                 relevant_options=relevant)
            result = smac.optimize(objective)
            row[label] = gain(default_value(target),
                              result.best_objectives[objective],
                              target.objectives[objective])
        results[float(target_size)] = row
    return results


# ---------------------------------------------------------------------------
# Influence-model vs causal-model stability (Fig. 4, 5, 21, 22)
# ---------------------------------------------------------------------------
@dataclass
class StabilityReport:
    """Term stability and prediction error across an environment change."""

    system: str
    objective: str
    source: str
    target: str
    influence: dict[str, float] = field(default_factory=dict)
    causal: dict[str, float] = field(default_factory=dict)

    def causal_generalizes_better(self) -> bool:
        """The Fig. 4 claim: smaller error inflation for the causal model."""
        return (self.causal["error_inflation"]
                <= self.influence["error_inflation"] + 1e-9)


def _influence_terms_and_error(system, data_source, data_target, objective,
                               options):
    model = PerformanceInfluenceModel(max_terms=15)
    model.fit(data_source, objective, options)
    return (model.terms(),
            model.mape(data_source, objective),
            model.mape(data_target, objective))


def _causal_terms_and_error(system, data_source, data_target, objective,
                            constraints):
    learner = CausalModelLearner(constraints, max_condition_size=1)
    learned = learner.learn(data_source)
    fitted_source = fit_structural_equations(learned.graph, data_source)
    option_names = set(constraints.options())

    def predict_from_options(row):
        # Predict the objective from the configuration alone, propagating
        # through the causal structure (events are predicted, not observed),
        # so the comparison with the influence model is like-for-like.
        assignment = {k: v for k, v in row.items() if k in option_names}
        return fitted_source.predict(assignment,
                                     targets=[objective])[objective]

    predictions_source = [predict_from_options(row)
                          for row in data_source.rows()]
    predictions_target = [predict_from_options(row)
                          for row in data_target.rows()]
    source_error = mean_absolute_percentage_error(
        data_source.column(objective), predictions_source)
    target_error = mean_absolute_percentage_error(
        data_target.column(objective), predictions_target)
    return fitted_source.all_terms(), source_error, target_error


def run_stability_analysis(system_name: str, source_hardware: str,
                           target_hardware: str, objective: str,
                           n_samples: int = 200, seed: int = 0
                           ) -> StabilityReport:
    """Compare influence-model and causal-model stability across hardware."""
    relevant = relevant_options_for(system_name)

    source_system = get_system(system_name, hardware=source_hardware)
    target_system = get_system(system_name, hardware=target_hardware)
    rng_source = np.random.default_rng(seed)
    rng_target = np.random.default_rng(seed + 1)
    configs = source_system.space.sample_configurations(n_samples, rng_source)

    source_measurements = source_system.measure_many(configs, rng=rng_source)
    target_measurements = target_system.measure_many(configs, rng=rng_target)

    unicorn_view_source = _restricted_dataset(source_system,
                                              source_measurements, relevant)
    unicorn_view_target = _restricted_dataset(target_system,
                                              target_measurements, relevant)

    options = [o for o in (relevant or source_system.space.option_names)
               if o in unicorn_view_source.columns]

    influence_src_terms, influence_src_err, influence_cross_err = (
        _influence_terms_and_error(source_system, unicorn_view_source,
                                   unicorn_view_target, objective, options))
    influence_tgt_terms, influence_tgt_err, _ = _influence_terms_and_error(
        target_system, unicorn_view_target, unicorn_view_source, objective,
        options)

    constraints = _restricted_constraints(source_system, relevant)
    causal_src_terms, causal_src_err, causal_cross_err = (
        _causal_terms_and_error(source_system, unicorn_view_source,
                                unicorn_view_target, objective, constraints))
    causal_tgt_terms, causal_tgt_err, _ = _causal_terms_and_error(
        target_system, unicorn_view_target, unicorn_view_source, objective,
        constraints)

    report = StabilityReport(system=system_name, objective=objective,
                             source=source_hardware, target=target_hardware)
    for label, src_terms, tgt_terms, src_err, tgt_err, cross_err in (
            ("influence", influence_src_terms, influence_tgt_terms,
             influence_src_err, influence_tgt_err, influence_cross_err),
            ("causal", causal_src_terms, causal_tgt_terms,
             causal_src_err, causal_tgt_err, causal_cross_err)):
        stability = term_stability(src_terms, tgt_terms)
        rank = rank_correlation(src_terms, tgt_terms)
        entry = {
            **stability,
            "rank_correlation": rank["rho"],
            "source_error": src_err,
            "target_error": tgt_err,
            "cross_error": cross_err,
            "error_inflation": cross_err - src_err,
        }
        if label == "influence":
            report.influence = entry
        else:
            report.causal = entry
    return report


def run_term_stability_vs_samples(system_name: str, source_hardware: str,
                                  target_hardware: str, objective: str,
                                  sample_sizes: Sequence[int] = (50, 100, 200),
                                  seed: int = 0) -> list[dict[str, float]]:
    """Fig. 21/22: stability of the two model families vs. sample size."""
    rows = []
    for n in sample_sizes:
        report = run_stability_analysis(system_name, source_hardware,
                                        target_hardware, objective,
                                        n_samples=n, seed=seed)
        rows.append({
            "n_samples": float(n),
            "influence_common_terms": report.influence["common_terms"],
            "influence_cross_error": report.influence["cross_error"],
            "causal_common_terms": report.causal["common_terms"],
            "causal_cross_error": report.causal["cross_error"],
        })
    return rows


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _restricted_dataset(system, measurements, relevant):
    data = system.build_dataset(measurements)
    if relevant is None:
        return data
    keep = ([o for o in relevant if o in data.columns]
            + [e for e in system.events if e in data.columns]
            + [o for o in system.objective_names if o in data.columns])
    return data.subset(keep)


def _restricted_constraints(system, relevant):
    from repro.discovery.constraints import StructuralConstraints

    options = relevant or system.space.option_names
    options = [o for o in options if o in system.space.option_names]
    return StructuralConstraints.from_variable_lists(
        options=options, events=system.events,
        objectives=system.objective_names)
