"""Performance debugging with Unicorn.

``UnicornDebugger`` runs the full five-stage loop for a repair query: learn a
causal performance model from an initial sample, extract and rank causal
paths, generate candidate repairs, score them counterfactually (ICE), measure
the best candidate, update the model, and repeat until the fault is fixed or
the budget is exhausted.  The result records the root causes, the recommended
repair, per-objective gains and the resources spent — everything Table 2 and
Fig. 14 report.

The per-iteration repair scan is batched: the engine enumerates the candidate
grid once and scores every candidate in a single vectorized counterfactual
call (``UnicornConfig.batched_queries=False`` pins the loop to the scalar
reference path).  The ranking the walk below consumes is deterministic
(:func:`repro.inference.repairs.repair_sort_key`), so scalar and batched runs
propose the same measurements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.unicorn import LoopState, Unicorn, UnicornConfig
from repro.inference.queries import PerformanceQuery
from repro.metrics.debugging import gain as gain_metric
from repro.systems.base import ConfigurableSystem, Measurement
from repro.systems.faults import Fault


@dataclass
class DebugResult:
    """Outcome of one debugging run."""

    system: str
    environment: str
    objectives: dict[str, str]
    faulty_configuration: dict[str, float]
    faulty_measurement: dict[str, float]
    recommended_configuration: dict[str, float]
    recommended_measurement: dict[str, float]
    root_causes: list[str]
    changed_options: list[str]
    gains: dict[str, float]
    iterations: int
    samples_used: int
    wall_clock_seconds: float
    simulated_hours: float
    fixed: bool
    history: list[dict[str, float]] = field(default_factory=list)

    @property
    def mean_gain(self) -> float:
        if not self.gains:
            return 0.0
        return sum(self.gains.values()) / len(self.gains)


class UnicornDebugger:
    """Debug non-functional faults with causal reasoning."""

    def __init__(self, system: ConfigurableSystem,
                 config: UnicornConfig | None = None) -> None:
        self.unicorn = Unicorn(system, config)
        self.system = system
        self.config = self.unicorn.config

    # ------------------------------------------------------------------ API
    def debug_fault(self, fault: Fault,
                    objectives: Sequence[str] | None = None,
                    initial_measurements: Sequence[Measurement] = (),
                    qos: Mapping[str, float] | None = None) -> DebugResult:
        """Debug a catalogued fault (convenience wrapper)."""
        objective_names = list(objectives or fault.objectives)
        return self.debug(fault.configuration_dict(),
                          faulty_measurement=fault.measured_dict(),
                          objectives=objective_names,
                          initial_measurements=initial_measurements, qos=qos)

    def debug(self, faulty_configuration: Mapping[str, float],
              faulty_measurement: Mapping[str, float] | None = None,
              objectives: Sequence[str] | None = None,
              initial_measurements: Sequence[Measurement] = (),
              qos: Mapping[str, float] | None = None) -> DebugResult:
        """Run the debugging loop for one fault.

        Parameters
        ----------
        faulty_configuration:
            The misconfiguration observed in production.
        faulty_measurement:
            Its measured objectives; measured on the spot when omitted.
        objectives:
            The objectives that are faulty (defaults to all objectives).
        initial_measurements:
            Previously measured configurations to seed Stage II (used by the
            transfer experiments to reuse source-environment data).
        qos:
            Optional per-objective thresholds; when every faulty objective
            satisfies its threshold the loop stops early ("fault fixed").
        """
        started = time.perf_counter()
        objective_names = list(objectives or self.system.objective_names)
        directions = {o: self.system.objectives[o] for o in objective_names}
        query = PerformanceQuery.repair(directions)

        if faulty_measurement is None:
            faulty = self.system.measure(faulty_configuration,
                                         n_repeats=self.config.n_repeats)
            faulty_measurement = dict(faulty.objectives)
        faulty_configuration = self.system.space.clamp(faulty_configuration)

        state = LoopState()
        self.unicorn.collect_initial_samples(state, initial_measurements)
        engine = self.unicorn.learn(state)

        best_config = dict(faulty_configuration)
        best_measurement = dict(faulty_measurement)
        best_score = 0.0
        root_causes: list[str] = []
        no_improvement_streak = 0
        tried: set[tuple[tuple[str, float], ...]] = {
            tuple(sorted(faulty_configuration.items()))}

        while self.unicorn.remaining_budget(state) > 0:
            answer = engine.answer(query,
                                   faulty_configuration=faulty_configuration,
                                   faulty_measurement=faulty_measurement)
            # Accumulate the options surfacing on top-ranked causal paths as
            # the model evolves; the union over iterations is the root-cause
            # report (later models are better, earlier findings stay valid).
            for option in answer.root_causes:
                if option not in root_causes:
                    root_causes.append(option)
            candidate = None
            explore = (state.iterations % 2 == 1
                       if self.config.exploration_fraction >= 0.5
                       else state.iterations % 4 == 3)
            if self.config.exploration_fraction <= 0.0:
                explore = False
            if not explore and answer.repairs is not None:
                # Walk down the ranked repair set until an untried candidate
                # configuration is found.
                for repair in answer.repairs:
                    proposal = dict(faulty_configuration)
                    proposal.update(repair.as_dict())
                    key = tuple(sorted(proposal.items()))
                    if key not in tried:
                        candidate = proposal
                        break
            if candidate is None:
                candidate = self.unicorn.propose_exploration(
                    state, best_config)
            tried.add(tuple(sorted(candidate.items())))

            measurement = self.unicorn.measure_and_update(state, candidate)
            score = self._improvement_score(measurement.objectives,
                                            faulty_measurement, directions)
            state.history.append({
                "iteration": float(state.iterations),
                "score": score,
                "relearn_seconds": (state.relearn_seconds[-1]
                                    if state.relearn_seconds else 0.0),
                **{f"objective:{o}": measurement.objectives[o]
                   for o in objective_names},
            })
            if score > best_score:
                best_score = score
                best_config = dict(measurement.configuration)
                best_measurement = dict(measurement.objectives)
                no_improvement_streak = 0
            else:
                no_improvement_streak += 1

            # measure_and_update refreshed the engine in place (incremental
            # path) or rebuilt it (cold fallback); re-read either way.
            engine = state.engine
            if self._qos_satisfied(best_measurement, directions, qos):
                break
            if no_improvement_streak >= self.config.termination_patience:
                break

        gains = {
            o: gain_metric(faulty_measurement[o], best_measurement[o],
                           directions[o])
            for o in objective_names
        }
        changed = [name for name in best_config
                   if best_config[name] != faulty_configuration.get(name)]
        root_causes = self._pad_root_causes(root_causes, engine,
                                            objective_names, changed)
        elapsed = time.perf_counter() - started
        return DebugResult(
            system=self.system.name,
            environment=self.system.environment.name,
            objectives=directions,
            faulty_configuration=dict(faulty_configuration),
            faulty_measurement=dict(faulty_measurement),
            recommended_configuration=best_config,
            recommended_measurement=best_measurement,
            root_causes=root_causes,
            changed_options=changed,
            gains=gains,
            iterations=state.iterations,
            samples_used=state.samples_used,
            wall_clock_seconds=elapsed,
            simulated_hours=(state.samples_used
                             * self.system.measurement_cost_seconds / 3600.0),
            fixed=self._qos_satisfied(best_measurement, directions, qos)
            or all(g > 0 for g in gains.values()),
            history=state.history)

    # ------------------------------------------------------------------ impl
    def _pad_root_causes(self, root_causes: list[str], engine,
                         objective_names: Sequence[str],
                         changed_options: Sequence[str],
                         limit: int = 5) -> list[str]:
        """Complete the root-cause report up to ``limit`` options.

        Options discovered on top-ranked causal paths come first; if the
        learned graph is still sparse they are supplemented with the options
        carrying the largest estimated causal effect on the faulty
        objectives, and finally with the options the accepted repair changed.
        """
        causes = list(root_causes)
        if len(causes) < limit and engine is not None:
            totals = engine.total_option_effects(objective_names)
            for option in sorted(totals, key=totals.get, reverse=True):
                if len(causes) >= limit:
                    break
                if totals[option] > 0 and option not in causes:
                    causes.append(option)
        for option in changed_options:
            if len(causes) >= limit:
                break
            if option not in causes:
                causes.append(option)
        return causes[:limit]

    @staticmethod
    def _improvement_score(measured: Mapping[str, float],
                           faulty: Mapping[str, float],
                           directions: Mapping[str, str]) -> float:
        """Mean relative improvement over the fault across objectives."""
        scores = []
        for objective, direction in directions.items():
            scores.append(gain_metric(faulty[objective], measured[objective],
                                      direction))
        return sum(scores) / len(scores) if scores else 0.0

    @staticmethod
    def _qos_satisfied(measured: Mapping[str, float],
                       directions: Mapping[str, str],
                       qos: Mapping[str, float] | None) -> bool:
        if not qos:
            return False
        for objective, threshold in qos.items():
            direction = directions.get(objective, "minimize")
            value = measured.get(objective)
            if value is None:
                return False
            if direction == "minimize" and value > threshold:
                return False
            if direction == "maximize" and value < threshold:
                return False
        return True
