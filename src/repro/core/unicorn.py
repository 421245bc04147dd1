"""Shared Unicorn machinery: configuration, sampling and model maintenance.

``Unicorn`` owns everything the debugger and the optimizer have in common:

* restriction of the system's variable set to the options/events the user
  selected (the paper's "most relevant options" scenarios),
* collection of the initial observational sample (Stage II's input),
* learning and incrementally updating the causal performance model
  (Stages II and IV),
* building a :class:`CausalInferenceEngine` over the current model
  (Stages III and V),
* ACE-guided proposal of the next configuration to measure (Stage III).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.pipeline import CausalModelLearner, LearnedModel
from repro.inference.engine import CausalInferenceEngine
from repro.stats.dataset import Dataset
from repro.systems.base import ConfigurableSystem, Measurement


@dataclass
class UnicornConfig:
    """Hyper-parameters of the Unicorn active-learning loop.

    The defaults follow the paper's experimental parameters: 25 initial
    samples (10% of the sampling budget), the entropy threshold factor 0.8,
    and K top causal paths between 3 and 25.
    """

    initial_samples: int = 25
    budget: int = 100
    n_repeats: int = 3
    top_k_paths: int = 5
    alpha: float = 0.05
    max_condition_size: int = 1
    bins: int = 6
    entropy_threshold_factor: float = 0.8
    max_contexts: int = 60
    termination_patience: int = 12
    #: fraction of active-loop iterations spent on ACE-guided exploration
    #: (improving the causal model) rather than measuring the top-ranked
    #: counterfactual repair; Stage III of the paper is exactly this
    #: exploration step, with exploitation happening through the repair
    #: estimates of Stage V.
    exploration_fraction: float = 0.5
    #: evaluate interventional/counterfactual queries (ACE sweeps, repair
    #: scans, satisfaction probabilities) through the vectorized
    #: ``BatchedFittedModel``; set False to pin the engine to the scalar
    #: reference path (the differential-testing oracle).
    batched_queries: bool = True
    seed: int = 0
    relevant_options: Sequence[str] | None = None
    relevant_events: Sequence[str] | None = None


@dataclass
class LoopState:
    """Mutable state of one active-learning run."""

    measurements: list[Measurement] = field(default_factory=list)
    learned: LearnedModel | None = None
    engine: CausalInferenceEngine | None = None
    iterations: int = 0
    history: list[dict[str, float]] = field(default_factory=list)
    #: wall-clock seconds of each (re-)learn, in call order; entries produced
    #: by the incremental path are also flagged in ``learned.history``.
    relearn_seconds: list[float] = field(default_factory=list)

    @property
    def samples_used(self) -> int:
        return len(self.measurements)


class Unicorn:
    """Shared five-stage machinery over one configurable system."""

    def __init__(self, system: ConfigurableSystem,
                 config: UnicornConfig | None = None) -> None:
        self.system = system
        self.config = config or UnicornConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._option_names = self._select_options()
        self._event_names = self._select_events()
        self._objective_names = list(system.objective_names)
        self._constraints = StructuralConstraints.from_variable_lists(
            options=self._option_names, events=self._event_names,
            objectives=self._objective_names)
        self._learner = CausalModelLearner(
            self._constraints, alpha=self.config.alpha,
            max_condition_size=self.config.max_condition_size,
            bins=self.config.bins,
            entropy_threshold_factor=self.config.entropy_threshold_factor,
            seed=self.config.seed)
        self._domains = {name: system.space.option(name).values
                         for name in self._option_names}

    # ------------------------------------------------------------ selection
    def _select_options(self) -> list[str]:
        names = self.system.space.option_names
        if self.config.relevant_options is not None:
            wanted = [o for o in self.config.relevant_options if o in names]
            if wanted:
                return wanted
        return names

    def _select_events(self) -> list[str]:
        names = self.system.events
        if self.config.relevant_events is not None:
            wanted = [e for e in self.config.relevant_events if e in names]
            return wanted
        return names

    @property
    def option_names(self) -> list[str]:
        return list(self._option_names)

    @property
    def event_names(self) -> list[str]:
        return list(self._event_names)

    @property
    def objective_names(self) -> list[str]:
        return list(self._objective_names)

    @property
    def constraints(self) -> StructuralConstraints:
        return self._constraints

    @property
    def domains(self) -> dict[str, tuple[float, ...]]:
        return dict(self._domains)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    # ------------------------------------------------------------- datasets
    def _variables(self) -> list[str]:
        return self._option_names + self._event_names + self._objective_names

    def dataset_from_measurements(self,
                                  measurements: Sequence[Measurement]) -> Dataset:
        """Flatten measurements into a :class:`Dataset` over the loop's
        variables (options, then events, then objectives).

        Parameters
        ----------
        measurements:
            The measurements to tabulate; each contributes one row.

        Returns
        -------
        Dataset
            Column-named matrix with low-cardinality options marked
            discrete (CI tests pick their estimator from that flag).
        """
        rows = [m.as_row() for m in measurements]
        columns = self._variables()
        discrete = [name for name in self._option_names
                    if self.system.space.option(name).cardinality <= 12]
        return Dataset.from_rows(rows, columns=columns, discrete=discrete)

    # ------------------------------------------------------------ stage II
    def collect_initial_samples(self, state: LoopState,
                                initial_measurements: Sequence[Measurement] = ()
                                ) -> None:
        """Measure the initial configurations (or adopt provided ones)."""
        state.measurements.extend(initial_measurements)
        needed = self.config.initial_samples - len(state.measurements)
        if needed > 0:
            configs = self.system.space.sample_configurations(needed, self._rng)
            state.measurements.extend(self.system.measure_many(
                configs, n_repeats=self.config.n_repeats, rng=self._rng))

    def learn(self, state: LoopState,
              incremental: bool | None = None) -> CausalInferenceEngine:
        """Learn (or re-learn) the causal performance model from the state.

        By default the first call cold-starts the model and every later call
        routes through the incremental path: measurements not yet reflected
        in the model are appended in place to its dataset, the learner
        re-runs discovery with its CI-decision cache replaying every
        non-borderline decision, and the existing inference engine is
        refreshed instead of being reconstructed.  Pass
        ``incremental=False`` to force the from-scratch path (used by
        benchmarks as the cold baseline).
        """
        started = time.perf_counter()
        if incremental is None:
            incremental = state.learned is not None
        if incremental and state.learned is not None:
            consumed = state.learned.data.n_rows
            new_rows = [m.as_row() for m in state.measurements[consumed:]]
            state.learned = self._learner.update(state.learned, new_rows)
            if state.engine is not None:
                state.engine.refresh(state.learned)
            else:  # pragma: no cover - incremental without a prior engine
                state.engine = CausalInferenceEngine(
                    state.learned, self._domains,
                    top_k_paths=self.config.top_k_paths,
                    max_contexts=self.config.max_contexts,
                    batched=self.config.batched_queries)
        else:
            data = self.dataset_from_measurements(state.measurements)
            state.learned = self._learner.learn(data)
            state.engine = CausalInferenceEngine(
                state.learned, self._domains,
                top_k_paths=self.config.top_k_paths,
                max_contexts=self.config.max_contexts,
                batched=self.config.batched_queries)
        state.relearn_seconds.append(time.perf_counter() - started)
        return state.engine

    def fit(self, initial_measurements: Sequence[Measurement] = ()
            ) -> LoopState:
        """Collect the initial sample and learn the first model in one call.

        The convenience entry point used by consumers that want a fitted,
        queryable model handle rather than to drive the active loop
        themselves — the serving layer's
        :class:`~repro.service.registry.ModelRegistry` fits registry
        entries through it, and later refreshes them via :meth:`learn`'s
        incremental path.

        Parameters
        ----------
        initial_measurements:
            Measurements to adopt before sampling; only the shortfall up to
            ``config.initial_samples`` is measured fresh.

        Returns
        -------
        LoopState
            A new loop state with ``measurements``, ``learned`` and
            ``engine`` populated (``engine`` is also reachable as
            ``state.engine``).
        """
        state = LoopState()
        self.collect_initial_samples(state, initial_measurements)
        self.learn(state)
        return state

    # ------------------------------------------------------------ stage III/IV
    def measure_and_update(self, state: LoopState,
                           configuration: Mapping[str, float],
                           relearn: bool = True,
                           incremental: bool | None = None) -> Measurement:
        """Measure one configuration and incrementally update the model."""
        measurement = self.system.measure(configuration,
                                          n_repeats=self.config.n_repeats,
                                          rng=self._rng)
        state.measurements.append(measurement)
        state.iterations += 1
        if relearn:
            self.learn(state, incremental=incremental)
        return measurement

    def propose_exploration(self, state: LoopState,
                            base_configuration: Mapping[str, float]) -> dict[str, float]:
        """ACE-guided perturbation of a configuration (Stage III heuristic).

        Options are perturbed with probability proportional to their causal
        effect on the objectives; perturbed options get a fresh value drawn
        uniformly from their domain.
        """
        config = dict(self.system.space.clamp(base_configuration))
        if state.engine is None:
            # No model yet: perturb a few options uniformly at random.
            for name in self._rng.choice(self._option_names,
                                         size=min(3, len(self._option_names)),
                                         replace=False):
                config[name] = float(self._rng.choice(self._domains[name]))
            return config
        probabilities = state.engine.sampling_probabilities(
            self._objective_names)
        for name in self._option_names:
            p = probabilities.get(name, 1.0 / max(len(self._option_names), 1))
            if self._rng.random() < min(4.0 * p, 0.9):
                config[name] = float(self._rng.choice(self._domains[name]))
        return config

    def remaining_budget(self, state: LoopState) -> int:
        """Measurements left before ``config.budget`` is exhausted."""
        return max(self.config.budget - state.samples_used, 0)
