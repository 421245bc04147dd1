"""Configurable systems, environments and measurements.

``ConfigurableSystem`` is the interface Unicorn and every baseline interact
with: it owns a configuration space, a set of observable system events, a set
of performance objectives with optimization directions, and — per deployment
environment — a ground-truth structural causal model that produces the
measurements.  Measuring a configuration evaluates the SCM with fresh noise
``n_repeats`` times and reports the median of each metric, exactly as the
measurement protocol of the paper prescribes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.discovery.constraints import StructuralConstraints
from repro.graph.mixed_graph import MixedGraph
from repro.scm.model import StructuralCausalModel
from repro.stats.dataset import Dataset
from repro.systems.hardware import Hardware
from repro.systems.options import ConfigurationSpace
from repro.systems.workloads import Workload


@dataclass(frozen=True)
class Environment:
    """A deployment environment: hardware platform plus workload."""

    hardware: Hardware
    workload: Workload

    @property
    def name(self) -> str:
        return f"{self.hardware.name}/{self.workload.name}"

    def with_hardware(self, hardware: Hardware) -> "Environment":
        return Environment(hardware=hardware, workload=self.workload)

    def with_workload(self, workload: Workload) -> "Environment":
        return Environment(hardware=self.hardware, workload=workload)

    def __str__(self) -> str:
        return self.name


@dataclass
class Measurement:
    """One measured configuration: events, objectives and metadata."""

    configuration: dict[str, float]
    events: dict[str, float]
    objectives: dict[str, float]
    environment: str
    replicates: int = 1
    measurement_seconds: float = 0.0

    def as_row(self) -> dict[str, float]:
        """Flatten configuration + events + objectives into one data row."""
        row: dict[str, float] = {}
        row.update(self.configuration)
        row.update(self.events)
        row.update(self.objectives)
        return row


class ConfigurableSystem:
    """A simulated highly configurable system.

    Parameters
    ----------
    name:
        System name (e.g. ``"deepstream"``).
    space:
        The configuration space (software + kernel + hardware options).
    events:
        Names of the observable system events.
    objectives:
        Mapping from objective name to optimization direction
        (``"minimize"`` or ``"maximize"``).
    scm_factory:
        Callable producing the ground-truth SCM for a given environment.
    environment:
        The current deployment environment.
    measurement_cost_seconds:
        Simulated wall-clock cost of measuring one configuration once
        (used to report debugging times comparable to the paper's hours).
    seed:
        Base seed for the measurement noise stream.
    """

    def __init__(self, name: str, space: ConfigurationSpace,
                 events: Sequence[str], objectives: Mapping[str, str],
                 scm_factory: Callable[[Environment], StructuralCausalModel],
                 environment: Environment,
                 measurement_cost_seconds: float = 60.0,
                 seed: int = 0) -> None:
        self.name = name
        self.space = space
        self.events = list(events)
        self.objectives = dict(objectives)
        self._scm_factory = scm_factory
        self.environment = environment
        self.measurement_cost_seconds = float(measurement_cost_seconds)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._scm: StructuralCausalModel | None = None
        self.measurements_taken = 0
        self.simulated_seconds = 0.0

    # ------------------------------------------------------------ structure
    @property
    def scm(self) -> StructuralCausalModel:
        """Ground-truth SCM for the current environment (lazily built)."""
        if self._scm is None:
            self._scm = self._scm_factory(self.environment)
        return self._scm

    @property
    def objective_names(self) -> list[str]:
        return list(self.objectives)

    @property
    def variables(self) -> list[str]:
        return self.space.option_names + self.events + self.objective_names

    def constraints(self) -> StructuralConstraints:
        """Structural constraints matching this system's variable roles."""
        return StructuralConstraints.from_variable_lists(
            options=self.space.option_names, events=self.events,
            objectives=self.objective_names)

    def ground_truth_graph(self) -> MixedGraph:
        """The ground-truth causal graph restricted to observed variables."""
        dag = self.scm.dag
        observed = set(self.variables)
        graph = MixedGraph([n for n in dag.nodes if n in observed])
        for cause, effect in dag.edges():
            if cause in observed and effect in observed:
                graph.add_directed_edge(cause, effect)
        return graph

    # ---------------------------------------------------------- environments
    def in_environment(self, environment: Environment) -> "ConfigurableSystem":
        """A copy of this system deployed in another environment."""
        return ConfigurableSystem(
            name=self.name, space=self.space, events=self.events,
            objectives=self.objectives, scm_factory=self._scm_factory,
            environment=environment,
            measurement_cost_seconds=self.measurement_cost_seconds,
            seed=self._seed)

    def on_hardware(self, hardware: Hardware) -> "ConfigurableSystem":
        return self.in_environment(self.environment.with_hardware(hardware))

    def with_workload(self, workload: Workload) -> "ConfigurableSystem":
        return self.in_environment(self.environment.with_workload(workload))

    # ------------------------------------------------------------ measurement
    def measure(self, configuration: Mapping[str, float],
                n_repeats: int = 5,
                rng: np.random.Generator | None = None) -> Measurement:
        """Measure one configuration.

        Evaluates the ground-truth SCM ``n_repeats`` times with independent
        noise and reports the median of every event and objective, following
        the paper's measurement protocol ("we measure each configuration
        multiple times and use the median").  The replicates are stacked
        into one ``(repeats, variables)`` array and reduced by a single
        column-wise median, which equals a per-variable ``np.median`` bit
        for bit (NaN and inf included).
        """
        config = self.space.clamp(configuration)
        rng = rng if rng is not None else self._rng
        started = time.perf_counter()
        outcomes = [self.scm.intervene(config, rng=rng)
                    for _ in range(max(n_repeats, 1))]
        names = list(outcomes[0])
        replicates = np.array([[outcome[name] for name in names]
                               for outcome in outcomes], dtype=float)
        medians = dict(zip(names, np.median(replicates, axis=0).tolist()))
        events = {e: medians[e] for e in self.events if e in medians}
        objectives = {o: medians[o] for o in self.objective_names
                      if o in medians}
        self.measurements_taken += 1
        self.simulated_seconds += self.measurement_cost_seconds
        return Measurement(configuration=dict(config), events=events,
                           objectives=objectives,
                           environment=self.environment.name,
                           replicates=n_repeats,
                           measurement_seconds=time.perf_counter() - started)

    def measure_many(self, configurations: Iterable[Mapping[str, float]],
                     n_repeats: int = 3,
                     rng: np.random.Generator | None = None) -> list[Measurement]:
        return [self.measure(c, n_repeats=n_repeats, rng=rng)
                for c in configurations]

    def build_dataset(self, measurements: Sequence[Measurement]) -> Dataset:
        """Convert measurements into a :class:`Dataset` for model learning."""
        rows = [m.as_row() for m in measurements]
        columns = self.variables
        discrete = [name for name in self.space.option_names
                    if self.space.option(name).cardinality <= 12]
        return Dataset.from_rows(rows, columns=columns, discrete=discrete)

    def random_dataset(self, n: int, rng: np.random.Generator,
                       n_repeats: int = 3) -> tuple[list[Measurement], Dataset]:
        """Measure ``n`` random configurations and return them as a dataset."""
        configs = self.space.sample_configurations(n, rng)
        measurements = self.measure_many(configs, n_repeats=n_repeats, rng=rng)
        return measurements, self.build_dataset(measurements)

    # --------------------------------------------------------- ground truth
    def true_objective(self, configuration: Mapping[str, float],
                       objective: str) -> float:
        """Noise-free ground-truth value of one objective."""
        outcome = self.scm.intervene(self.space.clamp(configuration))
        return float(outcome[objective])

    def true_option_effects(self, objective: str,
                            max_values: int = 5) -> dict[str, float]:
        """Ground-truth |ACE| of every option on an objective.

        Computed directly on the noise-free SCM: for each option, average the
        successive differences of the objective as the option sweeps its
        domain with all other options at their defaults.  These effects are
        the weight vector of the ACE-weighted Jaccard accuracy metric.
        """
        effects: dict[str, float] = {}
        base = self.space.default_configuration()
        for name in self.space.option_names:
            values = list(self.space.option(name).values)
            if len(values) > max_values:
                idx = np.linspace(0, len(values) - 1, max_values).astype(int)
                values = [values[i] for i in idx]
            outcomes = []
            for value in values:
                config = dict(base)
                config[name] = value
                outcomes.append(self.true_objective(config, objective))
            diffs = [abs(outcomes[i + 1] - outcomes[i])
                     for i in range(len(outcomes) - 1)]
            effects[name] = float(np.mean(diffs)) if diffs else 0.0
        return effects

    def true_root_causes(self, objective: str, top_n: int = 5) -> list[str]:
        """The ``top_n`` options with the largest ground-truth effect."""
        effects = self.true_option_effects(objective)
        ranked = sorted(effects, key=effects.get, reverse=True)
        return ranked[:top_n]

    def __repr__(self) -> str:
        return (f"ConfigurableSystem(name={self.name!r}, "
                f"options={len(self.space)}, events={len(self.events)}, "
                f"objectives={list(self.objectives)}, "
                f"environment={self.environment.name!r})")
