"""Vectorized batch evaluation of structural causal models.

The active loop's inference time is dominated by interventional and
counterfactual queries evaluated one candidate configuration at a time:
``generate_repair_set`` scores hundreds of candidate repairs, ACE estimation
sweeps every permissible value of every option, and satisfaction
probabilities replay one intervention against every observed context.  Each
scalar query walks the graph with python dicts and per-row design matrices.

This module evaluates those queries in batch, with the expensive per-query
setup — noise abduction, residual abduction, affected-set computation — done
once and reused across the whole batch.

* :class:`BatchedSCM` wraps a ground-truth
  :class:`~repro.scm.model.StructuralCausalModel` and vectorizes
  ``intervene`` / ``abduct_noise`` / ``counterfactual`` /
  ``interventional_expectation`` by propagating ``(N,)`` mechanism columns
  in topological order.
* :class:`BatchedFittedModel` wraps a fitted
  :class:`~repro.scm.fitting.FittedPerformanceModel` and vectorizes
  ``predict`` / ``interventional_expectation`` / ``counterfactual``, which is
  what :class:`~repro.inference.engine.CausalInferenceEngine` queries on its
  hot paths.  Every query runs through compiled fused programs
  (:mod:`repro.scm.fused`): one matrix product per topological level.

The scalar methods on the wrapped models remain the *reference semantics*
and stay selectable (``batched_queries=False`` / ``batched=False``) as the
differential oracle.  ``tests/test_batched_vs_scalar.py`` holds the batched
evaluators against them: :class:`BatchedSCM` at 1e-9, the fused programs at
a bound scaled by the fit's coefficient magnitude, because the matrix
product reassociates each equation's sum.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.graph.dag import CausalDAG
from repro.scm.fitting import FittedPerformanceModel
from repro.scm.fused import FusedProgram, compile_fused_program
from repro.scm.model import StructuralCausalModel

#: floor of :attr:`StructuralPlan.program_capacity` for small models.
_MIN_FUSED_PROGRAMS = 128


def evaluate_mechanism_batch(mechanism, columns: Mapping[str, np.ndarray],
                             n_rows: int) -> np.ndarray:
    """Evaluate a mechanism over ``(n_rows,)`` parent columns.

    Mechanisms that implement ``evaluate_batch`` (all built-ins) are
    vectorized; anything else falls back to a per-row scalar loop, so custom
    mechanisms stay correct at scalar speed.
    """
    batch = getattr(mechanism, "evaluate_batch", None)
    if batch is not None:
        return np.asarray(batch(columns, n_rows), dtype=float)
    parents = mechanism.parents
    return np.array([mechanism.evaluate({p: float(columns[p][i])
                                         for p in parents})
                     for i in range(n_rows)], dtype=float)


def _value_at(value, j: int) -> float:
    """Row ``j`` of a values entry (a broadcast scalar or an ``(N,)`` column).

    Fused programs leave base values and constant steps as Python-float
    scalars instead of materialising ``np.full`` columns; extraction has to
    accept both representations.
    """
    if isinstance(value, np.ndarray):
        return float(value[j])
    return float(value)


def group_by_keyset(mappings: Sequence[Mapping[str, float]]
                    ) -> list[tuple[tuple[str, ...], list[int]]]:
    """Group mappings by their key set, preserving original indices.

    Batch propagation needs a uniform control flow per group (the same
    variables intervened/assigned for every row); candidate repair grids
    produce only a handful of distinct key sets, so grouping keeps the
    vectorization effective.  Groups are returned with sorted key tuples in
    first-appearance order.
    """
    groups: dict[frozenset, list[int]] = {}
    for i, mapping in enumerate(mappings):
        groups.setdefault(frozenset(mapping), []).append(i)
    return [(tuple(sorted(keys)), idx) for keys, idx in groups.items()]


class StructuralPlan:
    """Memoized structural bookkeeping for batch propagation over one DAG.

    Caches, per set of intervened variables, the *affected set* (the
    intervened variables plus their descendant closure) and the
    *propagation schedule* (the topologically ordered variables that must be
    recomputed under the intervention).  :class:`repro.inference.query_plan.
    QueryPlan` extends this with graph-version-keyed path enumeration and
    candidate-grid memoization.
    """

    def __init__(self, dag: CausalDAG) -> None:
        self._dag = dag
        self._topo: tuple[str, ...] = tuple(dag.topological_order())
        self._affected: dict[frozenset, frozenset] = {}
        self._schedules: dict[frozenset, tuple[str, ...]] = {}
        #: compiled fused programs (see :mod:`repro.scm.fused`), claimed by
        #: exactly one fitted model at a time — programs embed that model's
        #: coefficients, so a different owner must not reuse them.
        self._fused_programs: dict = {}
        self._fused_owner: object = None

    @property
    def dag(self) -> CausalDAG:
        return self._dag

    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def affected_variables(self, intervened: Iterable[str]) -> frozenset:
        """Intervened variables plus everything causally downstream."""
        key = frozenset(intervened)
        cached = self._affected.get(key)
        if cached is None:
            affected = set(key)
            for variable in key:
                if self._dag.has_node(variable):
                    affected |= self._dag.descendants(variable)
            cached = self._affected[key] = frozenset(affected)
        return cached

    def propagation_schedule(self, intervened: Iterable[str]
                             ) -> tuple[str, ...]:
        """Topologically ordered variables to recompute under ``do(...)``."""
        key = frozenset(intervened)
        cached = self._schedules.get(key)
        if cached is None:
            affected = self.affected_variables(key)
            cached = self._schedules[key] = tuple(
                v for v in self._topo if v in affected and v not in key)
        return cached

    @property
    def program_capacity(self) -> int:
        """Compiled fused programs kept before the cache is dropped wholesale.

        Derived from the model size: an ACE sweep compiles one program per
        intervened option, so a bound below the variable count would clear
        the cache mid-sweep and make every later sweep at the same model
        version recompile everything.  Twice the variable count holds one
        single-variable program per variable plus as many multi-key repair
        and satisfaction programs.
        """
        return max(_MIN_FUSED_PROGRAMS, 2 * len(self._topo))

    def fused_programs(self, owner: object) -> dict:
        """The fused-program cache, claimed for ``owner``.

        Compiled programs embed the owning model's equation coefficients;
        handing the cache to a different owner (the engine rebuilds its
        batched evaluator around a freshly fitted model on every refresh)
        clears it so stale coefficients can never be replayed.
        """
        if self._fused_owner is not owner:
            self._fused_programs = {}
            self._fused_owner = owner
        return self._fused_programs

    def _invalidate(self) -> None:
        self._affected.clear()
        self._schedules.clear()
        # Fused programs bake in propagation schedules of the old structure;
        # a structural rebind must drop them with the other memos.
        self._fused_programs = {}
        self._fused_owner = None

    def rebind(self, dag: CausalDAG, structure_changed: bool = True) -> None:
        """Point the plan at a (possibly re-learned) DAG.

        When the structure did not change, the memoized affected sets and
        schedules remain valid and are kept.
        """
        self._dag = dag
        self._topo = tuple(dag.topological_order())
        if structure_changed:
            self._invalidate()


# ---------------------------------------------------------------------------
# Ground-truth SCMs
# ---------------------------------------------------------------------------
class BatchedSCM:
    """Vectorized queries over a ground-truth structural causal model.

    All methods reproduce the scalar semantics of
    :class:`~repro.scm.model.StructuralCausalModel` exactly (to float
    round-off): noise streams are consumed in the same order as a scalar
    loop over the batch, so seeded runs agree with the scalar reference.
    """

    def __init__(self, scm: StructuralCausalModel) -> None:
        self._scm = scm
        self._exogenous = list(scm.exogenous_variables)
        self._defaults = {name: scm.domain(name)[0] for name in self._exogenous}
        endogenous = set(scm.endogenous_variables)
        self._endogenous = list(scm.endogenous_variables)
        self._topo = [v for v in scm.dag.topological_order()
                      if v in endogenous]

    @property
    def scm(self) -> StructuralCausalModel:
        return self._scm

    # ------------------------------------------------------------- internals
    def _config_columns(self, configurations: Sequence[Mapping[str, float]]
                        ) -> tuple[dict[str, np.ndarray], int]:
        n = len(configurations)
        columns = {
            name: np.array([float(c.get(name, self._defaults[name]))
                            for c in configurations], dtype=float)
            for name in self._exogenous
        }
        return columns, n

    def _draw_noise_columns(self, rng: np.random.Generator,
                            n: int) -> dict[str, np.ndarray]:
        # Row-major draws (configuration-major, mechanism-minor) replicate
        # the rng stream of a scalar loop calling ``intervene`` per row.
        draws = {v: np.empty(n, dtype=float) for v in self._endogenous}
        for i in range(n):
            for variable in self._endogenous:
                draws[variable][i] = \
                    self._scm.noise_model(variable).sample(rng)
        return draws

    def _noise_columns(self, noise, rng, n: int) -> dict[str, np.ndarray]:
        if noise is None:
            return self._draw_noise_columns(rng, n) if rng is not None else {}
        columns: dict[str, np.ndarray] = {}
        for variable, value in noise.items():
            array = np.asarray(value, dtype=float)
            columns[variable] = (np.full(n, float(array))
                                 if array.ndim == 0 else array)
        return columns

    def _propagate(self, columns: dict[str, np.ndarray],
                   noise_columns: Mapping[str, np.ndarray],
                   n: int) -> dict[str, np.ndarray]:
        values = dict(columns)
        for variable in self._topo:
            structural = evaluate_mechanism_batch(
                self._scm.mechanism(variable), values, n)
            offset = noise_columns.get(variable)
            values[variable] = (structural if offset is None
                                else structural + offset)
        return values

    # ------------------------------------------------------------------- API
    def intervene_batch(self, configurations: Sequence[Mapping[str, float]],
                        rng: np.random.Generator | None = None,
                        noise: Mapping[str, float | np.ndarray] | None = None
                        ) -> dict[str, np.ndarray]:
        """``do(options = configuration)`` for a whole batch at once.

        Returns one ``(N,)`` column per variable.  Missing exogenous
        variables default to the first domain value, matching the scalar
        :meth:`~repro.scm.model.StructuralCausalModel.intervene`.
        """
        columns, n = self._config_columns(list(configurations))
        noise_columns = self._noise_columns(noise, rng, n)
        return self._propagate(columns, noise_columns, n)

    def abduct_noise_batch(self, observations: Sequence[Mapping[str, float]]
                           ) -> dict[str, np.ndarray]:
        """Realised noise of each observation, one column per variable.

        Observations are grouped by their key set, so heterogeneous batches
        (rows observing different variable subsets) behave exactly like a
        scalar loop over :meth:`StructuralCausalModel.abduct_noise`.
        """
        observations = list(observations)
        n = len(observations)
        noise = {variable: np.empty(n, dtype=float)
                 for variable in self._topo}
        for _, idx in group_by_keyset(observations):
            group = [observations[i] for i in idx]
            columns = {
                name: np.array([float(o[name]) for o in group], dtype=float)
                for name in group[0]
            }
            for variable in self._topo:
                predicted = evaluate_mechanism_batch(
                    self._scm.mechanism(variable), columns, len(group))
                noise[variable][idx] = columns[variable] - predicted
        return noise

    def counterfactual_batch(self, observations: Sequence[Mapping[str, float]],
                             interventions: Sequence[Mapping[str, float]]
                             ) -> dict[str, np.ndarray]:
        """Element-wise counterfactuals: one observation/intervention pair
        per batch row, with the noise abduction vectorized across the batch.
        """
        observations = list(observations)
        interventions = list(interventions)
        if len(observations) != len(interventions):
            raise ValueError("observations and interventions must pair up")
        noise = self.abduct_noise_batch(observations)
        configurations = []
        for observation, intervention in zip(observations, interventions):
            config = {name: float(observation[name])
                      for name in self._exogenous if name in observation}
            config.update({k: float(v) for k, v in intervention.items()})
            configurations.append(config)
        return self.intervene_batch(configurations, noise=noise)

    def interventional_expectation_batch(
            self, target: str, interventions: Sequence[Mapping[str, float]],
            rng: np.random.Generator, n_samples: int = 64) -> np.ndarray:
        """Monte-Carlo ``E[target | do(...)]`` for each intervention.

        Consumes the rng stream exactly as sequential scalar calls to
        :meth:`~repro.scm.model.StructuralCausalModel.
        interventional_expectation` would.
        """
        out = np.empty(len(interventions), dtype=float)
        for j, intervention in enumerate(interventions):
            values = self.intervene_batch([intervention] * n_samples, rng=rng)
            out[j] = float(np.mean(values[target]))
        return out


# ---------------------------------------------------------------------------
# Fitted performance models
# ---------------------------------------------------------------------------
class BatchedFittedModel:
    """Vectorized queries over a fitted performance model.

    One instance is bound to one :class:`FittedPerformanceModel` (engines
    rebuild it on ``refresh``).  A :class:`StructuralPlan` (or the engine's
    :class:`~repro.inference.query_plan.QueryPlan`) supplies memoized
    affected sets and propagation schedules.
    """

    def __init__(self, model: FittedPerformanceModel,
                 plan: StructuralPlan | None = None) -> None:
        self._model = model
        self._plan = plan if plan is not None else StructuralPlan(model.dag)
        self._column_index = {name: i
                              for i, name in enumerate(model.data.columns)}
        self._means: dict[str, float] = {}
        self._means_epoch = model.data.data_epoch
        #: full-dataset residual columns (counterfactual_rows_batch), keyed
        #: off the data epoch like the means — intervention-independent.
        self._row_residuals: dict[str, np.ndarray] | None = None
        self._row_residuals_epoch = -1
        #: context-matrix memo: ``(data_epoch, max_contexts, matrix)``.
        self._context_cache: tuple[int, int, np.ndarray] | None = None

    @property
    def model(self) -> FittedPerformanceModel:
        return self._model

    @property
    def plan(self) -> StructuralPlan:
        return self._plan

    def _cached(self, key, build):
        """Fetch ``key`` from the plan's fused-program table, or ``build`` it."""
        programs = self._plan.fused_programs(self._model)
        entry = programs.get(key)
        if entry is None:
            if len(programs) >= self._plan.program_capacity:
                programs.clear()
            entry = programs[key] = build()
        return entry

    def _program(self, key, schedule: Sequence[str], known,
                 missing: str = "skip", column_names: Iterable[str] = (),
                 vector: Iterable[str] = ()) -> FusedProgram:
        """Compile-or-fetch the fused program for one cache ``key``."""
        return self._cached(key, lambda: compile_fused_program(
            self._model, schedule, known, missing=missing,
            column_names=column_names, vector=vector))

    def _column_mean(self, variable: str) -> float:
        epoch = self._model.data.data_epoch
        if epoch != self._means_epoch:
            self._means.clear()
            self._means_epoch = epoch
        if variable not in self._means:
            self._means[variable] = float(
                np.mean(self._model.data.column(variable)))
        return self._means[variable]

    # ------------------------------------------------------------ prediction
    def predict_batch(self, assignments: Sequence[Mapping[str, float]],
                      targets: Sequence[str] | None = None
                      ) -> list[dict[str, float]]:
        """Vectorized :meth:`FittedPerformanceModel.predict`.

        Assignments are grouped by their key set so each group shares one
        control flow; within a group every variable is computed as one
        ``(N,)`` column.
        """
        assignments = list(assignments)
        results: list[dict[str, float] | None] = [None] * len(assignments)
        for keys, idx in group_by_keyset(assignments):
            group = [assignments[i] for i in idx]
            n = len(group)
            values: dict = {
                key: np.array([float(a[key]) for a in group], dtype=float)
                for key in keys
            }
            schedule = [v for v in self._plan.topological_order
                        if v not in values]
            program = self._program(("predict", keys), schedule, keys,
                                    missing="fallback",
                                    column_names=self._column_index,
                                    vector=keys)
            program.execute(values, n, means=self._column_mean,
                            scalar_token=self._observation_token({}))
            wanted = list(values) if targets is None else list(targets)
            for j, i in enumerate(idx):
                results[i] = {t: _value_at(values[t], j) for t in wanted}
        # Every index belongs to exactly one key-set group, so the list is
        # fully populated.
        return results

    # --------------------------------------------------------- interventions
    def _context_matrix(self, max_contexts: int) -> np.ndarray:
        """The observed contexts, subsampled exactly like the scalar path.

        Memoized per ``(data_epoch, max_contexts)`` — repeated ACE sweeps
        and interventional batches between observations reuse one matrix
        instead of re-slicing the dataset on every call.
        """
        epoch = self._model.data.data_epoch
        cached = self._context_cache
        if cached is not None and cached[0] == epoch \
                and cached[1] == max_contexts:
            return cached[2]
        matrix = self._model.data.values
        n_rows = matrix.shape[0]
        if n_rows > max_contexts:
            stride = n_rows / max_contexts
            index = [int(i * stride) for i in range(max_contexts)]
            matrix = matrix[index]
        self._context_cache = (epoch, max_contexts, matrix)
        return matrix

    def interventional_expectation_batch(
            self, target: str, interventions: Sequence[Mapping[str, float]],
            max_contexts: int = 200) -> np.ndarray:
        """Vectorized ``E[target | do(...)]`` over the empirical contexts.

        The one-target row of :meth:`interventional_expectation_table`.
        """
        return self.interventional_expectation_table(
            (target,), interventions, max_contexts=max_contexts)[0]

    def interventional_expectation_table(
            self, targets: Sequence[str],
            interventions: Sequence[Mapping[str, float]],
            max_contexts: int = 200) -> np.ndarray:
        """``E[t | do(...)]`` for every target ``t``, as a ``(T, N)`` array.

        For each group of interventions sharing a key set, the observed
        contexts are tiled row-major into ``(N * R,)`` columns (only the
        columns the compiled program reads are materialised), the
        intervened columns are clamped, and only the variables downstream of
        an intervened one are re-propagated — the batched analogue of the
        scalar truncated factorisation.  The program and its schedule do not
        depend on the target, so each group executes once and every target's
        row is read from that one execution: row ``t`` is bitwise equal to a
        one-target call for ``targets[t]``.
        """
        interventions = list(interventions)
        out = np.zeros((len(targets), len(interventions)), dtype=float)
        context = self._context_matrix(max_contexts)
        n_contexts = context.shape[0]
        if n_contexts == 0:
            return out
        for keys, idx in group_by_keyset(interventions):
            keyset = set(keys)
            schedule = self._plan.propagation_schedule(keys)
            known = keyset | set(self._column_index)
            program = self._program(("do", keys), schedule, known,
                                    vector=known)
            n = len(idx) * n_contexts
            values: dict = {}
            for name in program.reads:
                if name not in keyset:
                    values[name] = np.tile(
                        context[:, self._column_index[name]], len(idx))
            for key in keys:
                column = np.array([float(interventions[i][key])
                                   for i in idx], dtype=float)
                values[key] = np.repeat(column, n_contexts)
            program.execute(values, n)
            for row, target in zip(out, targets):
                if target in program.produces:
                    column = values[target]
                    if isinstance(column, np.ndarray):
                        row[idx] = column.reshape(len(idx),
                                                  n_contexts).mean(axis=1)
                    else:
                        row[idx] = float(column)
                elif target in keyset:
                    row[idx] = [float(interventions[i][target]) for i in idx]
                elif target in self._column_index:
                    row[idx] = context[:, self._column_index[target]].mean()
        return out

    # -------------------------------------------------------- counterfactual
    def _abduct_residuals(self, observation: Mapping[str, float]
                          ) -> dict[str, float]:
        """Equation residuals of the factual observation (abduction).

        Computed once per observation with the scalar equations — this is
        the single abduction reused across the whole candidate batch.
        """
        model = self._model
        residuals: dict[str, float] = {}
        for variable, equation in model.equations().items():
            if variable in observation and all(p in observation
                                               for p in equation.parents):
                residuals[variable] = (float(observation[variable])
                                       - equation.predict(observation))
        return residuals

    def _observation_token(self, scalars: Mapping[str, float]) -> tuple:
        """Equality token over every broadcast scalar a program may read.

        Keys the per-program scalar-fold memo (see
        :meth:`FusedProgram.execute`): the data epoch covers the empirical
        means, the items cover the observation's base values — together
        they determine every scalar input of the compiled programs.
        """
        return (self._model.data.data_epoch,
                tuple(sorted(scalars.items())))

    def _counterfactual_columns(self, observation: Mapping[str, float],
                                interventions: Sequence[Mapping[str, float]]
                                ):
        """Yield ``(indices, values)`` per key-set group of interventions.

        The observation enters as broadcast Python-float scalars (no
        ``np.full`` per column) and only recomputed variables come back as
        ``(N,)`` columns; consumers extract rows through :func:`_value_at`.
        """
        residuals = self._abduct_residuals(observation)
        base = {name: float(value) for name, value in observation.items()}
        token = self._observation_token(base)
        for keys, idx in group_by_keyset(interventions):
            values = dict(base)
            for key in keys:
                values[key] = np.array(
                    [float(interventions[i][key]) for i in idx], dtype=float)
            known = frozenset(observation) | set(keys)
            program = self._program(("cf", keys, frozenset(observation)),
                                    self._plan.propagation_schedule(keys),
                                    known, vector=keys)
            program.execute(values, len(idx), residuals=residuals,
                            scalar_token=token)
            yield idx, values

    def counterfactual_batch(self, observation: Mapping[str, float],
                             interventions: Sequence[Mapping[str, float]]
                             ) -> list[dict[str, float]]:
        """Counterfactuals of one observation under many interventions.

        Returns one outcome dict per intervention (the shape of the scalar
        :meth:`FittedPerformanceModel.counterfactual`), with the residual
        abduction shared across the batch.
        """
        interventions = list(interventions)
        results: list[dict[str, float]] = [{} for _ in interventions]
        for idx, values in self._counterfactual_columns(observation,
                                                        interventions):
            names = list(values)
            for j, i in enumerate(idx):
                results[i] = {name: _value_at(values[name], j)
                              for name in names}
        return results

    def counterfactual_targets_batch(
            self, observation: Mapping[str, float],
            interventions: Sequence[Mapping[str, float]],
            targets: Sequence[str],
            fallbacks: Mapping[str, float] | None = None) -> np.ndarray:
        """Counterfactual values of ``targets`` only, as an ``(N, T)`` array.

        The fast path for repair scoring: avoids materialising the full
        outcome dict per candidate.  Targets absent from the observation and
        never recomputed fall back to ``fallbacks`` (or 0.0).
        """
        interventions = list(interventions)
        targets = list(targets)
        out = np.empty((len(interventions), len(targets)), dtype=float)
        for t, target in enumerate(targets):
            if target in observation:
                out[:, t] = float(observation[target])
            else:
                out[:, t] = float((fallbacks or {}).get(target, 0.0))
        if not interventions:
            return out
        merged = self._merged_counterfactual_targets(
            observation, interventions, targets, out)
        if merged is not None:
            return merged
        for idx, values in self._counterfactual_columns(observation,
                                                        interventions):
            for t, target in enumerate(targets):
                if target in values:
                    out[idx, t] = values[target]
        return out

    def _merged_counterfactual_targets(
            self, observation: Mapping[str, float],
            interventions: Sequence[Mapping[str, float]],
            targets: Sequence[str], out: np.ndarray) -> np.ndarray | None:
        """Score heterogeneous interventions in one fused execution.

        Instead of one program per intervention key set (candidate repair
        grids produce dozens of tiny groups), the whole batch runs through
        one program over the *union* of the intervened keys: a row that does
        not intervene on a key carries the observation's base value in that
        column, and every recomputed variable it is not downstream of
        reconstructs its base value exactly (``prediction + abducted
        residual``), so the result matches the per-group semantics to float
        round-off.  Returns ``None`` when the reconstruction argument does
        not hold — a key downstream of another key, a row intervening on a
        key absent from the observation, or a recomputed equation without an
        abducted residual — in which case the caller falls back to the
        per-group path.
        """
        union: set[str] = set()
        for intervention in interventions:
            union |= intervention.keys()
        if not union:
            return out
        keys = tuple(sorted(union))
        eligible = self._cached(
            ("cfm-guard", keys, frozenset(observation)),
            lambda: self._merged_guard(keys, union, observation))
        if not eligible:
            return None
        schedule = self._plan.propagation_schedule(keys)
        residuals = self._abduct_residuals(observation)
        values: dict = {name: float(value)
                        for name, value in observation.items()}
        for key in keys:
            base = observation.get(key)
            if base is None:
                try:
                    column = np.array([float(iv[key])
                                       for iv in interventions], dtype=float)
                except KeyError:
                    return None
            else:
                base = float(base)
                column = np.array([float(iv.get(key, base))
                                   for iv in interventions], dtype=float)
            values[key] = column
        program = self._program(("cfm", keys, frozenset(observation)),
                                schedule, frozenset(observation) | union,
                                vector=keys)
        token = self._observation_token(
            {name: float(value) for name, value in observation.items()})
        program.execute(values, len(interventions), residuals=residuals,
                        scalar_token=token)
        for t, target in enumerate(targets):
            if target in values:
                out[:, t] = values[target]
        return out

    def _merged_guard(self, keys: tuple, union: set,
                      observation: Mapping[str, float]) -> bool:
        """Whether the merged-execution reconstruction argument holds.

        Depends only on the key set and the observation's *names* (residual
        availability is a function of which variables were observed, not of
        their values), so the verdict is cached per ``(keys, names)`` in the
        plan's fused-program table.
        """
        for key in keys:
            if self._plan.affected_variables((key,)) & (union - {key}):
                return False
        residuals = self._abduct_residuals(observation)
        model = self._model
        for node in self._plan.propagation_schedule(keys):
            if model.has_equation(node) and node not in residuals:
                return False
        return True

    def counterfactual_rows_batch(self, intervention: Mapping[str, float],
                                  target: str) -> np.ndarray:
        """Counterfactual ``target`` of *every* observed row under one
        intervention — the satisfaction-probability hot path.

        The residual abduction is vectorized over the dataset: one
        ``predict_batch`` per equation on the pristine columns, then one
        re-propagation of the affected variables with the intervention
        clamped.
        """
        model = self._model
        data = model.data
        n = data.n_rows
        columns = {name: data.column(name) for name in data.columns}
        epoch = data.data_epoch
        if self._row_residuals is None or self._row_residuals_epoch != epoch:
            self._row_residuals = {
                variable: columns[variable]
                - equation.predict_batch(columns, n)
                for variable, equation in model.equations().items()
                if variable in columns
                and all(p in columns for p in equation.parents)
            }
            self._row_residuals_epoch = epoch
        residuals = self._row_residuals
        values: dict = dict(columns)
        keys = list(intervention)
        for key in keys:
            values[key] = float(intervention[key])
        program = self._program(("rows", frozenset(keys)),
                                self._plan.propagation_schedule(keys),
                                set(columns) | set(keys),
                                vector=columns)
        token = self._observation_token(
            {key: float(intervention[key]) for key in keys})
        program.execute(values, n, residuals=residuals, scalar_token=token)
        if target in values:
            column = values[target]
            return (np.asarray(column, dtype=float)
                    if isinstance(column, np.ndarray)
                    else np.full(n, float(column)))
        return np.zeros(n)
