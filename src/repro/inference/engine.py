"""The causal inference engine.

``CausalInferenceEngine`` binds a learned causal performance model (graph +
fitted structural equations + observational data) to the query-answering
machinery: causal effects, ranked causal paths, repair sets scored by
counterfactual ICE, satisfaction probabilities and plain performance
prediction.  It is the object Stage V of Unicorn evaluates performance
queries against, and Stage III uses it to pick the next configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.pipeline import LearnedModel
from repro.graph.mixed_graph import MixedGraph
from repro.inference.effects import (
    average_causal_effect,
    average_causal_effects_batch,
    option_effects_on_objective,
    option_effects_on_objectives,
)
from repro.inference.paths import CausalPath, extract_ranked_paths, root_cause_options
from repro.inference.queries import (
    CausalQuery,
    PerformanceQuery,
    QoSConstraint,
    QueryKind,
    translate,
)
from repro.inference.query_plan import QueryPlan
from repro.inference.repairs import RepairSet, generate_repair_set
from repro.scm.batched import BatchedFittedModel
from repro.scm.fitting import FittedPerformanceModel, fit_structural_equations


@dataclass
class QueryAnswer:
    """Answer to one performance query."""

    query: PerformanceQuery
    causal_queries: list[CausalQuery]
    root_causes: list[str]
    repairs: RepairSet | None
    estimates: dict[str, float]
    identifiable: bool = True
    notes: str = ""


class CausalInferenceEngine:
    """Query interface over a learned causal performance model.

    Parameters
    ----------
    learned:
        The output of :class:`repro.discovery.pipeline.CausalModelLearner`.
    domains:
        Mapping from option name to its permissible values (used for ACE
        averaging and repair enumeration).
    top_k_paths:
        Number of top-ranked causal paths retained per objective (the paper
        uses K between 3 and 25).
    prefitted:
        Pre-fitted structural equations to adopt instead of refitting from
        ``(learned.graph, learned.data)`` — the persistent model store's
        load path passes the deserialised
        :class:`~repro.scm.fitting.FittedPerformanceModel` here so a
        snapshot reload performs no least-squares work at all.  Because
        :func:`~repro.scm.fitting.fit_structural_equations` is
        deterministic and the store's codec is bitwise, an adopted model
        answers byte-identically to a fresh fit.  Later :meth:`refresh`
        calls refit as usual (the data grew).
    """

    def __init__(self, learned: LearnedModel,
                 domains: Mapping[str, Sequence[float]],
                 top_k_paths: int = 5, max_contexts: int = 60,
                 max_ranking_age: int = 5, batched: bool = True,
                 prefitted: FittedPerformanceModel | None = None) -> None:
        self._learned = learned
        self._domains = {k: tuple(float(x) for x in v)
                         for k, v in domains.items()}
        self._top_k = top_k_paths
        self._max_contexts = max_contexts
        #: refreshes a cached path ranking may survive before it is
        #: re-extracted even when no touching edge changed (Path_ACE scores
        #: drift as the structural equations are refit on growing data).
        self._max_ranking_age = max_ranking_age
        self._fitted: FittedPerformanceModel = (
            prefitted if prefitted is not None
            else fit_structural_equations(learned.graph, learned.data))
        #: route interventional / counterfactual queries through the batched
        #: evaluator; ``batched=False`` keeps everything on the scalar
        #: reference path (the differential-testing oracle).
        self._use_batched = bool(batched)
        self._plan = QueryPlan(self._fitted.dag, graph=learned.graph)
        self._batched = BatchedFittedModel(self._fitted, plan=self._plan)
        self._path_cache: dict[tuple[str, ...], list[CausalPath]] = {}
        self._path_cache_age: dict[tuple[str, ...], int] = {}
        #: monotonically increasing model version; bumped by every
        #: :meth:`refresh` so concurrent consumers (the query-serving layer's
        #: registry and batcher) can tell which model state answered them and
        #: never coalesce requests across a refresh boundary.
        self._version = 0

    # -------------------------------------------------------------- refresh
    def refresh(self, learned: LearnedModel) -> None:
        """Rebind the engine to an updated model, keeping valid caches.

        The structural equations are refit (the observational data grew),
        but cached path rankings are invalidated *selectively*: a ranking
        for a set of objectives is dropped when some edge of the causal
        graph changed whose endpoints can influence one of those objectives
        (in the old or the new graph), or when it has survived
        ``max_ranking_age`` refreshes — the Path_ACE scores behind a ranking
        come from the refitted equations, so even an untouched ranking must
        not outlive the data that produced it indefinitely.  In the common
        incremental case — a handful of new samples, an unchanged or
        locally-changed graph — most rankings survive, so Stage III/V
        queries after the refresh skip the expensive path re-extraction.

        Parameters
        ----------
        learned:
            The updated model, normally the return value of
            :meth:`repro.discovery.pipeline.CausalModelLearner.update` on
            the model this engine was built from.

        Notes
        -----
        Every refresh bumps :attr:`model_version`, which is how concurrent
        consumers holding this engine (e.g. the service layer's
        :class:`~repro.service.registry.ModelRegistry`) detect that cached
        answers predate the rebind.
        """
        old_graph = self._learned.graph
        changed_nodes = self._changed_edge_nodes(old_graph, learned.graph)
        self._learned = learned
        self._fitted = fit_structural_equations(learned.graph, learned.data)
        # Structural memos (path enumeration, affected sets, candidate
        # grids) survive a refresh exactly when no edge changed; the batched
        # evaluator always rebinds to the refitted equations.
        self._plan.rebind(self._fitted.dag, graph=learned.graph,
                          structure_changed=bool(changed_nodes))
        self._batched = BatchedFittedModel(self._fitted, plan=self._plan)
        for key in list(self._path_cache):
            age = self._path_cache_age.get(key, 0) + 1
            if age > self._max_ranking_age or (
                    changed_nodes and self._ranking_touched(
                        key, changed_nodes, old_graph, learned.graph)):
                del self._path_cache[key]
                self._path_cache_age.pop(key, None)
            else:
                self._path_cache_age[key] = age
        self._version += 1

    @staticmethod
    def _changed_edge_nodes(old: MixedGraph, new: MixedGraph) -> set[str]:
        """Endpoints of edges that were added, removed or re-oriented."""
        old_edges = {frozenset((e.u, e.v)): (e.mark_u, e.mark_v)
                     for e in old.edges()}
        new_edges = {frozenset((e.u, e.v)): (e.mark_u, e.mark_v)
                     for e in new.edges()}
        changed: set[str] = set()
        for key in old_edges.keys() ^ new_edges.keys():
            changed |= set(key)
        for key in old_edges.keys() & new_edges.keys():
            if old_edges[key] != new_edges[key]:
                changed |= set(key)
        return changed

    @staticmethod
    def _ranking_touched(objectives: tuple[str, ...],
                         changed_nodes: set[str],
                         old: MixedGraph, new: MixedGraph) -> bool:
        """Can any changed edge affect the paths into these objectives?"""
        for objective in objectives:
            upstream: set[str] = {objective}
            for graph in (old, new):
                if graph.has_node(objective):
                    upstream |= graph.ancestors(objective)
            if changed_nodes & upstream:
                return True
        return False

    # ------------------------------------------------------------ properties
    @property
    def model_version(self) -> int:
        """Number of :meth:`refresh` calls this engine has absorbed.

        A cheap monotonic handle for concurrent reuse: two answers computed
        at the same ``model_version`` came from the same graph, equations
        and data, so they may be coalesced, cached together or compared
        byte-for-byte.
        """
        return self._version

    @property
    def learned_model(self) -> LearnedModel:
        """The :class:`LearnedModel` currently backing this engine."""
        return self._learned

    @property
    def fitted_model(self) -> FittedPerformanceModel:
        return self._fitted

    @property
    def constraints(self) -> StructuralConstraints:
        return self._learned.constraints

    @property
    def domains(self) -> dict[str, tuple[float, ...]]:
        return dict(self._domains)

    @property
    def query_plan(self) -> QueryPlan:
        return self._plan

    @property
    def batched_evaluator(self) -> BatchedFittedModel:
        return self._batched

    def _evaluator(self) -> BatchedFittedModel | None:
        return self._batched if self._use_batched else None

    # ------------------------------------------------------------- estimates
    def causal_effect(self, option: str, objective: str) -> float:
        """ACE of one option on one objective."""
        return average_causal_effect(self._fitted, objective, option,
                                     domains=self._domains,
                                     max_contexts=self._max_contexts,
                                     evaluator=self._evaluator())

    def causal_effects_batch(self, options: Sequence[str],
                             objective: str) -> list[float]:
        """Signed ACE of many options on one objective in one batched sweep.

        The coalesced form of :meth:`causal_effect`: all option value
        sweeps go through one vectorized interventional call, and each
        returned effect is bitwise equal to the corresponding standalone
        :meth:`causal_effect` (see
        :func:`repro.inference.effects.average_causal_effects_batch`).

        Parameters
        ----------
        options:
            Options to sweep.
        objective:
            The objective the effects are measured on.

        Returns
        -------
        list of float
            One signed ACE per option, in ``options`` order.
        """
        return average_causal_effects_batch(
            self._fitted, objective, list(options), domains=self._domains,
            max_contexts=self._max_contexts, evaluator=self._evaluator())

    def _intervenable_options(self) -> list[str]:
        return [o for o in self.constraints.options()
                if self.constraints.is_intervenable(o)
                and o in self._learned.data.columns]

    def option_effects(self, objective: str,
                       options: Sequence[str] | None = None) -> dict[str, float]:
        """|ACE| of every (intervenable) option on an objective."""
        if options is None:
            options = self._intervenable_options()
        return option_effects_on_objective(
            self._fitted, objective, options, domains=self._domains,
            max_contexts=self._max_contexts, evaluator=self._evaluator())

    def _option_effects_per_objective(self, objectives: Sequence[str]
                                      ) -> list[dict[str, float]]:
        """:meth:`option_effects` of every objective, from one sweep."""
        return option_effects_on_objectives(
            self._fitted, objectives, self._intervenable_options(),
            domains=self._domains, max_contexts=self._max_contexts,
            evaluator=self._evaluator())

    def total_option_effects(self, objectives: Sequence[str]
                             ) -> dict[str, float]:
        """|ACE| of every intervenable option, summed over ``objectives``.

        One Stage III sweep answers every objective and the sums run in
        ``objectives`` order, so the result equals summing
        :meth:`option_effects` per objective bit for bit (values and key
        order).
        """
        totals: dict[str, float] = {}
        for effects in self._option_effects_per_objective(objectives):
            for option, effect in effects.items():
                totals[option] = totals.get(option, 0.0) + effect
        return totals

    def ranked_paths(self, objectives: Sequence[str]) -> list[CausalPath]:
        """Top-K causal paths per objective, ranked by Path_ACE."""
        key = tuple(sorted(objectives))
        if key not in self._path_cache:
            self._path_cache[key] = extract_ranked_paths(
                self._learned.graph, self._fitted, objectives,
                self.constraints, domains=self._domains, top_k=self._top_k,
                max_contexts=self._max_contexts, plan=self._plan,
                evaluator=self._evaluator())
            self._path_cache_age[key] = 0
        return self._path_cache[key]

    def predict(self, configuration: Mapping[str, float],
                objectives: Sequence[str]) -> dict[str, float]:
        """Conditional-expectation prediction of objectives for a config."""
        return self._fitted.predict(configuration, targets=list(objectives))

    def predict_batch(self, configurations: Sequence[Mapping[str, float]],
                      objectives: Sequence[str]) -> list[dict[str, float]]:
        """Vectorized :meth:`predict` over a batch of configurations."""
        if self._use_batched:
            return self._batched.predict_batch(configurations,
                                               targets=list(objectives))
        return [self.predict(configuration, objectives)
                for configuration in configurations]

    def interventional_expectation(self, objective: str,
                                   intervention: Mapping[str, float]) -> float:
        """``E[objective | do(intervention)]`` over the observed contexts.

        Parameters
        ----------
        objective:
            The outcome variable.
        intervention:
            Option name → forced value; the empirical analogue of
            truncated factorisation replays every observed context with
            these values clamped.

        Returns
        -------
        float
            The estimated interventional expectation.
        """
        if self._use_batched:
            return float(self._batched.interventional_expectation_batch(
                objective, [intervention],
                max_contexts=self._max_contexts)[0])
        return self._fitted.interventional_expectation(
            objective, intervention, max_contexts=self._max_contexts)

    def interventional_expectations_batch(
            self, objective: str,
            interventions: Sequence[Mapping[str, float]]) -> list[float]:
        """``E[objective | do(...)]`` for a whole batch of interventions."""
        interventions = list(interventions)
        if self._use_batched:
            values = self._batched.interventional_expectation_batch(
                objective, interventions, max_contexts=self._max_contexts)
            return [float(v) for v in values]
        return [self._fitted.interventional_expectation(
                    objective, intervention, max_contexts=self._max_contexts)
                for intervention in interventions]

    def satisfaction_probability(self, constraint: QoSConstraint,
                                 intervention: Mapping[str, float]) -> float:
        """P(objective satisfies constraint | do(intervention)).

        Estimated by applying the intervention to every observed context and
        counting the fraction of counterfactual outcomes that satisfy the QoS
        constraint.  On the batched path all contexts are replayed in one
        vectorized counterfactual; the scalar loop is the reference.
        """
        n_rows = self._fitted.data.n_rows
        if not n_rows:
            return 0.0
        if self._use_batched:
            outcomes = self._batched.counterfactual_rows_batch(
                intervention, constraint.objective)
            satisfied = sum(1 for value in outcomes
                            if constraint.satisfied_by(float(value)))
            return satisfied / n_rows
        rows = self._fitted.data.rows()
        satisfied = 0
        for row in rows:
            outcome = self._fitted.counterfactual(row, intervention)
            if constraint.satisfied_by(outcome.get(constraint.objective, 0.0)):
                satisfied += 1
        return satisfied / len(rows)

    # ---------------------------------------------------------------- repairs
    def root_causes(self, objectives: Mapping[str, str],
                    limit: int | None = None) -> list[str]:
        """Root-cause options for a fault on these objectives.

        The intervenable options appearing on the top-ranked causal
        paths into the objectives, in ranking order.

        Parameters
        ----------
        objectives:
            Objective name → optimization direction.
        limit:
            Keep at most this many options (``None`` keeps all).

        Returns
        -------
        list of str
            Candidate root-cause option names, most influential first.
        """
        paths = self.ranked_paths(list(objectives))
        return root_cause_options(paths, self.constraints, limit=limit)

    def repair_set(self, faulty_configuration: Mapping[str, float],
                   faulty_measurement: Mapping[str, float],
                   objectives: Mapping[str, str],
                   max_repairs: int = 300) -> RepairSet:
        """Generate and rank the candidate repairs for a fault.

        The candidate grid is built once (memoized on the query plan) and
        scored in one batched counterfactual call; an engine built with
        ``batched=False`` scores on the scalar reference path, which must
        produce a byte-identical ranking.
        """
        paths = self.ranked_paths(list(objectives))
        return generate_repair_set(
            self._fitted, paths, self.constraints, self._domains,
            faulty_configuration, faulty_measurement, objectives,
            max_repairs=max_repairs, evaluator=self._evaluator(),
            plan=self._plan)

    # ----------------------------------------------------------------- queries
    def answer(self, query: PerformanceQuery,
               faulty_configuration: Mapping[str, float] | None = None,
               faulty_measurement: Mapping[str, float] | None = None) -> QueryAnswer:
        """Estimate a performance query on the current causal model.

        Root-cause and repair queries require the faulty configuration and
        its measurement; effect and satisfaction queries only need the
        intervention carried by the query itself.
        """
        causal_queries = translate(query)
        root_causes: list[str] = []
        repairs: RepairSet | None = None
        estimates: dict[str, float] = {}
        identifiable = True
        notes = ""

        if query.kind in (QueryKind.ROOT_CAUSE, QueryKind.REPAIR):
            if faulty_configuration is None or faulty_measurement is None:
                identifiable = False
                notes = ("root-cause and repair queries require the faulty "
                         "configuration and its measurement")
            else:
                root_causes = self.root_causes(query.objectives)
                repairs = self.repair_set(faulty_configuration,
                                          faulty_measurement,
                                          query.objectives)
        elif query.kind is QueryKind.EFFECT:
            for objective in query.objectives:
                estimates[objective] = self.interventional_expectation(
                    objective, query.intervention)
        elif query.kind is QueryKind.SATISFACTION:
            constraint = query.constraints[0]
            estimates[constraint.objective] = self.satisfaction_probability(
                constraint, query.intervention)
        elif query.kind is QueryKind.OPTIMIZE:
            objectives = list(query.objectives)
            for objective, effects in zip(
                    objectives, self._option_effects_per_objective(objectives)):
                if effects:
                    best_option = max(effects, key=effects.get)
                    estimates[objective] = effects[best_option]
                    notes = (f"option with the largest causal effect on "
                             f"{objective}: {best_option}")

        return QueryAnswer(query=query, causal_queries=causal_queries,
                           root_causes=root_causes, repairs=repairs,
                           estimates=estimates, identifiable=identifiable,
                           notes=notes)

    # ------------------------------------------------------ sampling heuristic
    def sampling_probabilities(self, objectives: Sequence[str]) -> dict[str, float]:
        """Probability of perturbing each option in the next measurement.

        Proportional to the option's total |ACE| across the objectives —
        options with larger causal effects are more likely to be changed,
        which is the Stage III exploration heuristic.
        """
        totals = self.total_option_effects(objectives)
        values = np.array(list(totals.values()), dtype=float)
        if values.sum() <= 0:
            uniform = 1.0 / max(len(totals), 1)
            return {option: uniform for option in totals}
        values = values / values.sum()
        return {option: float(p) for option, p in zip(totals, values)}
