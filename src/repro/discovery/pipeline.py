"""The Unicorn causal-model-learning pipeline (Stage II / Stage IV).

``CausalModelLearner`` wires together the skeleton search, FCI orientation
and entropic resolution into the three-step procedure of Fig. 9, and exposes
``update`` for the incremental re-learning of Stage IV (Fig. 10).

``learn`` is the cold-start path: it builds the statistical session
(sufficient statistics, CI tests, orienter) over the data and runs FCI from
the fully connected constraint graph.  ``update`` is the incremental path:
it returns a *new* model over new data — the model's rows plus the new
samples — whose sufficient statistics extend the old ones by folding in
only the new rows, and re-runs the same FCI traversal on them.  The model
it was given keeps its rows, so a handle held elsewhere (an engine, a
snapshot, a concurrent reader) never sees its data change.  Every CI
decision is made on the new data (the :class:`CIDecisionCache` serves a
decision only within the learner generation it was made in), so an update
refits the model exactly as a cold ``learn`` over the same rows would, as
Stage IV of the paper prescribes.

As the active loop acquires samples the learned graph converges (Fig. 11a
tracks this via the structural Hamming distance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.entropic import EntropicOrienter
from repro.discovery.fci import fci
from repro.discovery.skeleton import SkeletonSpace
from repro.graph.mixed_graph import MixedGraph
from repro.stats.dataset import Dataset
from repro.stats.independence import CachedCITest, CIDecisionCache, MixedCITest
from repro.stats.sufficient import SufficientStats


@dataclass
class LearnedModel:
    """A learned causal performance model plus learning diagnostics."""

    graph: MixedGraph
    pag: MixedGraph
    constraints: StructuralConstraints
    data: Dataset
    ci_tests_performed: int = 0
    discovery_seconds: float = 0.0
    history: list[dict[str, float]] = field(default_factory=list)
    #: always None (no CI-decision trace is recorded); perfbench/tracing.py reads it.
    decision_trace: None = None
    #: True when this model came out of the incremental path.
    incremental: bool = False

    @property
    def n_samples(self) -> int:
        return self.data.n_rows

    def average_degree(self) -> float:
        return self.graph.average_degree()

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe snapshot of the model.

        Captures graph and PAG (via :meth:`MixedGraph.to_dict`), the dataset
        (bitwise, via its base64 codec) and the learning diagnostics — all a
        deserialised model needs to keep taking the incremental
        :meth:`CausalModelLearner.update` path.  Structural constraints are
        *not* embedded — they are a pure function of the subject spec and
        the loader passes them back to :meth:`from_dict`.
        """
        return {
            "graph": self.graph.to_dict(),
            "pag": self.pag.to_dict(),
            "data": self.data.to_dict(),
            "ci_tests_performed": int(self.ci_tests_performed),
            "history": [dict(h) for h in self.history],
            "incremental": bool(self.incremental),
        }

    @classmethod
    def from_dict(cls, payload: dict,
                  constraints: StructuralConstraints) -> "LearnedModel":
        """Rebuild the model snapshotted by :meth:`to_dict`.

        Keys this version does not read — e.g. ``skeleton_state`` and
        ``decision_trace`` in documents written by earlier versions — are
        ignored.

        Parameters
        ----------
        payload:
            The :meth:`to_dict` document.
        constraints:
            The structural constraints of the owning subject (derived from
            its spec — see :class:`repro.core.unicorn.Unicorn`).
        """
        return cls(
            graph=MixedGraph.from_dict(payload["graph"]),
            pag=MixedGraph.from_dict(payload["pag"]),
            constraints=constraints,
            data=Dataset.from_dict(payload["data"]),
            ci_tests_performed=int(payload.get("ci_tests_performed", 0)),
            history=[dict(h) for h in payload.get("history", [])],
            incremental=bool(payload.get("incremental", False)))


class CausalModelLearner:
    """Learn and incrementally update causal performance models.

    Parameters
    ----------
    constraints:
        Structural constraints describing variable roles (options, events,
        objectives) and the performance-modeling assumptions.
    alpha:
        Significance level of the conditional-independence tests.
    max_condition_size:
        Largest conditioning set used during skeleton search / pruning.
    bins:
        Number of bins used when discretizing continuous variables for the
        discrete CI test and the entropic orienter.
    entropy_threshold_factor:
        The ``theta_r`` factor of the LatentSearch confounder criterion
        (0.8 in the paper).
    seed:
        Seed for the stochastic parts of LatentSearch.
    """

    def __init__(self, constraints: StructuralConstraints,
                 alpha: float = 0.05, max_condition_size: int = 2,
                 bins: int = 6, entropy_threshold_factor: float = 0.8,
                 seed: int = 0) -> None:
        self._constraints = constraints
        self._alpha = alpha
        self._max_condition_size = max_condition_size
        self._bins = bins
        self._threshold_factor = entropy_threshold_factor
        self._seed = seed
        self._ci_cache = CIDecisionCache(alpha=alpha)
        #: numbers the datasets this learner has tested on; the CI-decision
        #: cache serves a decision only within its generation.
        self._generation = 0
        #: statistics of the model this learner produced last.
        self._stats: SufficientStats | None = None
        self._space: SkeletonSpace | None = None

    @property
    def constraints(self) -> StructuralConstraints:
        return self._constraints

    @property
    def ci_cache(self) -> CIDecisionCache:
        """The persistent CI-decision cache (for observability / tests)."""
        return self._ci_cache

    # ----------------------------------------------------------------- search
    def _skeleton_space(self, data: Dataset) -> SkeletonSpace:
        """The search space over ``data``'s model variables, built once
        per variable list."""
        variables = [v for v in data.columns if v in self._constraints.roles]
        if self._space is None or self._space.variables != variables:
            self._space = SkeletonSpace(variables, self._constraints)
        return self._space

    # ------------------------------------------------------------------ learn
    def learn(self, data: Dataset) -> LearnedModel:
        """Learn a causal performance model from scratch."""
        started = time.perf_counter()
        self._ci_cache.clear()
        return self._discover(SufficientStats(data), started, history=[],
                              incremental=False)

    # ----------------------------------------------------------------- update
    def update(self, model: LearnedModel,
               new_rows: Sequence[Mapping[str, float]]) -> LearnedModel:
        """Incrementally update a model with newly measured configurations.

        Returns a new model over ``model.data.append_rows(new_rows)``;
        ``model`` and its data are unchanged.  The statistics extend those
        ``model`` was learned with (or, for a model this learner did not
        produce last — another learner's, or one restored from a snapshot —
        statistics built over its data), folding in only the new rows, and
        the cold FCI traversal re-runs on the new data.  No CI decision
        from an earlier generation is served, so this produces exactly the
        PAG, separating sets and ``tests_performed`` of :meth:`learn` over
        the same rows.  The previous history is carried over so callers
        can plot convergence (Fig. 11).
        """
        if not new_rows:
            return model
        started = time.perf_counter()
        stats = (self._stats if self._stats is not None
                 and self._stats.data is model.data
                 else SufficientStats(model.data))
        # Rebinding drops this frame's hold on the old statistics, so
        # their derived matrices are freed once ``_discover`` replaces them.
        stats = stats.extended(new_rows)
        return self._discover(stats, started, history=model.history,
                              incremental=True)

    def _discover(self, stats: SufficientStats, started: float,
                  history: list[dict[str, float]],
                  incremental: bool) -> LearnedModel:
        """Run FCI + entropic resolution over ``stats.data``.

        One :class:`SufficientStats` feeds the CI tests and the entropic
        orienter, and one :class:`CachedCITest` memoises the decisions
        with two or more conditioning columns under a new generation.
        """
        data = stats.data
        self._stats = stats
        self._generation += 1
        ci_test = CachedCITest(
            MixedCITest(data, alpha=self._alpha, bins=self._bins,
                        stats=stats),
            self._ci_cache, self._generation)
        space = self._skeleton_space(data)
        result = fci(space.variables, ci_test,
                     constraints=self._constraints,
                     max_condition_size=self._max_condition_size,
                     space=space)
        orienter = EntropicOrienter(
            data, bins=self._bins,
            entropy_threshold_factor=self._threshold_factor,
            seed=self._seed, stats=stats)
        resolved = orienter.resolve(result.pag, self._constraints)
        elapsed = time.perf_counter() - started
        model = LearnedModel(
            graph=resolved, pag=result.pag, constraints=self._constraints,
            data=data, ci_tests_performed=result.tests_performed,
            discovery_seconds=elapsed, incremental=incremental)
        model.history = history + [{
            "n_samples": float(data.n_rows),
            "n_edges": float(resolved.num_edges()),
            "seconds": elapsed,
            "incremental": float(incremental),
        }]
        return model
