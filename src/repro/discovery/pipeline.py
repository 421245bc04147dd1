"""The Unicorn causal-model-learning pipeline (Stage II / Stage IV).

``CausalModelLearner`` wires together the skeleton search, FCI orientation
and entropic resolution into the three-step procedure of Fig. 9, and exposes
``update`` for the incremental re-learning of Stage IV (Fig. 10).

``learn`` is the cold-start path: it rebuilds the statistical session
(sufficient statistics, CI tests, orienter) and runs FCI from the fully
connected constraint graph.  ``update`` is the incremental path: new samples
are appended *in place* to the model's dataset (bumping its data epoch), the
running sums fold in only the new rows, and the same FCI traversal re-runs
on the grown data.  Every CI decision is made on the data as it is now (the
:class:`CIDecisionCache` serves a decision only within the data epoch it
was made in), so an update refits the model exactly as a cold ``learn``
over the same rows would, as Stage IV of the paper prescribes.

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


@dataclass
class _LearnerSession:
    """Statistical machinery kept alive across incremental updates."""

    data: Dataset
    space: SkeletonSpace
    stats: SufficientStats
    ci_test: CachedCITest
    orienter: EntropicOrienter


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
        self._session: _LearnerSession | None = None

    @property
    def constraints(self) -> StructuralConstraints:
        return self._constraints

    @property
    def ci_cache(self) -> CIDecisionCache:
        """The persistent CI-decision cache (for observability / tests)."""
        return self._ci_cache

    # --------------------------------------------------------------- session
    def _model_variables(self, data: Dataset) -> list[str]:
        return [v for v in data.columns if v in self._constraints.roles]

    def _bind_session(self, data: Dataset) -> _LearnerSession:
        """(Re)build the persistent statistical session over ``data``.

        One :class:`SufficientStats` feeds the CI tests and the entropic
        orienter, and one :class:`CachedCITest` memoises the decisions
        with two or more conditioning columns within a data epoch.
        """
        stats = SufficientStats(data)
        ci_test = CachedCITest(
            MixedCITest(data, alpha=self._alpha, bins=self._bins,
                        stats=stats),
            self._ci_cache, lambda: data.data_epoch)
        orienter = EntropicOrienter(
            data, bins=self._bins,
            entropy_threshold_factor=self._threshold_factor,
            seed=self._seed, stats=stats)
        self._session = _LearnerSession(
            data=data,
            space=SkeletonSpace(self._model_variables(data),
                                self._constraints),
            stats=stats, ci_test=ci_test, orienter=orienter)
        return self._session

    # ------------------------------------------------------------------ learn
    def learn(self, data: Dataset) -> LearnedModel:
        """Learn a causal performance model from scratch.

        The model is bound to a private copy of ``data``: incremental
        updates grow the model's dataset in place, and that must never
        mutate an array the caller still owns.
        """
        started = time.perf_counter()
        self._ci_cache.clear()
        session = self._bind_session(data.copy())
        return self._discover(session, started, history=[],
                              incremental=False)

    # ----------------------------------------------------------------- update
    def update(self, model: LearnedModel,
               new_rows: Sequence[Mapping[str, float]]) -> LearnedModel:
        """Incrementally update a model with newly measured configurations.

        The new samples are appended **in place** to the model's dataset
        (``model.data`` is shared with the returned model, so earlier
        :class:`LearnedModel` handles observe the grown data as well), and
        the cold FCI traversal re-runs on the grown data.  No CI decision
        from an earlier data epoch is served, so this produces exactly the
        PAG, separating sets and ``tests_performed`` of :meth:`learn` over
        the same rows.  The previous history is carried over so callers
        can plot convergence (Fig. 11).
        """
        if not new_rows:
            return model
        started = time.perf_counter()
        session = self._session
        if session is None or session.data is not model.data:
            # Foreign model (e.g. learned by another learner instance or
            # restored from a snapshot): adopt its dataset.  The cache is
            # keyed by (x, y, Z) and epoch only, so decisions computed on
            # the previously bound dataset must not leak into this one.
            self._ci_cache.clear()
            session = self._bind_session(model.data)
        model.data.append_rows_inplace(new_rows)
        return self._discover(session, started, history=model.history,
                              incremental=True)

    def _discover(self, session: _LearnerSession, started: float,
                  history: list[dict[str, float]],
                  incremental: bool) -> LearnedModel:
        """Run FCI + entropic resolution over the session's dataset."""
        result = fci(session.space.variables, session.ci_test,
                     constraints=self._constraints,
                     max_condition_size=self._max_condition_size,
                     space=session.space)
        resolved = session.orienter.resolve(result.pag, self._constraints)
        elapsed = time.perf_counter() - started
        model = LearnedModel(
            graph=resolved, pag=result.pag, constraints=self._constraints,
            data=session.data, ci_tests_performed=result.tests_performed,
            discovery_seconds=elapsed, incremental=incremental)
        model.history = history + [{
            "n_samples": float(session.data.n_rows),
            "n_edges": float(resolved.num_edges()),
            "seconds": elapsed,
            "incremental": float(incremental),
        }]
        return model
