"""Fitting structural equations to data over a learned causal graph.

The paper characterises each functional node of the causal performance model
with a polynomial model (the role played by ``semopy`` in the original
toolchain).  ``fit_structural_equations`` takes the learned graph and the
observational data; for every node with at least one parent, a least-squares
polynomial (linear + squared + pairwise-interaction features) of its parents
is fitted the first time the equation is read.  The resulting
:class:`FittedPerformanceModel` supports:

* performance prediction for unmeasured configurations (conditional
  expectation ``E[Y | X = x]`` propagated through the graph),
* interventional expectations ``E[Y | do(X = x)]`` estimated by replaying the
  observed exogenous context with the intervention applied (the empirical
  analogue of truncated factorisation),
* counterfactual replay of an individual observed sample
  (abduction–action–prediction on the fitted additive-noise equations).

The fitted model is what the causal inference engine queries when computing
average and individual causal effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.graph.dag import CausalDAG
from repro.graph.mixed_graph import MixedGraph
from repro.stats.dataset import Dataset


@dataclass
class FittedEquation:
    """A fitted polynomial structural equation for one variable."""

    variable: str
    parents: tuple[str, ...]
    feature_names: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float
    residual_std: float

    def design_row(self, values: Mapping[str, float]) -> np.ndarray:
        parent_values = np.array([float(values[p]) for p in self.parents])
        return _polynomial_features(parent_values[None, :], self.parents)[0][0]

    def predict(self, values: Mapping[str, float]) -> float:
        # Accumulate feature terms sequentially (not via a BLAS dot product)
        # in the exact order predict_batch uses, so the scalar and batched
        # paths are *bitwise* identical — matmul reassociation would
        # otherwise let chained counterfactuals drift apart numerically.
        row = self.design_row(values)
        total = float(self.intercept)
        for j in range(len(self.coefficients)):
            total += float(row[j]) * float(self.coefficients[j])
        return total

    def predict_batch(self, columns: Mapping[str, np.ndarray],
                      n_rows: int) -> np.ndarray:
        """Vectorized :meth:`predict` over ``(n_rows,)`` parent columns.

        Feature terms (linear, squared, pairwise — the
        :func:`_polynomial_features` order) accumulate term-by-term in the
        same order and with the same elementwise operations as the scalar
        :meth:`predict`, so each row of the result is bitwise equal to a
        scalar call on that row.
        """
        if not self.parents:
            return np.full(n_rows, self.intercept, dtype=float)
        parent_columns = [np.asarray(columns[p], dtype=float)
                          for p in self.parents]
        coefficients = self.coefficients
        total = np.full(n_rows, float(self.intercept), dtype=float)
        k = 0
        for column in parent_columns:
            total += column * coefficients[k]
            k += 1
        for column in parent_columns:
            total += column ** 2 * coefficients[k]
            k += 1
        for j in range(len(parent_columns)):
            for l in range(j + 1, len(parent_columns)):
                total += parent_columns[j] * parent_columns[l] \
                    * coefficients[k]
                k += 1
        return total

    def terms(self) -> dict[str, float]:
        """Feature-name → coefficient mapping (for explanation / stability)."""
        return {name: float(c)
                for name, c in zip(self.feature_names, self.coefficients)}

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe snapshot; coefficients are bitwise (base64 codec).

        The intercept and residual noise scale ride as plain JSON floats —
        Python's JSON round-trips floats exactly (shortest-repr), so the
        whole equation reloads byte-identically.
        """
        from repro.stats.codec import array_to_doc

        return {
            "variable": self.variable,
            "parents": list(self.parents),
            "feature_names": list(self.feature_names),
            "coefficients": array_to_doc(np.asarray(self.coefficients,
                                                    dtype=float)),
            "intercept": float(self.intercept),
            "residual_std": float(self.residual_std),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FittedEquation":
        """Rebuild the equation snapshotted by :meth:`to_dict`, bitwise."""
        from repro.stats.codec import array_from_doc

        return cls(variable=payload["variable"],
                   parents=tuple(payload["parents"]),
                   feature_names=tuple(payload["feature_names"]),
                   coefficients=array_from_doc(payload["coefficients"]),
                   intercept=float(payload["intercept"]),
                   residual_std=float(payload["residual_std"]))


def _polynomial_features(matrix: np.ndarray, names: Sequence[str]
                         ) -> tuple[np.ndarray, list[str]]:
    """Linear + squared + pairwise interaction features with their names."""
    n_rows, n_cols = matrix.shape
    columns: list[np.ndarray] = []
    feature_names: list[str] = []
    for j, name in enumerate(names):
        columns.append(matrix[:, j])
        feature_names.append(name)
    for j, name in enumerate(names):
        columns.append(matrix[:, j] ** 2)
        feature_names.append(f"{name}^2")
    for j in range(n_cols):
        for k in range(j + 1, n_cols):
            columns.append(matrix[:, j] * matrix[:, k])
            feature_names.append(f"{names[j]}*{names[k]}")
    if not columns:
        return np.zeros((n_rows, 0)), []
    return np.column_stack(columns), feature_names


def _fit_equation(rows: np.ndarray, column: Callable[[str], int],
                  variable: str, parents: tuple[str, ...]) -> FittedEquation:
    """Least-squares fit of ``variable`` on ``parents`` (sorted, non-empty)
    over the rows of ``rows``; ``column`` maps a name to its column."""
    y = rows[:, column(variable)]
    x = np.column_stack([rows[:, column(p)] for p in parents])
    features, names = _polynomial_features(x, parents)
    design = np.column_stack([features, np.ones(len(y))])
    # Least squares via SVD (lstsq) keeps the fit stable when features are
    # collinear (e.g. a binary option and its square are identical) or span
    # wildly different magnitudes (kernel options in the 1e5 range next to
    # binary flags).
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    predictions = design @ beta
    residual_std = float(np.std(y - predictions))
    return FittedEquation(variable=variable, parents=parents,
                          feature_names=tuple(names),
                          coefficients=beta[:-1], intercept=float(beta[-1]),
                          residual_std=residual_std)


class FittedPerformanceModel:
    """Structural equations over a causal graph, each fitted on first use.

    Parameters
    ----------
    dag:
        The directed part of the learned causal performance model.
    equations:
        Equations already fitted (a reload or a hand-built model).
    data:
        The observational data; kept so interventional expectations can
        marginalise over the empirical context distribution.
    parents:
        Sorted parents of every endogenous node; defaults to those of
        ``equations``.  A node without an equation is fitted the first time
        something reads it, on ``data``'s rows, which never change, so an
        equation is the same whenever (and on whichever thread) it is first
        read.  A racing second fit keeps the first one.
    """

    def __init__(self, dag: CausalDAG,
                 equations: Mapping[str, FittedEquation],
                 data: Dataset,
                 parents: Mapping[str, tuple[str, ...]] | None = None
                 ) -> None:
        self._dag = dag
        self._equations = dict(equations)
        self._parents = dict(parents) if parents is not None else {
            variable: equation.parents
            for variable, equation in self._equations.items()}
        self._data = data
        self._topo = dag.topological_order()

    @property
    def dag(self) -> CausalDAG:
        return self._dag

    @property
    def data(self) -> Dataset:
        return self._data

    def equation(self, variable: str) -> FittedEquation:
        equation = self._equations.get(variable)
        if equation is None:
            equation = self._equations.setdefault(variable, _fit_equation(
                self._data.values, self._data.column_index, variable,
                self._parents[variable]))
        return equation

    def has_equation(self, variable: str) -> bool:
        return variable in self._parents

    def parents(self) -> dict[str, tuple[str, ...]]:
        """Sorted parents of every endogenous node; reading them fits
        nothing."""
        return dict(self._parents)

    def equations(self) -> dict[str, FittedEquation]:
        return {variable: self.equation(variable)
                for variable in self._parents}

    # ------------------------------------------------------------ prediction
    def predict(self, assignment: Mapping[str, float],
                targets: Sequence[str] | None = None) -> dict[str, float]:
        """Propagate an assignment of root variables through the equations.

        Variables present in ``assignment`` are taken as given; every other
        variable with a fitted equation is computed from its parents in
        topological order; remaining variables fall back to their empirical
        mean.  Returns the values of ``targets`` (default: all variables).
        """
        values: dict[str, float] = {k: float(v) for k, v in assignment.items()}
        for variable in self._topo:
            if variable in values:
                continue
            value = self._predict_from(variable, values)
            if value is not None:
                values[variable] = value
                continue
            if variable in self._data.columns:
                values[variable] = float(np.mean(self._data.column(variable)))
            else:  # pragma: no cover - defensive
                values[variable] = 0.0
        if targets is None:
            return values
        return {t: values[t] for t in targets}

    # --------------------------------------------------------- interventions
    def interventional_expectation(self, target: str,
                                   intervention: Mapping[str, float],
                                   max_contexts: int = 200) -> float:
        """Estimate ``E[target | do(intervention)]``.

        The empirical analogue of truncated factorisation: for each observed
        row, clamp the intervened variables to their new values, re-propagate
        every descendant of an intervened variable through the fitted
        equations, and average the resulting target values.
        """
        affected = set(intervention)
        for variable in intervention:
            if self._dag.has_node(variable):
                affected |= self._dag.descendants(variable)
        rows = self._data.rows()
        if len(rows) > max_contexts:
            stride = len(rows) / max_contexts
            rows = [rows[int(i * stride)] for i in range(max_contexts)]
        total = 0.0
        for row in rows:
            values = dict(row)
            values.update({k: float(v) for k, v in intervention.items()})
            for variable in self._topo:
                if variable in intervention or variable not in affected:
                    continue
                value = self._predict_from(variable, values)
                if value is not None:
                    values[variable] = value
            total += values.get(target, 0.0)
        return total / max(len(rows), 1)

    # -------------------------------------------------------- counterfactual
    def counterfactual(self, observation: Mapping[str, float],
                       intervention: Mapping[str, float]) -> dict[str, float]:
        """Counterfactual outcome of one observed sample under an intervention.

        Abduction recovers each recomputed equation's residual on the
        factual observation; the intervention is applied; prediction
        re-propagates the equations adding back the abducted residuals
        (additive-noise assumption).
        """
        values: dict[str, float] = {k: float(v) for k, v in observation.items()}
        values.update({k: float(v) for k, v in intervention.items()})
        affected = set(intervention)
        for variable in intervention:
            if self._dag.has_node(variable):
                affected |= self._dag.descendants(variable)
        for variable in self._topo:
            if variable in intervention or variable not in affected:
                continue
            value = self._predict_from(variable, values)
            if value is None:
                continue
            factual = (self._predict_from(variable, observation)
                       if variable in observation else None)
            values[variable] = value + (
                0.0 if factual is None
                else float(observation[variable]) - factual)
        return values

    def _predict_from(self, variable: str,
                      values: Mapping[str, float]) -> float | None:
        """``variable``'s equation at ``values``, or ``None`` when it has
        none or a parent is missing (checked before anything is fitted)."""
        parents = self._parents.get(variable)
        if parents is None or not all(p in values for p in parents):
            return None
        return self.equation(variable).predict(values)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe snapshot of the DAG and every fitted equation.

        The observational data is *not* embedded: the model store persists
        it once per snapshot (it is shared with the learned model) and
        passes it back to :meth:`from_dict`.  The DAG's node list is
        emitted in insertion order — topological ordering breaks ties by
        that order, so preserving it keeps propagation (and therefore
        every prediction) byte-identical after a reload.
        """
        return {
            "nodes": self._dag.nodes,
            "edges": [[cause, effect]
                      for cause, effect in sorted(self._dag.edges())],
            "equations": [self.equation(v).to_dict()
                          for v in sorted(self._parents)],
        }

    @classmethod
    def from_dict(cls, payload: dict,
                  data: Dataset) -> "FittedPerformanceModel":
        """Rebuild the model snapshotted by :meth:`to_dict` over ``data``.

        Parameters
        ----------
        payload:
            The :meth:`to_dict` document.
        data:
            The observational data the equations were fitted on (kept for
            interventional context marginalisation), reloaded separately.
        """
        dag = CausalDAG(payload["nodes"],
                        [(cause, effect)
                         for cause, effect in payload["edges"]])
        equations = {doc["variable"]: FittedEquation.from_dict(doc)
                     for doc in payload["equations"]}
        return cls(dag, equations, data)

    # ------------------------------------------------------------- reporting
    def all_terms(self) -> dict[str, float]:
        """Union of every equation's feature coefficients.

        Used by the transferability analysis (Fig. 4b) to compare which terms
        appear in models learned in different environments.
        """
        terms: dict[str, float] = {}
        for equation in self.equations().values():
            for name, coefficient in equation.terms().items():
                terms[f"{equation.variable}<-{name}"] = coefficient
        return terms


def fit_structural_equations(graph: MixedGraph | CausalDAG,
                             data: Dataset) -> FittedPerformanceModel:
    """Polynomial structural equations for every node with parents.

    Records each endogenous node's sorted parents (those that are data
    columns) and pins the rows ``data`` holds now; the model fits an
    equation on those rows the first time it is read, so this call itself
    fits nothing.
    """
    if isinstance(graph, MixedGraph):
        dag = CausalDAG.from_mixed_graph(graph)
    else:
        dag = graph
    columns = set(data.columns)
    parents: dict[str, tuple[str, ...]] = {}
    for variable in dag.nodes:
        if variable in columns:
            found = sorted(p for p in dag.parents(variable) if p in columns)
            if found:
                parents[variable] = tuple(found)
    return FittedPerformanceModel(dag, {}, data, parents=parents)
