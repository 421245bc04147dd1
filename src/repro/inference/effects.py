"""Average causal effect estimation.

The ranking heuristic of Stage III needs, for every edge ``X -> Z`` on a
causal path, the *average causal effect*

    ACE(Z, X) = (1 / N) * sum over pairs (a, b) of permissible values of X of
                E[Z | do(X = b)] - E[Z | do(X = a)]

(the paper averages successive differences over the permissible values of
``X``).  Interventional expectations are computed on the fitted performance
model; for continuous variables the domain is replaced by a small grid of
observed quantiles.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.scm.fitting import FittedPerformanceModel


def _permissible_values(model: FittedPerformanceModel, variable: str,
                        domains: Mapping[str, Sequence[float]] | None,
                        max_values: int = 6) -> list[float]:
    """Values of ``variable`` over which the ACE average is taken."""
    if domains is not None and variable in domains:
        values = sorted(set(float(v) for v in domains[variable]))
    else:
        column = model.data.column(variable)
        unique = np.unique(column)
        if unique.size <= max_values:
            values = [float(v) for v in unique]
        else:
            quantiles = np.linspace(0, 1, max_values)
            values = [float(v) for v in np.quantile(column, quantiles)]
    if len(values) > max_values:
        idx = np.linspace(0, len(values) - 1, max_values).astype(int)
        values = [values[i] for i in idx]
    return values


def _mean_step(expectations) -> float:
    """Mean of the successive differences of a value sweep's expectations."""
    diffs = [expectations[i + 1] - expectations[i]
             for i in range(len(expectations) - 1)]
    return float(np.mean(diffs))


def average_causal_effect(model: FittedPerformanceModel, target: str,
                          treatment: str,
                          domains: Mapping[str, Sequence[float]] | None = None,
                          max_contexts: int = 100,
                          evaluator=None) -> float:
    """ACE of ``treatment`` on ``target`` averaged over successive value pairs.

    When a :class:`repro.scm.batched.BatchedFittedModel` is passed as
    ``evaluator`` the per-value interventional expectations are computed in
    one batched sweep (:func:`average_causal_effects_table`); the scalar path
    is the reference oracle.
    """
    if evaluator is not None:
        return average_causal_effects_table(
            model, [target], [treatment], domains=domains,
            max_contexts=max_contexts, evaluator=evaluator)[0][0]
    values = _permissible_values(model, treatment, domains)
    if len(values) < 2:
        return 0.0
    return _mean_step([
        model.interventional_expectation(target, {treatment: value},
                                         max_contexts=max_contexts)
        for value in values
    ])


def average_causal_effects_table(model: FittedPerformanceModel,
                                 targets: Sequence[str],
                                 treatments: Sequence[str],
                                 domains: Mapping[str, Sequence[float]] | None = None,
                                 max_contexts: int = 100,
                                 evaluator=None) -> list[list[float]]:
    """Signed ACE of several treatments on several targets in one sweep.

    Every treatment's value sweep is concatenated into a single
    ``interventional_expectation_table`` call, which executes each
    intervention key set's program once for all targets; the expectations
    are sliced back per target and treatment.  Because the batched evaluator
    groups interventions by key set and reads each target from the same
    execution, every entry is bitwise equal to a standalone
    :func:`average_causal_effect` call for that pair.  A slice that
    repeats one bit pattern ``c`` (a target off the treatment's downstream
    set reads one value across its sweep) has every step ``c - c``, so its
    effect is ``c - c`` with no differences averaged.  Without an
    ``evaluator`` each pair takes the scalar reference path.

    Parameters
    ----------
    model, domains, max_contexts, evaluator:
        As in :func:`average_causal_effect`.
    targets:
        The variables the effects are measured on.
    treatments:
        The options whose effects are wanted.

    Returns
    -------
    list of list of float
        One row per target, in ``targets`` order, of one signed ACE per
        treatment, in ``treatments`` order.
    """
    if not targets:
        return []
    if evaluator is None:
        return [[average_causal_effect(model, target, treatment,
                                       domains=domains,
                                       max_contexts=max_contexts)
                 for treatment in treatments]
                for target in targets]
    interventions: list[dict[str, float]] = []
    slices: list[tuple[int, int]] = []
    for treatment in treatments:
        values = _permissible_values(model, treatment, domains)
        start = len(interventions)
        if len(values) >= 2:
            interventions.extend({treatment: value} for value in values)
        slices.append((start, len(interventions)))
    table = np.ascontiguousarray(evaluator.interventional_expectation_table(
        targets, interventions, max_contexts=max_contexts), dtype=float)
    # changes[t][j] counts the bit-pattern changes of row t up to column j.
    bits = table.view(np.int64)
    changes = np.zeros(bits.shape, dtype=np.intp)
    np.cumsum(bits[:, 1:] != bits[:, :-1], axis=1, out=changes[:, 1:])
    effects = []
    for expectations, changed in zip(table, changes.tolist()):
        row = []
        for start, end in slices:
            if end - start < 2:
                row.append(0.0)
            elif changed[end - 1] == changed[start]:
                # The slice repeats one value c: every step is c - c.
                constant = float(expectations[start])
                row.append(constant - constant)
            else:
                row.append(_mean_step(expectations[start:end]))
        effects.append(row)
    return effects


def average_causal_effects_batch(model: FittedPerformanceModel, target: str,
                                 treatments: Sequence[str],
                                 domains: Mapping[str, Sequence[float]] | None = None,
                                 max_contexts: int = 100,
                                 evaluator=None) -> list[float]:
    """Signed ACE of several treatments on one target in one batched sweep.

    The one-target row of :func:`average_causal_effects_table`; the serving
    layer's batcher answers a drained group of ACE queries with it.
    """
    return average_causal_effects_table(
        model, [target], treatments, domains=domains,
        max_contexts=max_contexts, evaluator=evaluator)[0]


def path_average_causal_effect(model: FittedPerformanceModel,
                               path: Sequence[str],
                               domains: Mapping[str, Sequence[float]] | None = None,
                               max_contexts: int = 100,
                               evaluator=None) -> float:
    """Average of |ACE| over consecutive edges of a causal path (Eq. 1)."""
    if len(path) < 2:
        return 0.0
    total = 0.0
    count = 0
    for cause, effect in zip(path[:-1], path[1:]):
        total += abs(average_causal_effect(model, effect, cause,
                                           domains=domains,
                                           max_contexts=max_contexts,
                                           evaluator=evaluator))
        count += 1
    return total / count


def option_effects_on_objective(model: FittedPerformanceModel,
                                objective: str, options: Sequence[str],
                                domains: Mapping[str, Sequence[float]] | None = None,
                                max_contexts: int = 100,
                                evaluator=None) -> dict[str, float]:
    """ACE of each option on an objective (absolute value).

    Used both as the sampling heuristic of Stage III (options are perturbed
    with probability proportional to their causal effect) and as the weight
    vector of the ACE-weighted Jaccard accuracy metric.  The one-objective
    row of :func:`option_effects_on_objectives`.
    """
    return option_effects_on_objectives(
        model, [objective], options, domains=domains,
        max_contexts=max_contexts, evaluator=evaluator)[0]


def option_effects_on_objectives(model: FittedPerformanceModel,
                                 objectives: Sequence[str],
                                 options: Sequence[str],
                                 domains: Mapping[str, Sequence[float]] | None = None,
                                 max_contexts: int = 100,
                                 evaluator=None) -> list[dict[str, float]]:
    """|ACE| of each option on every objective, from one sweep.

    One :func:`average_causal_effects_table` sweep answers every objective
    (with a batched ``evaluator``, one program execution per option), so
    each returned dict, in ``objectives`` order, is bitwise equal to a
    standalone per-objective sweep.
    """
    options = list(options)
    table = average_causal_effects_table(
        model, list(objectives), options, domains=domains,
        max_contexts=max_contexts, evaluator=evaluator)
    return [{option: abs(effect) for option, effect in zip(options, signed)}
            for signed in table]
