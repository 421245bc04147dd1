"""Targeted tests of the fused execution plans against the scalar oracle.

The fused path (:mod:`repro.scm.fused`) compiles propagation schedules
into per-level packed-coefficient GEMMs; the scalar methods of
:class:`~repro.scm.fitting.FittedPerformanceModel` remain the reference
semantics.  The property-based differentials over random fitted models
live in ``test_batched_vs_scalar.py``; this module covers single-node
graphs, mixed fallback levels, multi-chunk batches beyond the fixed GEMM
width (including an ill-conditioned fit), the batch-width bit-stability
contract, the scalar-fold memo and the stale-program invalidation on
structural rebinds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from test_batched_vs_scalar import _fused_tol, fitted_models
from repro.scm.batched import BatchedFittedModel
from repro.scm.fitting import FittedEquation, fit_structural_equations
from repro.scm.fused import (
    _GEMM_WIDTH,
    compile_fused_program,
    equation_feature_ops,
)
from repro.scm.mechanisms import InteractionMechanism, LinearMechanism
from repro.scm.model import StructuralCausalModel
from repro.stats.dataset import Dataset

TOL = dict(rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Targeted shapes
# ---------------------------------------------------------------------------
def _single_node_model():
    """The smallest fittable graph: one option, one endogenous node."""
    scm = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0, 2.0)},
        mechanisms={"v0": LinearMechanism({"o0": 1.5}, intercept=0.25)},
        noise={})
    rows = scm.sample(16, np.random.default_rng(3))
    return scm, fit_structural_equations(scm.dag, Dataset.from_rows(rows))


def test_single_node_graph_matches_scalar():
    scm, model = _single_node_model()
    fused = BatchedFittedModel(model)
    assignments = [{"o0": value} for value in (0.0, 1.0, 2.0)]
    f_rows = fused.predict_batch(assignments)
    for assignment, f_row in zip(assignments, f_rows):
        scalar = model.predict(assignment)
        for variable, value in scalar.items():
            assert np.allclose(f_row[variable], value, **TOL)
    # Intervening on the only endogenous node leaves an empty schedule.
    empty = fused.predict_batch([{"o0": 1.0, "v0": 9.0}])
    assert np.allclose(empty[0]["v0"], 9.0, **TOL)


class _OpaqueEquation:
    """A non-polynomial stand-in equation that must take the fallback."""

    def __init__(self, inner: FittedEquation) -> None:
        self._inner = inner
        self.parents = inner.parents

    def predict(self, values):
        return 2.0 * self._inner.predict(values) + 1.0

    def predict_batch(self, columns, n_rows):
        return 2.0 * self._inner.predict_batch(columns, n_rows) + 1.0


def test_mixed_fallback_level_matches_scalar():
    """A level mixing fused nodes and fallback equations stays exact."""
    scm = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0), "o1": (1.0, 2.0)},
        mechanisms={
            "v0": LinearMechanism({"o0": 2.0, "o1": -1.0}, intercept=0.5),
            "v1": InteractionMechanism(
                {"o0": 1.0, "o1": 0.5},
                interactions={("o0", "o1"): 0.25}, intercept=-0.5),
            "v2": LinearMechanism({"v0": 1.0, "v1": -0.5}, intercept=1.0),
        },
        noise={})
    rows = scm.sample(24, np.random.default_rng(7))
    model = fit_structural_equations(scm.dag, Dataset.from_rows(rows))
    # Make v1 opaque: level 0 now holds a fused block (v0) and a fallback
    # (v1) side by side, and level 1 (v2) consumes both their columns.
    model._equations["v1"] = _OpaqueEquation(model.equation("v1"))
    assert equation_feature_ops(model.equation("v1")) is None
    fused = BatchedFittedModel(model)
    assignments = [{"o0": a, "o1": b} for a in (0.0, 1.0) for b in (1.0, 2.0)]
    f_rows = fused.predict_batch(assignments)
    for assignment, f_row in zip(assignments, f_rows):
        scalar = model.predict(assignment)
        for variable in ("v0", "v1", "v2"):
            assert np.allclose(f_row[variable], scalar[variable], **TOL)


def _assert_multi_chunk_rows(model, option, domain, target):
    """A ``_GEMM_WIDTH + 7`` batch chunks without drift.

    Every row is bitwise equal to the same assignment run alone (chunking
    and padding never change an answer), and matches the scalar oracle
    within the fit's condition-aware bound (the GEMM's reassociated sum).
    """
    fused = BatchedFittedModel(model)
    tol = _fused_tol(model)
    assignments = [{option: domain[i % len(domain)]}
                   for i in range(_GEMM_WIDTH + 7)]
    rows = fused.predict_batch(assignments)
    for assignment, row in zip(assignments, rows):
        alone = fused.predict_batch([assignment])[0]
        assert row[target] == alone[target]
        assert np.allclose(row[target],
                           model.predict(assignment)[target], **tol)


@given(fitted_models())
@settings(max_examples=10, deadline=None)
def test_multi_chunk_batches_beyond_gemm_width(case):
    """Batches wider than the fixed GEMM width chunk without drift."""
    scm, model, _ = case
    option = scm.exogenous_variables[0]
    _assert_multi_chunk_rows(model, option, scm.domain(option),
                             scm.endogenous_variables[-1])


def test_multi_chunk_ill_conditioned_fit_within_condition_bound():
    """Cancelling ~1e9 coefficients stay exact per row and within bound.

    On a two-valued option ``x == x**2``, so a fit may split its mass
    between the two features as huge cancelling coefficients.  The GEMM
    sums ``c0*x + c1*x**2`` before the intercept, the scalar path adds the
    intercept first; the answers then differ by ~1e-7, far above a hard
    1e-9 but well inside ``_fused_tol``.
    """
    scm = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0)},
        mechanisms={"v0": LinearMechanism({"o0": 1.5}, intercept=0.25),
                    "v1": LinearMechanism({"v0": 2.0}, intercept=-1.0)},
        noise={})
    rows = scm.sample(16, np.random.default_rng(3))
    model = fit_structural_equations(scm.dag, Dataset.from_rows(rows))
    model._equations["v0"] = FittedEquation(
        variable="v0", parents=("o0",), feature_names=("o0", "o0^2"),
        coefficients=np.array([1.0e9 + 1.5, -1.0e9]), intercept=0.1,
        residual_std=0.0)
    _assert_multi_chunk_rows(model, "o0", (0.0, 1.0), "v1")


def test_fused_rows_bitwise_stable_across_batch_width():
    """Row ``i`` of a batch is bitwise equal to the same query alone.

    The serving layer's coalescing contract: fused products run in
    zero-padded fixed-width chunks precisely so an answer's bits cannot
    depend on what else was in the batch.
    """
    scm2 = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0, 2.0), "o1": (0.5, 1.5)},
        mechanisms={
            "v0": InteractionMechanism(
                {"o0": 1.0, "o1": -2.0},
                interactions={("o0", "o1"): 0.75}, intercept=0.1),
            "v1": LinearMechanism({"v0": 3.0, "o1": 0.5}, intercept=-1.0),
        },
        noise={})
    rows = scm2.sample(20, np.random.default_rng(11))
    model = fit_structural_equations(scm2.dag, Dataset.from_rows(rows))
    fused = BatchedFittedModel(model)
    assignments = [{"o0": float(i % 3), "o1": 0.5 + (i % 2)}
                   for i in range(_GEMM_WIDTH + 9)]
    batch = fused.predict_batch(assignments)
    for i in (0, 1, 7, _GEMM_WIDTH - 1, _GEMM_WIDTH, _GEMM_WIDTH + 8):
        alone = fused.predict_batch([assignments[i]])[0]
        for variable in ("v0", "v1"):
            assert batch[i][variable] == alone[variable]


# ---------------------------------------------------------------------------
# Compilation and caching
# ---------------------------------------------------------------------------
def test_equation_feature_ops_orders_and_rejects():
    equation = FittedEquation(
        variable="y", parents=("a", "b"),
        feature_names=("a", "b", "a^2", "b^2", "a*b"),
        coefficients=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        intercept=0.5, residual_std=0.0)
    ops = equation_feature_ops(equation)
    assert ops == [("lin", "a", None), ("lin", "b", None),
                   ("sq", "a", None), ("sq", "b", None),
                   ("pair", "a", "b")]
    assert equation_feature_ops(_OpaqueEquation(equation)) is None
    # A coefficient count that does not match the polynomial layout is
    # also rejected (a custom/truncated fit must take the fallback).
    short = FittedEquation(
        variable="y", parents=("a", "b"), feature_names=("a", "b"),
        coefficients=np.array([1.0, 2.0]), intercept=0.0, residual_std=0.0)
    assert equation_feature_ops(short) is None


def test_scalar_fold_memo_replays_and_invalidates():
    scm, model = _single_node_model()
    program = compile_fused_program(
        model, ["v0"], known=["o0"], missing="skip", vector=["o0"])
    column = np.array([0.0, 1.0, 2.0])
    first = dict(program.execute({"o0": column.copy()}, 3,
                                 scalar_token=("epoch", 1)))
    assert program._scalar_memo is not None
    assert program._scalar_memo[0] == ("epoch", 1)
    # Same token: the fold is replayed, answers unchanged.
    replay = program.execute({"o0": column.copy()}, 3,
                             scalar_token=("epoch", 1))
    assert np.array_equal(first["v0"], replay["v0"])
    # A new token recomputes and re-records.
    program.execute({"o0": column.copy()}, 3, scalar_token=("epoch", 2))
    assert program._scalar_memo[0] == ("epoch", 2)
    # Execution without a token neither uses nor disturbs the memo.
    bare = program.execute({"o0": column.copy()}, 3)
    assert np.array_equal(first["v0"], bare["v0"])
    assert program._scalar_memo[0] == ("epoch", 2)


def test_fused_programs_dropped_on_structural_rebind():
    """Satellite regression: stale plans must not survive a rebind."""
    scm, model = _single_node_model()
    fused = BatchedFittedModel(model)
    fused.predict_batch([{"o0": 1.0}])
    plan = fused.plan
    assert plan.fused_programs(model)  # compiled and cached
    plan.rebind(scm.dag, structure_changed=True)
    assert plan.fused_programs(model) == {}
    # A rebind without structural change keeps the compiled programs.
    fused.predict_batch([{"o0": 1.0}])
    assert plan.fused_programs(model)
    plan.rebind(scm.dag, structure_changed=False)
    assert plan.fused_programs(model)
    # A different owner model can never replay this model's coefficients.
    assert plan.fused_programs(object()) == {}


def test_fused_program_cache_reused_across_calls():
    scm, model = _single_node_model()
    fused = BatchedFittedModel(model)
    fused.predict_batch([{"o0": 0.0}])
    programs = fused.plan.fused_programs(model)
    compiled = dict(programs)
    fused.predict_batch([{"o0": 1.0}, {"o0": 2.0}])
    after = fused.plan.fused_programs(model)
    for key, program in compiled.items():
        assert after[key] is program
