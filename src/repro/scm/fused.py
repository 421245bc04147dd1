"""Fused structure-of-arrays execution plans for fitted structural equations.

Evaluating a fitted model one node at a time dispatches Python per *node*:
every topological level walks its variables one at a time, paying one
``predict_batch`` call (feature building, term-by-term accumulation) per
fitted equation.  A 256-candidate repair scan over a 37-variable model would
make thousands of small numpy calls.

This module compiles a propagation schedule into a **fused program**: the
schedule is partitioned into levels (by recomputation depth), and within each
level every polynomial equation's coefficients are packed into one contiguous
``(F, K)`` coefficient matrix over the level's deduplicated feature set, so
propagating ``N`` configurations costs one BLAS ``(N, F) @ (F, K)`` matrix
multiply per level instead of ``K`` Python dispatches.  (The product runs in
zero-padded chunks of the fixed width ``_GEMM_WIDTH`` rather than at the raw
batch width: BLAS selects its accumulation pattern by matrix shape, and the
serving layer's coalescing guarantee — row ``i`` of a batch is bitwise equal
to the same query dispatched alone — requires row results independent of
batch width.)  Equations that are not plain
:class:`~repro.scm.fitting.FittedEquation` polynomials fall back to per-node
evaluation *inside the same level*, so the fused path is always available
regardless of the mechanism mix.

The matrix product sums each equation's terms in a different order than the
scalar :meth:`~repro.scm.fitting.FittedEquation.predict`, so fused and scalar
answers agree to round-off relative to the coefficients' magnitude, not to a
fixed absolute tolerance; the scalar methods stay the reference oracle.

Programs embed the owning model's coefficients, so they are cached on the
:class:`~repro.scm.batched.StructuralPlan` keyed by owner model (see
``StructuralPlan.fused_programs``) and dropped on structural rebinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.scm.fitting import FittedEquation

#: feature-op kinds of a polynomial design matrix column.
_LINEAR = "lin"
_SQUARE = "sq"
_PAIR = "pair"

#: ``values`` entries accepted by :meth:`FusedProgram.execute`.
Column = "float | np.ndarray"

#: fixed row width of every fused matrix product.  Batches are chunked and
#: zero-padded to this width so the BLAS kernel (selected by shape) is the
#: same no matter how many rows a call carries, keeping each row's bits
#: independent of the batch composition — the property the serving layer's
#: byte-identical-coalescing contract rests on.
_GEMM_WIDTH = 64


def equation_feature_ops(equation) -> list[tuple] | None:
    """Feature ops of a polynomial equation, aligned with its coefficients.

    Returns one ``(kind, a, b)`` op per coefficient in the exact
    :func:`repro.scm.fitting._polynomial_features` order — linear parents,
    squared parents, pairwise interactions (``j < l`` over sorted parents) —
    or ``None`` when the equation is not a plain :class:`FittedEquation`
    with the expected coefficient count (such equations take the per-node
    fallback inside the fused program).
    """
    if type(equation) is not FittedEquation:
        return None
    parents = equation.parents
    n_parents = len(parents)
    expected = 2 * n_parents + n_parents * (n_parents - 1) // 2
    if len(equation.coefficients) != expected:
        return None
    ops: list[tuple] = [(_LINEAR, p, None) for p in parents]
    ops += [(_SQUARE, p, None) for p in parents]
    for j in range(n_parents):
        for l in range(j + 1, n_parents):
            ops.append((_PAIR, parents[j], parents[l]))
    return ops


@dataclass
class FusedBlock:
    """One level's packed polynomial equations, split by operand kind.

    Features whose operands are all broadcast scalars (base values of the
    observation, constant steps) contribute the same amount to every row;
    they collapse into one ``(F_s,) @ (F_s, K)`` vector product folded into
    the intercepts.  Only features touching a vector operand (an intervened
    column or a recomputed variable) are accumulated per row, so the per-row
    work is ``F_a`` multiply-adds over the few varying features.
    """

    #: recomputed variables, one output column each.
    nodes: tuple[str, ...]
    #: deduplicated feature ops with scalar-only operands.
    scalar_features: tuple[tuple, ...]
    #: ``(F_s, K)`` coefficients of the scalar features.
    scalar_coefficients: np.ndarray
    #: deduplicated feature ops with at least one vector operand.
    array_features: tuple[tuple, ...]
    #: ``(F_a, K)`` coefficients of the array features.
    array_coefficients: np.ndarray
    #: ``(K, F_a)`` contiguous transpose of ``array_coefficients`` — the
    #: operand execution actually multiplies: with the design matrix laid
    #: out ``(F_a, width)``, every feature fill and every node readout is
    #: a contiguous row, not a strided column.
    array_coefficients_t: np.ndarray
    #: ``(K,)`` equation intercepts.
    intercepts: np.ndarray
    #: pool of reusable ``(buffer, coeffs, dirty_rows)`` scratch triples —
    #: the transposed design matrix (with its constant ones row) and the
    #: base-augmented coefficient matrix (``list.pop``/``append`` keep
    #: checkout atomic under the GIL; concurrent executions simply
    #: allocate fresh scratch).
    scratch: list = field(default_factory=list)


@dataclass
class FusedLevel:
    """One recomputation depth of a fused program."""

    #: variables resolved to a constant (empirical mean or zero).
    consts: list[tuple[str, str]] = field(default_factory=list)
    #: the level's GEMM block (``None`` when nothing fused at this depth).
    block: FusedBlock | None = None
    #: ``(node, equation)`` pairs evaluated per-node (non-polynomial).
    fallback: list[tuple[str, object]] = field(default_factory=list)


def _fill_design(buffer: np.ndarray, features: Sequence[tuple],
                 values: Mapping[str, "Column"], window: "slice | None",
                 rows: int) -> None:
    """Fill ``buffer[:rows of each feature]`` with one design window.

    The buffer is the *transposed* design — ``(F + 1, width)`` with a
    constant all-ones last row (the intercept feature, see
    :meth:`FusedProgram.execute`) — so every feature fill is one write to
    a contiguous row.  ``window`` selects the batch rows of this chunk;
    ``None`` means the chunk covers whole columns, skipping the slicing.
    """
    for f, (kind, a, b) in enumerate(features):
        left = values[a]
        if window is not None and isinstance(left, np.ndarray):
            left = left[window]
        if kind == _LINEAR:
            buffer[f, :rows] = left
        elif kind == _SQUARE:
            buffer[f, :rows] = np.multiply(left, left)
        else:
            right = values[b]
            if window is not None and isinstance(right, np.ndarray):
                right = right[window]
            buffer[f, :rows] = np.multiply(left, right)


def _as_column(value, n: int) -> np.ndarray:
    """Materialize a scalar-or-array ``values`` entry as an ``(n,)`` column."""
    if isinstance(value, np.ndarray):
        return value
    return np.full(n, float(value))


def _predict_fallback(equation, values: Mapping[str, "Column"],
                      n: int) -> np.ndarray:
    """Per-node evaluation of one non-fused equation over the batch."""
    columns = {p: _as_column(values[p], n) for p in equation.parents}
    batch = getattr(equation, "predict_batch", None)
    if batch is not None:
        return np.asarray(batch(columns, n), dtype=float)
    return np.array([equation.predict({p: float(columns[p][i])
                                       for p in equation.parents})
                     for i in range(n)], dtype=float)


class FusedProgram:
    """A compiled schedule: one fused block per level plus fallbacks.

    Execution mutates a ``values`` dict whose entries are Python-float
    scalars (broadcast base values) or ``(n,)`` arrays; every recomputed
    variable is written back as an ``(n,)`` column.  Constant steps resolve
    lazily through the ``means`` callable, so a program reads only the
    empirical means it uses.
    """

    def __init__(self, levels: Sequence[FusedLevel], reads: frozenset,
                 produces: tuple[str, ...]) -> None:
        self.levels = list(levels)
        #: base ``values`` entries the program reads (never writes).
        self.reads = reads
        #: variables the program writes, in execution order.
        self.produces = produces
        #: ``(token, per-level base vectors)`` of the last scalar fold —
        #: see the ``scalar_token`` parameter of :meth:`execute`.
        self._scalar_memo: tuple | None = None

    def execute(self, values: dict, n: int,
                residuals: Mapping[str, "Column"] | None = None,
                means: Callable[[str], float] | None = None,
                scalar_token=None) -> dict:
        """Run the program over ``n`` rows, updating ``values`` in place.

        ``residuals`` (abducted per-variable noise, scalar or ``(n,)``) is
        added to every recomputed variable that has an entry, matching the
        additive-noise counterfactual semantics of the scalar
        :meth:`~repro.scm.fitting.FittedPerformanceModel.counterfactual`.

        ``scalar_token``, when given, must determine every broadcast-scalar
        input the program reads: each block's folded scalar contribution
        (intercepts + scalar features) is then memoized on the program and
        replayed while the token compares equal —
        repeated scans of the same fault skip the scalar fold entirely.
        Residuals never enter the fold (residual-adjusted variables are
        classified as array operands), so any token mismatch simply
        recomputes.
        """
        bases = None
        record: list | None = None
        if scalar_token is not None:
            memo = self._scalar_memo
            if memo is not None and memo[0] == scalar_token:
                bases = memo[1]
            else:
                record = []
        for index, level in enumerate(self.levels):
            for node, kind in level.consts:
                values[node] = float(means(node)) if kind == "mean" else 0.0
            block = level.block
            if block is not None:
                if bases is not None:
                    base = bases[index]
                else:
                    base = block.intercepts
                    if block.scalar_features:
                        scalars = []
                        for kind, a, b in block.scalar_features:
                            left = values[a]
                            if kind == _LINEAR:
                                scalars.append(left)
                            elif kind == _SQUARE:
                                scalars.append(left * left)
                            else:
                                scalars.append(left * values[b])
                        base = base + (np.asarray(scalars, dtype=float)
                                       @ block.scalar_coefficients)
                    if record is not None:
                        record.append(base)
                if block.array_features:
                    # The product always runs at the fixed padded width
                    # ``_GEMM_WIDTH``, never at the batch width: BLAS picks
                    # its accumulation pattern by matrix shape, so one
                    # configuration's result out of an ``N``-wide product
                    # is not bitwise stable across N — which would break
                    # the serving layer's contract that a coalesced answer
                    # equals the same query dispatched alone.  A GEMM never
                    # mixes batch positions arithmetically, so at a fixed
                    # shape every position's result depends only on its own
                    # data, making the chunked product stable for any
                    # batch width.  The design carries a constant all-ones
                    # last row and the coefficient scratch a per-execute
                    # base column, so the folded base (intercepts + scalar
                    # features) rides inside the same GEMM and each node's
                    # answer is simply its product row.
                    n_features = len(block.array_features)
                    try:
                        buffer, coeffs, dirty = block.scratch.pop()
                    except IndexError:
                        buffer = np.zeros((n_features + 1, _GEMM_WIDTH),
                                          dtype=float)
                        buffer[n_features] = 1.0
                        coeffs = np.empty((len(block.nodes),
                                           n_features + 1), dtype=float)
                        coeffs[:, :n_features] = block.array_coefficients_t
                        dirty = 0
                    coeffs[:, n_features] = base
                    if n <= _GEMM_WIDTH:
                        if dirty > n:
                            buffer[:n_features, n:dirty] = 0.0
                        _fill_design(buffer, block.array_features, values,
                                     None, n)
                        dirty = n
                        product = coeffs @ buffer
                    else:
                        product = np.empty((len(block.nodes), n),
                                           dtype=float)
                        for start in range(0, n, _GEMM_WIDTH):
                            rows = min(_GEMM_WIDTH, n - start)
                            if dirty > rows:
                                buffer[:n_features, rows:dirty] = 0.0
                            _fill_design(buffer, block.array_features,
                                         values,
                                         slice(start, start + rows), rows)
                            dirty = rows
                            product[:, start:start + rows] = \
                                (coeffs @ buffer)[:, :rows]
                    block.scratch.append((buffer, coeffs, dirty))
                    if residuals:
                        for k, node in enumerate(block.nodes):
                            offset = residuals.get(node)
                            values[node] = (product[k, :n] if offset is None
                                            else product[k, :n] + offset)
                    else:
                        for k, node in enumerate(block.nodes):
                            values[node] = product[k, :n]
                else:
                    # Every feature is constant across the batch: the level
                    # resolves to one scalar per node, kept as a broadcast
                    # scalar unless an abducted residual varies by row.
                    for k, node in enumerate(block.nodes):
                        value = float(base[k])
                        offset = residuals.get(node) if residuals else None
                        if offset is None:
                            values[node] = value
                        elif isinstance(offset, np.ndarray):
                            values[node] = value + offset
                        else:
                            values[node] = value + float(offset)
            elif record is not None:
                record.append(None)
            for node, equation in level.fallback:
                column = _predict_fallback(equation, values, n)
                offset = residuals.get(node) if residuals else None
                values[node] = column if offset is None else column + offset
        if record is not None:
            self._scalar_memo = (scalar_token, record)
        return values


def compile_fused_program(model, schedule: Sequence[str],
                          known: Iterable[str], missing: str = "skip",
                          column_names: Iterable[str] = (),
                          vector: Iterable[str] = ()) -> FusedProgram:
    """Compile a topologically ordered ``schedule`` into a fused program.

    Parameters
    ----------
    model:
        The :class:`~repro.scm.fitting.FittedPerformanceModel` whose
        equations the program embeds.
    schedule:
        Variables to recompute, in topological order (a
        ``StructuralPlan.propagation_schedule`` or the full topological
        order minus the assigned variables).
    known:
        Variables whose values exist before execution (intervened keys,
        observation columns, assignment keys).
    missing:
        ``"skip"`` (propagation semantics: a variable with no equation or
        unavailable parents keeps its base value and is never recomputed)
        or ``"fallback"`` (prediction semantics: such a variable resolves
        to its empirical mean when it is a data column, else to zero).
    column_names:
        Data columns eligible for the mean fallback under
        ``missing="fallback"``.
    vector:
        The subset of ``known`` whose values arrive as per-row ``(n,)``
        columns at execution time; everything else in ``known`` is a
        broadcast Python-float scalar.  Features touching only scalars are
        folded into the intercepts at execution (see :class:`FusedBlock`).
        The classification must be conservative upward — listing a name
        here that turns out to be a scalar is safe, omitting an array name
        is not.
    """
    columns = frozenset(column_names)
    available = set(known)
    produced: set[str] = set()
    #: names carrying per-row columns: the caller's vector inputs plus every
    #: equation-produced variable (constant steps stay scalars).
    array_names = set(vector)
    depth: dict[str, int] = {}
    steps: list[tuple[str, str, object, list | None, int]] = []
    reads: set[str] = set()
    max_level = -1
    for node in schedule:
        if model.has_equation(node):
            equation = model.equation(node)
            if all(p in available for p in equation.parents):
                level = 0
                for parent in equation.parents:
                    parent_depth = depth.get(parent)
                    if parent_depth is not None and parent_depth >= level:
                        level = parent_depth + 1
                    if parent not in produced:
                        reads.add(parent)
                ops = equation_feature_ops(equation)
                kind = "fused" if ops is not None else "fallback"
                steps.append((node, kind, equation, ops, level))
                depth[node] = level
                available.add(node)
                produced.add(node)
                array_names.add(node)
                max_level = max(max_level, level)
                continue
        if missing == "fallback":
            kind = "mean" if node in columns else "zero"
            steps.append((node, kind, None, None, 0))
            depth[node] = 0
            available.add(node)
            produced.add(node)
            max_level = max(max_level, 0)
        # missing == "skip": the variable keeps its base value (if any) and
        # stays available only when the caller supplied one — exactly the
        # scalar path's ``all(p in values)`` guard.

    levels = [FusedLevel() for _ in range(max_level + 1)]
    fused_entries: dict[int, list[tuple[str, object, list]]] = {}
    order: list[str] = []
    for node, kind, equation, ops, level in steps:
        order.append(node)
        if kind == "fused":
            fused_entries.setdefault(level, []).append((node, equation, ops))
        elif kind == "fallback":
            levels[level].fallback.append((node, equation))
        else:
            levels[0].consts.append((node, kind))
    for level, entries in fused_entries.items():
        feature_index: dict[tuple, int] = {}
        for _, _, ops in entries:
            for op in ops:
                if op not in feature_index:
                    feature_index[op] = len(feature_index)
        coefficients = np.zeros((len(feature_index), len(entries)),
                                dtype=float)
        intercepts = np.empty(len(entries), dtype=float)
        for k, (node, equation, ops) in enumerate(entries):
            intercepts[k] = float(equation.intercept)
            for j, op in enumerate(ops):
                coefficients[feature_index[op], k] = \
                    float(equation.coefficients[j])
        scalar_rows = [f for f, (_, a, b) in enumerate(feature_index)
                       if a not in array_names
                       and (b is None or b not in array_names)]
        array_rows = [f for f in range(len(feature_index))
                      if f not in set(scalar_rows)]
        features = tuple(feature_index)
        levels[level].block = FusedBlock(
            nodes=tuple(node for node, _, _ in entries),
            scalar_features=tuple(features[f] for f in scalar_rows),
            scalar_coefficients=coefficients[scalar_rows],
            array_features=tuple(features[f] for f in array_rows),
            array_coefficients=coefficients[array_rows],
            array_coefficients_t=np.ascontiguousarray(
                coefficients[array_rows].T),
            intercepts=intercepts)
    return FusedProgram(levels, frozenset(reads), tuple(order))
