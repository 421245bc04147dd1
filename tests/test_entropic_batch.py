"""Differential tests of the batched LatentSearch kernel.

:func:`repro.discovery.entropic.latent_entropies` runs LatentSearch for many
variable pairs in one array pass over zero-padded joint tables.  It must give
every pair bitwise the entropy of a one-pair run, so these tests hold it
against the scalar loop kept here as the reference, and hold
``EntropicOrienter.resolve`` against a per-edge resolution over the Table 3
130 x 80 relearn sequence.  Latent alphabets start at two states: with one,
numpy reduces the ``(x, y)`` cells as one contiguous run by pairwise
summation, whose grouping the padding changes (the orienter uses eight).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_relearn_table3 import SCENARIO

from repro.discovery.entropic import (
    EntropicOrienter,
    entropic_direction,
    latent_entropies,
    latent_search,
)
from repro.discovery.pipeline import CausalModelLearner
from repro.graph.edges import Mark
from repro.stats.dataset import Dataset
from repro.stats.entropy import discrete_entropy, entropy_of_distribution
from repro.systems.registry import get_system


def reference_latent_entropy(x_codes, y_codes, rng, n_latent_states=8,
                             iterations=50, sparsity=0.5) -> float:
    """One pair at a time: the scalar LatentSearch loop."""
    nx, ny = int(x_codes.max()) + 1, int(y_codes.max()) + 1
    joint = np.zeros((nx, ny), dtype=float)
    for xv, yv in zip(x_codes, y_codes):
        joint[int(xv), int(yv)] += 1.0
    joint = joint / joint.sum()
    q_z_given_xy = rng.random((nx, ny, n_latent_states))
    q_z_given_xy /= q_z_given_xy.sum(axis=2, keepdims=True)
    for _ in range(iterations):
        q_xyz = joint[:, :, None] * q_z_given_xy
        q_z = q_xyz.sum(axis=(0, 1))
        q_xz = q_xyz.sum(axis=1)
        q_yz = q_xyz.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_x_given_z = np.where(q_z > 0, q_xz / q_z, 0.0)
            q_y_given_z = np.where(q_z > 0, q_yz / q_z, 0.0)
        updated = (np.power(q_z[None, None, :], 1.0 + sparsity)
                   * q_x_given_z[:, None, :]
                   * q_y_given_z[None, :, :])
        totals = updated.sum(axis=2, keepdims=True)
        q_z_given_xy = np.where(totals > 0, updated / np.maximum(totals, 1e-12),
                                q_z_given_xy)
    q_z = (joint[:, :, None] * q_z_given_xy).sum(axis=(0, 1))
    return entropy_of_distribution(q_z)


@st.composite
def code_pairs(draw):
    """1-12 pairs over one row count; some columns hold a single code."""
    rows = draw(st.integers(1, 60))
    pairs = draw(st.integers(1, 12))

    def column():
        levels = draw(st.integers(1, 8))
        return draw(st.lists(st.integers(0, levels - 1), min_size=rows,
                             max_size=rows))

    x = np.array([column() for _ in range(pairs)], dtype=np.int64)
    y = np.array([column() for _ in range(pairs)], dtype=np.int64)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=pairs,
                          max_size=pairs))
    return x, y, seeds


@settings(max_examples=150, deadline=None)
@given(code_pairs(), st.integers(2, 8), st.integers(0, 40))
def test_batched_kernel_matches_the_one_pair_loop_bitwise(case, nz,
                                                          iterations):
    x, y, seeds = case
    got = latent_entropies(x, y, [np.random.default_rng(s) for s in seeds],
                           n_latent_states=nz, iterations=iterations)
    want = np.array([reference_latent_entropy(
        x[k], y[k], np.random.default_rng(s), n_latent_states=nz,
        iterations=iterations) for k, s in enumerate(seeds)])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(code_pairs())
def test_latent_search_is_the_one_pair_kernel_call(case):
    x, y, seeds = case
    result = latent_search(x[0], y[0], iterations=30,
                           rng=np.random.default_rng(seeds[0]))
    want = reference_latent_entropy(x[0], y[0],
                                    np.random.default_rng(seeds[0]),
                                    iterations=30)
    assert np.float64(result.latent_entropy).tobytes() == \
        np.float64(want).tobytes()
    assert result.threshold == 0.8 * min(discrete_entropy(x[0]),
                                         discrete_entropy(y[0]))


def test_kernel_covers_empty_cells_and_single_code_columns():
    x = np.array([[0, 0, 0, 0], [0, 3, 3, 0], [7, 0, 7, 0]])
    y = np.array([[0, 0, 0, 0], [5, 5, 0, 0], [0, 0, 0, 0]])
    got = latent_entropies(x, y, [np.random.default_rng(k) for k in range(3)],
                           iterations=30)
    want = [reference_latent_entropy(x[k], y[k], np.random.default_rng(k),
                                     iterations=30) for k in range(3)]
    assert got.tobytes() == np.array(want).tobytes()


class _PerEdgeOrienter(EntropicOrienter):
    """Resolution one edge at a time, each with its own scalar search."""

    def resolve(self, pag, constraints=None):
        graph = pag.copy()
        for edge in graph.undetermined_edges():
            x, y = edge.u, edge.v
            xc = self._stats.codes(x, bins=self._bins)
            yc = self._stats.codes(y, bins=self._bins)
            allowed_xy = constraints is None or \
                constraints.direction_allowed(x, y)
            allowed_yx = constraints is None or \
                constraints.direction_allowed(y, x)
            if allowed_xy and allowed_yx:
                latent = reference_latent_entropy(
                    xc, yc, self._edge_rng(x, y), self._n_latent_states,
                    self._iterations)
                threshold = self._threshold_factor * min(
                    discrete_entropy(xc), discrete_entropy(yc))
                if latent < threshold:
                    graph.set_mark(x, y, Mark.ARROW)
                    graph.set_mark(y, x, Mark.ARROW)
                    continue
            if not allowed_xy and not allowed_yx:
                graph.set_mark(x, y, Mark.ARROW)
                graph.set_mark(y, x, Mark.ARROW)
                continue
            if allowed_xy != allowed_yx:
                forward = allowed_xy
            else:
                forward = entropic_direction(xc, yc) == "x->y"
            cause, effect = (x, y) if forward else (y, x)
            if cause in graph.descendants(effect):
                opposite_ok = (constraints is None
                               or constraints.direction_allowed(effect, cause))
                if opposite_ok and effect not in graph.descendants(cause):
                    cause, effect = effect, cause
                else:
                    graph.set_mark(x, y, Mark.ARROW)
                    graph.set_mark(y, x, Mark.ARROW)
                    continue
            graph.set_mark(cause, effect, Mark.ARROW)
            graph.set_mark(effect, cause, Mark.TAIL)
        return graph


def test_resolve_matches_per_edge_resolution_over_table3_relearns(
        monkeypatch):
    system = get_system(SCENARIO["system"], hardware=SCENARIO["hardware"],
                        n_extra_options=SCENARIO["n_extra_options"],
                        n_extra_events=SCENARIO["n_extra_events"])
    total = SCENARIO["initial_rows"] + sum(SCENARIO["update_rows"])
    _, data = system.random_dataset(
        total, np.random.default_rng(SCENARIO["data_seed"]))
    rows = data.rows()
    learner = CausalModelLearner(system.constraints(), **SCENARIO["learner"])

    compared = []
    resolve = EntropicOrienter.resolve

    def checked_resolve(self, pag, constraints=None):
        got = resolve(self, pag, constraints)
        reference = _PerEdgeOrienter(
            self._data, bins=self._bins,
            entropy_threshold_factor=self._threshold_factor,
            latent_search_iterations=self._iterations, seed=self._seed,
            stats=self._stats)
        assert got.to_dict() == reference.resolve(pag, constraints).to_dict()
        compared.append(len(pag.undetermined_edges()))
        return got

    monkeypatch.setattr(EntropicOrienter, "resolve", checked_resolve)
    start = SCENARIO["initial_rows"]
    model = learner.learn(Dataset(data.columns, data.values[:start],
                                  discrete=data.discrete_columns))
    for count in SCENARIO["update_rows"]:
        model = learner.update(model, rows[start:start + count])
        start += count
    assert len(compared) == 1 + len(SCENARIO["update_rows"])
    assert sum(compared) > 0
