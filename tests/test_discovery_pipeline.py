"""Tests for the end-to-end causal-model-learning pipeline (Stage II/IV)."""

import numpy as np
import pytest

from repro.discovery.pipeline import CausalModelLearner
from repro.graph.distances import structural_hamming_distance


def test_learn_produces_fully_oriented_model(cache_system, cache_model):
    assert cache_model.graph.is_fully_oriented()
    assert cache_model.n_samples == 150
    assert cache_model.ci_tests_performed > 0
    assert cache_model.discovery_seconds >= 0.0


def test_learned_model_contains_confounder_structure(cache_system, cache_model):
    """The Fig. 1 structure: CachePolicy is a common cause."""
    graph = cache_model.graph
    assert graph.has_edge("CachePolicy", "Throughput")
    assert graph.has_edge("CachePolicy", "CacheMisses")
    assert "CachePolicy" in graph.parents("Throughput")


def test_learned_model_close_to_ground_truth(cache_system, cache_model):
    truth = cache_system.ground_truth_graph()
    shd = structural_hamming_distance(cache_model.graph, truth)
    assert shd <= 3


def test_no_edges_into_options(cache_model):
    for option in cache_model.constraints.options():
        assert cache_model.graph.parents(option) == set()


def test_objectives_are_sinks(cache_model):
    for objective in cache_model.constraints.objectives():
        assert cache_model.graph.children(objective) == set()


def test_incremental_update_appends_history(cache_system, cache_model):
    learner = CausalModelLearner(cache_system.constraints(),
                                 max_condition_size=1)
    base = learner.learn(cache_model.data.subset(cache_model.data.columns))
    base_samples = base.n_samples
    rng = np.random.default_rng(99)
    new_rows = [m.as_row() for m in
                cache_system.measure_many(
                    cache_system.space.sample_configurations(10, rng),
                    rng=rng)]
    updated = learner.update(base, new_rows)
    assert updated.n_samples == base_samples + 10
    assert updated.incremental
    # The update returns a model over new data; the previous model handle
    # keeps its rows.
    assert updated.data is not base.data
    assert base.n_samples == base_samples
    assert len(updated.history) == len(base.history) + 1
    assert updated.history[-1]["incremental"] == 1.0


def test_update_with_no_rows_is_identity(cache_system, cache_model):
    learner = CausalModelLearner(cache_system.constraints())
    base = learner.learn(cache_model.data)
    assert learner.update(base, []) is base


def test_history_records_sample_counts(cache_model):
    assert cache_model.history[-1]["n_samples"] == pytest.approx(150)
