"""Tests for the incremental model-maintenance layer.

Covers the CI-decision cache's epoch/margin policy, the property that the
incremental `update` path and a cold `learn` over the same data produce
identical graphs on seeded synthetic systems, and the engine refresh.
"""

import numpy as np
import pytest

from repro.core.unicorn import LoopState, Unicorn, UnicornConfig
from repro.discovery.pipeline import CausalModelLearner, LearnedModel
from repro.graph.distances import structural_hamming_distance
from repro.stats.dataset import Dataset
from repro.stats.independence import (
    CachedCITest,
    CIDecisionCache,
    CIResult,
    MixedCITest,
)
from repro.systems.cache_example import make_cache_example
from repro.systems.case_study import make_case_study
from repro.systems.sqlite import make_sqlite


# ---------------------------------------------------------------------------
# CIDecisionCache unit tests
# ---------------------------------------------------------------------------
key = CIDecisionCache.key


def _result(p: float, alpha: float = 0.05) -> CIResult:
    return CIResult(independent=p > alpha, p_value=p, statistic=1.0)


def test_cache_hit_at_same_epoch():
    cache = CIDecisionCache(alpha=0.05, margin_factor=2.5)
    cache.store(key(0, 1, [6]), epoch=0, result=_result(0.5))
    assert cache.lookup(key(0, 1, [6]), epoch=0) is not None
    assert cache.counters.hits == 1


def test_cache_key_is_symmetric_in_x_y_and_order_free_in_z():
    cache = CIDecisionCache()
    cache.store(key(0, 1, [8, 9]), epoch=0, result=_result(0.5))
    assert cache.lookup(key(1, 0, [9, 8]), epoch=0) is not None


def test_confident_decision_survives_epoch_bump():
    cache = CIDecisionCache(alpha=0.05, margin_factor=2.5)
    cache.store(key(0, 1), epoch=0, result=_result(0.9))   # confident
    cache.store(key(2, 3), epoch=0, result=_result(1e-8))  # confident
    assert cache.lookup(key(0, 1), epoch=1) is not None
    assert cache.lookup(key(2, 3), epoch=1) is not None
    assert cache.counters.stale_reused == 2


def test_borderline_decision_is_retested_after_epoch_bump():
    cache = CIDecisionCache(alpha=0.05, margin_factor=2.5)
    # p in [alpha / 2.5, alpha * 2.5] = [0.02, 0.125] is borderline.
    cache.store(key(0, 1), epoch=0, result=_result(0.06))
    assert cache.lookup(key(0, 1), epoch=0) is not None  # same epoch
    assert cache.lookup(key(0, 1), epoch=1) is None  # evicted
    assert cache.counters.retests == 1
    # The entry is gone entirely, not just skipped once.
    assert cache.lookup(key(0, 1), epoch=0) is None


def test_confident_decision_expires_after_max_stale_epochs():
    cache = CIDecisionCache(alpha=0.05, margin_factor=2.5, max_stale_epochs=3)
    cache.store(key(0, 1), epoch=0, result=_result(0.9))
    assert cache.lookup(key(0, 1), epoch=3) is not None
    assert cache.lookup(key(0, 1), epoch=4) is None


def test_undecidable_sample_sentinel_is_never_served_stale():
    """The dof<=0 'not enough samples' result (p=0, statistic=inf) must be
    retested every epoch — a few more rows can make the test decidable."""
    cache = CIDecisionCache(alpha=0.05, margin_factor=2.5)
    sentinel = CIResult(independent=False, p_value=0.0,
                        statistic=float("inf"))
    assert not cache.is_confident(sentinel)
    cache.store(key(0, 1, [6, 7]), epoch=0, result=sentinel)
    assert cache.lookup(key(0, 1, [6, 7]), epoch=0) is not None
    assert cache.lookup(key(0, 1, [6, 7]), epoch=1) is None


def test_decisions_from_later_epochs_never_served_backwards():
    """An entry stored at a high epoch (e.g. another dataset's counter) must
    not be replayed at a lower epoch."""
    cache = CIDecisionCache(alpha=0.05, margin_factor=2.5, max_stale_epochs=3)
    cache.store(key(0, 1), epoch=10, result=_result(0.9))
    assert cache.lookup(key(0, 1), epoch=2) is None


def test_adopting_a_foreign_model_drops_stale_cache_entries():
    """Updating a model learned elsewhere must not replay decisions that
    were computed on the previously bound dataset."""
    system = make_cache_example()
    rng = np.random.default_rng(21)
    _, data_a = system.random_dataset(120, rng)
    _, data_b = system.random_dataset(120, rng)
    learner = CausalModelLearner(system.constraints(), max_condition_size=1)
    learner.learn(data_a)  # fills the cache with dataset-A decisions
    foreign = CausalModelLearner(system.constraints(),
                                 max_condition_size=1).learn(data_b)
    rows = _measure_batches(system, rng, 1, batch_size=3)[0]
    learner.update(foreign, rows)
    # Every decision served after adoption must have been recomputed on B.
    assert learner.ci_cache.counters.stale_reused == 0


def test_cache_eviction_keeps_most_recent_entries():
    cache = CIDecisionCache(max_entries=2)
    cache.store(key(0, 1), epoch=0, result=_result(0.9))
    cache.store(key(2, 3), epoch=0, result=_result(0.9))
    cache.store(key(4, 5), epoch=0, result=_result(0.9))
    assert len(cache) == 2
    assert cache.lookup(key(0, 1), epoch=0) is None
    assert cache.lookup(key(4, 5), epoch=0) is not None


def test_singleton_decision_table_evicts_the_oldest_stores_past_the_bound():
    rng = np.random.default_rng(4)
    data = Dataset([f"c{k}" for k in range(6)], rng.normal(size=(40, 6)))
    cache = CIDecisionCache(alpha=0.05, max_entries=16)
    cached = CachedCITest(MixedCITest(data), cache, lambda: data.data_epoch)
    triples = [(i, j, k) for i in range(6) for j in range(i + 1, 6)
               for k in range(6) if k not in (i, j)]
    for i, j, k in triples:
        cached.test_index(i, j, (k,))
    assert cache.counters.misses == len(triples)
    # The newest stores replay; the oldest were evicted and miss again.
    for i, j, k in triples[-14:]:
        cached.test_index(i, j, (k,))
    assert cache.counters.hits == 14
    cached.test_index(*triples[0][:2], triples[0][2:])
    assert cache.counters.misses == len(triples) + 1
    assert len(cache) == 0  # singleton decisions never reach the dict


def test_margin_factor_must_be_at_least_one():
    with pytest.raises(ValueError):
        CIDecisionCache(margin_factor=0.5)
    with pytest.raises(ValueError):
        CIDecisionCache(max_stale_epochs=0)


def test_cached_ci_test_counts_and_replays():
    system = make_cache_example()
    _, data = system.random_dataset(120, np.random.default_rng(2))
    cache = CIDecisionCache(alpha=0.05)
    cached = CachedCITest(MixedCITest(data), cache,
                          lambda: data.data_epoch)
    first = cached.test("CachePolicy", "Throughput")
    again = cached.test("CachePolicy", "Throughput")
    assert first == again
    assert cache.counters.hits == 1 and cache.counters.misses == 1
    batch = cached.test_batch([("CachePolicy", "Throughput"),
                               ("CachePolicy", "CacheMisses")])
    assert batch[0] == first
    assert cache.counters.hits == 2


# ---------------------------------------------------------------------------
# Incremental-vs-cold equivalence (property-style, seeded)
# ---------------------------------------------------------------------------
def _measure_batches(system, rng, n_batches, batch_size=1):
    batches = []
    for _ in range(n_batches):
        configs = system.space.sample_configurations(batch_size, rng)
        batches.append([m.as_row()
                        for m in system.measure_many(configs, rng=rng)])
    return batches


@pytest.mark.parametrize("make_system,n0,n_updates,seed,mcs", [
    (make_cache_example, 150, 12, 7, 2),
    (make_case_study, 40, 10, 3, 1),
    (make_sqlite, 25, 15, 0, 1),
])
def test_incremental_update_equals_cold_learn(make_system, n0, n_updates,
                                              seed, mcs):
    """`update(model, rows)` must land on the same graph as a cold `learn`
    over all the data, on seeded synthetic systems — also when the learned
    model was round-tripped through `to_dict`/`from_dict` and the updates
    run on a fresh learner (a model restored from the store)."""
    system = make_system()
    rng = np.random.default_rng(seed)
    _, data0 = system.random_dataset(n0, rng)
    batches = _measure_batches(system, rng, n_updates)

    inc = CausalModelLearner(system.constraints(), max_condition_size=mcs)
    model = inc.learn(data0)
    restored = LearnedModel.from_dict(model.to_dict(), system.constraints())
    fresh = CausalModelLearner(system.constraints(), max_condition_size=mcs)
    for rows in batches:
        model = inc.update(model, rows)
        restored = fresh.update(restored, rows)

    cold_learner = CausalModelLearner(system.constraints(),
                                      max_condition_size=mcs)
    _, cold_data = system.random_dataset(n0, np.random.default_rng(seed))
    for rows in batches:
        cold_data = cold_data.append_rows(rows)
    cold = cold_learner.learn(cold_data)

    for learned in (model, restored):
        assert learned.n_samples == cold.n_samples == n0 + n_updates
        assert structural_hamming_distance(learned.graph, cold.graph) == 0
        assert structural_hamming_distance(learned.pag, cold.pag) == 0
        assert learned.incremental and not cold.incremental


def test_update_reports_cache_effectiveness():
    system = make_cache_example()
    rng = np.random.default_rng(11)
    _, data = system.random_dataset(150, rng)
    learner = CausalModelLearner(system.constraints(), max_condition_size=1)
    model = learner.learn(data)
    cold_tests = model.ci_tests_performed
    for rows in _measure_batches(system, rng, 5):
        model = learner.update(model, rows)
    counters = learner.ci_cache.counters
    assert counters.stale_reused > 0
    assert 0.0 < counters.hit_rate() <= 1.0
    # Lookups served by the cache dominate fresh computations across the
    # incremental updates (misses + retests are the only fresh tests).
    fresh = counters.misses + counters.retests
    assert counters.hits + counters.stale_reused > fresh


# ---------------------------------------------------------------------------
# Unicorn loop integration + engine refresh
# ---------------------------------------------------------------------------
def test_unicorn_loop_uses_incremental_path_and_refreshes_engine():
    system = make_case_study()
    config = UnicornConfig(initial_samples=20, budget=30, seed=4,
                           max_condition_size=1)
    unicorn = Unicorn(system, config)
    state = LoopState()
    unicorn.collect_initial_samples(state)
    engine = unicorn.learn(state)
    first_model = state.learned
    assert not first_model.incremental

    config_dict = system.space.default_configuration()
    unicorn.measure_and_update(state, config_dict)
    assert state.engine is engine           # refreshed in place, not rebuilt
    assert state.learned.incremental
    assert state.learned.n_samples == 21
    assert len(state.relearn_seconds) == 2
    # The engine serves queries against the refreshed model.
    assert state.engine.learned_model is state.learned
    probabilities = state.engine.sampling_probabilities(
        unicorn.objective_names)
    assert probabilities


def test_unicorn_forced_cold_relearn_matches_incremental_graph():
    system = make_case_study()
    config = UnicornConfig(initial_samples=25, budget=40, seed=8,
                           max_condition_size=1)
    unicorn = Unicorn(system, config)
    state = LoopState()
    unicorn.collect_initial_samples(state)
    unicorn.learn(state)
    rng = np.random.default_rng(0)
    for _ in range(5):
        proposal = unicorn.propose_exploration(
            state, system.space.default_configuration())
        unicorn.measure_and_update(state, proposal)
    incremental_graph = state.learned.graph

    cold_unicorn = Unicorn(system, config)
    cold_state = LoopState()
    cold_state.measurements = list(state.measurements)
    cold_unicorn.learn(cold_state, incremental=False)
    assert structural_hamming_distance(incremental_graph,
                                       cold_state.learned.graph) == 0


def test_engine_refresh_invalidates_only_touched_rankings():
    system = make_cache_example()
    config = UnicornConfig(initial_samples=60, budget=80, seed=2,
                           max_condition_size=2)
    unicorn = Unicorn(system, config)
    state = LoopState()
    unicorn.collect_initial_samples(state)
    engine = unicorn.learn(state)
    paths_before = engine.ranked_paths(unicorn.objective_names)
    assert paths_before
    # Refresh against an identical graph: rankings must be preserved.
    engine.refresh(state.learned)
    assert engine.ranked_paths(unicorn.objective_names) is paths_before


def test_engine_rankings_expire_after_max_ranking_age():
    """Even untouched rankings are re-extracted once their Path_ACE inputs
    (the refitted structural equations) have drifted for long enough."""
    system = make_cache_example()
    config = UnicornConfig(initial_samples=60, budget=80, seed=2,
                           max_condition_size=2)
    unicorn = Unicorn(system, config)
    state = LoopState()
    unicorn.collect_initial_samples(state)
    engine = unicorn.learn(state)
    first = engine.ranked_paths(unicorn.objective_names)
    for _ in range(engine._max_ranking_age):
        engine.refresh(state.learned)
        assert engine.ranked_paths(unicorn.objective_names) is first
    engine.refresh(state.learned)  # age exceeded: must be re-extracted
    assert engine.ranked_paths(unicorn.objective_names) is not first
