"""Tests of the persistent content-addressed model store (ISSUE 7).

Covers the durability contracts the store-backed serving tier promises:

* **spec canonicalization** — equal-meaning specs (reordered keys,
  spelled-out defaults, ``None`` values) hash to one key, so
  ``{"system": "x", "seed": 0}`` and ``{"system": "x"}`` share one
  registry entry and one snapshot lineage;
* **round-trip identity** — a fitted model published to the store and
  reloaded answers golden query workloads bitwise-identically to the
  original, through both the fused batched evaluator and the scalar
  reference oracle (hypothesis-driven over workload seeds);
* **fail-closed loads** — truncated, corrupt, wrong-format or dangling
  snapshots load as ``None`` and the registry falls back to a clean
  refit (then repairs the store by publishing a fresh snapshot);
* **old layouts** — snapshots that still carry the dropped
  ``skeleton_state`` / ``decision_trace`` keys load under the same
  ``STORE_FORMAT`` and answer like new-layout ones;
* **layout** — versioned snapshot files with an atomic ``LATEST``
  pointer, pruning beyond ``retain``, instant rollback;
* **eviction flush** — the LRU regression fix: an evicted entry's
  un-relearned ``pending`` buffer is folded and persisted instead of
  silently discarded (``evicted_with_pending`` counts saves);
* **bounded journals & crash recovery** — with a store, the sharded
  tier compacts its observation journal up to each acknowledged
  snapshot watermark, and a crashed worker restores from the snapshot
  plus the journal *suffix*, byte-identical to its pre-crash answers;
* **graceful-shutdown flush** — a new service generation cold-starts
  from the store alone and serves the same answers, even when the
  ``snapshot_every`` throttle left the final folds unpublished.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    EffectRequest,
    ModelRegistry,
    ModelStore,
    RequestBatcher,
    ShardedQueryService,
    canonical_answers,
    canonical_spec,
    mixed_workload,
    spec_key,
    subject_key,
)
from repro.service.store import (
    STORE_FORMAT,
    measurement_from_dict,
    measurement_to_dict,
)
from repro.systems.cache_example import make_cache_example

SPEC = {"system": "cache_example", "n_samples": 40,
        "max_condition_size": 2, "seed": 2}
SMALL = {"system": "cache_example", "n_samples": 30, "seed": 1}


# ------------------------------------------------------------- canonical keys
def test_canonical_spec_erases_defaults_none_and_key_order():
    assert canonical_spec({"system": "x", "seed": 0}) == {"system": "x"}
    assert canonical_spec({"system": "x", "n_samples": 60,
                           "max_condition_size": 1,
                           "hardware": None}) == {"system": "x"}
    # Non-default values survive canonicalization.
    assert canonical_spec({"system": "x", "seed": 3}) == \
        {"system": "x", "seed": 3}
    # The hash is insensitive to key order and container spelling.
    assert spec_key({"seed": 0, "system": "x"}) == spec_key({"system": "x"})
    assert spec_key({"system": "x", "relevant_options": ("a", "b")}) == \
        spec_key({"system": "x", "relevant_options": ["a", "b"]})
    assert spec_key({"system": "x"}) != spec_key({"system": "y"})
    # Subject-scoped keys separate identical specs by subject name.
    assert subject_key("a", {"system": "x"}) != \
        subject_key("b", {"system": "x"})
    assert subject_key("a", {"system": "x", "seed": 0}) == \
        subject_key("a", {"system": "x"})


def test_get_or_fit_shares_entry_across_equal_meaning_specs():
    registry = ModelRegistry(capacity=4)
    entry_a = registry.get_or_fit({"system": "cache_example",
                                   "n_samples": 30, "seed": 0})
    entry_b = registry.get_or_fit({"system": "cache_example",
                                   "n_samples": 30})
    # The old raw-spec hashing fitted these twice; now they are one entry.
    assert entry_a is entry_b
    assert len(registry) == 1
    assert entry_a.key == spec_key({"system": "cache_example",
                                    "n_samples": 30})


# -------------------------------------------------------- round-trip identity
@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """A fitted entry, its published snapshot, and its restored twin."""
    store = ModelStore(tmp_path_factory.mktemp("model-store"))
    original = ModelRegistry(capacity=4, store=store)
    entry = original.get_or_fit(SPEC)
    assert original.store_publishes == 1 and entry.store_key in store
    restored_registry = ModelRegistry(capacity=4, store=store)
    restored = restored_registry.get_or_fit(SPEC)
    assert restored_registry.store_loads == 1
    return store, entry, restored, make_cache_example()


def test_old_layout_snapshot_with_stale_keys_still_loads(round_trip,
                                                         tmp_path):
    """Snapshots written before the CI-decision trace and the skeleton
    warm-start state were dropped still carry ``skeleton_state`` and
    ``decision_trace`` inside ``learned``.  Same store format, so they must
    load — the stale keys ignored, not rejected — and answer exactly like a
    new-layout snapshot."""
    store, entry, restored, system = round_trip
    assert STORE_FORMAT == 1
    doc = store.load(entry.store_key)
    assert "skeleton_state" not in doc["learned"]
    assert "decision_trace" not in doc["learned"]
    pag = restored.state.learned.pag
    edges = sorted(sorted((e.u, e.v)) for e in pag.edges())
    nodes = sorted(pag.nodes)
    doc["learned"]["skeleton_state"] = {
        "edges": edges,
        "separating_sets": [[sorted(pair), []]
                            for pair in itertools.combinations(nodes, 2)
                            if sorted(pair) not in edges]}
    doc["learned"]["decision_trace"] = [[x, y, [], [x, y] not in edges]
                                        for x, y in
                                        itertools.combinations(nodes, 2)]
    old_store = ModelStore(tmp_path)
    old_store.publish(entry.store_key, doc)
    loader = ModelRegistry(capacity=4, store=old_store)
    old = loader.get_or_fit(SPEC)
    assert loader.store_loads == 1
    assert old.state.learned.decision_trace is None
    batcher = RequestBatcher()
    for seed in range(4):
        requests = mixed_workload(entry.key, entry.engine, system.objectives,
                                  10, seed=seed, max_repairs=12)
        assert canonical_answers(batcher.dispatch(old, requests)) == \
            canonical_answers(batcher.dispatch(restored, requests))


def test_restore_skips_the_fit_but_matches_its_state(round_trip):
    _, entry, restored, _ = round_trip
    assert restored is not entry
    assert restored.key == entry.key
    assert restored.version == entry.version
    assert restored.n_measurements == entry.n_measurements
    # The restored dataset carries the exact measurement stream.
    for mine, theirs in zip(entry.state.measurements,
                            restored.state.measurements):
        assert measurement_to_dict(mine) == measurement_to_dict(theirs)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_loaded_model_answers_golden_workloads_bitwise(round_trip, seed):
    _, entry, restored, system = round_trip
    requests = mixed_workload(entry.key, entry.engine, system.objectives,
                              10, seed=seed, max_repairs=12)
    batcher = RequestBatcher()
    assert canonical_answers(batcher.dispatch(entry, requests)) == \
        canonical_answers(batcher.dispatch(restored, requests))


def test_scalar_engine_round_trips_bitwise(tmp_path):
    store = ModelStore(tmp_path)
    entry = ModelRegistry(capacity=2, use_batched=False,
                          store=store).get_or_fit(SMALL)
    loader = ModelRegistry(capacity=2, use_batched=False, store=store)
    restored = loader.get_or_fit(SMALL)
    assert loader.store_loads == 1
    system = make_cache_example()
    requests = mixed_workload(entry.key, entry.engine, system.objectives,
                              12, seed=7, max_repairs=12)
    batcher = RequestBatcher()
    assert canonical_answers(batcher.dispatch(entry, requests)) == \
        canonical_answers(batcher.dispatch(restored, requests))


def test_measurement_serialization_round_trips_exactly(round_trip):
    _, entry, _, _ = round_trip
    for measurement in entry.state.measurements[:5]:
        payload = measurement_to_dict(measurement)
        again = measurement_from_dict(payload)
        assert measurement_to_dict(again) == payload
        assert again.configuration == measurement.configuration
        assert again.objectives == measurement.objectives


# ------------------------------------------------------------ layout & prune
def _doc(version: int) -> dict:
    return {"format": STORE_FORMAT, "version": version, "payload": version}


def test_store_layout_versions_prune_and_pointers(tmp_path):
    store = ModelStore(tmp_path, retain=2)
    assert "k" not in store and len(store) == 0
    for version in (0, 1, 2):
        store.publish("k", _doc(version))
    # Only the newest ``retain`` version files survive pruning.
    assert store.versions("k") == [1, 2]
    assert store.latest_version("k") == 2
    assert store.load("k")["payload"] == 2
    assert store.load("k", version=1)["payload"] == 1
    assert "k" in store and list(store.keys()) == ["k"] and len(store) == 1
    # Rollback is an instant pointer flip to the retained predecessor...
    assert store.rollback("k") == 1
    assert store.load("k")["payload"] == 1
    # ...and refuses when nothing older is retained.
    assert store.rollback("k") is None
    store.discard("k")
    assert "k" not in store and store.load("k") is None
    store.discard("k")  # absent keys are a no-op
    with pytest.raises(ValueError):
        ModelStore(tmp_path, retain=0)


def test_load_fails_closed_on_every_corruption_mode(tmp_path):
    store = ModelStore(tmp_path)
    assert store.load("missing") is None
    store.publish("k", _doc(0))
    # Truncated snapshot file.
    path = store.version_path("k", 0)
    path.write_text(path.read_text()[:10])
    assert store.load("k") is None
    # Non-dict and wrong-format documents.
    path.write_text("[1, 2, 3]")
    assert store.load("k") is None
    store.publish("k2", {"format": STORE_FORMAT + 99, "version": 0})
    assert store.load("k2") is None
    # Dangling LATEST pointer (names a version that was never written).
    store.publish("k3", _doc(0))
    (store.key_dir("k3") / "LATEST").write_text("999")
    assert store.load("k3") is None


def test_registry_refits_over_a_corrupt_snapshot_and_repairs_it(tmp_path):
    store = ModelStore(tmp_path)
    first = ModelRegistry(capacity=2, store=store)
    entry = first.get_or_fit(SMALL)
    key = entry.store_key
    store.version_path(key, 0).write_text("{ truncated")
    second = ModelRegistry(capacity=2, store=store)
    refitted = second.get_or_fit(SMALL)
    # The corrupt snapshot was not served: a clean refit ran instead...
    assert second.store_loads == 0 and second.store_publishes == 1
    assert refitted.n_measurements == entry.n_measurements
    # ...and the refit republished, so the store is healthy again.
    assert store.load(key) is not None
    assert ModelRegistry(capacity=2, store=store).get_or_fit(SMALL) \
        .n_measurements == entry.n_measurements


def test_rollback_serves_the_previous_model_version(tmp_path):
    store = ModelStore(tmp_path)
    registry = ModelRegistry(capacity=2, store=store)
    entry = registry.get_or_fit(SMALL)
    key, rows = entry.store_key, entry.n_measurements
    system = make_cache_example()
    rng = np.random.default_rng(4)
    fresh = system.measure_many(system.space.sample_configurations(4, rng),
                                rng=rng)
    registry.observe(key, fresh)  # eager fold publishes version 1
    assert store.versions(key) == [0, 1]
    assert store.rollback(key) == 0
    restored = ModelRegistry(capacity=2, store=store).get_or_fit(SMALL)
    assert restored.version == 0 and restored.n_measurements == rows


# ------------------------------------------------------------- eviction flush
def test_eviction_folds_and_persists_the_pending_buffer(tmp_path):
    store = ModelStore(tmp_path)
    # A threshold the stream can never reach: observations only buffer.
    registry = ModelRegistry(capacity=1, store=store,
                             drift_threshold=1e9, drift_min_window=4)
    entry = registry.register_spec("cache-a", SMALL)
    rows = entry.n_measurements
    system = make_cache_example()
    rng = np.random.default_rng(9)
    fresh = system.measure_many(system.space.sample_configurations(6, rng),
                                rng=rng)
    registry.observe("cache-a", fresh)
    assert len(entry.pending) == 6 and entry.version == 0
    # Fitting a second subject evicts cache-a from the capacity-1 LRU.
    registry.register_spec("cache-b", dict(SMALL, seed=5))
    assert registry.evictions == 1
    assert "cache-a" not in registry
    # The regression fix: the buffer folded (and persisted) on the way out
    # instead of vanishing with the entry.
    assert registry.evicted_with_pending == 1
    assert not entry.pending
    assert entry.version == 1 and entry.n_measurements == rows + 6
    # A later re-registration restores the folded model from the store.
    revived = ModelRegistry(capacity=2, store=store)
    again = revived.register_spec("cache-a", SMALL)
    assert revived.store_loads == 1
    assert again.version == 1 and again.n_measurements == rows + 6


# ----------------------------------------- sharded tier: journals & recovery
SHARD_SPECS = {"cache-a": {"system": "cache_example", "n_samples": 40,
                           "max_condition_size": 2, "seed": 0},
               "cache-b": {"system": "cache_example", "n_samples": 40,
                           "max_condition_size": 2, "seed": 1}}


def _batches(system, n_batches, per_batch, seed):
    rng = np.random.default_rng(seed)
    return [system.measure_many(
                system.space.sample_configurations(per_batch, rng), rng=rng)
            for _ in range(n_batches)]


def test_journal_stays_bounded_and_recovery_is_byte_identical(tmp_path):
    system = make_cache_example()
    request = EffectRequest.of("cache-a", "Throughput", {"CachePolicy": 0.0})
    with ShardedQueryService(SHARD_SPECS, shards=1, use_processes=False,
                             store_path=str(tmp_path / "store"),
                             snapshot_every=1) as service:
        for batch in _batches(system, 5, 4, seed=2):
            service.observe("cache-a", batch)
        # Every acknowledged observe was folded, snapshotted and compacted
        # away: the journal is bounded by the snapshot cadence, not the
        # stream length (the watermark may trail one in-flight ack).
        assert len(service._shards[0].journal) <= 1
        assert service.stats.journal_ops_compacted >= 4
        before = service.submit(request)
        assert before.model_version == 5
        service._inject_crash(0)
        # Post-compaction recovery: snapshot restore + journal *suffix*.
        after = service.submit(request, timeout=120)
        assert service.stats.respawns == 1
        assert after.ok and after.value == before.value
        assert after.model_version == before.model_version
        stats = service.worker_stats()[0]
        assert stats["store_loads"] >= len(SHARD_SPECS)
    # Without a store the same stream keeps the full journal.
    with ShardedQueryService(SHARD_SPECS, shards=1,
                             use_processes=False) as bare:
        for batch in _batches(system, 5, 4, seed=2):
            bare.observe("cache-a", batch)
        assert len(bare._shards[0].journal) == 5
        assert bare.stats.journal_ops_compacted == 0


def test_shutdown_flush_makes_cold_start_byte_identical(tmp_path):
    system = make_cache_example()
    store_path = str(tmp_path / "store")
    requests = [EffectRequest.of(subject, "Throughput",
                                 {"CachePolicy": float(v)})
                for subject in sorted(SHARD_SPECS) for v in (0.0, 1.0)]
    # snapshot_every far beyond the stream: no fold publishes a snapshot,
    # so everything past the base fit rides on the shutdown flush alone.
    with ShardedQueryService(SHARD_SPECS, shards=2, use_processes=False,
                             store_path=store_path,
                             snapshot_every=100) as first:
        for batch in _batches(system, 3, 4, seed=6):
            first.observe("cache-a", batch)
        expected = canonical_answers(first.submit_many(requests))
    with ShardedQueryService(SHARD_SPECS, shards=2, use_processes=False,
                             store_path=store_path,
                             snapshot_every=100) as second:
        got = canonical_answers(second.submit_many(requests))
        loads = sum(w["store_loads"] for w in second.worker_stats())
    # The new generation loaded every subject (no refit) and serves the
    # final pre-shutdown model state, unpublished folds included.
    assert loads == len(SHARD_SPECS)
    assert got == expected


# ---------------------------------------------------------- campaign runner
def test_cold_start_recovery_runner_smoke():
    from repro.evaluation import CampaignCell, run_campaign

    cell = CampaignCell("cold_start_recovery", {
        "system": "cache_example", "n_subjects": 2, "shards": 2,
        "n_clients": 4, "n_rounds": 2, "queries_per_round": 8,
        "observations_per_round": 4, "n_samples": 30, "snapshot_every": 2,
        "probe_queries": 8, "use_processes": False})
    [result] = run_campaign([cell], root_seed=3).results()
    assert result["identical"] is True
    assert result["journal_len_store"] < result["journal_len_baseline"]
    assert result["journal_ops_compacted"] > 0
    assert result["store_loads"] >= 1
    assert result["cold_start_speedup"] > 0
    assert result["recovery_speedup"] > 0
