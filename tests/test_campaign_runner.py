"""Tests for the campaign orchestration subsystem.

Covers the cell abstraction, the deterministic SeedSequence seed tree, the
serial/parallel equivalence guarantee (byte-identical serialized reports),
the resumable artifact store, and the fault-campaign objective validation.
"""

from __future__ import annotations

import json

import pytest

from repro.evaluation import (
    ArtifactStore,
    CampaignCell,
    ParallelRunner,
    cell_kinds,
    content_hash,
    derive_cell_seeds,
    fault_campaign_cells,
    run_campaign,
    run_fault_campaign,
)

#: Tiny campaign parameters keeping these tests fast.
SMALL = dict(n_samples=50, percentile=95.0)


# ---------------------------------------------------------------------------
# Cells and seed tree
# ---------------------------------------------------------------------------
def test_registered_cell_kinds():
    assert cell_kinds() == [
        "cold_start_recovery", "fault_catalogue", "rolling_refresh",
        "self_debugging", "service_throughput",
        "sharded_service_throughput", "single_objective_optimization"]


@pytest.mark.parametrize("cell, bad_key", [
    (CampaignCell("fault_catalogue", {
        "system": "x264", "hardware": "TX2", "n_samples": 50,
        "percentile": 95.0, "objective": ["EncodingTime"]}), "objective"),
    (CampaignCell("service_throughput", {
        "system": "cache_example", "n_client": 2, "requests_per_client": 2,
        "n_samples": 30}), "n_client"),
])
def test_misspelt_spec_key_is_an_error_naming_it(cell, bad_key):
    # A spec is the experiment function's keyword arguments: a key the
    # function does not take must fail loudly, not run on a default.
    with pytest.raises(TypeError, match=f"'{bad_key}'"):
        run_campaign([cell])


def test_cell_key_is_content_addressed():
    cell = CampaignCell("fault_catalogue", {"system": "x264", "b": 1})
    same = CampaignCell("fault_catalogue", {"b": 1, "system": "x264"})
    assert cell.key(7) == same.key(7)          # key order irrelevant
    assert cell.key(7) != cell.key(8)          # seed is part of the identity
    other = CampaignCell("fault_catalogue", {"system": "sqlite", "b": 1})
    assert cell.key(7) != other.key(7)         # spec is part of the identity
    assert cell.key(7) == content_hash(
        {"kind": "fault_catalogue", "spec": {"system": "x264", "b": 1},
         "seed": 7})


def test_seed_tree_is_deterministic_and_position_keyed():
    seeds = derive_cell_seeds(42, 6)
    assert seeds == derive_cell_seeds(42, 6)
    # Prefixes agree across campaign sizes: the seed depends only on the
    # root seed and the cell's position, so growing a grid never reseeds
    # the cells that were already there.
    assert seeds[:3] == derive_cell_seeds(42, 3)
    assert len(set(seeds)) == len(seeds)
    assert derive_cell_seeds(43, 6) != seeds


# ---------------------------------------------------------------------------
# Serial/parallel determinism (the seed-tree guarantee)
# ---------------------------------------------------------------------------
def test_fault_campaign_serial_and_parallel_reports_are_byte_identical():
    kwargs = dict(systems=("x264", "sqlite"), hardware="TX2", seed=5, **SMALL)
    serial = run_fault_campaign(parallel=False, **kwargs)
    parallel = run_fault_campaign(parallel=True, max_workers=2, **kwargs)
    assert serial.to_json().encode() == parallel.to_json().encode()
    assert serial.totals() == parallel.totals()


def test_fault_campaign_report_round_trips_through_json():
    from repro.evaluation import FaultCampaignReport

    report = run_fault_campaign(systems=("x264",), hardware="TX2", seed=2,
                                **SMALL)
    rebuilt = FaultCampaignReport.from_dict(json.loads(report.to_json()))
    assert rebuilt.to_json() == report.to_json()
    assert rebuilt.totals() == report.totals()


def test_multi_hardware_grid_labels_cells_by_platform():
    report = run_fault_campaign(systems=("x264",), hardware=("TX2", "Xavier"),
                                seed=1, **SMALL)
    assert set(report.catalogues) == {"x264@TX2", "x264@Xavier"}


# ---------------------------------------------------------------------------
# Artifact store and resume semantics
# ---------------------------------------------------------------------------
def test_store_round_trip_and_atomicity(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.save("abc", {"result": {"x": 1}})
    assert "abc" in store
    assert store.load("abc") == {"result": {"x": 1}}
    assert list(store.keys()) == ["abc"]
    # A corrupt artifact is treated as absent, not fatal.
    store.path_for("bad").write_text("{truncated")
    assert store.load("bad") is None
    store.discard("abc")
    assert "abc" not in store


def test_interrupted_campaign_resumes_only_incomplete_cells(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cells = fault_campaign_cells(systems=("x264", "sqlite", "deepstream"),
                                 hardware="TX2", **SMALL)

    # "Interrupted" first run: only a prefix of the grid completed.
    first = run_campaign(cells[:2], root_seed=9, store=store)
    assert first.n_executed == 2 and first.n_reused == 0

    resumed = run_campaign(cells, root_seed=9, store=store)
    assert resumed.n_reused == 2        # the completed prefix is skipped
    assert resumed.n_executed == 1      # only the missing cell runs

    # The resumed report equals a fresh, uninterrupted run.
    fresh = run_campaign(cells, root_seed=9)
    assert [o.result for o in resumed.outcomes] == \
        [o.result for o in fresh.outcomes]

    # A second resume re-executes nothing at all.
    replayed = run_campaign(cells, root_seed=9, store=store)
    assert replayed.n_executed == 0 and replayed.n_reused == 3


def test_store_does_not_leak_across_root_seeds(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cells = fault_campaign_cells(systems=("x264",), hardware="TX2", **SMALL)
    run_campaign(cells, root_seed=1, store=store)
    second = run_campaign(cells, root_seed=2, store=store)
    assert second.n_reused == 0         # different seed => different cell key


def test_parallel_run_persists_artifacts(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cells = fault_campaign_cells(systems=("x264", "sqlite"), hardware="TX2",
                                 **SMALL)
    runner = ParallelRunner(parallel=True, max_workers=2, store=store)
    report = runner.run(cells, root_seed=4)
    assert report.n_executed == 2
    assert len(store) == 2
    resumed = runner.run(cells, root_seed=4)
    assert resumed.n_executed == 0
    assert [o.result for o in resumed.outcomes] == \
        [o.result for o in report.outcomes]


# ---------------------------------------------------------------------------
# Fault-campaign objective validation
# ---------------------------------------------------------------------------
def test_unknown_objectives_raise_value_error():
    with pytest.raises(ValueError, match="NoSuchObjective"):
        run_fault_campaign(systems=("x264",), hardware="TX2",
                           objectives=["NoSuchObjective"], **SMALL)


def test_partially_known_objectives_are_filtered_not_fatal():
    # 'EncodingTime' exists on x264, 'Latency' does not; the campaign keeps
    # the known objective instead of silently widening to all of them.
    report = run_fault_campaign(systems=("x264",), hardware="TX2", seed=3,
                                objectives=["EncodingTime", "Latency"],
                                **SMALL)
    for fault in report.catalogues["x264"].faults:
        assert set(fault.objectives) <= {"EncodingTime"}


def test_unknown_cell_kind_is_a_clear_error():
    with pytest.raises(KeyError, match="unknown campaign cell kind"):
        run_campaign([CampaignCell("no_such_kind", {})])
