"""Tests of the self-debugging campaign (record → debug → replay).

The cell must demonstrate, end to end and deterministically, that the
pipeline can tune its own serving stack: a recorded workload served
under a deliberately misconfigured deployment, debugged on the serving
twin, replayed under the recommendation with

* materially better tail latency,
* byte-identical answers (serving knobs never change *what* is
  answered), and
* a replayable trace artifact keyed by the workload seed.

Also covers the campaign-runner integration (cell registration, seeded
grid execution).
"""

from __future__ import annotations

import pytest

from repro.evaluation import (
    CampaignCell,
    cell_kinds,
    run_campaign,
    run_self_debugging,
)
from repro.evaluation.self_debug_campaign import DEFAULT_FAULTY_OVERRIDES
from repro.service.tracing import TraceRecorder


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("traces") / "self_debug.jsonl"
    outcome = run_self_debugging(
        n_clients=8, requests_per_client=6, n_samples=40, seed=3,
        trace_path=str(trace_path))
    return outcome, trace_path


def test_recommendation_improves_replayed_tail_latency(result):
    outcome, _ = result
    assert outcome["p99_improvement"] >= 1.30, (
        "recommended config must beat the misconfigured baseline by "
        f">=30% on replayed p99, got {outcome['p99_improvement']:.2f}x")
    assert outcome["recommended_p99_ms"] < outcome["baseline_p99_ms"]
    assert outcome["recommended_throughput_qps"] > \
        outcome["baseline_throughput_qps"]


def test_replayed_answers_byte_identical(result):
    outcome, _ = result
    assert outcome["identical"] is True


def test_debugger_diagnoses_the_planted_fault(result):
    outcome, _ = result
    assert "BatchWindowMs" in outcome["changed_options"]
    recommended = outcome["recommended_configuration"]
    assert recommended["BatchWindowMs"] < \
        DEFAULT_FAULTY_OVERRIDES["BatchWindowMs"]
    assert outcome["twin_gains"]["P99LatencyMs"] > 0.0


def test_trace_artifact_written_and_complete(result):
    outcome, trace_path = result
    header, records = TraceRecorder.load(trace_path)
    assert header == {"root_seed": 3, "records": outcome["n_queries"]}
    assert len(records) == outcome["n_queries"]
    assert outcome["trace_records"] == outcome["n_queries"]
    summary = outcome["trace_summary"]
    assert summary["requests"] == outcome["n_queries"]
    # The faulty deployment disables the result cache entirely.
    assert summary["cache_hit_rate"] == 0.0


def test_result_is_json_safe(result):
    import json

    outcome, _ = result
    assert json.loads(json.dumps(outcome)) == outcome


def test_replay_supports_sharded_recommendations():
    """A recommendation with ``Shards > 1`` replays on the sharded tier.

    The debugger is free to recommend scaling out; the replay helper
    must honour that by serving the recorded workload through
    ``ShardedQueryService`` and still return well-formed percentiles.
    """
    from repro.evaluation.self_debug_campaign import _replay
    from repro.service.registry import ModelRegistry
    from repro.service.workload import mixed_workload
    from repro.systems.registry import get_system

    spec = {"system": "cache_example", "n_samples": 40, "seed": 3}
    specs = {"cache_example": spec}
    engine = ModelRegistry(capacity=2).register_spec(
        "cache_example", spec).engine
    requests = mixed_workload(
        "cache_example", engine,
        get_system("cache_example").objectives, 16, seed=3)
    responses, seconds, percentiles = _replay(
        specs, requests,
        {"shards": 2, "batch_window": 0.001, "result_cache_size": 64,
         "drift_threshold": None, "fairness_quantum": 32},
        n_clients=4)
    assert len(responses) == len(requests)
    assert all(r.ok for r in responses)
    assert seconds > 0.0
    assert percentiles["p99_ms"] >= percentiles["p50_ms"] > 0.0


def test_campaign_cells_and_runner():
    assert "self_debugging" in cell_kinds()
    cells = [CampaignCell("self_debugging", {
        "n_clients": 4, "requests_per_client": 4, "n_samples": 40,
        "budget": 40})]
    results = run_campaign(cells, root_seed=9).results()
    assert len(results) == 1
    assert results[0]["identical"] is True
    assert results[0]["p99_improvement"] > 1.0
