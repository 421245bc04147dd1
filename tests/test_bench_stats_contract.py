"""Contract tests: the serve benchmark's readers match both tiers.

``perfbench/serve_server.py`` reads service counters by field name when a
serve workload stops, and ``perfbench/tracing.py`` wraps each tier's
``submit`` in its class namespace for ``--trace 1`` runs.  A renamed
stats field or a moved method would otherwise break only at benchmark
time; these tests load the scripts by path (without editing them) and
run them against a live :class:`QueryService` and a thread-mode
:class:`ShardedQueryService`.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from repro.service import (
    EffectRequest,
    QueryService,
    ShardedQueryService,
    registry_from_specs,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPECS = {"cache": {"system": "cache_example", "n_samples": 40,
                   "max_condition_size": 2, "seed": 0}}
REQUEST = EffectRequest.of("cache", "Throughput", {"CachePolicy": 0.0})


def _load(name: str):
    """Import ``perfbench/<name>.py`` by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def service_counters():
    return _load("serve_server")._service_counters


def _assert_finite(counters: dict) -> None:
    assert counters
    for name, value in counters.items():
        assert isinstance(value, (int, float)), name
        assert math.isfinite(value), name


def test_counters_of_query_service(service_counters):
    with QueryService(registry_from_specs(SPECS)) as service:
        assert all(r.ok for r in service.submit_many([REQUEST] * 4,
                                                     timeout=60))
        _assert_finite(service_counters(service, sharded=False))


def test_counters_of_sharded_service(service_counters):
    with ShardedQueryService(SPECS, shards=1,
                             use_processes=False) as service:
        assert all(r.ok for r in service.submit_many([REQUEST] * 4,
                                                     timeout=60))
        _assert_finite(service_counters(service, sharded=True))


def test_span_wrappers_install_on_both_tiers():
    tracing = _load("tracing")
    recorder = tracing.SpanRecorder()
    uninstall = tracing.install_layer_wrappers(recorder)
    try:
        with QueryService(registry_from_specs(SPECS)) as service:
            assert service.submit(REQUEST, timeout=60).ok
    finally:
        uninstall()
    assert recorder.by_name()["service.submit"]["calls"] == 1
