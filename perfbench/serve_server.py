"""Server process of the serve-* workloads: a GatewayServer over a service.

Started by ``serve_bench.py`` from the repository root::

    python3 perfbench/serve_server.py --workload serve-read --trace 0

It prints ``{"ready": true, "port": N}`` once the gateway listens, then
reads one command per line on standard input: ``quiesce`` (answered with
``{"quiesced": true}``) and ``stop``, after which it closes the gateway and
the service and prints ``{"report": {...}}`` with its counters, its peak
RSS and, when traced, the per-layer figures of the spans recorded after
start-up.  End of input
counts as ``stop``.  With ``--trace 1`` the span wrappers are installed
before the service is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def subject_specs(workload: dict) -> dict:
    """``subject -> spec`` of the models a serve workload fits."""
    return {subject: {"system": subject, "n_samples": workload["n_samples"],
                      "seed": workload["model_seed"]}
            for subject in workload["subjects"]}


def _service_counters(service, sharded: bool) -> dict:
    """The service's own counters, read before it closes."""
    if not sharded:
        stats = service.stats_snapshot()
        lookups = stats.cache_hits + stats.cache_misses
        return {
            "service.dispatches": stats.dispatches,
            "service.engine_calls": stats.engine_calls,
            "service.coalesced_ratio": stats.coalesced_ratio,
            "service.max_batch": stats.max_batch_observed,
            "result_cache.hit_ratio": stats.cache_hits / lookups
            if lookups else 0.0,
        }
    stats = service.stats_snapshot()
    workers = [w for w in service.worker_stats() if not w.get("failed")]
    engine_calls = sum(w["engine_calls"] for w in workers)
    hits = sum(w["cache_hits"] for w in workers)
    lookups = hits + sum(w["cache_misses"] for w in workers)
    return {
        "service.dispatches": stats.dispatch_batches,
        "service.engine_calls": engine_calls,
        "service.coalesced_ratio": stats.answered / engine_calls
        if engine_calls else 0.0,
        "result_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "sharding.worker.engine_calls": engine_calls,
        "sharding.worker.refreshes": sum(w["refreshes"] for w in workers),
        "sharding.worker.cache_hits": hits,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    from common import peak_rss_mb
    from tracing import (
        SpanRecorder,
        install_layer_wrappers,
        layer_metrics,
        top_level_seconds,
    )

    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        workload = json.load(handle)["workloads"][args.workload]
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install_layer_wrappers(recorder)

    from repro.service import (
        GatewayServer,
        QueryService,
        ShardedQueryService,
        registry_from_specs,
    )

    specs = subject_specs(workload)
    server = workload["server"]
    sharded = server["service"] == "ShardedQueryService"
    if sharded:
        service = ShardedQueryService(specs, shards=server["shards"],
                                      use_processes=server["use_processes"])
    else:
        service = QueryService(
            registry_from_specs(
                specs, result_cache_size=server["result_cache_size"]),
            batch_window=server["batch_window_s"])
    gateway = GatewayServer(service)
    if recorder is not None:
        # Per-layer figures describe the traffic, not the start-up fits.
        recorder.reset()
    print(json.dumps({"ready": True, "port": gateway.address[1]}), flush=True)

    for line in sys.stdin:
        command = line.strip()
        if command == "quiesce":
            service.quiesce()
            print(json.dumps({"quiesced": True}), flush=True)
        elif command == "stop":
            break

    report = {"gateway": gateway.stats.as_dict(),
              "counters": _service_counters(service, sharded)}
    gateway.close()
    service.close()
    report["peak_rss_mb"] = peak_rss_mb(children=sharded)
    if recorder is not None:
        report["layers"] = layer_metrics(recorder)
        report["span_seconds"] = top_level_seconds(
            recorder, ("protocol.decode", "protocol.encode",
                       "service.submit", "sharding.observe"))
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps({"report": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
