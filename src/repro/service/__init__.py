"""The concurrent query-serving layer.

Everything below :mod:`repro.core` answers one query at a time for one
caller; this package fronts the same engines for many concurrent clients:

* :mod:`repro.service.requests` — typed request/response dataclasses, one
  per public query kind (ACE, prediction, interventional effect,
  satisfaction probability, repair scan).
* :mod:`repro.service.registry` — :class:`ModelRegistry`: LRU-bounded,
  content-hash-keyed residency of fitted per-subject models, refreshed
  incrementally as new observations arrive.
* :mod:`repro.service.batcher` — :class:`RequestBatcher`: coalesces
  concurrently submitted queries of one kind against one model version
  into single batched engine calls, byte-identical to one-at-a-time
  dispatch.
* :mod:`repro.service.result_cache` — :class:`ResultCache`: per-entry
  cross-request memoization of answered queries keyed by
  ``(model_version, item_key)``, version-invalidated on refresh.
* :mod:`repro.service.service` — :class:`ServingCore`: the request
  lifecycle both serving tiers share (admission control, ``submit`` /
  ``submit_many``, one settlement step, close, stats and metrics
  snapshots), and :class:`QueryService`: the single-process tier over it,
  with per-subject fairness.
* :mod:`repro.service.drift` — :class:`DriftDetector`: residual-shift
  detection over live observation streams, the trigger of drift-aware
  model refresh.
* :mod:`repro.service.store` — :class:`ModelStore`: persistent,
  content-addressed, versioned snapshots of fitted models (atomic
  publish, instant rollback, fail-closed loads); registries load on
  miss and publish at refresh boundaries, and the sharded tier uses
  the snapshots' op-id watermarks to compact its crash-replay journal
  down to a suffix.
* :mod:`repro.service.sharding` / :mod:`repro.service.worker` —
  :class:`ShardedQueryService`: subjects hash-partitioned across worker
  processes (each its own registry + batcher over a spawn-safe IPC
  loop), byte-identical to the single-process service for any shard
  count, with crash recovery and journal replay.
* :mod:`repro.service.workload` — deterministic mixed workloads (and
  long-horizon drifting observation streams) for tests, benchmarks and
  demos.
* :mod:`repro.service.tracing` / :mod:`repro.service.metrics` — the
  observability tier: a per-request :class:`TraceContext` threaded
  through every stage (zero-overhead when disabled, rendered as
  deterministic JSONL by :class:`TraceRecorder`), and the lock-cheap
  :class:`MetricsSnapshot` surface (queue depth, coalescing ratio,
  batch-size histogram, streaming latency percentiles) behind
  ``metrics_snapshot()`` and the gateway's ``metrics`` verb.
* :mod:`repro.service.protocol` / :mod:`repro.service.gateway` — the
  wire tier: a length-prefixed JSON protocol with versioned envelopes
  and typed :class:`ProtocolError` failures, plus
  :class:`GatewayServer` / :class:`GatewayClient` putting the services
  behind a real socket with per-tenant API keys, quotas, streaming
  ``observe()`` ingestion and graceful drain.

See ``docs/serving.md`` for the architecture narrative and
``docs/query-api.md`` for the per-query reference.
"""

from repro.service.batcher import RequestBatcher
from repro.service.drift import DriftDetector
from repro.service.gateway import (
    DrainingError,
    GatewayAuthError,
    GatewayClient,
    GatewayError,
    GatewayServer,
    GatewayStats,
    QuotaExceededError,
    Tenant,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    ProtocolError,
    decode_envelope,
    encode_envelope,
    encode_frame,
    error_envelope,
    read_frame,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.service.metrics import (
    BatchSizeHistogram,
    LatencyReservoir,
    MetricsSnapshot,
    ServiceMetrics,
)
from repro.service.registry import (
    InvalidMeasurementError,
    ModelEntry,
    ModelRegistry,
    UnknownSubjectError,
    unicorn_from_spec,
)
from repro.service.sharding import (
    RollingRefreshError,
    ShardedQueryService,
    ShardedServiceStats,
    registry_from_specs,
    shard_of,
)
from repro.service.result_cache import ResultCache, fresh_value
from repro.service.store import (
    ModelStore,
    canonical_spec,
    spec_key,
    subject_key,
)
from repro.service.requests import (
    AceRequest,
    EffectRequest,
    PredictRequest,
    QueryRequest,
    QueryResponse,
    RepairRequest,
    SatisfactionRequest,
    ServiceKind,
    repair_payload,
)
from repro.service.service import (
    AdmissionError,
    QueryService,
    QueryServiceStats,
    ServiceClosedError,
    ServiceStats,
    ServingCore,
)
from repro.service.tracing import (
    TraceContext,
    TraceRecorder,
    Tracer,
    trace_summary,
)
from repro.service.workload import (
    canonical_answers,
    drifting_measurement_stream,
    latency_percentiles,
    long_horizon_workload,
    mixed_workload,
    serve_concurrently,
    serve_rounds,
    wire_workload,
)

__all__ = [
    "AceRequest",
    "AdmissionError",
    "BatchSizeHistogram",
    "DrainingError",
    "DriftDetector",
    "EffectRequest",
    "ErrorCode",
    "FrameDecoder",
    "GatewayAuthError",
    "GatewayClient",
    "GatewayError",
    "GatewayServer",
    "GatewayStats",
    "InvalidMeasurementError",
    "LatencyReservoir",
    "MAX_FRAME_BYTES",
    "MetricsSnapshot",
    "ModelEntry",
    "ModelRegistry",
    "ModelStore",
    "PROTOCOL_VERSION",
    "PredictRequest",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "QueryServiceStats",
    "QuotaExceededError",
    "RepairRequest",
    "RequestBatcher",
    "ResultCache",
    "RollingRefreshError",
    "SatisfactionRequest",
    "ServiceClosedError",
    "ServiceKind",
    "ServiceMetrics",
    "ServiceStats",
    "ServingCore",
    "ShardedQueryService",
    "ShardedServiceStats",
    "Tenant",
    "TraceContext",
    "TraceRecorder",
    "Tracer",
    "UnknownSubjectError",
    "decode_envelope",
    "encode_envelope",
    "encode_frame",
    "error_envelope",
    "mixed_workload",
    "drifting_measurement_stream",
    "latency_percentiles",
    "long_horizon_workload",
    "read_frame",
    "registry_from_specs",
    "repair_payload",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "serve_concurrently",
    "serve_rounds",
    "shard_of",
    "spec_key",
    "subject_key",
    "trace_summary",
    "unicorn_from_spec",
    "wire_workload",
    "canonical_answers",
    "canonical_spec",
    "fresh_value",
]
