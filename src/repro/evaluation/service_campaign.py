"""Service-throughput campaigns: the serving layer as experiment cells.

The north-star system serves heavy concurrent query traffic; this module
measures how well it does so, with the same campaign machinery (cells, seed
trees, resumable artifacts) the paper experiments use.  Each function below
is registered as the cell kind named in parentheses, so
``CampaignCell(kind, spec)`` runs it with ``spec`` as its keyword
arguments:

* :func:`run_service_throughput` (``service_throughput``) — one subject,
  one concurrency level: a deterministic mixed workload answered once
  through one-at-a-time engine dispatch and once through a concurrent
  :class:`~repro.service.service.QueryService`; reports throughput,
  latency percentiles, the coalescing ratio and byte-identity.
* :func:`run_sharded_service_throughput` (``sharded_service_throughput``)
  — the long-horizon story: many subjects, many rounds of queries
  interleaved with (drifting) observation streams, served three ways —
  the eager single-process baseline (every ``observe`` relearns), a
  drift-aware single-process run, and the drift-aware
  :class:`~repro.service.sharding.ShardedQueryService` — reporting the
  sharded tier's speedup over the eager baseline, the relearn counts of
  each side, and whether the sharded answers stayed byte-identical to the
  same-knob single-process run.
* :func:`run_cold_start_recovery` (``cold_start_recovery``) — the
  durability story: a long-horizon workload primes a persistent
  :class:`~repro.service.store.ModelStore`, then worker **cold start** (a
  fresh service generation over the populated store vs refit-from-spec
  plus full-history replay) and **crash recovery** (snapshot restore plus
  journal-*suffix* replay vs refit plus full-journal replay) are timed
  head to head, with byte-identity of every recovered tier's answers
  against a single-process reference.
* :func:`run_rolling_refresh` (``rolling_refresh``) — the availability
  story: per-subject probe clients keep querying while
  :meth:`~repro.service.sharding.ShardedQueryService.rolling_refresh`
  upgrades the fleet onto new specs one shard at a time; reports probe
  availability and admission counts against a no-refresh baseline
  window, the capacity fraction implied by the refresh windows (at most
  one shard out at a time = never below N-1), byte-identity of the
  upgraded fleet against a cold fleet fitted directly on the new specs,
  and — via a deliberately poisoned second sweep — that a failed
  upgrade rolls the fleet back byte-identically.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from typing import Mapping, Sequence

from repro.evaluation.runner import register_cell_kind
from repro.service.batcher import RequestBatcher
from repro.service.registry import ModelRegistry
from repro.service.service import QueryService
from repro.service.sharding import (
    RollingRefreshError,
    ShardedQueryService,
    registry_from_specs,
    shard_of,
)
from repro.service.workload import (
    _derived_seed,
    canonical_answers,
    drifting_measurement_stream,
    latency_percentiles,
    long_horizon_workload,
    mixed_workload,
    observe_all,
    probe_while,
    refresh_under_traffic,
    serve_concurrently,
    serve_rounds,
)
from repro.systems.registry import get_system

#: Crash-recovery timings per side of :func:`run_cold_start_recovery`,
#: taken as store/baseline pairs back to back: a swing in host speed moves
#: both sides of a pair's ratio together, and the median over the pairs
#: drops the few pairs a swing splits.
_RECOVERY_PAIRS = 5
#: Eager/sharded serving timings of :func:`run_sharded_service_throughput`,
#: paired the same way: each pair serves the workload from fresh models.
_THROUGHPUT_PAIRS = 3


def _fleet(system: str, hardware: str | None, n_subjects: int,
           n_samples: int, seed: int, salt: int) -> tuple[dict, dict]:
    """Fit specs and simulators of ``n_subjects`` models of one system.

    Subjects are named ``{system}-{i}``; subject ``i`` is fitted with the
    seed at position ``(salt, i)`` of the ``seed`` tree.  Returns
    ``(specs, systems)``, both keyed by subject.
    """
    specs = {
        f"{system}-{i}": {
            "system": system, "hardware": hardware,
            "n_samples": int(n_samples), "seed": _derived_seed(seed, salt, i),
        }
        for i in range(int(n_subjects))
    }
    systems = {subject: get_system(system, hardware=hardware)
               for subject in specs}
    return specs, systems


def _probe_workload(registry: ModelRegistry, systems: Mapping[str, object],
                    probe_queries: int, seed: int, salt: int) -> list:
    """``probe_queries`` mixed queries split evenly over the subjects,
    grouped by subject in name order; the subject at position ``p`` draws
    from seed-tree position ``(salt, p)``."""
    probes = []
    for position, subject in enumerate(sorted(systems)):
        probes.extend(mixed_workload(
            subject, registry.get(subject).engine,
            systems[subject].objectives,
            max(int(probe_queries) // len(systems), 1),
            seed=_derived_seed(seed, salt, position)))
    return probes


def _serial_answers(registry: ModelRegistry, probes: Sequence) -> list[str]:
    """Canonical one-at-a-time answers to subject-grouped ``probes``."""
    batcher = RequestBatcher()
    return canonical_answers([
        response
        for subject in sorted({probe.subject for probe in probes})
        for response in batcher.serial_dispatch(
            registry.get(subject),
            [probe for probe in probes if probe.subject == subject])])


def _crash_and_recover(service: ShardedQueryService, shard: int, probe,
                       probes: Sequence) -> tuple[float, list[str]]:
    """Kill ``shard``; time the next answered ``probe``, then return
    ``(seconds, canonical answers to every probe)``."""
    service._inject_crash(shard)
    started = time.perf_counter()
    service.submit(probe, timeout=600.0)
    seconds = time.perf_counter() - started
    return seconds, canonical_answers(service.submit_many(probes,
                                                          timeout=600.0))


@register_cell_kind("service_throughput")
def run_service_throughput(system: str, hardware: str | None = None,
                           n_clients: int = 16, requests_per_client: int = 4,
                           n_samples: int = 60, seed: int = 0,
                           batch_window: float = 0.004) -> dict:
    """Measure serving throughput for one subject at one concurrency level.

    Parameters
    ----------
    system, hardware:
        Subject system (a :func:`repro.systems.registry.get_system` name)
        and optional hardware platform.
    n_clients:
        Concurrent client threads; each submits its requests as one
        ``submit_many`` batch and blocks for the answers (the
        serving-realistic pattern that gives the dispatcher its
        coalescing opportunities).
    requests_per_client:
        Mixed-workload queries per client.
    n_samples:
        Observational sample size the subject model is fitted on.
    seed:
        Seed for both the model fit and the workload.
    batch_window:
        Dispatcher accumulation window in seconds.

    Returns
    -------
    dict
        JSON-serializable cell result: ``n_queries``, ``serial_seconds``,
        ``service_seconds``, ``speedup``, ``throughput_qps``,
        ``coalesced_ratio``, ``identical`` (byte-identity of service vs
        one-at-a-time answers) and latency percentiles.
    """
    registry = ModelRegistry(capacity=2)
    entry = registry.get_or_fit({"system": system, "hardware": hardware,
                                 "n_samples": int(n_samples),
                                 "seed": int(seed)})
    directions = get_system(system, hardware=hardware).objectives
    requests = mixed_workload(entry.key, entry.engine, directions,
                              int(n_clients) * int(requests_per_client),
                              seed=seed)

    batcher = RequestBatcher()
    # Untimed warm-up: fill the engine's one-time caches (ranked paths,
    # residual columns) so neither timed side pays them — the serial
    # reference measures dispatch, not first-touch cost.
    batcher.dispatch(entry, requests)
    started = time.perf_counter()
    serial = batcher.serial_dispatch(entry, requests)
    serial_seconds = time.perf_counter() - started

    with QueryService(registry, batch_window=batch_window,
                      max_batch=512) as service:
        responses, service_seconds, stats = serve_concurrently(
            service, requests, int(n_clients))

    identical = canonical_answers(serial) == canonical_answers(responses)
    result = {
        "system": system,
        "n_clients": int(n_clients),
        "n_queries": len(requests),
        "serial_seconds": serial_seconds,
        "service_seconds": service_seconds,
        "speedup": serial_seconds / max(service_seconds, 1e-9),
        "throughput_qps": len(requests) / max(service_seconds, 1e-9),
        "coalesced_ratio": stats.coalesced_ratio,
        "identical": identical,
    }
    result.update(latency_percentiles(responses))
    return result


@register_cell_kind("sharded_service_throughput")
def run_sharded_service_throughput(system: str,
                                   hardware: str | None = None,
                                   n_subjects: int = 4, shards: int = 2,
                                   n_clients: int = 32, n_rounds: int = 6,
                                   queries_per_round: int = 64,
                                   observations_per_round: int = 8,
                                   n_samples: int = 50, seed: int = 0,
                                   drift_threshold: float = 6.0,
                                   drift_rounds: Sequence[int] = (3,),
                                   drift_scale: float = 1.6,
                                   drift_min_window: int = 4,
                                   observation_batches_per_round: int = 1,
                                   use_processes: bool = True,
                                   batch_window: float = 0.002) -> dict:
    """Measure the sharded drift-aware tier on a long-horizon workload.

    Three serving tiers process the identical workload — ``n_rounds``
    rounds of a mixed query batch from ``n_clients`` concurrent clients
    followed by per-subject observation streams
    (:func:`repro.service.workload.long_horizon_workload`) over
    ``n_subjects`` independently seeded models of one system:

    1. the **eager single-process baseline**: a
       :class:`~repro.service.service.QueryService` whose registry
       relearns on every observation batch (the PR 4 ``observe``
       semantics);
    2. the **drift-aware single-process reference**: same service, but
       observations buffer until the
       :class:`~repro.service.drift.DriftDetector` sees the stream shift
       past ``drift_threshold``;
    3. the **sharded tier**: a
       :class:`~repro.service.sharding.ShardedQueryService` with the
       same drift knobs, subjects hash-partitioned across ``shards``
       workers.

    The headline ``speedup`` is tier 3 over tier 1 — what a deployment
    gains on a long-running workload from refreshing only on real drift
    (and, on multi-core hosts, from overlapping shard work).  Tiers 1 and
    3 run as ``_THROUGHPUT_PAIRS`` back-to-back pairs over fresh models;
    ``speedup`` is the median per-pair ratio and their seconds are
    medians.  ``identical`` certifies every tier 3 run == tier 2 byte
    for byte: sharding never changes an answer.

    Parameters
    ----------
    system, hardware:
        Subject system; each of the ``n_subjects`` models gets its own
        seed-tree-derived fit seed.
    n_subjects, shards, n_clients, n_rounds, queries_per_round,
    observations_per_round, n_samples:
        Workload and deployment shape.
    seed:
        Root seed of the workload/fit seed tree.
    drift_threshold, drift_rounds, drift_scale:
        Drift knobs: detector threshold, regime-shift rounds, and shift
        magnitude.
    use_processes:
        Worker processes (``True``) or in-process worker threads.
    batch_window:
        Dispatcher coalescing window of the single-process tiers.

    Returns
    -------
    dict
        JSON-serializable cell result: per-tier seconds, ``speedup``,
        ``speedup_pairs``, ``throughput_qps``, relearn counters per
        tier, and ``identical``.
    """
    specs, systems = _fleet(system, hardware, n_subjects, n_samples, seed,
                            salt=3)

    # The workload is generated once, before any serving begins, from the
    # eager tier's freshly fitted engines (generation only reads them;
    # the observe mutations happen later, against fixed workload data) —
    # every other tier then refits its own registry from the same specs.
    eager_registry = registry_from_specs(specs)
    engines = {subject: eager_registry.get(subject).engine
               for subject in specs}
    rounds = long_horizon_workload(
        engines, systems, n_rounds=int(n_rounds),
        queries_per_round=int(queries_per_round),
        observations_per_round=int(observations_per_round), seed=seed,
        drift_rounds=tuple(drift_rounds), drift_scale=float(drift_scale),
        observation_batches_per_round=int(observation_batches_per_round))
    n_queries = sum(len(r["queries"]) for r in rounds)

    drift_registry = registry_from_specs(
        specs, drift_threshold=float(drift_threshold),
        drift_min_window=int(drift_min_window), refresh_async=True)
    with QueryService(drift_registry, batch_window=batch_window,
                      max_batch=512) as service:
        reference, drift_seconds = serve_rounds(service, rounds,
                                                int(n_clients))
    reference = canonical_answers(reference)

    # Eager then sharded, in pairs; every pair starts from fresh models.
    eager_seconds, sharded_seconds, identical = [], [], True
    for pair in range(_THROUGHPUT_PAIRS):
        if pair:
            eager_registry = registry_from_specs(specs)
        with QueryService(eager_registry, batch_window=batch_window,
                          max_batch=512) as service:
            _, seconds = serve_rounds(service, rounds, int(n_clients))
        eager_seconds.append(seconds)
        with ShardedQueryService(specs, shards=int(shards),
                                 use_processes=bool(use_processes),
                                 drift_threshold=float(drift_threshold),
                                 drift_min_window=int(drift_min_window),
                                 refresh_async=True) as sharded:
            responses, seconds = serve_rounds(sharded, rounds,
                                              int(n_clients))
            worker_stats = sharded.worker_stats()
        sharded_seconds.append(seconds)
        identical &= canonical_answers(responses) == reference

    return {
        "system": system,
        "n_subjects": int(n_subjects),
        "shards": int(shards),
        "n_clients": int(n_clients),
        "n_rounds": int(n_rounds),
        "n_queries": n_queries,
        "drift_threshold": float(drift_threshold),
        "eager_seconds": statistics.median(eager_seconds),
        "drift_seconds": drift_seconds,
        "sharded_seconds": statistics.median(sharded_seconds),
        "speedup": statistics.median(
            e / max(s, 1e-9) for e, s in zip(eager_seconds, sharded_seconds)),
        "speedup_pairs": _THROUGHPUT_PAIRS,
        "throughput_qps": n_queries
        / max(statistics.median(sharded_seconds), 1e-9),
        "eager_refreshes": eager_registry.refreshes,
        "drift_refreshes": drift_registry.refreshes,
        "drift_refreshes_skipped": drift_registry.refreshes_skipped,
        "sharded_refreshes": sum(w["refreshes"] for w in worker_stats),
        "subjects_per_shard": [len(w["subjects"]) for w in worker_stats],
        "identical": identical,
    }


@register_cell_kind("cold_start_recovery")
def run_cold_start_recovery(system: str, hardware: str | None = None,
                            n_subjects: int = 4, shards: int = 2,
                            n_clients: int = 32, n_rounds: int = 6,
                            queries_per_round: int = 64,
                            observations_per_round: int = 8,
                            observation_batches_per_round: int = 1,
                            n_samples: int = 50, seed: int = 0,
                            snapshot_every: int = 4,
                            probe_queries: int = 40,
                            use_processes: bool = True,
                            store_root: str | None = None,
                            batch_window: float = 0.002) -> dict:
    """Measure what the persistent model store buys at restart time.

    A long-horizon workload (``n_rounds`` rounds of ``n_clients``
    concurrent query batches interleaved with per-subject observation
    streams, eager refresh semantics) primes a
    :class:`~repro.service.store.ModelStore`; then two restart scenarios
    are timed head to head:

    * **cold start** — standing up a fresh service generation that must
      reach the primed model state: with the store it loads the latest
      snapshots (no CI tests, no least-squares, no replay); the baseline
      refits every subject from its spec and replays the *entire*
      observation history, paying one incremental relearn per replayed
      batch;
    * **crash recovery** — a worker is killed under a primed service and
      the time to the next answered probe query is measured: with the
      store the respawn restores snapshots and replays only the journal
      *suffix* past each subject's snapshot watermark (the parent
      compacted the rest); the baseline refits and replays its full
      journal.  Both services stay up while the crashes alternate
      between them, store then baseline, in ``_RECOVERY_PAIRS`` pairs.

    Every recovered tier must answer a converged-state probe workload
    byte-identically to a single-process reference registry that folded
    the same history — restarts may never change an answer.

    Parameters
    ----------
    system, hardware:
        Subject system; each of the ``n_subjects`` models gets its own
        seed-tree-derived fit seed.
    n_subjects, shards, n_clients, n_rounds, queries_per_round,
    observations_per_round, observation_batches_per_round, n_samples:
        Workload and deployment shape (the priming phase).
    seed:
        Root seed of the workload/fit seed tree.
    snapshot_every:
        Durable-snapshot cadence in eager mode: publish every N-th
        observe fold (the journal covers the gap, so recovery replays at
        most ~N ops per subject).
    probe_queries:
        Size of the converged-state probe workload used for the
        byte-identity checks and the recovery timing.
    use_processes:
        Worker processes (``True``) or in-process worker threads.
    store_root:
        Directory for the store; a temporary directory when ``None``.
    batch_window:
        Dispatcher coalescing window of the sharded tiers.

    Returns
    -------
    dict
        JSON-serializable cell result: priming/cold-start/recovery
        seconds per side (crash recovery: the median over the pairs),
        ``cold_start_speedup`` and ``recovery_speedup`` (baseline over
        store; for recovery the median per-pair ratio), journal lengths
        (bounded with the store, full without), store counters and
        ``identical``.
    """
    specs, systems = _fleet(system, hardware, n_subjects, n_samples, seed,
                            salt=5)

    # Reference: one single-process registry folds the same history the
    # services will see; its serial answers define the converged state
    # every restarted tier must reproduce byte for byte.
    reference = registry_from_specs(specs)
    engines = {subject: reference.get(subject).engine for subject in specs}
    rounds = long_horizon_workload(
        engines, systems, n_rounds=int(n_rounds),
        queries_per_round=int(queries_per_round),
        observations_per_round=int(observations_per_round), seed=seed,
        observation_batches_per_round=int(observation_batches_per_round))
    n_queries = sum(len(r["queries"]) for r in rounds)
    observation_ops = 0
    for round_spec in rounds:
        for subject, batches in round_spec["observations"].items():
            for batch in batches:
                reference.observe(subject, batch)
                observation_ops += 1
    probes = _probe_workload(reference, systems, probe_queries, seed, salt=7)
    reference_answers = _serial_answers(reference, probes)
    # Crash the shard of the alphabetically first subject (every shard
    # with at least one subject behaves identically).
    crash_subject = sorted(specs)[0]
    crash_shard = shard_of(crash_subject, int(shards))
    crash_probe = next(p for p in probes if p.subject == crash_subject)

    service_options = dict(shards=int(shards),
                           use_processes=bool(use_processes),
                           batch_window=float(batch_window))
    with tempfile.TemporaryDirectory(prefix="model-store-") as scratch:
        store_dir = store_root or scratch
        # ---- priming WITH the store ------------------------------------
        with ShardedQueryService(specs, store_path=store_dir,
                                 snapshot_every=int(snapshot_every),
                                 **service_options) as primed:
            _, prime_seconds = serve_rounds(primed, rounds, int(n_clients))
            journal_len_store = max(len(s.journal)
                                    for s in primed._shards)
            compacted_ops = primed.stats.journal_ops_compacted

            # ---- baseline: refit from specs + full-history replay ------
            started = time.perf_counter()
            with ShardedQueryService(specs, store_path=None,
                                     **service_options) as baseline:
                for round_spec in rounds:
                    observe_all(baseline, round_spec["observations"])
                cold_baseline_seconds = time.perf_counter() - started
                journal_len_baseline = max(len(s.journal)
                                           for s in baseline._shards)
                answers = baseline.submit_many(probes, timeout=600.0)
                identical = canonical_answers(answers) == reference_answers

                # ---- crash recovery, store then baseline, in pairs -----
                store_seconds: list[float] = []
                baseline_seconds: list[float] = []
                for _ in range(_RECOVERY_PAIRS):
                    for service, seconds in ((primed, store_seconds),
                                             (baseline, baseline_seconds)):
                        elapsed, recovered = _crash_and_recover(
                            service, crash_shard, crash_probe, probes)
                        seconds.append(elapsed)
                        identical &= recovered == reference_answers

        # ---- cold start WITH the store ---------------------------------
        started = time.perf_counter()
        with ShardedQueryService(specs, store_path=store_dir,
                                 snapshot_every=int(snapshot_every),
                                 **service_options) as restarted:
            cold_store_seconds = time.perf_counter() - started
            answers = restarted.submit_many(probes, timeout=600.0)
            identical &= canonical_answers(answers) == reference_answers
            restarted_stats = restarted.worker_stats()

    return {
        "system": system,
        "n_subjects": int(n_subjects),
        "shards": int(shards),
        "n_clients": int(n_clients),
        "n_rounds": int(n_rounds),
        "n_queries": n_queries,
        "n_observation_ops": observation_ops,
        "snapshot_every": int(snapshot_every),
        "prime_seconds": prime_seconds,
        "cold_store_seconds": cold_store_seconds,
        "cold_baseline_seconds": cold_baseline_seconds,
        "cold_start_speedup": cold_baseline_seconds
        / max(cold_store_seconds, 1e-9),
        "recovery_store_seconds": statistics.median(store_seconds),
        "recovery_baseline_seconds": statistics.median(baseline_seconds),
        "recovery_speedup": statistics.median(
            b / max(s, 1e-9)
            for s, b in zip(store_seconds, baseline_seconds)),
        "recovery_pairs": _RECOVERY_PAIRS,
        "journal_len_store": journal_len_store,
        "journal_len_baseline": journal_len_baseline,
        "journal_ops_compacted": compacted_ops,
        "store_loads": sum(w["store_loads"] for w in restarted_stats),
        "identical": identical,
    }


def _max_window_overlap(windows: Sequence[Mapping]) -> int:
    """Peak number of refresh windows open at one instant (0 if none)."""
    events: list[tuple[float, int]] = []
    for window in windows:
        events.append((float(window["started"]), 1))
        events.append((float(window["finished"]), -1))
    events.sort()  # a close sorts before an open at the same timestamp
    current = peak = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


@register_cell_kind("rolling_refresh")
def run_rolling_refresh(system: str, hardware: str | None = None,
                        n_subjects: int = 4, shards: int = 2,
                        observation_rounds: int = 2,
                        observations_per_round: int = 6,
                        n_samples: int = 40, new_n_samples: int = 60,
                        seed: int = 0, probe_queries: int = 24,
                        baseline_window: float = 0.25,
                        poll_interval: float = 0.0,
                        use_processes: bool = True,
                        store_root: str | None = None,
                        batch_window: float = 0.002,
                        drain_timeout: float = 120.0,
                        check_rollback: bool = True) -> dict:
    """Measure fleet availability through a zero-downtime rolling refresh.

    A sharded fleet over a persistent store is primed with observation
    streams, then upgraded onto new specs (``new_n_samples`` replaces
    ``n_samples``) by :meth:`~repro.service.sharding.ShardedQueryService.
    rolling_refresh` **while one probe client per subject keeps
    querying** (:func:`repro.service.workload.refresh_under_traffic`).
    The same probe traffic also runs for a no-refresh ``baseline_window``
    first, so the refresh's admission behaviour has a control to be
    compared against.  Four verdicts come out:

    * ``refresh_availability`` — fraction of probes answered cleanly
      during the refresh (the gate demands 1.0: no errors, no
      exceptions, no rejections);
    * ``refresh_capacity_fraction`` — 1.0 when at most one shard's
      refresh window was open at any instant (capacity never below N-1
      of N shards), degrading toward 0.0 with overlap;
    * ``identical`` — the upgraded fleet answers a probe workload
      byte-identically to a cold single-process registry fitted directly
      on the new specs (an upgrade is indistinguishable from a fresh
      deployment);
    * ``rollback_identical`` — a second fleet swept with one deliberately
      poisoned spec raises
      :class:`~repro.service.sharding.RollingRefreshError` and then
      answers byte-identically to its pre-refresh self (failed upgrades
      leave no trace), exercising per-shard
      :meth:`~repro.service.store.ModelStore.rollback`.

    Parameters
    ----------
    system, hardware:
        Subject system; each of the ``n_subjects`` models gets its own
        seed-tree-derived fit seed.
    n_subjects, shards:
        Fleet shape.
    observation_rounds, observations_per_round:
        Priming observation stream per subject (folded into the models
        the rollback check must restore byte-identically).
    n_samples, new_n_samples:
        Old- and new-generation observational sample sizes — the spec
        change the refresh deploys.
    seed:
        Root seed of the fit/workload seed tree.
    probe_queries:
        Size of the byte-identity probe workload (split across
        subjects).
    baseline_window:
        Seconds of no-refresh probe traffic measured as the admission
        control.
    poll_interval:
        Sleep between probe submissions (0 = back-to-back).
    use_processes:
        Worker processes (``True``) or in-process worker threads.
    store_root:
        Directory for the model store; a temporary directory if
        ``None``.
    batch_window:
        Dispatcher coalescing window.
    drain_timeout:
        Per-shard drain/flush barrier timeout of the refresh.
    check_rollback:
        Run the poisoned-sweep rollback phase (skippable for pure
        availability timing).

    Returns
    -------
    dict
        JSON-serializable cell result (see the four verdicts above, plus
        probe counts, refresh wall seconds, per-service admission
        deltas and the service's refresh counters).
    """
    specs, systems = _fleet(system, hardware, n_subjects, n_samples, seed,
                            salt=9)
    new_specs = {subject: dict(spec, n_samples=int(new_n_samples))
                 for subject, spec in specs.items()}

    # Probe workloads come from the old generation's engines (payload
    # vocabulary only; the requests are equally valid against the new
    # models), one batch per subject; each subject's first probe is the
    # hot probe of its live-traffic client.
    probes = _probe_workload(registry_from_specs(specs), systems,
                             probe_queries, seed, salt=11)
    probe_map: dict = {}
    for probe in probes:
        probe_map.setdefault(probe.subject, probe)
    streams = {
        subject: drifting_measurement_stream(
            systems[subject], int(observation_rounds),
            int(observations_per_round),
            seed=_derived_seed(seed, 13, position))
        for position, subject in enumerate(sorted(specs))
    }
    # The byte-identity reference: a cold single-process registry fitted
    # directly on the NEW specs — what the upgraded fleet must match.
    new_reference_answers = _serial_answers(registry_from_specs(new_specs),
                                            probes)

    service_options = dict(shards=int(shards),
                           use_processes=bool(use_processes),
                           batch_window=float(batch_window))
    result: dict = {
        "system": system,
        "n_subjects": int(n_subjects),
        "shards": int(shards),
        "n_probe_queries": len(probes),
    }
    with (tempfile.TemporaryDirectory(prefix="rolling-refresh-") as scratch,
          ShardedQueryService(specs, store_path=store_root or scratch,
                              **service_options) as service):
        observe_all(service, streams)
        rejected_before = service.stats.rejected
        _, baseline_records = probe_while(
            service, probe_map, lambda: time.sleep(float(baseline_window)),
            timeout=drain_timeout, poll_interval=poll_interval)
        baseline_rejected = service.stats.rejected - rejected_before

        rejected_before = service.stats.rejected
        started = time.perf_counter()
        windows, records = refresh_under_traffic(
            service, new_specs, probe_map,
            drain_timeout=float(drain_timeout),
            poll_interval=float(poll_interval))
        refresh_seconds = time.perf_counter() - started
        refresh_rejected = service.stats.rejected - rejected_before

        answers = service.submit_many(probes, timeout=600.0)
        identical = canonical_answers(answers) == new_reference_answers
        overlap = _max_window_overlap(windows)
        ok_probes = sum(1 for r in records if r["ok"])
        result.update({
            "refresh_seconds": refresh_seconds,
            "refresh_windows": len(windows),
            "probes_during_refresh": len(records),
            "probe_errors": len(records) - ok_probes,
            "refresh_availability": (ok_probes / len(records)
                                     if records else 1.0),
            "max_concurrent_refreshing": overlap,
            "refresh_capacity_fraction": (
                1.0 if int(shards) == 1 or overlap <= 1
                else (int(shards) - overlap)
                / max(int(shards) - 1, 1)),
            "refresh_rejected": refresh_rejected,
            "baseline_probes": len(baseline_records),
            "baseline_probe_errors": sum(
                1 for r in baseline_records if not r["ok"]),
            "baseline_rejected": baseline_rejected,
            "extra_rejections": refresh_rejected - baseline_rejected,
            "identical": identical,
            "rolling_refreshes": service.stats.rolling_refreshes,
        })

    if check_rollback:
        # A separate fleet, a poisoned sweep: the subject on the
        # highest-indexed populated shard fails, so every shard that
        # upgraded before it must be downgraded back.
        with (tempfile.TemporaryDirectory(prefix="rolling-rollback-")
              as rollback_dir,
              ShardedQueryService(specs, store_path=rollback_dir,
                                  **service_options) as victim):
            observe_all(victim, streams)
            before = canonical_answers(
                victim.submit_many(probes, timeout=600.0))
            poison = max(sorted(specs),
                         key=lambda s: shard_of(s, int(shards)))
            bad_specs = dict(new_specs)
            bad_specs[poison] = {"system": "no-such-system",
                                 "n_samples": int(new_n_samples)}
            failed = False
            try:
                victim.rolling_refresh(bad_specs,
                                       drain_timeout=float(drain_timeout))
            except RollingRefreshError:
                failed = True
            after = canonical_answers(
                victim.submit_many(probes, timeout=600.0))
            result.update({
                "rollback_refresh_failed": failed,
                "rollback_identical": failed and after == before,
                "refresh_rollbacks": victim.stats.refresh_rollbacks,
            })
    return result
