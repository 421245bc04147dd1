"""Deterministic mixed query workloads for serving tests and benchmarks.

A realistic serving mix is mostly cheap interventional/prediction queries
with a long tail of heavier satisfaction and repair scans, and it contains
*hot* queries — many clients asking the same thing at once.
:func:`mixed_workload` reproduces that shape deterministically from a seed,
so the concurrency tests, the throughput benchmark, the campaign cell and
the example all fire the same kind of traffic.

For the sharded tier two long-horizon generators join it:
:func:`drifting_measurement_stream` produces per-round observation batches
whose objective distribution undergoes persistent regime shifts at chosen
rounds (the signal a drift detector must catch — and must *not* fire on
during the stationary rounds), and :func:`long_horizon_workload` weaves
multi-subject query rounds and observation rounds into one serving
history.  All seeds derive from :class:`numpy.random.SeedSequence` spawn
trees keyed by round and subject position — the PR 2 discipline — so the
same arguments always produce the byte-identical workload, no matter
which process consumes it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.canonical import canonical_json
from repro.inference.engine import CausalInferenceEngine
from repro.inference.queries import QoSConstraint
from repro.service.requests import (
    AceRequest,
    EffectRequest,
    PredictRequest,
    QueryRequest,
    RepairRequest,
    SatisfactionRequest,
)
from repro.systems.base import Measurement


def mixed_workload(subject: str, engine: CausalInferenceEngine,
                   directions: Mapping[str, str], n_requests: int,
                   seed: int = 0, satisfaction_pool: int = 4,
                   repair_pool: int = 3,
                   max_repairs: int = 48) -> list[QueryRequest]:
    """Generate a deterministic mixed workload against one subject.

    The mix is roughly 30% interventional-effect queries, 30% predictions,
    10% ACE queries, 18% satisfaction probabilities drawn from a small pool
    of hot queries and 12% repair scans drawn from a pool of hot faults —
    the duplicates are deliberate, they model many clients asking the same
    question (the same fault, the same QoS check) and give the batcher's
    deduplication something to do.

    Parameters
    ----------
    subject:
        Registry subject name stamped on every request.
    engine:
        The fitted engine the workload will run against (provides option
        domains, constraints and observed data for plausible payloads).
    directions:
        Objective → ``"minimize"``/``"maximize"`` mapping (usually
        ``system.objectives``).
    n_requests:
        Number of requests to generate.
    seed:
        Seed of the workload's private random generator; equal seeds give
        byte-equal workloads.
    satisfaction_pool, repair_pool:
        Sizes of the hot-query pools.
    max_repairs:
        Candidate-grid cap carried by the repair requests.

    Returns
    -------
    list of QueryRequest
        ``n_requests`` requests in generation order.
    """
    rng = np.random.default_rng(seed)
    domains = engine.domains
    constraints = engine.constraints
    options = [o for o in constraints.options()
               if o in domains and len(domains[o]) >= 2
               and constraints.is_intervenable(o)]
    objectives = [o for o in directions if o in engine.learned_model.data.columns]
    if not options or not objectives:
        raise ValueError("workload needs at least one intervenable option "
                         "with a domain and one observed objective")
    data = engine.learned_model.data
    medians = {o: float(np.median(data.column(o))) for o in objectives}

    def random_intervention() -> dict[str, float]:
        option = options[int(rng.integers(len(options)))]
        value = domains[option][int(rng.integers(len(domains[option])))]
        return {option: float(value)}

    def random_configuration() -> dict[str, float]:
        return {option: float(domains[option][
                    int(rng.integers(len(domains[option])))])
                for option in options}

    hot_satisfaction: list[SatisfactionRequest] = []
    for _ in range(max(satisfaction_pool, 1)):
        objective = objectives[int(rng.integers(len(objectives)))]
        constraint = QoSConstraint(objective, directions[objective],
                                   threshold=medians[objective])
        hot_satisfaction.append(SatisfactionRequest.of(
            subject, constraint, random_intervention()))

    hot_repairs: list[RepairRequest] = []
    for _ in range(max(repair_pool, 1)):
        objective = objectives[int(rng.integers(len(objectives)))]
        degrade = 1.3 if directions[objective] == "minimize" else 0.7
        hot_repairs.append(RepairRequest.of(
            subject, {objective: directions[objective]},
            faulty_configuration=random_configuration(),
            faulty_measurement={objective: medians[objective] * degrade},
            max_repairs=max_repairs))

    predict_objectives = tuple(sorted(objectives))
    requests: list[QueryRequest] = []
    for _ in range(n_requests):
        roll = float(rng.random())
        if roll < 0.30:
            objective = objectives[int(rng.integers(len(objectives)))]
            requests.append(EffectRequest.of(subject, objective,
                                             random_intervention()))
        elif roll < 0.60:
            requests.append(PredictRequest.of(subject,
                                              random_configuration(),
                                              predict_objectives))
        elif roll < 0.70:
            option = options[int(rng.integers(len(options)))]
            objective = objectives[int(rng.integers(len(objectives)))]
            requests.append(AceRequest(subject=subject, option=option,
                                       objective=objective))
        elif roll < 0.88:
            requests.append(hot_satisfaction[
                int(rng.integers(len(hot_satisfaction)))])
        else:
            requests.append(hot_repairs[int(rng.integers(len(hot_repairs)))])
    return requests


def _derived_seed(root_seed: int, *spawn_key: int) -> int:
    """One integer seed from a SeedSequence spawn tree position."""
    sequence = np.random.SeedSequence(root_seed, spawn_key=spawn_key)
    return int(sequence.generate_state(1, np.uint64)[0])


def wire_workload(subject: str, engine: CausalInferenceEngine,
                  directions: Mapping[str, str], n_clients: int,
                  per_client: int, seed: int = 0,
                  max_repairs: int = 48) -> list[list[QueryRequest]]:
    """Per-client request streams for wire soaks and their direct baseline.

    The gateway soak benchmark needs N concurrent clients each firing its
    own request stream, and the direct in-process baseline must consume
    the *identical* requests to make the byte-identity gate meaningful.
    This generator produces one stream per client, each from its own
    :class:`numpy.random.SeedSequence` spawn-tree position
    ``(client_index,)`` under ``seed`` — no generator is shared between
    client threads, so neither thread scheduling nor consumption order
    can perturb the streams, and calling it twice with equal arguments
    yields byte-equal workloads for the soak and the baseline.

    Parameters
    ----------
    subject, engine, directions, max_repairs:
        Forwarded to :func:`mixed_workload` per client.
    n_clients:
        Number of independent client streams.
    per_client:
        Requests in each stream.
    seed:
        Root of the spawn tree; equal seeds give byte-equal stream sets.

    Returns
    -------
    list of list of QueryRequest
        ``n_clients`` streams of ``per_client`` requests each; the
        direct-call baseline is the concatenation in client order.
    """
    return [mixed_workload(subject, engine, directions, per_client,
                           seed=_derived_seed(seed, client),
                           max_repairs=max_repairs)
            for client in range(n_clients)]


def drifting_measurement_stream(system, n_rounds: int, per_round: int,
                                seed: int = 0,
                                drift_rounds: Sequence[int] = (),
                                drift_scale: float = 1.5
                                ) -> list[list[Measurement]]:
    """Per-round observation batches with persistent regime shifts.

    Each round measures ``per_round`` freshly sampled configurations with
    a round-keyed rng from the seed tree.  From every round listed in
    ``drift_rounds`` onward, the measured objective values are scaled by
    ``drift_scale`` (shifts compound if several drift rounds fire) — a
    synthetic but persistent regime change, the kind of shift a resident
    model cannot explain away and must refresh for.  Rounds before the
    first drift round are stationary: same configuration distribution,
    same measurement process, nothing for a drift detector to act on.

    Parameters
    ----------
    system:
        The :class:`~repro.systems.base.ConfigurableSystem` to measure.
    n_rounds, per_round:
        Stream shape: ``n_rounds`` batches of ``per_round`` measurements.
    seed:
        Root of the stream's seed tree; equal seeds give byte-equal
        streams.
    drift_rounds:
        Round indices at which the regime shifts (empty = stationary).
    drift_scale:
        Multiplicative objective shift applied from a drift round onward.

    Returns
    -------
    list of list of Measurement
        ``n_rounds`` observation batches, in round order.
    """
    drift_at = set(int(r) for r in drift_rounds)
    scale = 1.0
    batches: list[list[Measurement]] = []
    for round_index in range(int(n_rounds)):
        rng = np.random.default_rng(_derived_seed(seed, round_index))
        configurations = system.space.sample_configurations(
            int(per_round), rng)
        measured = system.measure_many(configurations, rng=rng)
        if round_index in drift_at:
            scale *= float(drift_scale)
        if scale != 1.0:
            measured = [Measurement(
                configuration=m.configuration, events=m.events,
                objectives={k: v * scale for k, v in m.objectives.items()},
                environment=m.environment, replicates=m.replicates,
                measurement_seconds=m.measurement_seconds)
                for m in measured]
        batches.append(measured)
    return batches


def long_horizon_workload(engines: Mapping[str, CausalInferenceEngine],
                          systems: Mapping[str, object], n_rounds: int,
                          queries_per_round: int,
                          observations_per_round: int, seed: int = 0,
                          drift_rounds: Sequence[int] = (),
                          drift_scale: float = 1.5,
                          observation_batches_per_round: int = 1,
                          max_repairs: int = 32) -> list[dict]:
    """A multi-subject serving history: query rounds + observation rounds.

    Each round carries (a) a mixed query batch spread round-robin across
    the subjects (so every shard of a sharded deployment sees balanced
    traffic) and (b) per subject, ``observation_batches_per_round``
    observation batches from that subject's
    :func:`drifting_measurement_stream` — streams arrive in small
    batches, and an eagerly refreshing tier pays one relearn per batch.
    A serving tier processes round *k* by answering the queries,
    streaming the observation batches through ``observe``, and quiescing
    before round *k+1* — see :func:`serve_rounds`.

    Parameters
    ----------
    engines:
        ``subject -> fitted engine`` (payload vocabulary for the query
        generator).
    systems:
        ``subject -> ConfigurableSystem`` (objective directions and the
        measurement process).
    n_rounds, queries_per_round, observations_per_round:
        History shape; ``queries_per_round`` splits evenly across
        subjects and ``observations_per_round`` evenly across the
        round's observation batches.
    seed, drift_rounds, drift_scale:
        Seed tree root and regime-shift schedule, forwarded per subject
        (``drift_rounds`` are round indices; the shift lands on the
        round's first observation batch).
    observation_batches_per_round:
        How many separate ``observe`` calls deliver a round's
        observations.
    max_repairs:
        Candidate-grid cap carried by generated repair queries.

    Returns
    -------
    list of dict
        One ``{"queries": [...], "observations": {subject: [batch,
        ...]}}`` per round.
    """
    subjects = sorted(engines)
    if not subjects:
        raise ValueError("long-horizon workload needs at least one subject")
    # Exactly queries_per_round queries per round (so any client count
    # dividing it splits evenly): distribute the remainder one-by-one
    # over the leading subjects.
    base, remainder = divmod(int(queries_per_round), len(subjects))
    counts = [base + (1 if position < remainder else 0)
              for position in range(len(subjects))]
    batches_per_round = max(int(observation_batches_per_round), 1)
    per_batch = max(int(observations_per_round) // batches_per_round, 1)
    streams = {
        subject: drifting_measurement_stream(
            systems[subject], int(n_rounds) * batches_per_round, per_batch,
            seed=_derived_seed(seed, 1, position),
            drift_rounds=[int(r) * batches_per_round
                          for r in drift_rounds],
            drift_scale=drift_scale)
        for position, subject in enumerate(subjects)
    }
    rounds: list[dict] = []
    for round_index in range(int(n_rounds)):
        per_subject_queries = [
            mixed_workload(subject, engines[subject],
                           systems[subject].objectives, counts[position],
                           seed=_derived_seed(seed, 2, round_index,
                                              position),
                           max_repairs=max_repairs)
            for position, subject in enumerate(subjects)
        ]
        # Round-robin interleave so contiguous client slices mix subjects.
        queries = [queue[i] for i in range(max(counts))
                   for queue in per_subject_queries if i < len(queue)]
        lo = round_index * batches_per_round
        rounds.append({
            "queries": queries,
            "observations": {
                subject: streams[subject][lo:lo + batches_per_round]
                for subject in subjects},
        })
    return rounds


def observe_all(service, observations: Mapping[str, Sequence],
                timeout: float = 600.0) -> None:
    """Stream observation batches into a serving tier and wait them out.

    Every batch of ``observations`` (``subject -> [batch, ...]``) goes
    through ``service.observe`` pipelined — no per-batch acknowledgement
    wait — then ``service.quiesce()`` both confirms their delivery and
    lands any refresh they triggered.  The acknowledgements are collected
    last, so an observe failure surfaces here rather than as a silent
    identity mismatch later.

    Parameters
    ----------
    service:
        Any serving tier with ``observe(subject, batch, block=False)``
        and ``quiesce()``.
    observations:
        ``subject -> list of measurement batches``; each subject's
        batches are observed in order.
    timeout:
        Seconds to wait for each acknowledgement after the barrier.
    """
    acks = [service.observe(subject, batch, block=False)
            for subject, batches in observations.items()
            for batch in batches]
    service.quiesce()
    for ack in acks:
        ack.result(timeout=timeout)


def serve_rounds(service, rounds: Sequence[Mapping], n_clients: int
                 ) -> tuple[list, float]:
    """Drive a long-horizon workload through a serving tier, timed.

    For every round: answer the query batch with ``n_clients``
    barrier-started concurrent clients (:func:`serve_concurrently`), then
    stream each subject's observation batches in and quiesce
    (:func:`observe_all`) so any triggered model refresh lands before the
    next round — the deterministic phase alignment that lets two
    services' serving histories be compared byte for byte.  Works with
    both :class:`~repro.service.service.QueryService` and
    :class:`~repro.service.sharding.ShardedQueryService` (any object with
    ``submit_many``, ``observe`` and ``quiesce``).

    Returns
    -------
    tuple
        ``(responses, seconds)``: all query responses in workload order,
        and the wall-clock seconds over the whole horizon (queries,
        observation streaming and refreshes included).
    """
    responses: list = []
    started = time.perf_counter()
    for round_spec in rounds:
        answered, _, _ = serve_concurrently(service, round_spec["queries"],
                                            n_clients)
        responses.extend(answered)
        observe_all(service, round_spec["observations"], timeout=60)
    return responses, time.perf_counter() - started


def probe_while(service, probes: Mapping[str, QueryRequest],
                action: Callable[[], object],
                timeout: float | None = 120.0,
                poll_interval: float = 0.0) -> tuple[object, list[dict]]:
    """Run ``action()`` while one probe client per subject keeps asking.

    One prober thread per entry of ``probes`` submits its request in a
    tight loop, every answer recorded with monotonic start/finish stamps;
    all probers start together behind a barrier, then the calling thread
    runs ``action`` and stops the probers when it returns.  The probe
    records and anything ``action`` timestamps share one clock.

    Parameters
    ----------
    service:
        A started serving tier (anything with ``submit``).
    probes:
        ``subject -> request`` probe traffic; one client thread each.
    action:
        Called once in the calling thread while the probers run.
    timeout:
        Each probe's ``submit`` timeout.
    poll_interval:
        Optional sleep between a probe's answer and its next submission
        (0 = back-to-back).

    Returns
    -------
    tuple
        ``(outcome, records)``: what ``action`` returned and one
        ``{"subject", "started", "finished", "ok", "error"}`` dict per
        answered probe.  An exception from ``action`` propagates *after*
        the probers have been joined.
    """
    records: list[dict] = []
    lock = threading.Lock()
    stop = threading.Event()
    barrier = threading.Barrier(len(probes) + 1)

    def prober(subject: str, request: QueryRequest) -> None:
        barrier.wait()
        while not stop.is_set():
            entry = {"subject": subject, "started": time.monotonic()}
            try:
                response = service.submit(request, timeout=timeout)
                entry["ok"] = bool(response.ok)
                entry["error"] = response.error
            except BaseException as exc:  # noqa: BLE001 - recorded verdict
                entry["ok"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["finished"] = time.monotonic()
            with lock:
                records.append(entry)
            if poll_interval:
                time.sleep(poll_interval)

    threads = [threading.Thread(target=prober, args=(subject, request),
                                name=f"probe-{subject}")
               for subject, request in sorted(probes.items())]
    for thread in threads:
        thread.start()
    barrier.wait()
    try:
        outcome = action()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    return outcome, records


def refresh_under_traffic(service, new_specs: Mapping[str, Mapping],
                          probes: Mapping[str, QueryRequest],
                          drain_timeout: float | None = 120.0,
                          poll_interval: float = 0.0
                          ) -> tuple[list[dict], list[dict]]:
    """Roll a sharded fleet onto new specs while probe clients keep asking.

    :func:`probe_while` keeps one prober per entry of ``probes`` busy
    while the calling thread runs
    :meth:`~repro.service.sharding.ShardedQueryService.rolling_refresh`.
    The two timelines share one clock, so correlating the probe records
    against the returned per-shard refresh windows answers the
    availability questions the rolling-refresh gate asks: did any probe
    error or get rejected, and was at most one shard's window open at a
    time (capacity never below N-1)?

    Parameters
    ----------
    service:
        A started :class:`~repro.service.sharding.ShardedQueryService`
        with a ``store_path`` (rolling refresh requires one).
    new_specs:
        Forwarded to ``rolling_refresh`` — one spec per routed subject.
    probes:
        ``subject -> request`` probe traffic; one client thread each.
    drain_timeout:
        Forwarded to ``rolling_refresh`` and used as each probe's
        ``submit`` timeout.
    poll_interval:
        Optional sleep between a probe's answer and its next submission
        (0 = back-to-back).

    Returns
    -------
    tuple
        ``(windows, records)``: the refresh windows from
        ``rolling_refresh`` and the probe records of
        :func:`probe_while`.  A refresh failure propagates *after* the
        probers have been joined.
    """
    return probe_while(
        service, probes,
        lambda: service.rolling_refresh(new_specs,
                                        drain_timeout=drain_timeout),
        timeout=drain_timeout, poll_interval=poll_interval)


def canonical_answers(responses: Sequence) -> list[str]:
    """Canonical JSON rendering of each response's answer.

    The one comparison the byte-identity contract is checked with —
    shared by the determinism tests, the throughput benchmark, the
    service campaign cell and the example, so the three call sites
    cannot drift apart.
    """
    return [canonical_json(response.canonical_value())
            for response in responses]


def serve_concurrently(service, requests: Sequence[QueryRequest],
                       n_clients: int) -> tuple[list, float, object]:
    """Fan a workload out to concurrent clients and time the serving window.

    Splits ``requests`` into ``n_clients`` equal contiguous slices; each
    client thread submits its slice as one ``submit_many`` batch and
    blocks for the answers.  All clients start together behind a barrier,
    so the measured wall clock covers serving work only, not thread
    startup.  This is the one client pattern shared by the throughput
    benchmark, the service campaign cell and the example walkthrough.

    Parameters
    ----------
    service:
        A started :class:`~repro.service.service.QueryService`.
    requests:
        The workload; its length must be divisible by ``n_clients``.
    n_clients:
        Number of concurrent client threads.

    Returns
    -------
    tuple
        ``(responses, seconds, stats)``: the responses aligned with
        ``requests``, the serving wall-clock seconds, and a snapshot of
        ``service.stats``.
    """
    requests = list(requests)
    if n_clients < 1 or len(requests) % n_clients:
        raise ValueError(f"cannot split {len(requests)} requests evenly "
                         f"across {n_clients} clients")
    per_client = len(requests) // n_clients
    responses: list = [None] * len(requests)
    failures: list[BaseException] = []
    barrier = threading.Barrier(n_clients + 1)

    def client(worker: int) -> None:
        barrier.wait()
        lo = worker * per_client
        try:
            answers = service.submit_many(requests[lo:lo + per_client])
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            failures.append(exc)
            return
        responses[lo:lo + per_client] = answers

    threads = [threading.Thread(target=client, args=(worker,))
               for worker in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    # A swallowed client error (e.g. AdmissionError from an oversized
    # workload) would otherwise surface later as inexplicable None holes
    # in the responses; re-raise it here instead.
    if failures:
        raise failures[0]
    return responses, seconds, service.stats


def latency_percentiles(responses: Sequence, percentiles=(50, 95, 99)
                        ) -> dict[str, float]:
    """Latency percentiles (milliseconds) of a batch of responses.

    Parameters
    ----------
    responses:
        :class:`~repro.service.requests.QueryResponse` objects.
    percentiles:
        Percentile ranks to report.

    Returns
    -------
    dict
        ``{"p50_ms": ..., "p95_ms": ..., ...}`` (empty input gives zeros).
    """
    latencies = np.array([r.latency_seconds for r in responses], dtype=float)
    if latencies.size == 0:
        return {f"p{p}_ms": 0.0 for p in percentiles}
    return {f"p{p}_ms": float(np.percentile(latencies, p) * 1000.0)
            for p in percentiles}
