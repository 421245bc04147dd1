"""Tests of the zero-downtime rolling refresh of the sharded fleet.

Covers the ISSUE 8 tentpole contracts:

* **byte-identity of upgrades** — after
  :meth:`~repro.service.sharding.ShardedQueryService.rolling_refresh`
  the fleet answers exactly like a cold fleet fitted directly on the new
  specs (an upgrade is indistinguishable from a fresh deployment), and
  the per-shard refresh windows never overlap (capacity stays at N-1);
* **fault injection** — a worker crash mid-drain is absorbed by the
  liveness monitor (the re-sent barrier op lets the refresh finish), a
  new generation that fails to fit triggers per-shard
  :class:`~repro.service.store.ModelStore` rollback and downgrades every
  previously upgraded shard back byte-identically, and observes racing
  the refresh are acknowledged rather than lost;
* **argument validation** — no store, wrong subject set, failed shard.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.service import (
    EffectRequest,
    RollingRefreshError,
    ShardedQueryService,
    canonical_answers,
    mixed_workload,
    registry_from_specs,
    shard_of,
)
from repro.service.batcher import RequestBatcher
from repro.service.workload import refresh_under_traffic
from repro.systems.cache_example import make_cache_example

SPECS = {f"cache-{i}": {"system": "cache_example", "n_samples": 30,
                        "max_condition_size": 2, "seed": i}
         for i in range(3)}
NEW_SPECS = {subject: dict(spec, n_samples=40)
             for subject, spec in SPECS.items()}
SHARDS = 2


@pytest.fixture(scope="module")
def workload():
    """Probe requests per subject plus a priming observation batch."""
    system = make_cache_example()
    reference = registry_from_specs(SPECS)
    probes = []
    for position, subject in enumerate(sorted(SPECS)):
        probes.extend(mixed_workload(
            subject, reference.get(subject).engine, system.objectives,
            4, seed=17 + position, max_repairs=12))
    rng = np.random.default_rng(5)
    observations = system.measure_many(
        system.space.sample_configurations(5, rng), rng=rng)
    return probes, observations


def _service(tmp_path, specs=SPECS, **overrides):
    options = dict(shards=SHARDS, use_processes=False,
                   store_path=str(tmp_path / "store"))
    options.update(overrides)
    return ShardedQueryService(specs, **options)


def _answers(service, probes):
    return canonical_answers(service.submit_many(probes, timeout=120))


def _cold_answers(specs, probes):
    registry = registry_from_specs(specs)
    out = []
    for subject in sorted(specs):
        out.extend(RequestBatcher().serial_dispatch(
            registry.get(subject),
            [p for p in probes if p.subject == subject]))
    return canonical_answers(out)


# ---------------------------------------------------------------- happy path
def test_rolling_refresh_matches_cold_fleet_and_keeps_capacity(
        tmp_path, workload):
    probes, observations = workload
    with _service(tmp_path) as service:
        for subject in sorted(SPECS):
            service.observe(subject, observations)
        windows = service.rolling_refresh(NEW_SPECS)
        # One window per populated shard, visited in index order, never
        # overlapping: at most one shard is out at any instant.
        assert [w["shard"] for w in windows] == \
            sorted({shard_of(s, SHARDS) for s in SPECS})
        for earlier, later in zip(windows, windows[1:]):
            assert earlier["finished"] <= later["started"]
        assert sorted(s for w in windows for s in w["subjects"]) == \
            sorted(SPECS)
        # The upgraded fleet answers exactly like a cold fleet fitted
        # directly on the new specs — and keeps serving observes.
        assert _answers(service, probes) == _cold_answers(NEW_SPECS, probes)
        assert service.stats.rolling_refreshes == 1
        assert service.stats.refresh_rollbacks == 0
        for subject in sorted(SPECS):
            assert service.observe(subject, observations) >= 0


def test_refresh_under_live_traffic_loses_no_answers(tmp_path, workload):
    probes, observations = workload
    probe_map = {subject: next(p for p in probes if p.subject == subject)
                 for subject in sorted(SPECS)}
    with _service(tmp_path) as service:
        for subject in sorted(SPECS):
            service.observe(subject, observations)
        rejected_before = service.stats.rejected
        windows, records = refresh_under_traffic(service, NEW_SPECS,
                                                 probe_map,
                                                 drain_timeout=60.0)
        assert len(windows) == SHARDS
        assert records, "probers never got a single answer in"
        # Zero downtime: every probe answered, none errored, and the
        # refresh admitted everything (no extra AdmissionErrors).
        assert all(r["ok"] for r in records), \
            [r for r in records if not r["ok"]][:3]
        assert service.stats.rejected == rejected_before
        assert _answers(service, probes) == _cold_answers(NEW_SPECS, probes)


def test_observes_racing_the_refresh_are_acknowledged(tmp_path, workload):
    probes, observations = workload
    acks: list = []
    failures: list = []
    stop = threading.Event()

    with _service(tmp_path) as service:
        def observer():
            while not stop.is_set():
                try:
                    for subject in sorted(SPECS):
                        acks.append(service.observe(subject, observations,
                                                    block=False))
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)
                    return
                stop.wait(0.002)

        thread = threading.Thread(target=observer)
        thread.start()
        try:
            service.rolling_refresh(NEW_SPECS)
        finally:
            stop.set()
            thread.join()
        service.quiesce()
        assert not failures
        # Every racing observe resolved: folded into whichever generation
        # was current when it reached the worker, never dropped or hung.
        assert acks and all(ack.result(timeout=60) >= 0 for ack in acks)
        assert service.stats.rolling_refreshes == 1


# ------------------------------------------------------------ fault injection
def test_worker_crash_mid_drain_still_completes_the_refresh(
        tmp_path, workload):
    probes, observations = workload
    with _service(tmp_path) as service:
        for subject in sorted(SPECS):
            service.observe(subject, observations)
        # The crash rides shard 0's FIFO outbox ahead of the refresh's
        # pause barrier, so the worker dies exactly while the refresh is
        # draining it.  The liveness monitor respawns it (journal replay
        # + re-sent barrier op) and the refresh completes normally.
        service._inject_crash(0)
        service.rolling_refresh(NEW_SPECS)
        assert service.stats.respawns >= 1
        assert service.stats.rolling_refreshes == 1
        assert _answers(service, probes) == _cold_answers(NEW_SPECS, probes)


def test_failed_fit_rolls_back_every_upgraded_shard(tmp_path, workload):
    probes, observations = workload
    # Poison a subject on the highest-indexed shard, so at least one
    # earlier shard upgrades first and must be downgraded again.
    poison = max(sorted(SPECS), key=lambda s: shard_of(s, SHARDS))
    bad_specs = dict(NEW_SPECS)
    bad_specs[poison] = {"system": "no-such-system", "n_samples": 40}
    with _service(tmp_path) as service:
        for subject in sorted(SPECS):
            service.observe(subject, observations)
        before = _answers(service, probes)
        with pytest.raises(RollingRefreshError):
            service.rolling_refresh(bad_specs)
        # The fleet serves the old generation byte-identically — the
        # upgraded shards' store publishes were rolled back and their
        # workers restored from the flushed pre-upgrade snapshots.
        assert _answers(service, probes) == before
        assert service.stats.rolling_refreshes == 0
        assert service.stats.refresh_rollbacks >= 1
        assert not any(shard.failed for shard in service._shards)
        # The failure left nothing wedged: a corrected sweep succeeds.
        service.rolling_refresh(NEW_SPECS)
        assert _answers(service, probes) == _cold_answers(NEW_SPECS, probes)
        assert service.stats.rolling_refreshes == 1


# ------------------------------------------------------------------ arguments
def test_rolling_refresh_argument_validation(tmp_path):
    request = EffectRequest.of("cache-0", "Throughput", {"CachePolicy": 0.0})
    with ShardedQueryService(SPECS, shards=SHARDS,
                             use_processes=False) as storeless:
        with pytest.raises(ValueError, match="store"):
            storeless.rolling_refresh(NEW_SPECS)
        assert storeless.submit(request, timeout=60).ok
    with _service(tmp_path) as service:
        missing = {s: spec for s, spec in NEW_SPECS.items()
                   if s != "cache-0"}
        with pytest.raises(ValueError, match="cover exactly"):
            service.rolling_refresh(missing)
        with pytest.raises(ValueError, match="cover exactly"):
            service.rolling_refresh(dict(NEW_SPECS, extra={"system": "x"}))
        # A permanently failed shard cannot be drained for a refresh.
        shard = service._shards[0]
        subject = next(iter(shard.subjects))
        shard.subjects[subject] = {"system": "no-such-system"}
        service._inject_crash(0)
        import time
        deadline = time.monotonic() + 60
        while not shard.failed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert shard.failed
        with pytest.raises(RollingRefreshError, match="failed permanently"):
            service.rolling_refresh(NEW_SPECS)


# ------------------------------------------------------------ campaign runner
def test_rolling_refresh_runner_smoke():
    from repro.evaluation import CampaignCell, run_campaign

    cell = CampaignCell("rolling_refresh", {
        "system": "cache_example", "n_subjects": 3, "shards": 2,
        "observation_rounds": 1, "observations_per_round": 4,
        "n_samples": 30, "new_n_samples": 40, "probe_queries": 6,
        "baseline_window": 0.05, "use_processes": False,
        "check_rollback": True})
    [result] = run_campaign([cell], root_seed=3).results()
    assert result["refresh_availability"] == 1.0
    assert result["refresh_capacity_fraction"] == 1.0
    assert result["extra_rejections"] <= 0
    assert result["identical"] is True
    assert result["rolling_refreshes"] == 1
    assert result["rollback_refresh_failed"] is True
    assert result["rollback_identical"] is True
    assert result["refresh_rollbacks"] >= 1
