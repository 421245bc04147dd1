"""The model registry: per-subject fitted models behind the query service.

A production deployment serves queries for many *subjects* — systems (or
system × environment combinations) each with their own fitted causal
performance model.  :class:`ModelRegistry` keeps those models:

* **LRU-bounded** — at most ``capacity`` fitted models stay resident; the
  least-recently-used entry is evicted when a new subject is fitted (an
  eviction drops the model, not the subject: a later query re-fits it).
* **Content-hash keyed** — a subject fitted from a spec is keyed by the
  SHA-256 hash of the spec's canonical JSON (the same
  :func:`~repro.evaluation.store.content_hash` the campaign artifact store
  uses), so equal specs resolve to the same entry and never fit twice.
* **Incrementally refreshed** — :meth:`ModelRegistry.observe` appends new
  measurements and routes through :meth:`repro.core.unicorn.Unicorn.learn`,
  whose incremental path (PR 1) updates the learner's structure in place
  and refreshes the existing engine instead of rebuilding it; every refresh
  bumps the entry's ``version`` so in-flight batches never mix model states.
* **Drift-aware** — with a ``drift_threshold`` set, :meth:`observe` no
  longer relearns on every batch: observations buffer per entry while a
  :class:`~repro.service.drift.DriftDetector` watches the prediction
  residuals of the stream, and the (incremental) relearn runs only when
  the stream has actually shifted — optionally on a background thread
  (``refresh_async=True``) so the observing caller never waits out a
  relearn.  Refresh decisions are a deterministic function of the
  observation stream, which is what lets sharded replicas stay
  byte-identical.

Entries carry a reentrant lock; the query service serializes engine calls
and refreshes per entry through it (the engine's internal caches are not
thread-safe), while distinct subjects proceed independently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping, Sequence

from repro.core.unicorn import LoopState, Unicorn, UnicornConfig
from repro.discovery.pipeline import LearnedModel
from repro.inference.engine import CausalInferenceEngine
from repro.scm.fitting import FittedPerformanceModel
from repro.service.drift import DriftDetector
from repro.service.result_cache import ResultCache
from repro.service.store import (
    ModelStore,
    canonical_spec,
    measurements_from_document,
    snapshot_document,
    spec_key,
    subject_key,
)
from repro.systems.base import Measurement
from repro.systems.registry import get_system


def unicorn_from_spec(spec: Mapping[str, object],
                      use_batched: bool = True) -> Unicorn:
    """Build the :class:`Unicorn` loop a subject *spec* describes.

    The one spec-to-model recipe shared by :meth:`ModelRegistry.get_or_fit`,
    :meth:`ModelRegistry.register_spec` and the sharded tier's worker
    processes — equal specs always produce equal (seeded) models, no matter
    which process fits them.

    Parameters
    ----------
    spec:
        JSON-serializable subject description; see
        :meth:`ModelRegistry.get_or_fit` for the recognised keys.
    use_batched:
        Whether the fitted engine routes queries through the batched
        evaluator (``False`` pins the scalar reference oracle).

    Raises
    ------
    KeyError
        If ``spec`` lacks ``"system"`` or names an unknown system.
    """
    spec = dict(spec)
    if "system" not in spec:
        raise KeyError("subject spec needs a 'system' name")
    system = get_system(str(spec["system"]), hardware=spec.get("hardware"))
    n_samples = int(spec.get("n_samples", 60))
    config = UnicornConfig(
        initial_samples=n_samples, budget=n_samples,
        seed=int(spec.get("seed", 0)),
        max_condition_size=int(spec.get("max_condition_size", 1)),
        relevant_options=spec.get("relevant_options"),
        batched_queries=use_batched)
    return Unicorn(system, config)


class UnknownSubjectError(KeyError):
    """Raised when a request names a subject the registry does not hold."""


class ModelEntry:
    """One resident fitted model: the engine plus its maintenance handles.

    Parameters
    ----------
    key:
        Registry key (subject name or spec content hash).
    unicorn:
        The :class:`Unicorn` loop that owns the model; ``None`` for adopted
        engines that cannot be refreshed.
    state:
        The loop state holding measurements, learned model and engine.
    engine:
        The query engine; defaults to ``state.engine``.
    """

    def __init__(self, key: str, unicorn: Unicorn | None,
                 state: LoopState | None,
                 engine: CausalInferenceEngine | None = None) -> None:
        self.key = key
        self.unicorn = unicorn
        self.state = state
        self._engine = engine
        self._version = 0
        #: serializes engine queries and refreshes for this entry.
        self.lock = threading.RLock()
        self.hits = 0
        #: observations buffered since the last refresh (drift-aware mode).
        self.pending: list[Measurement] = []
        #: lazily created residual-drift detector (drift-aware mode only).
        self.drift: DriftDetector | None = None
        #: completion event of the most recently triggered asynchronous
        #: refresh; the next observe waits on it, which pins the refresh
        #: deterministically between two observation batches.
        self.refresh_event: threading.Event | None = None
        #: serializes whole observe calls (wait-for-refresh handshake +
        #: scoring + trigger) so concurrent observers of one subject see
        #: a well-ordered stream; never held by the refresh thread, so
        #: waiting on ``refresh_event`` under it cannot deadlock.
        self.observe_lock = threading.Lock()
        #: cross-request answer memo, installed by the owning registry
        #: (``None`` when result caching is disabled).
        self.result_cache: ResultCache | None = None
        #: canonical spec the entry was fitted from, and the store key its
        #: snapshots publish under; ``None`` for entries that are not
        #: store-backed (explicit :meth:`ModelRegistry.register` /
        #: :meth:`ModelRegistry.adopt`, or no store configured).
        self.spec: dict | None = None
        self.store_key: str | None = None
        #: highest journal op id whose measurements this entry has absorbed
        #: (folded into the model or buffered in ``pending``); replayed ops
        #: at or below it are skipped, which makes journal replay after a
        #: crash idempotent.
        self.applied_op_id = 0
        #: op-id watermark of the last durable snapshot: every observation
        #: at or below it is *folded* into the persisted model, so the
        #: sharded tier may compact its journal up to this point.
        self.snapshot_op_id = 0
        #: observe folds since the last published snapshot (eager mode's
        #: ``snapshot_every`` throttle counter).
        self.folds_since_snapshot = 0

    @property
    def version(self) -> int:
        """Model version stamped on responses served from this entry.

        Registered entries count their own :meth:`ModelRegistry.observe`
        refreshes; adopted entries mirror the engine's
        :attr:`~repro.inference.engine.CausalInferenceEngine.model_version`
        so a refresh of a shared engine is still visible in response
        metadata.
        """
        if self.unicorn is None and self._engine is not None:
            return self._engine.model_version
        return self._version

    def bump_version(self) -> int:
        """Advance and return the entry's own refresh counter."""
        self._version += 1
        return self._version

    @property
    def engine(self) -> CausalInferenceEngine:
        """The current query engine (tracks ``state.engine`` across
        refreshes, which may replace the engine object on a cold relearn).

        Raises
        ------
        UnknownSubjectError
            If the entry holds no fitted engine (never fitted).
        """
        engine = self._engine
        if self.state is not None and self.state.engine is not None:
            engine = self.state.engine
        if engine is None:
            raise UnknownSubjectError(
                f"registry entry {self.key!r} holds no fitted engine")
        return engine

    @property
    def n_measurements(self) -> int:
        """Number of measurements backing the current model (0 if adopted)."""
        return self.state.samples_used if self.state is not None else 0


class ModelRegistry:
    """LRU-bounded, content-hash-keyed store of fitted subject models.

    Parameters
    ----------
    capacity:
        Maximum number of resident fitted models; the least-recently-used
        entry is evicted beyond it.
    use_batched:
        Whether models fitted by :meth:`get_or_fit` route queries through
        the batched evaluator; ``False`` pins every fitted engine to the
        scalar reference oracle (the differential-testing fallback).
    drift_threshold:
        ``None`` (the default) keeps the eager PR 4 semantics: every
        :meth:`observe` relearns immediately.  A positive float switches
        to drift-aware refresh: observations buffer per entry and the
        relearn runs only when the entry's
        :class:`~repro.service.drift.DriftDetector` scores the stream at
        or above this threshold.
    drift_min_window:
        Minimum buffered observations before a drift refresh may trigger.
    refresh_async:
        Run drift-triggered relearns on a background thread instead of the
        observing caller's thread.  Queries against the refreshing subject
        serialize behind the entry lock (version isolation); other
        subjects are unaffected.  Call :meth:`quiesce` to wait for
        outstanding refreshes at a deterministic point.
    result_cache_size:
        Capacity of the per-entry cross-request
        :class:`~repro.service.result_cache.ResultCache` (answers keyed by
        ``(model_version, item_key)``).  ``0`` or ``None`` disables result
        caching — the mode throughput benchmarks use so repeated identical
        scans measure engine work rather than cache lookups.
    store:
        A :class:`~repro.service.store.ModelStore` (or a path to create one
        at) backing spec-fitted entries with durable snapshots: fits check
        the store before running (*load-on-miss* — a hit restores the
        fitted model byte-identically with no CI tests and no
        least-squares), and refreshes publish a fresh snapshot at each
        refresh boundary.  ``None`` (the default) keeps the registry
        purely in-memory.
    snapshot_every:
        In eager mode (``drift_threshold=None``) every :meth:`observe`
        relearns, and publishing a full snapshot per fold would make
        durability cost quadratic over a long stream; this throttle
        publishes every ``snapshot_every``-th fold instead (default 1 =
        every fold).  Drift-aware refreshes always publish — they already
        amortise over the buffered window.
    """

    def __init__(self, capacity: int = 8, use_batched: bool = True,
                 drift_threshold: float | None = None,
                 drift_min_window: int = 4,
                 refresh_async: bool = False,
                 result_cache_size: int | None = 256,
                 store: "ModelStore | str | None" = None,
                 snapshot_every: int = 1) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        self.capacity = int(capacity)
        self.use_batched = bool(use_batched)
        self.drift_threshold = (None if drift_threshold is None
                                else float(drift_threshold))
        self.drift_min_window = int(drift_min_window)
        self.refresh_async = bool(refresh_async)
        self.result_cache_size = int(result_cache_size or 0)
        if store is None or isinstance(store, ModelStore):
            self.store = store
        else:
            self.store = ModelStore(store)
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.snapshot_every = int(snapshot_every)
        self._entries: OrderedDict[str, ModelEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._refresh_threads: list[threading.Thread] = []
        self.evictions = 0
        #: relearns actually performed through :meth:`observe`.
        self.refreshes = 0
        #: observe batches absorbed without a relearn (drift below threshold).
        self.refreshes_skipped = 0
        #: entries that still held unfolded ``pending`` observations at
        #: eviction time; each one is flushed (folded + snapshotted) before
        #: the entry is dropped, so the counter counts saves, not losses.
        self.evicted_with_pending = 0
        #: fits avoided by restoring a store snapshot (load-on-miss hits).
        self.store_loads = 0
        #: durable snapshots published (base fits + refresh boundaries).
        self.store_publishes = 0

    # ---------------------------------------------------------------- lookup
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, subject: str) -> bool:
        return subject in self._entries

    def subjects(self) -> list[str]:
        """Keys of every resident entry, least-recently used first."""
        with self._lock:
            return list(self._entries)

    def get(self, subject: str) -> ModelEntry:
        """Resident entry for ``subject``, marking it most-recently used.

        Parameters
        ----------
        subject:
            A name passed to :meth:`register` / :meth:`adopt`, or the spec
            hash returned by :meth:`get_or_fit`.

        Returns
        -------
        ModelEntry

        Raises
        ------
        UnknownSubjectError
            If no entry with that key is resident.
        """
        with self._lock:
            entry = self._entries.get(subject)
            if entry is None:
                raise UnknownSubjectError(
                    f"unknown subject {subject!r}; resident subjects: "
                    f"{list(self._entries)}")
            self._entries.move_to_end(subject)
            entry.hits += 1
            return entry

    # ------------------------------------------------------------ population
    def _insert(self, key: str, entry: ModelEntry,
                keep_existing: bool = False) -> ModelEntry:
        """Install ``entry`` under ``key``, evicting past ``capacity``.

        With ``keep_existing`` the first resident entry wins and is
        returned instead — the atomic resolution of a fit race, so every
        caller of one key shares one (version-isolated) model.

        Evicted entries are flushed *after* the registry lock is released:
        an entry with buffered ``pending`` observations folds and persists
        them first (see :meth:`_flush_evicted`), so eviction never discards
        observations the model has acknowledged.  Flushing outside
        ``self._lock`` matters — the flush takes the victim's entry lock,
        and the asynchronous refresh path acquires ``self._lock`` *while
        holding* an entry lock, so flushing under ``self._lock`` could
        deadlock on lock-order inversion.
        """
        if self.result_cache_size and entry.result_cache is None:
            entry.result_cache = ResultCache(self.result_cache_size)
        evicted: list[ModelEntry] = []
        with self._lock:
            if keep_existing:
                existing = self._entries.get(key)
                if existing is not None:
                    self._entries.move_to_end(key)
                    existing.hits += 1
                    return existing
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                _, victim = self._entries.popitem(last=False)
                self.evictions += 1
                evicted.append(victim)
        for victim in evicted:
            self._flush_evicted(victim)
        return entry

    def _flush_evicted(self, entry: ModelEntry) -> None:
        """Fold (and persist) an evicted entry's buffered observations.

        The old eviction path dropped the whole entry object, taking any
        un-relearned ``pending`` drift buffer with it — observations the
        service had already acknowledged to clients simply vanished.  Now
        the buffer is folded through a final refresh (which also publishes
        a durable snapshot when the entry is store-backed) before the
        entry is garbage.  Waits out any in-flight asynchronous refresh
        first so the fold sees a settled model.
        """
        event = entry.refresh_event
        if event is not None:
            event.wait()
        with entry.observe_lock, entry.lock:
            if not entry.pending:
                return
            self.evicted_with_pending += 1
            if entry.unicorn is None or entry.state is None:
                return  # pragma: no cover - adopted entries never buffer
            folded = list(entry.pending)
            entry.pending.clear()
            self._refresh_entry(entry, folded,
                                covered_op_id=entry.applied_op_id)

    def register(self, subject: str, unicorn: Unicorn,
                 state: LoopState | None = None) -> ModelEntry:
        """Fit (if needed) and install a model under an explicit name.

        Parameters
        ----------
        subject:
            Registry key the entry will be addressed by.
        unicorn:
            The loop machinery owning the model.
        state:
            A fitted loop state; when ``None`` (or not yet fitted),
            :meth:`Unicorn.fit` runs first.

        Returns
        -------
        ModelEntry
            The resident entry (possibly evicting the LRU entry).
        """
        if state is None or state.engine is None:
            state = unicorn.fit(state.measurements if state else ())
        return self._insert(subject, ModelEntry(subject, unicorn, state))

    def adopt(self, subject: str, engine: CausalInferenceEngine
              ) -> ModelEntry:
        """Install a pre-built engine that the registry will not refresh.

        Useful for serving a model fitted elsewhere (e.g. a ground-truth
        structure in benchmarks); :meth:`observe` raises for such entries.

        The adopting entry serializes *its own* queries through its lock,
        but cannot see locks of other owners: if the engine is still
        reachable elsewhere (another registry entry, an active loop), the
        caller must guarantee it is not refreshed concurrently with
        adopted-entry traffic.  The adopted entry's ``version`` mirrors
        ``engine.model_version`` so refreshes done elsewhere at least
        remain visible in response metadata.
        """
        return self._insert(subject, ModelEntry(subject, None, None,
                                                engine=engine))

    def get_or_fit(self, spec: Mapping[str, object]) -> ModelEntry:
        """Resolve a subject *spec* to a resident entry, fitting on a miss.

        Parameters
        ----------
        spec:
            JSON-serializable description of the subject:
            ``system`` (required, a :func:`repro.systems.registry.get_system`
            name), and optionally ``hardware``, ``n_samples`` (default 60),
            ``seed`` (default 0), ``max_condition_size`` (default 1) and
            ``relevant_options``.  The spec is canonicalised first —
            key order, tuple-versus-list spelling and explicitly spelled
            defaults (``seed=0``, ``n_samples=60``, ...) are all erased —
            and the canonical form is hashed into the registry key, so
            *equal-meaning* specs share one entry and never fit twice.

        Returns
        -------
        ModelEntry
            The (possibly freshly fitted) entry; its ``key`` is the
            canonical spec's content hash.  With a ``store`` configured, a
            miss first tries to restore the latest durable snapshot
            (skipping the fit entirely) and a fresh fit publishes its base
            snapshot.

        Raises
        ------
        KeyError
            If ``spec`` lacks ``"system"`` or names an unknown system.
        """
        spec = dict(spec)
        if "system" not in spec:
            raise KeyError("subject spec needs a 'system' name")
        key = spec_key(spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.hits += 1
                return entry
        entry = self._restore_from_store(key, spec, store_key=key)
        if entry is None:
            unicorn = unicorn_from_spec(spec, use_batched=self.use_batched)
            state = unicorn.fit()
            entry = ModelEntry(key, unicorn, state)
            self._bind_store(entry, spec, store_key=key)
            self._publish_entry(entry, covered_op_id=0)
        # The fit ran outside the lock; a concurrent get_or_fit of the same
        # spec may have won the race.  keep_existing resolves it atomically:
        # the first resident entry wins and the redundant fit is discarded.
        return self._insert(key, entry, keep_existing=True)

    def register_spec(self, subject: str,
                      spec: Mapping[str, object]) -> ModelEntry:
        """Fit a subject from a spec and install it under an explicit name.

        The spec-addressed sibling of :meth:`register`, and the one entry
        point the sharded tier's workers use: because the fit is a pure
        function of the spec (see :func:`unicorn_from_spec`), every worker
        that registers the same ``(subject, spec)`` pair holds a
        byte-identical model — the foundation of the sharding
        determinism contract.

        Parameters
        ----------
        subject:
            Registry key the entry will be addressed by.
        spec:
            Subject description; see :meth:`get_or_fit`.

        Returns
        -------
        ModelEntry
            The resident entry — restored from the store's latest snapshot
            when one exists for this ``(subject, spec)`` pair (the worker
            cold-start fast path: no CI tests, no least-squares), freshly
            fitted otherwise (publishing the base snapshot).
        """
        key = subject_key(subject, spec)
        entry = self._restore_from_store(subject, spec, store_key=key)
        if entry is None:
            unicorn = unicorn_from_spec(spec, use_batched=self.use_batched)
            entry = ModelEntry(subject, unicorn, unicorn.fit())
            self._bind_store(entry, spec, store_key=key)
            self._publish_entry(entry, covered_op_id=0)
        return self._insert(subject, entry)

    def upgrade_spec(self, subject: str,
                     spec: Mapping[str, object]) -> ModelEntry:
        """Fit a subject from a spec *fresh*, never restoring from the store.

        The rolling-refresh sibling of :meth:`register_spec`: a model
        upgrade must produce exactly the entry a cold fleet fitted
        directly on the new spec would hold — version 0, no inherited
        observation history — so the store is only *written* (the base
        snapshot publishes under the new ``(subject, spec)`` key), never
        read.  Restoring here would resurrect whatever an earlier
        generation (or a previously rolled-back upgrade attempt) left
        under the same key and break the byte-identity contract.

        Parameters
        ----------
        subject:
            Registry key the upgraded entry will be addressed by; an
            existing resident entry under this name is replaced.
        spec:
            The new subject description; see :meth:`get_or_fit`.
        """
        key = subject_key(subject, spec)
        unicorn = unicorn_from_spec(spec, use_batched=self.use_batched)
        entry = ModelEntry(subject, unicorn, unicorn.fit())
        self._bind_store(entry, spec, store_key=key)
        self._publish_entry(entry, covered_op_id=0)
        return self._insert(subject, entry)

    # ----------------------------------------------------------- persistence
    def _bind_store(self, entry: ModelEntry, spec: Mapping[str, object],
                    store_key: str) -> None:
        """Attach snapshot addressing to a freshly fitted entry."""
        entry.spec = canonical_spec(spec)
        if self.store is not None:
            entry.store_key = store_key

    def _publish_entry(self, entry: ModelEntry, covered_op_id: int) -> None:
        """Publish a durable snapshot of ``entry`` if it is store-backed.

        Caller holds the entry lock (or exclusively owns the entry, as at
        fit time) and guarantees the refresh-boundary invariant: every
        observation up to ``covered_op_id`` is folded into the model and
        ``entry.pending`` is empty.
        """
        if self.store is None or entry.store_key is None:
            return
        doc = snapshot_document(entry, entry.spec, subject=entry.key,
                                applied_op_id=covered_op_id)
        self.store.publish(entry.store_key, doc)
        entry.snapshot_op_id = int(covered_op_id)
        entry.folds_since_snapshot = 0
        self.store_publishes += 1

    def _restore_from_store(self, key: str, spec: Mapping[str, object],
                            store_key: str) -> ModelEntry | None:
        """Rebuild a resident entry from the store's latest snapshot.

        Returns ``None`` — and the caller falls back to a clean fit — when
        no store is configured, no snapshot exists, the snapshot fails to
        parse, or its recorded ``spec_hash`` disagrees with the requested
        spec (a content-hash collision guard and a schema-drift guard in
        one).
        """
        if self.store is None:
            return None
        doc = self.store.load(store_key)
        if doc is None or doc.get("spec_hash") != spec_key(spec):
            return None
        try:
            entry = self._entry_from_snapshot(key, spec, doc)
        except (KeyError, TypeError, ValueError):
            # Fail closed on any malformed-document shape the store's own
            # format check could not catch; the caller refits from the spec.
            return None
        self._bind_store(entry, spec, store_key=store_key)
        self.store_loads += 1
        return entry

    def _entry_from_snapshot(self, key: str, spec: Mapping[str, object],
                             doc: dict) -> ModelEntry:
        """Materialise a fitted entry from a snapshot document.

        The expensive pipeline is skipped entirely: the learned structure
        and dataset come back through
        :meth:`~repro.discovery.pipeline.LearnedModel.from_dict`, the
        fitted equations through
        :meth:`~repro.scm.fitting.FittedPerformanceModel.from_dict`
        (bitwise, via the array codec), and the engine adopts them as
        ``prefitted`` — so the reload performs no CI test and no
        least-squares solve, yet answers queries byte-identically to the
        process that published the snapshot.  Later refreshes take the
        same incremental path as on a continuously running entry (the
        learner adopts the restored dataset and re-runs discovery over it,
        starting with an empty CI-decision cache), and the restored drift
        baseline reproduces the refresh schedule.
        """
        unicorn = unicorn_from_spec(spec, use_batched=self.use_batched)
        learned = LearnedModel.from_dict(doc["learned"], unicorn.constraints)
        fitted = FittedPerformanceModel.from_dict(doc["fitted"], learned.data)
        engine = CausalInferenceEngine(
            learned, unicorn.domains,
            top_k_paths=unicorn.config.top_k_paths,
            max_contexts=unicorn.config.max_contexts,
            batched=unicorn.config.batched_queries,
            prefitted=fitted)
        state = LoopState(measurements=measurements_from_document(doc),
                          learned=learned, engine=engine)
        entry = ModelEntry(key, unicorn, state)
        entry._version = int(doc["version"])
        if doc.get("drift") is not None:
            entry.drift = DriftDetector.from_dict(doc["drift"])
        entry.applied_op_id = int(doc.get("applied_op_id", 0))
        entry.snapshot_op_id = entry.applied_op_id
        return entry

    def flush(self) -> int:
        """Make every store-backed entry durable; returns snapshots written.

        The graceful-shutdown counterpart of crash recovery: folds any
        buffered ``pending`` observations (waiting out in-flight
        asynchronous refreshes first) and publishes a snapshot for every
        entry whose model state has advanced past its last one.  After a
        flush, a *new service generation* can cold-start from the store
        alone — no journal exists across generations to cover the gap the
        eager-mode ``snapshot_every`` throttle (or a drift buffer) leaves
        behind.
        """
        with self._lock:
            entries = list(self._entries.values())
        published = 0
        for entry in entries:
            if self.store is None or entry.store_key is None:
                continue
            event = entry.refresh_event
            if event is not None:
                event.wait()
            with entry.observe_lock, entry.lock:
                if entry.pending:
                    folded = list(entry.pending)
                    entry.pending.clear()
                    self._refresh_entry(entry, folded,
                                        covered_op_id=entry.applied_op_id)
                    published += 1
                elif entry.folds_since_snapshot > 0 \
                        or entry.snapshot_op_id < entry.applied_op_id:
                    self._publish_entry(entry,
                                        covered_op_id=entry.applied_op_id)
                    published += 1
        return published

    def snapshot_watermark(self, subject: str) -> int:
        """Op-id watermark of ``subject``'s last durable snapshot (0 when
        the subject is absent or has never snapshotted) — the bound up to
        which the sharded tier may compact its observation journal."""
        with self._lock:
            entry = self._entries.get(subject)
        return 0 if entry is None else int(entry.snapshot_op_id)

    def snapshot_watermarks(self) -> dict[str, int]:
        """Every resident subject's positive snapshot watermark.

        The payload quiesce/flush acknowledgements carry back to the
        sharded parent: one compaction bound per subject, so journals of
        subjects that went *quiet* (no further live observes to piggyback
        a watermark on) still shrink at the next barrier instead of
        retaining their stale suffix forever.
        """
        with self._lock:
            return {subject: int(entry.snapshot_op_id)
                    for subject, entry in self._entries.items()
                    if entry.snapshot_op_id > 0}

    # --------------------------------------------------------------- refresh
    def observe(self, subject: str,
                measurements: Sequence[Measurement],
                op_id: int | None = None) -> int:
        """Fold new measurements into a subject's model.

        With the default ``drift_threshold=None`` this is the eager PR 4
        path: the measurements append to the entry's loop state and the
        model re-learns immediately through :meth:`Unicorn.learn`'s
        incremental route (the dataset grows in place as a new data epoch,
        discovery re-runs with the CI-decision cache replaying every
        non-borderline decision, and the existing engine is refreshed
        rather than rebuilt).

        With a ``drift_threshold`` set, the measurements instead buffer in
        ``entry.pending`` while their prediction residuals feed the
        entry's :class:`~repro.service.drift.DriftDetector`; the relearn
        runs — folding the whole buffer — only once the stream has
        drifted past the threshold, synchronously or on a background
        thread (``refresh_async``).  Either way the entry's ``version``
        is bumped under its lock, so concurrent query batches either
        complete against the old model or start against the new one —
        never a mix.

        Parameters
        ----------
        subject:
            Registry key of the entry to refresh.
        measurements:
            New :class:`~repro.systems.base.Measurement` objects.
        op_id:
            Journal op id of this batch (the sharded tier's replay
            plumbing).  Batches at or below the entry's ``applied_op_id``
            watermark are silently skipped — that is what makes journal
            replay after a crash idempotent even when an op is delivered
            both by suffix replay and by in-flight requeue.  ``None``
            (direct callers) applies unconditionally.

        Returns
        -------
        int
            The entry's version as of this call: bumped after a
            synchronous refresh, unchanged when the batch was buffered
            (or while an asynchronous refresh is still in flight).

        Raises
        ------
        UnknownSubjectError
            If the subject is not resident, or was adopted without
            maintenance handles and therefore cannot be refreshed.
        """
        entry = self.get(subject)
        if entry.unicorn is None or entry.state is None:
            raise UnknownSubjectError(
                f"subject {subject!r} was adopted without a Unicorn loop "
                "and cannot be refreshed")
        if self.drift_threshold is None:
            with entry.lock:
                if op_id is not None:
                    if op_id <= entry.applied_op_id:
                        return entry.version
                    entry.applied_op_id = int(op_id)
                entry.state.measurements.extend(measurements)
                entry.unicorn.learn(entry.state)
                self.refreshes += 1
                version = entry.bump_version()
                if entry.result_cache is not None:
                    entry.result_cache.invalidate_older_than(version)
                entry.folds_since_snapshot += 1
                if entry.folds_since_snapshot >= self.snapshot_every:
                    self._publish_entry(
                        entry, covered_op_id=entry.applied_op_id)
                return version
        # A previously triggered asynchronous refresh must land before the
        # next batch is scored: every replica then interleaves refreshes
        # and observations identically, whatever the thread scheduling —
        # the determinism the sharded byte-identity contract needs.
        # ``observe_lock`` serializes whole observe calls (two concurrent
        # observers cannot both slip past the handshake), while the wait
        # itself happens outside ``entry.lock``, which the refresh thread
        # requires to make progress.
        with entry.observe_lock:
            event = entry.refresh_event
            if event is not None:
                event.wait()
            return self._observe_drift_locked(entry, measurements, op_id)

    def _observe_drift_locked(self, entry: ModelEntry,
                              measurements: Sequence[Measurement],
                              op_id: int | None = None) -> int:
        """Drift-path body of :meth:`observe`; caller holds the entry's
        ``observe_lock`` and any prior async refresh has completed."""
        subject = entry.key
        with entry.lock:
            entry.refresh_event = None
            if op_id is not None:
                if op_id <= entry.applied_op_id:
                    return entry.version
                entry.applied_op_id = int(op_id)
            if entry.drift is None:
                entry.drift = DriftDetector(
                    entry.unicorn.objective_names,
                    threshold=self.drift_threshold,
                    min_window=self.drift_min_window)
                entry.drift.rebaseline(entry.engine,
                                       entry.state.measurements)
            entry.pending.extend(measurements)
            entry.drift.extend(entry.engine, measurements)
            if not entry.drift.should_refresh():
                self.refreshes_skipped += 1
                return entry.version
            folded = list(entry.pending)
            entry.pending.clear()
            # Captured here, under the entry lock, at trigger time: by the
            # time an asynchronous refresh thread publishes its snapshot
            # the main thread may already be absorbing the next op, so the
            # watermark the snapshot covers must be pinned now.
            covered = entry.applied_op_id
            if not self.refresh_async:
                return self._refresh_entry(entry, folded, covered)
            done = threading.Event()
            entry.refresh_event = done

            def refresh_then_signal() -> None:
                try:
                    self._refresh_entry(entry, folded, covered)
                finally:
                    done.set()

            thread = threading.Thread(
                target=refresh_then_signal,
                name=f"model-refresh-{subject}", daemon=True)
            with self._lock:
                self._refresh_threads = [
                    t for t in self._refresh_threads if t.is_alive()]
                self._refresh_threads.append(thread)
            thread.start()
            return entry.version

    def _refresh_entry(self, entry: ModelEntry,
                       folded: Sequence[Measurement],
                       covered_op_id: int | None = None) -> int:
        """Fold buffered measurements, relearn, bump version, rebaseline.

        Runs under the entry lock — queries against this subject wait for
        the refresh (version isolation) while other subjects proceed.
        This is the refresh boundary the durable snapshot is published at:
        the fold emptied the pending buffer and the detector just
        rebaselined, so the snapshot's ``covered_op_id`` watermark (pinned
        by the caller at trigger time) covers exactly the folded stream.
        """
        with entry.lock:
            entry.state.measurements.extend(folded)
            entry.unicorn.learn(entry.state)
            version = entry.bump_version()
            if entry.result_cache is not None:
                entry.result_cache.invalidate_older_than(version)
            if entry.drift is not None:
                entry.drift.rebaseline(entry.engine,
                                       entry.state.measurements)
            self.refreshes += 1
            self._publish_entry(
                entry,
                covered_op_id=(entry.applied_op_id if covered_op_id is None
                               else covered_op_id))
            return version

    def quiesce(self, timeout: float | None = 30.0) -> None:
        """Wait for every outstanding background refresh to complete.

        The synchronisation point that makes asynchronous drift refreshes
        deterministic: callers that quiesce between an observation phase
        and the next query phase are guaranteed the refreshed model (and
        version) for that phase, regardless of scheduling.
        """
        with self._lock:
            threads = list(self._refresh_threads)
            self._refresh_threads = []
        for thread in threads:
            thread.join(timeout=timeout)
