"""Persistent, content-addressed, versioned on-disk model store.

Every worker spawn and crash recovery used to refit models from specs and
replay the *entire* observation journal.  :class:`ModelStore` converts the
serving tier from "recompute everything" to "load, replay suffix, serve":
a fitted :class:`~repro.service.registry.ModelEntry` snapshots to one JSON
document — spec, measurements, learned structure, fitted equations and
drift-detector state, all through the typed ``to_dict``/``from_dict``
layer with numpy arrays carried bitwise by the base64 codec
(:mod:`repro.stats.codec`) — and reloads byte-identically without a single
CI test or least-squares solve.

Layout (content-hash directory scheme)::

    <root>/
      <key>/                      # spec_key(spec), or subject-scoped key
        v000000000000.json        # snapshot of entry version 0
        v000000000003.json        # snapshot of entry version 3
        LATEST                    # text file holding the live version

``publish`` is atomic (temp file + ``os.replace``, then the ``LATEST``
pointer flips the same way), so a crash mid-write never corrupts the live
snapshot; the previously published version file is retained, which makes
:meth:`ModelStore.rollback` an instant pointer flip back.  Every read is
fail-closed: a missing, truncated or otherwise unreadable snapshot loads
as ``None`` and the caller falls back to a clean refit.

Snapshots are taken at *refresh boundaries* — right after a relearn folds
the entry's pending buffer and the drift detector rebaselines — so the
document's ``applied_op_id`` watermark covers every observation folded
into the model.  The sharded tier compacts its parent-side journal up to
that watermark and crash recovery replays only the journal *suffix* past
it (see :mod:`repro.service.sharding`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, Mapping

from repro.canonical import canonical_json, content_hash
from repro.systems.base import Measurement

#: Snapshot document schema version; bumped on incompatible layout changes.
#: Loaders reject (fail closed on) documents with a different format.
STORE_FORMAT = 1

#: Spec keys whose documented default values are dropped before hashing,
#: so ``{"system": "x", "seed": 0}`` and ``{"system": "x"}`` share one
#: entry and one store key (see :func:`canonical_spec`).
SPEC_DEFAULTS: dict[str, object] = {
    "n_samples": 60,
    "seed": 0,
    "max_condition_size": 1,
}


# --------------------------------------------------------------------- specs
def canonical_spec(spec: Mapping[str, object]) -> dict:
    """Normalise a subject spec to its canonical, default-free form.

    Three semantically-neutral differences are erased: key order (hashing
    uses sorted canonical JSON), container spelling (tuples become lists
    via a JSON round-trip), and explicitly spelled defaults (``seed=0``,
    ``n_samples=60``, ``max_condition_size=1``, or any key set to
    ``None``) which are dropped because :func:`~repro.service.registry.
    unicorn_from_spec` fills them in identically.  Equal-meaning specs
    therefore canonicalise to equal dicts — the fix for the raw-spec
    hashing that used to give ``{"system": "x", "seed": 0}`` and
    ``{"system": "x"}`` two separate entries and two separate fits.
    """
    normalised = json.loads(canonical_json(dict(spec)))
    out: dict = {}
    for key, value in normalised.items():
        if value is None:
            continue
        if key in SPEC_DEFAULTS and value == SPEC_DEFAULTS[key]:
            continue
        out[key] = value
    return out


def spec_key(spec: Mapping[str, object]) -> str:
    """Content hash of the canonical spec — the registry and store key."""
    return content_hash(canonical_spec(spec))


def subject_key(subject: str, spec: Mapping[str, object]) -> str:
    """Store key of a named subject (the sharded tier's addressing).

    Named subjects evolve independently even when their specs are equal
    (each has its own observation stream), so their snapshots are keyed
    by ``(subject, canonical spec)`` rather than the spec alone.
    """
    return content_hash({"subject": str(subject),
                         "spec": canonical_spec(spec)})


# -------------------------------------------------------------- measurements
def measurement_to_dict(measurement: Measurement) -> dict:
    """JSON-safe form of one measurement (floats round-trip exactly)."""
    return {
        "configuration": {k: float(v) for k, v
                          in measurement.configuration.items()},
        "events": {k: float(v) for k, v in measurement.events.items()},
        "objectives": {k: float(v) for k, v
                       in measurement.objectives.items()},
        "environment": measurement.environment,
        "replicates": int(measurement.replicates),
        "measurement_seconds": float(measurement.measurement_seconds),
    }


def measurement_from_dict(payload: dict) -> Measurement:
    """Rebuild a measurement serialized by :func:`measurement_to_dict`."""
    return Measurement(
        configuration=dict(payload["configuration"]),
        events=dict(payload["events"]),
        objectives=dict(payload["objectives"]),
        environment=payload["environment"],
        replicates=int(payload.get("replicates", 1)),
        measurement_seconds=float(payload.get("measurement_seconds", 0.0)))


# ----------------------------------------------------------------- documents
def snapshot_document(entry, spec: Mapping[str, object], *,
                      subject: str | None = None,
                      applied_op_id: int = 0) -> dict:
    """Build the durable snapshot document of one fitted registry entry.

    Must be called at a refresh boundary (the entry's ``pending`` buffer
    empty, its drift detector just rebaselined) under the entry's lock —
    the invariant that makes ``applied_op_id`` a true watermark: every
    observation with an op id at or below it is folded into the captured
    model and drift state.

    Parameters
    ----------
    entry:
        A fitted :class:`~repro.service.registry.ModelEntry` with a live
        loop state (adopted entries have nothing to snapshot).
    spec:
        The subject spec the entry was fitted from.
    subject:
        Registry key the entry is addressed by (defaults to the entry's
        own key).
    applied_op_id:
        Journal watermark covered by this snapshot (0 outside the
        sharded tier).
    """
    state = entry.state
    if state is None or state.learned is None or state.engine is None:
        raise ValueError(f"entry {entry.key!r} holds no fitted loop state "
                         "to snapshot")
    return {
        "format": STORE_FORMAT,
        "subject": str(subject if subject is not None else entry.key),
        "spec": canonical_spec(spec),
        "spec_hash": spec_key(spec),
        "version": int(entry.version),
        "applied_op_id": int(applied_op_id),
        "measurements": [measurement_to_dict(m)
                         for m in state.measurements],
        "learned": state.learned.to_dict(),
        "fitted": state.engine.fitted_model.to_dict(),
        "drift": None if entry.drift is None else entry.drift.to_dict(),
    }


def measurements_from_document(doc: dict) -> list[Measurement]:
    """The measurement stream captured in a snapshot document."""
    return [measurement_from_dict(m) for m in doc["measurements"]]


# --------------------------------------------------------------------- store
class ModelStore:
    """A directory of versioned model snapshots keyed by content hash.

    Parameters
    ----------
    root:
        Store directory (created on demand).
    retain:
        Snapshot versions kept per key; older version files are pruned
        after each publish.  The minimum useful value is 2 — the live
        version plus its predecessor, which is what makes
        :meth:`rollback` instant.
    """

    def __init__(self, root: str | Path, retain: int = 2) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self.retain = int(retain)

    @property
    def root(self) -> Path:
        return self._root

    # ---------------------------------------------------------------- layout
    def key_dir(self, key: str) -> Path:
        """Directory holding every snapshot version of ``key``."""
        return self._root / key

    def version_path(self, key: str, version: int) -> Path:
        """Path of one snapshot version file (zero-padded, sorts by age)."""
        return self.key_dir(key) / f"v{int(version):012d}.json"

    def _latest_path(self, key: str) -> Path:
        return self.key_dir(key) / "LATEST"

    def keys(self) -> Iterator[str]:
        """Keys with at least one published snapshot, sorted."""
        for path in sorted(self._root.iterdir()):
            if path.is_dir() and (path / "LATEST").exists():
                yield path.name

    def __contains__(self, key: str) -> bool:
        return self.latest_version(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def versions(self, key: str) -> list[int]:
        """Retained snapshot versions of ``key``, ascending."""
        out = []
        for path in self.key_dir(key).glob("v*.json"):
            try:
                out.append(int(path.stem[1:]))
            except ValueError:  # pragma: no cover - foreign file
                continue
        return sorted(out)

    # --------------------------------------------------------------- publish
    def publish(self, key: str, doc: dict) -> Path:
        """Atomically persist ``doc`` as the live snapshot of ``key``.

        The version file lands first (temp file + ``os.replace``), then
        the ``LATEST`` pointer flips — a reader therefore never observes
        a pointer to a half-written snapshot.  The previous version file
        is retained (up to ``retain`` total) for instant rollback.
        """
        version = int(doc["version"])
        directory = self.key_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.version_path(key, version)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(canonical_json(doc))
        os.replace(tmp, path)
        self._point_latest(key, version)
        self._prune(key, keep=version)
        return path

    def _point_latest(self, key: str, version: int) -> None:
        latest = self._latest_path(key)
        tmp = latest.with_suffix(".tmp")
        tmp.write_text(str(int(version)))
        os.replace(tmp, latest)

    def _prune(self, key: str, keep: int) -> None:
        """Drop version files beyond ``retain``, newest kept first."""
        versions = self.versions(key)
        for version in versions[:-self.retain]:
            if version == keep:  # pragma: no cover - defensive
                continue
            try:
                self.version_path(key, version).unlink()
            except FileNotFoundError:  # pragma: no cover - racing prune
                pass

    # ------------------------------------------------------------------ load
    def latest_version(self, key: str) -> int | None:
        """Version the ``LATEST`` pointer names, or ``None`` (fail closed)."""
        try:
            return int(self._latest_path(key).read_text().strip())
        except (OSError, ValueError):
            return None

    def load(self, key: str, version: int | None = None) -> dict | None:
        """Load one snapshot document, or ``None`` if absent/corrupt.

        Every failure mode — missing key, dangling ``LATEST`` pointer,
        truncated or non-JSON file, wrong schema format — loads as
        ``None`` so callers fall back to a clean refit rather than
        serving from a damaged snapshot.
        """
        if version is None:
            version = self.latest_version(key)
            if version is None:
                return None
        try:
            doc = json.loads(self.version_path(key, version).read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != STORE_FORMAT:
            return None
        return doc

    # -------------------------------------------------------------- rollback
    def rollback(self, key: str, to_version: int | None = None) -> int | None:
        """Flip ``LATEST`` back to an older retained version.

        With ``to_version=None`` the pointer moves to the newest retained
        version *older* than the current one.  An explicit ``to_version``
        restores that exact retained version — the rolling-refresh path
        uses it to undo a model upgrade that published *lower-numbered*
        snapshots under the same key (a fresh generation restarts at
        version 0, so "newest older than current" would not find the
        pre-upgrade state).

        Returns the version now live, or ``None`` when the requested
        target does not exist (the pointer is left untouched).
        """
        current = self.latest_version(key)
        if current is None:
            return None
        if to_version is not None:
            if int(to_version) not in self.versions(key):
                return None
            self._point_latest(key, int(to_version))
            return int(to_version)
        older = [v for v in self.versions(key) if v < current]
        if not older:
            return None
        self._point_latest(key, older[-1])
        return older[-1]

    def discard(self, key: str) -> None:
        """Remove every snapshot of ``key`` (absent keys are a no-op)."""
        directory = self.key_dir(key)
        if not directory.is_dir():
            return
        for path in directory.iterdir():
            try:
                path.unlink()
            except (FileNotFoundError, IsADirectoryError):
                # pragma: no cover - racing writer / foreign subdirectory
                continue
        try:
            directory.rmdir()
        except OSError:  # pragma: no cover - directory not empty
            pass
