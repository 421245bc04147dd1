"""Resumable JSON artifact store for campaign cells.

A campaign is a grid of independent cells (system × hardware × workload ×
seed); interrupting a half-finished grid must not throw away the completed
cells.  :class:`ArtifactStore` persists one JSON document per cell, keyed by
a content hash of the cell's canonical spec (kind + parameters + derived
seed), so a re-run of the same campaign recognises completed cells and
re-executes only the missing ones — regardless of whether the first run was
serial or parallel.  Because the derived seed is keyed by a cell's position
in the grid, reuse requires re-runs to keep cells at their original
positions (resuming a prefix, or growing the grid at the end, both
qualify); reordering a grid re-seeds its cells and is treated as a new
campaign.

Writes are atomic (write to a temporary file, then ``os.replace``) so an
interrupted run never leaves a truncated artifact behind; unreadable
artifacts are treated as absent and recomputed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from repro.canonical import canonical_json


class ArtifactStore:
    """A directory of per-cell JSON artifacts keyed by content hash."""

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, key: str) -> Path:
        return self._root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """Keys of every stored artifact."""
        for path in sorted(self._root.glob("*.json")):
            yield path.stem

    def load(self, key: str) -> dict | None:
        """Stored record for ``key``, or ``None`` if absent or unreadable."""
        path = self.path_for(key)
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def save(self, key: str, record: dict) -> Path:
        """Atomically persist ``record`` under ``key``."""
        path = self.path_for(key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(canonical_json(record))
        os.replace(tmp, path)
        return path

    def discard(self, key: str) -> None:
        """Remove the artifact for ``key`` if present."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            pass
