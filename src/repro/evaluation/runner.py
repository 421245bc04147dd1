"""Campaign orchestration: cells, deterministic seed trees, parallel runs.

The paper's evaluation is a grid of independent cells — system × hardware ×
workload × seed.  Every runner in :mod:`repro.evaluation` used to walk its
grid serially inside one process; this module factors the walking out:

* :class:`CampaignCell` — one cell of a campaign grid: a registered *kind*
  (the experiment function to run) plus a plain-JSON *spec* (its keyword
  arguments).  Cells are pure data, picklable and content-hashable, so
  they can cross process boundaries and key the artifact store.
* a **seed tree** — per-cell seeds derive from one root seed through a
  :class:`numpy.random.SeedSequence` spawn tree keyed by cell position, so
  a cell's random stream depends only on the root seed and its place in the
  grid, never on which worker ran it or in which order.  Serial and
  parallel runs of the same campaign are therefore bit-identical.
* :class:`ParallelRunner` — enumerates cells, skips the ones already in the
  :class:`~repro.evaluation.store.ArtifactStore`, executes the rest either
  serially or over a spawn-safe :class:`~concurrent.futures.ProcessPoolExecutor`,
  persists each result as it completes, and returns outcomes in enumeration
  order.

A cell kind is an experiment function registered by name via
:func:`register_cell_kind`; the runner calls it as ``fn(seed=seed,
**spec)``, so a spec holds exactly the function's keyword arguments —
the function's own defaults fill whatever the spec leaves out, and a
misspelt or unknown key is a :class:`TypeError` naming it.  The function
must return a JSON-serializable dict.  Worker processes re-resolve the
function from the registry after importing :mod:`repro.evaluation`, so
the runner works under both the cheap ``fork`` start method (preferred
where available) and the portable ``spawn`` method.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.canonical import content_hash
from repro.evaluation.store import ArtifactStore

#: A cell executor: ``fn(seed=seed, **spec) -> JSON-serializable dict``.
CellExecutor = Callable[..., dict]

_CELL_KINDS: dict[str, CellExecutor] = {}


def register_cell_kind(name: str) -> Callable[[CellExecutor], CellExecutor]:
    """Register a module-level experiment function as cell kind ``name``.

    The function is called as ``fn(seed=seed, **spec)`` and must return a
    JSON-serializable dict.
    """

    def decorate(fn: CellExecutor) -> CellExecutor:
        _CELL_KINDS[name] = fn
        return fn

    return decorate


def cell_kinds() -> list[str]:
    """Names of every registered cell kind."""
    _ensure_kinds_loaded()
    return sorted(_CELL_KINDS)


def _ensure_kinds_loaded() -> None:
    """Import the evaluation package so every cell kind is registered.

    Worker processes started with ``spawn`` begin with a fresh interpreter;
    importing :mod:`repro.evaluation` pulls in every runner module, each of
    which registers its kinds at import time.
    """
    import repro.evaluation  # noqa: F401  (import side effect)


def _resolve_executor(kind: str) -> CellExecutor:
    if kind not in _CELL_KINDS:
        _ensure_kinds_loaded()
    try:
        return _CELL_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown campaign cell kind {kind!r}; "
            f"registered kinds: {sorted(_CELL_KINDS)}") from None


@dataclass(frozen=True)
class CampaignCell:
    """One cell of a campaign grid: a cell kind plus its keyword arguments.

    ``spec`` holds the keyword arguments of the kind's experiment function
    (everything but ``seed``, which the runner derives).  It must contain
    only JSON-serializable values (numbers, strings, booleans, lists,
    dicts) — it crosses process boundaries and its canonical JSON form
    keys the artifact store.
    """

    kind: str
    spec: Mapping[str, object] = field(default_factory=dict)

    def canonical_spec(self) -> dict:
        """The spec normalised through a JSON round-trip (tuples -> lists)."""
        return json.loads(json.dumps(dict(self.spec)))

    def key(self, seed: int) -> str:
        """Content hash identifying this cell at a concrete derived seed."""
        return content_hash({"kind": self.kind,
                             "spec": self.canonical_spec(),
                             "seed": int(seed)})


@dataclass
class CellOutcome:
    """Result of one executed (or store-resumed) campaign cell."""

    cell: CampaignCell
    index: int
    seed: int
    key: str
    result: dict
    seconds: float = 0.0
    from_store: bool = False


@dataclass
class CampaignReport:
    """All outcomes of one campaign run, in cell-enumeration order."""

    root_seed: int
    outcomes: list[CellOutcome] = field(default_factory=list)

    def results(self) -> list[dict]:
        """The per-cell result dicts, in cell-enumeration order."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def n_executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.from_store)

    @property
    def n_reused(self) -> int:
        return sum(1 for o in self.outcomes if o.from_store)


def derive_cell_seeds(root_seed: int, n_cells: int) -> list[int]:
    """Per-cell seeds from a :class:`numpy.random.SeedSequence` spawn tree.

    Child ``i`` is ``SeedSequence(root_seed, spawn_key=(i,))``, so the seed
    of a cell depends only on the root seed and the cell's position in the
    enumeration — prefixes agree across campaigns of different sizes, and
    serial, parallel and resumed runs all hand every cell the same seed.
    """
    root = np.random.SeedSequence(root_seed)
    return [int(child.generate_state(1, np.uint64)[0])
            for child in root.spawn(n_cells)]


def _execute_cell(kind: str, spec: dict, seed: int) -> tuple[dict, float]:
    """Run one cell; module-level so it pickles under ``spawn``."""
    executor = _resolve_executor(kind)
    started = time.perf_counter()
    result = executor(seed=seed, **spec)
    return result, time.perf_counter() - started


def _default_max_workers() -> int:
    return min(8, (os.cpu_count() or 1) * 4)


def _pool_context() -> mp.context.BaseContext:
    """Preferred multiprocessing context for the worker pool.

    ``fork`` starts workers in milliseconds because the parent's imported
    modules come along for free; it is used where available (POSIX).  The
    runner stays spawn-safe regardless — cells and executors are picklable
    and workers re-resolve executors by name — so platforms without ``fork``
    fall back to ``spawn`` transparently.
    """
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")


class ParallelRunner:
    """Execute a list of campaign cells, serially or over a process pool.

    Parameters
    ----------
    parallel:
        Run pending cells over a :class:`ProcessPoolExecutor`.  With
        ``False`` (the default) cells run in-process, in order — the serial
        fallback that parallel runs are guaranteed to reproduce exactly.
    max_workers:
        Worker-pool size; defaults to ``min(8, 4 * cpu_count)`` (campaign
        cells are dominated by simulated measurement latency, so modest
        over-subscription pays off).
    store:
        Optional :class:`ArtifactStore`.  Cells whose key is already present
        are not re-executed; freshly executed cells are persisted as they
        complete, which is what makes an interrupted campaign resumable.
    """

    def __init__(self, parallel: bool = False,
                 max_workers: int | None = None,
                 store: ArtifactStore | None = None) -> None:
        self.parallel = bool(parallel)
        self.max_workers = max_workers
        self.store = store

    # ------------------------------------------------------------------ run
    def run(self, cells: Sequence[CampaignCell],
            root_seed: int = 0) -> CampaignReport:
        """Run every cell and return outcomes in enumeration order."""
        cells = list(cells)
        report = CampaignReport(root_seed=int(root_seed))
        if not cells:
            return report
        seeds = derive_cell_seeds(root_seed, len(cells))

        slots: list[CellOutcome | None] = [None] * len(cells)
        pending: list[int] = []
        for i, (cell, seed) in enumerate(zip(cells, seeds)):
            key = cell.key(seed)
            record = None
            if self.store is not None and key in self.store:
                record = self.store.load(key)
            if record is not None and "result" in record:
                slots[i] = CellOutcome(cell=cell, index=i, seed=seed, key=key,
                                       result=record["result"],
                                       seconds=float(record.get("seconds",
                                                                0.0)),
                                       from_store=True)
            else:
                pending.append(i)

        if pending:
            if self.parallel and len(pending) > 1 and \
                    (self.max_workers is None or self.max_workers > 1):
                self._run_parallel(cells, seeds, pending, slots)
            else:
                self._run_serial(cells, seeds, pending, slots)

        report.outcomes = [outcome for outcome in slots if outcome is not None]
        return report

    # -------------------------------------------------------------- helpers
    def _finish(self, cell: CampaignCell, index: int, seed: int,
                result: dict, seconds: float) -> CellOutcome:
        key = cell.key(seed)
        if self.store is not None:
            self.store.save(key, {"kind": cell.kind,
                                  "spec": cell.canonical_spec(),
                                  "seed": int(seed), "seconds": seconds,
                                  "result": result})
        return CellOutcome(cell=cell, index=index, seed=seed, key=key,
                           result=result, seconds=seconds)

    def _run_serial(self, cells: Sequence[CampaignCell], seeds: Sequence[int],
                    pending: Sequence[int],
                    slots: list[CellOutcome | None]) -> None:
        for i in pending:
            result, seconds = _execute_cell(cells[i].kind,
                                            cells[i].canonical_spec(),
                                            seeds[i])
            slots[i] = self._finish(cells[i], i, seeds[i], result, seconds)

    def _run_parallel(self, cells: Sequence[CampaignCell],
                      seeds: Sequence[int], pending: Sequence[int],
                      slots: list[CellOutcome | None]) -> None:
        workers = min(self.max_workers or _default_max_workers(),
                      len(pending))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=_pool_context()) as pool:
            futures = {
                pool.submit(_execute_cell, cells[i].kind,
                            cells[i].canonical_spec(), seeds[i]): i
                for i in pending
            }
            # Persist each artifact the moment its cell completes, so an
            # interrupted parallel campaign keeps everything it finished.
            for future in as_completed(futures):
                i = futures[future]
                result, seconds = future.result()
                slots[i] = self._finish(cells[i], i, seeds[i], result,
                                        seconds)


def run_campaign(cells: Sequence[CampaignCell], root_seed: int = 0,
                 parallel: bool = False, max_workers: int | None = None,
                 store: ArtifactStore | None = None) -> CampaignReport:
    """One-call convenience wrapper around :class:`ParallelRunner`."""
    runner = ParallelRunner(parallel=parallel, max_workers=max_workers,
                            store=store)
    return runner.run(cells, root_seed=root_seed)
