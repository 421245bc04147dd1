"""Fault-catalogue campaign (Fig. 13).

Runs the 99th-percentile fault-labelling protocol over the requested systems
and reports how many single- and multi-objective non-functional faults each
system exhibits — the bar chart of Fig. 13.

The campaign grid (one cell per system) is expressed through the campaign
runner: :func:`fault_campaign_cells` enumerates the cells and
:func:`run_fault_campaign` executes them serially or in parallel with
per-cell seeds derived from the root seed's
:class:`~numpy.random.SeedSequence` tree, so both execution modes produce
byte-identical reports (see :meth:`FaultCampaignReport.to_json`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.canonical import canonical_json
from repro.evaluation.runner import CampaignCell, register_cell_kind, run_campaign
from repro.evaluation.store import ArtifactStore
from repro.systems.base import ConfigurableSystem
from repro.systems.faults import FaultCatalogue, discover_faults
from repro.systems.registry import get_system

#: The Fig. 13 subject-system grid.
DEFAULT_SYSTEMS = ("deepstream", "xception", "bert", "deepspeech", "x264",
                   "sqlite")


@dataclass
class FaultCampaignReport:
    """Fault counts per system."""

    catalogues: dict[str, FaultCatalogue] = field(default_factory=dict)

    def counts(self) -> dict[str, dict[str, int]]:
        return {name: catalogue.counts()
                for name, catalogue in self.catalogues.items()}

    def totals(self) -> dict[str, int]:
        return {name: len(catalogue)
                for name, catalogue in self.catalogues.items()}

    def total_single_objective(self) -> int:
        return sum(len(c.single_objective()) for c in self.catalogues.values())

    def total_multi_objective(self) -> int:
        return sum(len(c.multi_objective()) for c in self.catalogues.values())

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        return {name: catalogue.to_dict()
                for name, catalogue in self.catalogues.items()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultCampaignReport":
        return cls(catalogues={name: FaultCatalogue.from_dict(entry)
                               for name, entry in payload.items()})

    def to_json(self) -> str:
        """Canonical JSON form — byte-identical across serial/parallel runs."""
        return canonical_json(self.to_dict())


def _validated_objectives(system: ConfigurableSystem,
                          objectives: Sequence[str] | None
                          ) -> list[str] | None:
    """Objectives restricted to the system, or ``None`` for all of them.

    Objectives unknown to *this* system are dropped (a cross-system campaign
    legitimately mixes objective vocabularies), but if none of the requested
    objectives exist the caller named the wrong thing entirely — silently
    widening to every objective would mislabel the campaign, so that is a
    :class:`ValueError`.
    """
    if objectives is None:
        return None
    known = [o for o in objectives if o in system.objective_names]
    if not known:
        unknown = [o for o in objectives if o not in system.objective_names]
        raise ValueError(
            f"unknown objectives {unknown!r} for system {system.name!r}; "
            f"available objectives: {list(system.objective_names)!r}")
    return known


@register_cell_kind("fault_catalogue")
def discover_fault_catalogue(system: str, hardware: str, n_samples: int,
                             percentile: float, seed: int,
                             objectives: Sequence[str] | None = None,
                             simulate_measurement_seconds: float = 0.0
                             ) -> dict:
    """Discover the fault catalogue of one system on one platform.

    ``simulate_measurement_seconds`` models the wall-clock latency of the
    real ground-truth measurement campaign (the simulator is instantaneous;
    the paper's systems take minutes per campaign), which is what the
    orchestration benchmarks overlap across workers.
    """
    if simulate_measurement_seconds > 0.0:
        time.sleep(float(simulate_measurement_seconds))
    subject = get_system(system, hardware=hardware)
    catalogue = discover_faults(subject, n_samples=int(n_samples),
                                percentile=float(percentile),
                                objectives=_validated_objectives(subject,
                                                                 objectives),
                                seed=seed)
    return catalogue.to_dict()


def fault_campaign_cells(systems: Sequence[str] = DEFAULT_SYSTEMS,
                         hardware: str | Sequence[str] = "TX2",
                         n_samples: int = 300, percentile: float = 98.0,
                         objectives: Sequence[str] | None = None,
                         simulate_measurement_seconds: float = 0.0
                         ) -> list[CampaignCell]:
    """Enumerate the campaign grid: one cell per (system, hardware) pair."""
    platforms = [hardware] if isinstance(hardware, str) else list(hardware)
    cells = []
    for platform in platforms:
        for name in systems:
            spec: dict[str, object] = {
                "system": name, "hardware": platform,
                "n_samples": int(n_samples),
                "percentile": float(percentile),
            }
            if objectives is not None:
                spec["objectives"] = list(objectives)
            if simulate_measurement_seconds:
                spec["simulate_measurement_seconds"] = float(
                    simulate_measurement_seconds)
            cells.append(CampaignCell(kind="fault_catalogue", spec=spec))
    return cells


def run_fault_campaign(seed: int = 0, parallel: bool = False,
                       max_workers: int | None = None,
                       store: ArtifactStore | None = None,
                       **grid) -> FaultCampaignReport:
    """Discover faults for every requested system through the campaign runner.

    ``grid`` holds the keyword arguments of :func:`fault_campaign_cells`
    (systems, hardware, sample size, percentile, objectives).  ``seed`` is
    the root of the per-cell seed tree; ``parallel`` / ``max_workers``
    select the execution mode (results are identical either way) and
    ``store`` makes the campaign resumable.  Catalogues are labelled by
    system, or ``system@hardware`` when ``hardware`` names several
    platforms.

    Raises :class:`ValueError` if, for any requested system, none of the
    requested ``objectives`` exist on that system.
    """
    cells = fault_campaign_cells(**grid)
    # Validate eagerly so a misnamed objective fails fast and identically in
    # serial, parallel and store-resumed runs.
    for cell in cells:
        if "objectives" in cell.spec:
            _validated_objectives(
                get_system(cell.spec["system"],
                           hardware=cell.spec["hardware"]),
                cell.spec["objectives"])
    campaign = run_campaign(cells, root_seed=seed, parallel=parallel,
                            max_workers=max_workers, store=store)

    report = FaultCampaignReport()
    multi_platform = not isinstance(grid.get("hardware", ""), str)
    for outcome in campaign.outcomes:
        catalogue = FaultCatalogue.from_dict(outcome.result)
        label = catalogue.system
        if multi_platform:
            label = f"{catalogue.system}@{outcome.cell.spec['hardware']}"
        report.catalogues[label] = catalogue
    return report
