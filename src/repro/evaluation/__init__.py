"""Experiment runners shared by the benchmark harness and the examples.

Each module corresponds to one family of experiments in the paper:

* :mod:`repro.evaluation.debugging` — Table 2a/2b, Table 14, Fig. 14
  (debugging effectiveness and sample efficiency against CBI/DD/EnCore/BugDoc).
* :mod:`repro.evaluation.optimization` — Fig. 15 (single-objective vs SMAC,
  multi-objective vs PESMO, Pareto fronts).
* :mod:`repro.evaluation.transferability` — Fig. 16/17, Table 15 and the
  Fig. 4/5/21/22 stability analyses of influence vs causal models.
* :mod:`repro.evaluation.scalability` — Table 3.
* :mod:`repro.evaluation.case_study` — Section 5 / Fig. 12.
* :mod:`repro.evaluation.fault_campaign` — Fig. 13 fault catalogue.
* :mod:`repro.evaluation.service_campaign` — serving-layer throughput
  (single-process and sharded drift-aware tiers), cold start / crash
  recovery and rolling-refresh availability; no paper counterpart — it
  measures the north-star scaling goal.
* :mod:`repro.evaluation.self_debug_campaign` — the self-debugging loop:
  record a traced workload under a misconfigured deployment, debug it on
  the serving stack's causal twin
  (:func:`repro.systems.serving_system.make_serving_system`), replay the
  recommendation and verify it on the real service.

Runners return plain dictionaries / dataclasses so benchmarks can both assert
on them and print paper-style rows.

Grids run as **campaign cells** (:mod:`repro.evaluation.runner`): an
experiment function registered as a cell kind is its own executor, so a
:class:`~repro.evaluation.runner.CampaignCell` is just ``(kind, spec)``
with ``spec`` the function's keyword arguments.
:class:`~repro.evaluation.runner.ParallelRunner` (or
:func:`~repro.evaluation.runner.run_campaign`) executes cells serially or
over a process pool with per-cell seeds derived from one root
:class:`numpy.random.SeedSequence` tree (serial and parallel runs are
bit-identical), and the :class:`~repro.evaluation.store.ArtifactStore`
makes interrupted campaigns resumable.  The registered kinds are
``fault_catalogue`` (:func:`fault_campaign_cells` builds the Fig. 13
grid), ``single_objective_optimization``, ``service_throughput``,
``sharded_service_throughput``, ``cold_start_recovery``,
``rolling_refresh`` and ``self_debugging``.
"""

from repro.evaluation.relevant import relevant_options_for
from repro.evaluation.runner import (
    CampaignCell,
    CampaignReport,
    CellOutcome,
    ParallelRunner,
    cell_kinds,
    derive_cell_seeds,
    register_cell_kind,
    run_campaign,
)
from repro.canonical import canonical_json, content_hash
from repro.evaluation.store import ArtifactStore
from repro.evaluation.debugging import (
    DebuggingComparison,
    run_debugging_comparison,
)
from repro.evaluation.optimization import (
    run_multi_objective_comparison,
    run_single_objective_comparison,
)
from repro.evaluation.transferability import (
    run_hardware_transfer,
    run_stability_analysis,
    run_workload_transfer,
)
from repro.evaluation.scalability import run_scalability_scenario
from repro.evaluation.service_campaign import (
    run_cold_start_recovery,
    run_rolling_refresh,
    run_service_throughput,
    run_sharded_service_throughput,
)
from repro.evaluation.self_debug_campaign import run_self_debugging
from repro.evaluation.case_study import run_case_study
from repro.evaluation.fault_campaign import (
    FaultCampaignReport,
    fault_campaign_cells,
    run_fault_campaign,
)
from repro.evaluation.tables import format_table

__all__ = [
    "relevant_options_for",
    # campaign orchestration
    "CampaignCell",
    "CampaignReport",
    "CellOutcome",
    "ParallelRunner",
    "ArtifactStore",
    "canonical_json",
    "content_hash",
    "cell_kinds",
    "derive_cell_seeds",
    "register_cell_kind",
    "run_campaign",
    # experiment families
    "DebuggingComparison",
    "run_debugging_comparison",
    "run_single_objective_comparison",
    "run_multi_objective_comparison",
    "run_hardware_transfer",
    "run_workload_transfer",
    "run_stability_analysis",
    "run_scalability_scenario",
    "run_cold_start_recovery",
    "run_rolling_refresh",
    "run_service_throughput",
    "run_sharded_service_throughput",
    "run_self_debugging",
    "run_case_study",
    "FaultCampaignReport",
    "fault_campaign_cells",
    "run_fault_campaign",
    "format_table",
]
