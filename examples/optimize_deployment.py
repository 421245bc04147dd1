"""Multi-objective optimization of an on-device ML deployment.

The scenario mirrors Fig. 15: find configurations of the Xception image
recognition system (on a Jetson TX2) that trade off inference latency against
energy.  The single-objective Unicorn-vs-SMAC comparison runs as a campaign
grid (one cell per system × objective) through the parallel campaign runner —
pass ``--parallel`` to overlap the cells over a process pool; the results are
identical either way.  The multi-objective comparison against the PESMO-style
baseline reports the best configurations and the Pareto front.

Run with:  python examples/optimize_deployment.py [--parallel]
                                                  [--max-workers N]
"""

from __future__ import annotations

import argparse

from repro import get_system
from repro.baselines.pesmo import PESMOOptimizer
from repro.core.optimizer import UnicornOptimizer
from repro.core.unicorn import UnicornConfig
from repro.evaluation import CampaignCell, run_campaign
from repro.evaluation.relevant import relevant_options_for


BUDGET = 40
SEED = 2

#: The single-objective campaign grid: (system, hardware, objective) cells.
SCENARIOS = (
    ("xception", "TX2", "InferenceTime"),
    ("x264", "TX2", "EncodingTime"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parallel", action="store_true",
                        help="run the campaign cells over a process pool")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="worker-pool size for --parallel")
    args = parser.parse_args()

    # --------------------------------------------------- single objective
    mode = "parallel" if args.parallel else "serial"
    print(f"Single-objective optimization campaign (budget {BUDGET}, "
          f"{mode}, {len(SCENARIOS)} cells)…")
    cells = [CampaignCell("single_objective_optimization", {
        "system": system, "hardware": hardware, "objective": objective,
        "budget": BUDGET, "initial_samples": 15,
    }) for system, hardware, objective in SCENARIOS]
    rows = run_campaign(cells, root_seed=SEED, parallel=args.parallel,
                        max_workers=args.max_workers).results()
    for row in rows:
        print(f"  {row['system']:<9} {row['objective']:<14} "
              f"Unicorn best: {row['unicorn_best']:7.1f}   "
              f"SMAC best: {row['smac_best']:7.1f}   "
              f"({row['unicorn_samples']} measurements each)")
    print()

    # ----------------------------------------------------- multi objective
    relevant = relevant_options_for("xception")
    print("Multi-objective latency/energy optimization…")
    unicorn_mo = UnicornOptimizer(
        get_system("xception", hardware="TX2"),
        UnicornConfig(initial_samples=15, budget=BUDGET, seed=SEED,
                      relevant_options=relevant))
    unicorn_mo_result = unicorn_mo.optimize(
        objectives=["InferenceTime", "Energy"])

    pesmo = PESMOOptimizer(get_system("xception", hardware="TX2"),
                           budget=BUDGET, initial_samples=15, seed=SEED,
                           relevant_options=relevant)
    pesmo_result = pesmo.optimize(["InferenceTime", "Energy"])

    print("  Unicorn Pareto points (latency, energy):")
    for latency, energy in unicorn_mo_result.pareto_points(
            ["InferenceTime", "Energy"])[:8]:
        print(f"    ({latency:.1f}s, {energy:.1f}J)")
    print(f"  Unicorn best trade-off: {unicorn_mo_result.best_objectives}")
    print(f"  PESMO  best trade-off: {pesmo_result.best_objectives}")


if __name__ == "__main__":
    main()
