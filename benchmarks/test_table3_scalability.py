"""Table 3 — scalability of Unicorn to large configuration spaces.

Claims reproduced: growing the SQLite variable set from the 34-option
"relevant" scenario towards the 242-option scenario (and adding the extended
event set) increases the number of causal paths and candidate queries, but
the causal graph stays sparse (low average node degree) and the discovery +
query time grows far less than the variable count — no exponential blow-up.
"""

import pytest

from repro.evaluation.scalability import run_scalability_scenario

SCENARIOS = [
    # (label, extra options, extra events)
    ("sqlite_34opts_19events", 0, 0),
    ("sqlite_130opts_19events", 96, 0),
    ("sqlite_130opts_80events", 96, 61),
]


@pytest.mark.parametrize("label,extra_options,extra_events", SCENARIOS)
def test_table3_scalability(label, extra_options, extra_events, benchmark,
                            results_recorder):
    def _run():
        return run_scalability_scenario(
            "sqlite", "Xavier", n_extra_options=extra_options,
            n_extra_events=extra_events, objective="QueryTime",
            n_samples=40, debug_budget=30, seed=15)

    row = benchmark.pedantic(_run, rounds=1, iterations=1)
    results_recorder(f"table3_{label}", vars(row))

    print(f"\nTable 3 — {label}: options={row.n_options} "
          f"events={row.n_events} paths={row.n_paths} "
          f"queries={row.n_queries} degree={row.average_degree:.2f} "
          f"discovery={row.discovery_seconds:.1f}s "
          f"query={row.query_seconds:.1f}s debug={row.debug_seconds:.1f}s "
          f"total={row.total_seconds:.1f}s "
          f"gain={row.gain:.1f}%")

    # The learned graph stays sparse even at scale.
    assert row.average_degree < 8.0
    # Discovery and query evaluation complete in interactive time even for
    # the largest scenario (minutes, not hours).
    assert row.discovery_seconds < 300.0
    assert row.total_seconds < 900.0
    # Queries/paths exist so the scenario is non-trivial.
    assert row.n_paths >= 1
    assert row.n_queries >= 1
