"""Smoke and semantics tests for the evaluation runners.

These use deliberately tiny budgets so that the test suite stays fast; the
full paper-scale parameters live in the benchmark harness.
"""

import pytest

from repro.evaluation import (
    format_table,
    relevant_options_for,
    run_case_study,
    run_debugging_comparison,
    run_fault_campaign,
    run_scalability_scenario,
    run_single_objective_comparison,
    run_stability_analysis,
)


def test_relevant_options_lookup():
    assert "Bitrate" in relevant_options_for("deepstream")
    assert "PRAGMA_CACHE_SIZE" in relevant_options_for("sqlite")
    assert relevant_options_for("unknown-system") is None


def test_format_table_renders_rows():
    table = format_table([{"a": 1.0, "b": "x"}, {"a": 2.5, "b": "y"}],
                         title="demo")
    assert "demo" in table
    assert "2.50" in table
    assert format_table([]) == ""


@pytest.mark.slow
def test_debugging_comparison_small_run():
    comparison = run_debugging_comparison(
        "xception", "TX2", ["InferenceTime"],
        approaches=("unicorn", "bugdoc"), n_faults=1, budget=35,
        initial_samples=15, fault_samples=150, fault_percentile=95.0, seed=0)
    assert set(comparison.outcomes) == {"unicorn", "bugdoc"}
    for outcome in comparison.outcomes.values():
        assert 0.0 <= outcome.accuracy <= 100.0
        assert 0.0 <= outcome.precision <= 100.0
        assert 0.0 <= outcome.recall <= 100.0
        assert outcome.results
    rows = comparison.rows()
    assert len(rows) == 2


@pytest.mark.slow
def test_single_objective_optimization_comparison():
    comparison = run_single_objective_comparison(
        "x264", "TX2", "EncodingTime", budget=30, initial_samples=12, seed=0)
    assert comparison.unicorn.samples_used == 30
    assert comparison.smac.samples_used == 30
    assert comparison.unicorn_best() > 0
    assert comparison.smac_best() > 0


def test_fault_campaign_counts_singles_and_multis():
    report = run_fault_campaign(systems=("x264",), hardware="TX2",
                                n_samples=150, percentile=95.0, seed=1)
    assert "x264" in report.catalogues
    assert report.totals()["x264"] == len(report.catalogues["x264"])
    assert report.total_single_objective() + report.total_multi_objective() \
        == report.totals()["x264"]


@pytest.mark.slow
def test_stability_analysis_reports_both_model_families():
    report = run_stability_analysis("x264", "Xavier", "TX2", "EncodingTime",
                                    n_samples=80, seed=0)
    for entry in (report.influence, report.causal):
        assert "common_terms" in entry
        assert "cross_error" in entry
        assert entry["source_error"] >= 0


@pytest.mark.slow
def test_scalability_scenario_row_fields():
    row = run_scalability_scenario("sqlite", "Xavier", n_extra_options=0,
                                   n_extra_events=0, n_samples=30,
                                   debug_budget=25, seed=0)
    assert row.n_options >= 30
    assert row.n_events >= 19
    assert row.discovery_seconds > 0
    assert row.debug_seconds > 0
    assert row.total_seconds >= row.discovery_seconds + row.debug_seconds


@pytest.mark.slow
def test_case_study_report_contains_all_approaches():
    report = run_case_study(budget=40, seed=0)
    assert set(report.rows) == {"unicorn", "smac", "bugdoc", "forum"}
    assert report.fault_fps < 5.0
    assert report.row("forum").fps > report.fault_fps
    assert report.row("unicorn").gain_over_fault > 0
