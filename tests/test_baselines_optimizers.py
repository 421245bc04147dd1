"""Tests for the optimization baselines (SMAC, PESMO, random search)."""

import numpy as np
import pytest

from repro.baselines.pesmo import PESMOOptimizer
from repro.baselines.random_search import RandomSearchOptimizer
from repro.baselines.smac import SMACOptimizer
from repro.metrics.optimization import pareto_front
from repro.systems.case_study import make_case_study


def test_smac_improves_over_initial_random_sample():
    system = make_case_study()
    smac = SMACOptimizer(system, budget=30, initial_samples=12, seed=0,
                         n_candidates=60, n_trees=8)
    result = smac.optimize("FPS")
    assert result.samples_used == 30
    # The trace tracks the best-so-far (maximised objective never worsens).
    best = [entry["FPS"] for entry in result.trace]
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(best, best[1:]))
    assert result.best_objectives["FPS"] >= best[0]


def test_smac_minimises_energy():
    system = make_case_study()
    smac = SMACOptimizer(system, budget=25, initial_samples=10, seed=1,
                         n_candidates=40, n_trees=6)
    result = smac.optimize("Energy")
    best = [entry["Energy"] for entry in result.trace]
    assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(best, best[1:]))


def test_pesmo_returns_pareto_front():
    system = make_case_study()
    pesmo = PESMOOptimizer(system, budget=25, initial_samples=10, seed=2,
                           n_candidates=30, n_trees=5)
    result = pesmo.optimize(["FPS", "Energy"])
    assert result.samples_used == 25
    front = result.pareto_points(["FPS", "Energy"])
    assert front
    # The attached minimised front is mutually non-dominated.
    assert front == pareto_front(front)


def test_random_search_baseline_floor():
    system = make_case_study()
    random_search = RandomSearchOptimizer(system, budget=20, seed=3)
    result = random_search.optimize("FPS")
    assert result.samples_used == 20
    assert result.best_objectives["FPS"] >= min(
        e["FPS"] for e in result.evaluated)


def test_optimizers_accept_initial_measurements():
    system = make_case_study()
    rng = np.random.default_rng(4)
    seed_measurements = system.measure_many(
        system.space.sample_configurations(8, rng), rng=rng)
    smac = SMACOptimizer(make_case_study(), budget=12, initial_samples=8,
                         seed=4, n_candidates=30, n_trees=5)
    result = smac.optimize("FPS", initial_measurements=seed_measurements)
    assert result.samples_used == 12


def test_smac_relevant_options_restriction():
    system = make_case_study()
    smac = SMACOptimizer(system, budget=15, initial_samples=8, seed=5,
                         relevant_options=["GPUFrequency", "CPUFrequency"],
                         n_candidates=30, n_trees=5)
    assert smac.option_names == ["GPUFrequency", "CPUFrequency"]
    result = smac.optimize("FPS")
    assert result.best_objectives["FPS"] > 0


def test_expected_improvement_equals_the_scipy_stats_form_bit_for_bit():
    """SMAC's EI takes the normal cdf from ``scipy.special.ndtr`` and the pdf
    from its closed form; both equal ``scipy.stats.norm`` bit for bit."""
    from scipy import stats

    rng = np.random.default_rng(7)
    mean = rng.normal(scale=40.0, size=100_000)
    std = np.abs(rng.normal(scale=3.0, size=mean.size))
    std[:100] = 0.0  # clamped to 1e-9: |z| up to ~1e11
    mean[100:103] = [np.inf, -np.inf, np.nan]
    best = 1.5
    clamped = np.maximum(std, 1e-9)
    z = (best - mean) / clamped
    with np.errstate(invalid="ignore"):
        got = SMACOptimizer._expected_improvement(mean, std, best)
        want = ((best - mean) * stats.norm.cdf(z)
                + clamped * stats.norm.pdf(z))
    assert got.tobytes() == want.tobytes()
