"""Benchmark: incremental model maintenance vs. the from-scratch relearn.

Stage IV of the paper is explicitly incremental — new samples update the
causal model rather than rebuilding it (Fig. 10).  The seed reproduction
nevertheless re-ran the whole FCI pipeline from scratch on every
``Unicorn.measure_and_update``, recomputing each CI test with per-pair
least-squares regressions and discarding all discretization codes and
separating sets between iterations.

This benchmark drives the real active loop on the SQLite subject (budget
100, the paper's sampling budget) and, at every iteration, times

* the incremental refresh (`Unicorn.measure_and_update`'s model update +
  engine refresh), and
* a faithful reconstruction of the seed's from-scratch path on the exact
  same measurements (per-pair lstsq Fisher z, fresh G-test codes, fresh
  orienter, fresh engine).

The seed-style reference is slow, so the SQLite gate times it on a fixed
subsample of the iterations (every ``SEED_STYLE_STRIDE``-th, starting with
the first); the shorter trajectories of the other subjects time it on
every iteration.  Each timed iteration is one interleaved pair — the
incremental refresh, then the seed-style relearn on the same measurements
— and the speedup is the median of the per-pair ratios, so a swing in host
speed moves both sides of a ratio together.  It asserts a >= 3x median
speedup (>= 2x in quick mode, used by CI via ``RELEARN_BENCH_QUICK=1``)
and that the incremental model is *identical* (structural Hamming
distance 0) to a cold re-learn over all measurements.
Per-iteration timings for the x264, SQLite and DeepStream subjects go to
``benchmarks/results/summary.json`` through the ``results_recorder``
fixture.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from repro.core.unicorn import LoopState, Unicorn, UnicornConfig
from repro.discovery.entropic import EntropicOrienter
from repro.discovery.fci import fci
from repro.discovery.pipeline import CausalModelLearner, LearnedModel
from repro.graph.distances import structural_hamming_distance
from repro.inference.engine import CausalInferenceEngine
from repro.stats.dataset import Dataset
from repro.stats.discretize import discretize_column
from repro.stats.independence import fisher_z, g_square
from repro.systems.deepstream import make_deepstream
from repro.systems.sqlite import make_sqlite
from repro.systems.x264 import make_x264

QUICK = os.environ.get("RELEARN_BENCH_QUICK") == "1"
#: quick mode trims the loop for CI; the full run covers the whole budget.
TIMED_ITERATIONS = 8 if QUICK else 75
SECONDARY_ITERATIONS = 4 if QUICK else 15
#: every how many iterations the seed-style reference is timed.
SEED_STYLE_STRIDE = 2 if QUICK else 5
REQUIRED_SPEEDUP = 2.0 if QUICK else 3.0


# ---------------------------------------------------------------------------
# A faithful reconstruction of the seed's from-scratch relearn path
# ---------------------------------------------------------------------------
class _SeedMixedCITest:
    """The seed's CI dispatcher: per-pair lstsq Fisher z + fresh G codes.

    Reconstructed here so the benchmark keeps comparing against the original
    from-scratch implementation after the production path was optimised.  No
    ``test_batch`` is exposed, so the skeleton search takes the per-pair
    route the seed used.
    """

    def __init__(self, data: Dataset, alpha: float = 0.05,
                 bins: int = 6, max_cells_fraction: float = 0.2) -> None:
        self._data = data
        self._alpha = alpha
        self._bins = bins
        self._max_cells_fraction = max_cells_fraction
        self._codes: dict[str, np.ndarray] = {}

    @property
    def alpha(self) -> float:
        return self._alpha

    def _coded(self, column: str) -> np.ndarray:
        if column not in self._codes:
            self._codes[column] = discretize_column(
                self._data.column(column), bins=self._bins,
                already_discrete=self._data.is_discrete(column))
        return self._codes[column]

    def test(self, x, y, conditioning=()):
        involved = [x, y, *conditioning]
        if all(self._data.is_discrete(c) for c in involved):
            cells = 1
            for column in involved:
                cells *= len(np.unique(self._data.column(column)))
            if cells <= max(self._max_cells_fraction * self._data.n_rows, 8):
                cond = None
                if conditioning:
                    cond = np.column_stack(
                        [self._coded(c) for c in conditioning])
                return g_square(self._coded(x), self._coded(y), cond,
                                alpha=self._alpha)
        idx = self._data.column_index
        return fisher_z(self._data.values, idx(x), idx(y),
                        [idx(c) for c in conditioning], alpha=self._alpha)


def _seed_style_relearn(unicorn: Unicorn, state: LoopState) -> float:
    """Time one from-scratch relearn the way the seed did it.

    Fresh dataset, fresh per-pair CI test, cold FCI, fresh entropic orienter
    and a fresh inference engine — nothing survives from the previous
    iteration, which is exactly what ``Unicorn.learn`` did before the
    incremental maintenance layer.
    """
    config = unicorn.config
    started = time.perf_counter()
    data = unicorn.dataset_from_measurements(state.measurements)
    variables = [v for v in data.columns if v in unicorn.constraints.roles]
    ci_test = _SeedMixedCITest(data.subset(variables), alpha=config.alpha,
                               bins=config.bins)
    result = fci(variables, ci_test, constraints=unicorn.constraints,
                 max_condition_size=config.max_condition_size)
    orienter = EntropicOrienter(
        data.subset(variables), bins=config.bins,
        entropy_threshold_factor=config.entropy_threshold_factor,
        seed=config.seed)
    resolved = orienter.resolve(result.pag, unicorn.constraints)
    seed_model = LearnedModel(graph=resolved, pag=result.pag,
                              constraints=unicorn.constraints, data=data,
                              ci_tests_performed=result.tests_performed)
    CausalInferenceEngine(seed_model, unicorn.domains,
                          top_k_paths=config.top_k_paths,
                          max_contexts=config.max_contexts)
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Loop driver
# ---------------------------------------------------------------------------
def _drive_loop(system, iterations: int, seed: int = 0,
                time_seed_path: bool = True,
                seed_style_stride: int = SEED_STYLE_STRIDE) -> dict:
    config = UnicornConfig(initial_samples=25, budget=100, seed=seed,
                           max_condition_size=1)
    unicorn = Unicorn(system, config)
    state = LoopState()
    unicorn.collect_initial_samples(state)
    unicorn.learn(state)

    n_samples: list[int] = []
    incremental_seconds: list[float] = []
    seed_iterations = list(range(0, iterations, seed_style_stride))
    seed_seconds: list[float] = []
    proposal = system.space.default_configuration()
    for iteration in range(iterations):
        proposal = unicorn.propose_exploration(state, proposal)
        unicorn.measure_and_update(state, proposal)
        n_samples.append(state.samples_used)
        incremental_seconds.append(state.relearn_seconds[-1])
        if time_seed_path and iteration in seed_iterations:
            seed_seconds.append(_seed_style_relearn(unicorn, state))

    # Equivalence: a cold learn over everything measured must land on the
    # same graph as the chain of incremental updates.
    cold_learner = CausalModelLearner(
        unicorn.constraints, alpha=config.alpha,
        max_condition_size=config.max_condition_size, bins=config.bins,
        entropy_threshold_factor=config.entropy_threshold_factor,
        seed=config.seed)
    cold = cold_learner.learn(unicorn.dataset_from_measurements(
        state.measurements))
    shd = structural_hamming_distance(state.learned.graph, cold.graph)

    payload = {
        "system": system.name,
        "iterations": iterations,
        "n_samples": n_samples,
        "incremental_seconds": incremental_seconds,
        "median_incremental_seconds": float(np.median(incremental_seconds)),
        "shd_incremental_vs_cold": int(shd),
        "ci_cache_hit_rate": unicorn._learner.ci_cache.counters.hit_rate(),
    }
    if time_seed_path:
        sampled = [incremental_seconds[i] for i in seed_iterations]
        payload["seed_style_iterations"] = seed_iterations
        payload["seed_style_seconds"] = seed_seconds
        payload["median_seed_style_seconds"] = float(np.median(seed_seconds))
        payload["median_speedup"] = float(np.median(
            [s / i for s, i in zip(seed_seconds, sampled)]))
    return payload


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------
def test_incremental_relearn_speedup_sqlite(results_recorder):
    """SQLite at budget 100: the acceptance benchmark of the refactor."""
    payload = _drive_loop(make_sqlite(), TIMED_ITERATIONS, seed=0)
    results_recorder("incremental_relearn_sqlite", payload)

    print(f"\nSQLite budget-100 relearn: incremental "
          f"{payload['median_incremental_seconds'] * 1000:.1f} ms vs "
          f"seed-style {payload['median_seed_style_seconds'] * 1000:.1f} ms "
          f"-> {payload['median_speedup']:.1f}x, SHD="
          f"{payload['shd_incremental_vs_cold']}")

    assert payload["median_speedup"] >= REQUIRED_SPEEDUP
    assert payload["shd_incremental_vs_cold"] == 0
    assert math.isfinite(payload["median_incremental_seconds"])


@pytest.mark.parametrize("make_system", [make_x264, make_deepstream],
                         ids=["x264", "deepstream"])
def test_incremental_relearn_trajectory(make_system, results_recorder):
    """Record the perf trajectory on the other subjects (no hard gate)."""
    system = make_system()
    payload = _drive_loop(system, SECONDARY_ITERATIONS, seed=0,
                          seed_style_stride=1)
    results_recorder(f"incremental_relearn_{system.name}", payload)
    print(f"\n{system.name} relearn: incremental "
          f"{payload['median_incremental_seconds'] * 1000:.1f} ms vs "
          f"seed-style {payload['median_seed_style_seconds'] * 1000:.1f} ms "
          f"-> {payload['median_speedup']:.1f}x")
    assert payload["median_speedup"] > 1.0
