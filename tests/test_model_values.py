"""Models, datasets and statistics are values.

An incremental update (Stage IV of Unicorn) returns a new model over new
data with new statistics; nothing an earlier handle holds changes under it.

* a :class:`LearnedModel` and a :class:`CausalInferenceEngine` built from it
  keep their rows across an update of that model, and the engine's
  canonical answers stay byte-identical;
* a :class:`Dataset`'s array is read-only;
* :meth:`SufficientStats.extended` leaves the statistics it extends
  unchanged, and its covariance equals, bit for bit, the one the same
  block-by-block fold gave when rows were appended in place (pinned as a
  digest);
* a :class:`DriftDetector` restored from its snapshot after several
  batches scores the next batch exactly as the live detector does.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.canonical import canonical_json
from repro.discovery.pipeline import CausalModelLearner
from repro.inference.engine import CausalInferenceEngine
from repro.inference.queries import QoSConstraint
from repro.service.drift import DriftDetector
from repro.stats.dataset import Dataset
from repro.stats.sufficient import SufficientStats
from repro.systems.base import Measurement
from repro.systems.cache_example import make_cache_example

#: SHA-256 of the covariance bytes after the fold of ``_blocks()`` —
#: recorded from statistics that folded the same blocks as in-place
#: appends, so the value contract keeps the sums bit for bit.
BLOCK_FOLD_COVARIANCE_SHA256 = \
    "ceda1e7582a43c39fc0c250db56aa972640a0ed98a547f732ad291a00922a917"


def _answers(engine: CausalInferenceEngine, system, seed: int) -> str:
    """Canonical JSON of a mix of batched engine queries."""
    rng = np.random.default_rng(seed)
    options = sorted(engine.domains)
    configurations = system.space.sample_configurations(6, rng)
    interventions = [{option: float(rng.choice(engine.domains[option]))}
                     for option in options]
    answers = {}
    for objective, direction in system.objectives.items():
        values = engine.learned_model.data.column(objective)
        threshold = float(np.median(values))
        answers[objective] = {
            "predict": engine.predict_batch(configurations, [objective]),
            "do": engine.interventional_expectations_batch(objective,
                                                           interventions),
            "ace": engine.causal_effects_batch(options, objective),
            "satisfied": [engine.satisfaction_probability(
                QoSConstraint(objective, direction, threshold), intervention)
                for intervention in interventions],
        }
    return canonical_json(answers)


def test_model_and_engine_held_across_an_update_keep_their_rows():
    system = make_cache_example()
    rng = np.random.default_rng(17)
    _, data = system.random_dataset(80, rng)
    learner = CausalModelLearner(system.constraints(), max_condition_size=2)
    model = learner.learn(data)
    domains = {name: system.space.option(name).values
               for name in system.space.option_names}
    engine = CausalInferenceEngine(model, domains)
    rows_before = model.data.values.tobytes()
    answers_before = _answers(engine, system, seed=3)

    new_rows = [m.as_row() for m in system.measure_many(
        system.space.sample_configurations(12, rng), rng=rng)]
    updated = learner.update(model, new_rows)
    updated = learner.update(updated, new_rows[:3])

    assert updated.n_samples == 80 + 15
    assert model.n_samples == 80 and data.n_rows == 80
    assert model.data.values.tobytes() == rows_before
    assert engine.learned_model is model
    assert _answers(engine, system, seed=3) == answers_before


def test_dataset_values_are_read_only():
    data = Dataset(["a", "b"], np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError):
        data.values[0, 0] = 99.0
    with pytest.raises(ValueError):
        data.column("b")[:] = 0.0
    assert data.values.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


def _blocks() -> tuple[list[str], np.ndarray, list[tuple[int, int]]]:
    columns = ["a", "b", "c", "d"]
    rng = np.random.default_rng(31)
    values = (rng.normal(size=(46, 4)) * [1.0, 1e3, 1e-2, 5.0]
              + [0.0, 1e9, 3.0, -7.0])
    return columns, values, [(40, 41), (41, 44), (44, 46)]


def test_extended_leaves_the_stats_unchanged_and_matches_the_block_fold():
    columns, values, blocks = _blocks()
    stats = SufficientStats(Dataset(columns, values[:40]))
    for start, stop in blocks:
        covariance = stats.covariance().copy()
        means = stats.means().copy()
        n_rows, data = stats.n_rows, stats.data
        grown = stats.extended([dict(zip(columns, row))
                                for row in values[start:stop]])
        assert grown.n_rows == stop and grown.data.n_rows == stop
        assert stats.n_rows == n_rows and stats.data is data
        assert data.n_rows == start
        assert stats.covariance().tobytes() == covariance.tobytes()
        assert stats.means().tobytes() == means.tobytes()
        stats = grown
    digest = hashlib.sha256(stats.covariance().tobytes()).hexdigest()
    assert digest == BLOCK_FOLD_COVARIANCE_SHA256
    # Summing every row at once rounds differently: the pin tells the
    # block fold apart from a from-scratch rebuild.
    fresh = SufficientStats(Dataset(columns, values))
    assert hashlib.sha256(fresh.covariance().tobytes()).hexdigest() \
        != BLOCK_FOLD_COVARIANCE_SHA256


class _ZeroEngine:
    """Predicts 0 for every objective, so residuals are the observations."""

    def predict_batch(self, configurations, targets):
        return [{target: 0.0 for target in targets}
                for _ in configurations]


def test_drift_detector_round_trip_scores_the_next_batch_identically():
    rng = np.random.default_rng(3)

    def batch(n, shift):
        latency = rng.normal(shift, 1.7, n) * 1e3 + 12345.678
        throughput = rng.normal(0.0, 3.0, n)
        return [Measurement({"o": 1.0}, {},
                            {"lat": float(a), "thr": float(b)}, "env")
                for a, b in zip(latency, throughput)]

    engine = _ZeroEngine()
    mismatches = 0
    for _ in range(20):
        live = DriftDetector(["lat", "thr"], min_window=2)
        live.rebaseline(engine, batch(30, 0.0))
        for size in (3, 1, 2, 5, 1):
            live.extend(engine, batch(size, 0.3))
        restored = DriftDetector.from_dict(live.to_dict())
        assert restored.window_size == live.window_size == 12
        assert restored.score() == live.score()
        following = batch(2, 0.5)
        mismatches += (live.extend(engine, following)
                       != restored.extend(engine, following))
    assert mismatches == 0
