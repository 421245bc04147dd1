"""Residual-drift detection for long-running serving workloads.

A resident model goes stale when the *relationship* between configurations
and performance shifts — a kernel upgrade, a workload regime change, a
thermal throttle.  It does **not** go stale merely because clients start
measuring different configurations: the fitted mechanisms already explain
that.  :class:`DriftDetector` therefore watches the **prediction
residuals** of the live observation stream rather than the raw objective
values: for every incoming :class:`~repro.systems.base.Measurement` it
computes ``observed - predicted`` per objective against the *current*
engine, folds the residual rows into a
:class:`~repro.stats.sufficient.SufficientStats` window (each batch
replaces the window with :meth:`~repro.stats.sufficient.SufficientStats.extended`,
which folds only the new rows), and compares the window's residual
distribution against the residuals of the model's own training data.

Two standardized shift statistics are tracked per objective and the
detector's :meth:`score` is their maximum over objectives:

* **mean shift** — ``|mean_w - mean_b| / (std_b / sqrt(n_w))``, the z
  statistic of the window's mean residual under the training residual
  distribution (a well-fitted model keeps this near 0: residuals stay
  centred);
* **variance shift** — ``sqrt(n_w / 2) * |log(var_w / var_b)|``, the
  large-sample z statistic of a log-variance ratio (catches noise-regime
  changes that leave the mean untouched).

Both are unit-free z-like quantities, so one ``drift_threshold`` (default
6.0 — far in the tail, refreshes only on unambiguous shifts) works across
subjects and objectives.  Scoring is pure floating-point arithmetic over a
deterministic stream, so every replica that sees the same observations
makes the same refresh decisions — the property the sharded tier's
byte-identity contract rests on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.stats.dataset import Dataset
from repro.stats.sufficient import SufficientStats
from repro.systems.base import Measurement

#: Variances below this are treated as degenerate (constant residuals).
_VAR_EPS = 1e-18

#: Default trigger: a window must shift by more than six baseline standard
#: errors before a refresh is worth its relearn cost.
DEFAULT_DRIFT_THRESHOLD = 6.0


class DriftDetector:
    """Per-subject residual-shift detector over a live observation stream.

    Parameters
    ----------
    objectives:
        Objective columns to track (usually the subject's objective names).
    threshold:
        Drift score at or above which :meth:`should_refresh` fires.
    min_window:
        Observations the window must hold before a refresh can trigger —
        guards against deciding on one or two noisy points.
    max_window:
        Window capacity: once this many observations accumulate without a
        refresh, the window restarts (tumbles) at the next batch.  Bounds
        both the memory of a long stationary stream and the dilution of a
        fresh shift by old stationary residuals.

    Notes
    -----
    The detector is driven by its owner (the
    :class:`~repro.service.registry.ModelRegistry`) under the registry
    entry's lock, in three moves: :meth:`rebaseline` against the engine and
    training measurements whenever the model (re)fits, :meth:`extend` for
    every incoming observation batch, and :meth:`score` /
    :meth:`should_refresh` to decide.  It holds no locks of its own.
    """

    def __init__(self, objectives: Sequence[str],
                 threshold: float = DEFAULT_DRIFT_THRESHOLD,
                 min_window: int = 4, max_window: int = 256) -> None:
        if threshold <= 0:
            raise ValueError("drift threshold must be positive")
        self.objectives = [str(o) for o in objectives]
        if not self.objectives:
            raise ValueError("drift detection needs at least one objective")
        self.threshold = float(threshold)
        self.min_window = max(int(min_window), 1)
        self.max_window = max(int(max_window), self.min_window)
        self._baseline_mean: np.ndarray | None = None
        self._baseline_var: np.ndarray | None = None
        self._baseline_n = 0
        self._restart_window()
        #: score of the last :meth:`extend` call (observability handle).
        self.last_score = 0.0
        #: scores in :meth:`extend` call order, for tests and tracing.
        self.score_history: list[float] = []

    # ------------------------------------------------------------- residuals
    def _residual_rows(self, engine,
                       measurements: Sequence[Measurement]) -> list[dict]:
        """Per-measurement ``observed - predicted`` rows for the tracked
        objectives, predicted by the current engine in one batched call."""
        configurations = [m.configuration for m in measurements]
        predicted = engine.predict_batch(configurations, self.objectives)
        return [{objective: float(measurement.objectives[objective])
                 - float(prediction[objective])
                 for objective in self.objectives}
                for measurement, prediction in zip(measurements, predicted)]

    # ------------------------------------------------------------- lifecycle
    def _restart_window(self) -> None:
        self._window = SufficientStats(Dataset(
            self.objectives, np.empty((0, len(self.objectives)))))
        #: row count of every batch folded into the window, in order: a
        #: restored window refolds the same blocks, so its sums (and every
        #: later score) equal the live window's bit for bit.
        self._window_blocks: list[int] = []

    def _fold(self, rows: Sequence[dict]) -> None:
        self._window = self._window.extended(rows)
        self._window_blocks.append(len(rows))

    def rebaseline(self, engine,
                   measurements: Sequence[Measurement]) -> None:
        """Re-anchor the baseline to the current model and its training data.

        Called whenever the model is (re)fitted: the training residuals of
        the fresh model define what "no drift" looks like, and the live
        window restarts empty.

        Parameters
        ----------
        engine:
            The subject's current
            :class:`~repro.inference.engine.CausalInferenceEngine`.
        measurements:
            The measurements the current model was fitted on.
        """
        rows = self._residual_rows(engine, measurements)
        data = Dataset.from_rows(rows, columns=self.objectives)
        stats = SufficientStats(data)
        covariance = stats.covariance()
        self._baseline_mean = stats.means()
        self._baseline_var = np.maximum(np.diag(covariance).copy(), _VAR_EPS)
        self._baseline_n = stats.n_rows
        self._restart_window()
        self.last_score = 0.0

    def extend(self, engine, measurements: Sequence[Measurement]) -> float:
        """Fold a new observation batch into the window and return the score.

        Residuals are computed against the *current* engine at fold time
        and folded into the window as one block, and the updated drift
        score is returned.

        Parameters
        ----------
        engine:
            The subject's current engine.
        measurements:
            Newly observed measurements, in stream order.

        Returns
        -------
        float
            The drift score after folding (also stored in
            :attr:`last_score` and appended to :attr:`score_history`).
        """
        if self._baseline_mean is None:
            raise RuntimeError("rebaseline() must run before extend()")
        if self.window_size >= self.max_window:
            # Tumble: restart the window rather than let a long stationary
            # prefix dilute (and outgrow) whatever shift comes next.
            self._restart_window()
        rows = self._residual_rows(engine, measurements)
        if rows:
            self._fold(rows)
        self.last_score = self.score()
        self.score_history.append(self.last_score)
        return self.last_score

    # --------------------------------------------------------------- scoring
    @property
    def window_size(self) -> int:
        """Observations currently held in the live window."""
        return self._window.n_rows

    def score(self) -> float:
        """Current drift score: the max standardized shift over objectives.

        Returns 0.0 while the window is smaller than ``min_window`` (not
        enough evidence to act on either way).
        """
        if self._baseline_mean is None:
            return 0.0
        n = self._window.n_rows
        if n < self.min_window:
            return 0.0
        window_mean = self._window.means()
        window_var = np.maximum(
            np.diag(self._window.covariance()), _VAR_EPS)
        score = 0.0
        for i in range(len(self.objectives)):
            std_error = math.sqrt(self._baseline_var[i] / n)
            mean_shift = abs(window_mean[i] - self._baseline_mean[i]) \
                / max(std_error, math.sqrt(_VAR_EPS))
            variance_shift = math.sqrt(n / 2.0) * abs(
                math.log(window_var[i] / self._baseline_var[i]))
            score = max(score, mean_shift, variance_shift)
        return float(score)

    def should_refresh(self) -> bool:
        """Whether the window has drifted past the refresh threshold."""
        return self.score() >= self.threshold

    def state(self) -> dict:
        """JSON-friendly snapshot for stats endpoints and logs."""
        return {"threshold": self.threshold,
                "window_size": self.window_size,
                "baseline_n": self._baseline_n,
                "last_score": float(self.last_score)}

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Durable snapshot of the detector's decision state (bitwise).

        The baseline moments are what future drift scores are computed
        against, so they are captured via the lossless array codec.  The
        model store snapshots entries at refresh boundaries — right after
        :meth:`rebaseline`, when the live window is empty — so the window
        normally serializes as ``None``; a non-empty window is captured as
        its residual rows and the sizes of the batches they were folded in.
        """
        from repro.stats.codec import array_to_doc

        window = None
        if self.window_size:
            window = array_to_doc(self._window.data.values)
        return {
            "objectives": list(self.objectives),
            "threshold": self.threshold,
            "min_window": self.min_window,
            "max_window": self.max_window,
            "baseline_mean": (None if self._baseline_mean is None
                              else array_to_doc(self._baseline_mean)),
            "baseline_var": (None if self._baseline_var is None
                             else array_to_doc(self._baseline_var)),
            "baseline_n": int(self._baseline_n),
            "window": window,
            "window_blocks": list(self._window_blocks),
            "last_score": float(self.last_score),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DriftDetector":
        """Rebuild the detector snapshotted by :meth:`to_dict`.

        The refresh schedule downstream of the reload is byte-identical to
        the schedule a continuously running detector would have produced,
        because scoring is pure floating-point arithmetic over the
        restored baseline and the (normally empty) restored window, whose
        rows are refolded in the batches they arrived in.  A document
        without ``window_blocks`` refolds its window as one batch.
        """
        from repro.stats.codec import array_from_doc

        detector = cls(payload["objectives"],
                       threshold=float(payload["threshold"]),
                       min_window=int(payload["min_window"]),
                       max_window=int(payload["max_window"]))
        if payload.get("baseline_mean") is not None:
            detector._baseline_mean = array_from_doc(payload["baseline_mean"])
            detector._baseline_var = array_from_doc(payload["baseline_var"])
            detector._baseline_n = int(payload["baseline_n"])
        if payload.get("window") is not None:
            rows = Dataset(detector.objectives,
                           array_from_doc(payload["window"])).rows()
            start = 0
            for size in payload.get("window_blocks") or [len(rows)]:
                detector._fold(rows[start:start + size])
                start += size
        detector.last_score = float(payload.get("last_score", 0.0))
        return detector
