"""Prediction-quality and stability metrics for the transferability analyses.

Fig. 4 and Fig. 5 compare performance-influence models and causal models
learned in a *source* environment against the same models learned in a
*target* environment: the number of common terms, the prediction error (MAPE)
within and across environments, the Spearman rank correlation between the
term coefficients, and the coefficient differences of common terms.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


def mean_absolute_percentage_error(actual: Sequence[float],
                                   predicted: Sequence[float]) -> float:
    """MAPE in percent, robust to zero actuals."""
    actual_arr = np.asarray(actual, dtype=float)
    predicted_arr = np.asarray(predicted, dtype=float)
    denominator = np.maximum(np.abs(actual_arr), 1e-9)
    return float(np.mean(np.abs(actual_arr - predicted_arr) / denominator)
                 * 100.0)


def rank_correlation(source_terms: Mapping[str, float],
                     target_terms: Mapping[str, float]) -> dict[str, float]:
    """Spearman rank correlation between coefficients of common terms."""
    common = sorted(set(source_terms) & set(target_terms))
    if len(common) < 3:
        return {"rho": 0.0, "p_value": 1.0, "common_terms": float(len(common))}
    source_values = [source_terms[t] for t in common]
    target_values = [target_terms[t] for t in common]
    from scipy.stats import spearmanr

    rho, p_value = spearmanr(source_values, target_values)
    if np.isnan(rho):
        rho, p_value = 0.0, 1.0
    return {"rho": float(rho), "p_value": float(p_value),
            "common_terms": float(len(common))}


def term_stability(source_terms: Mapping[str, float],
                   target_terms: Mapping[str, float]) -> dict[str, float]:
    """Term-stability summary used for the Fig. 4 bar groups.

    Reports the number of terms in each model, the number of common terms,
    and the mean absolute coefficient difference over common terms
    (the Fig. 5 quantity).
    """
    common = set(source_terms) & set(target_terms)
    if common:
        differences = [abs(source_terms[t] - target_terms[t]) for t in common]
        mean_diff = float(np.mean(differences))
    else:
        mean_diff = 0.0
    return {
        "source_terms": float(len(source_terms)),
        "target_terms": float(len(target_terms)),
        "common_terms": float(len(common)),
        "mean_coefficient_difference": mean_diff,
    }
