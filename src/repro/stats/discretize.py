"""Discretization helpers.

Entropy-based orientation and the discrete CI test operate on categorical
codes; continuous measurements (for example latency in seconds or cache-miss
counts) are binned with equal-frequency (quantile) binning, which is robust to
the heavy-tailed performance distributions highlighted in the paper (Fig. 3).
"""

from __future__ import annotations

import numpy as np


def discretize_column(values: np.ndarray, bins: int = 8,
                      already_discrete: bool = False) -> np.ndarray:
    """Return integer codes for one column.

    Discrete columns are label-encoded as-is; continuous columns are binned
    into at most ``bins`` equal-frequency bins.
    """
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return discretize_matrix(values, bins=bins,
                             discrete_mask=[already_discrete])[:, 0]


def discretize_matrix(values: np.ndarray, bins: int = 8,
                      discrete_mask=None) -> np.ndarray:
    """Discretize every column of a matrix; see :func:`discretize_column`.

    One ``np.quantile`` pass over the column axis bins every binned column.
    """
    values = np.asarray(values, dtype=float)
    ordered = np.sort(values, axis=0)
    # Distinct values per column as ``np.unique`` counts them (NaNs once).
    distinct = 1 + ((ordered[1:] != ordered[:-1])
                    & ~np.isnan(ordered[:-1])).sum(axis=0)
    discrete = np.asarray(False if discrete_mask is None else discrete_mask,
                          dtype=bool)
    binned = ~discrete & (distinct > bins)
    # Column-major, so every column of codes is one contiguous array.
    out = np.empty(values.shape, dtype=np.int64, order="F")
    for j in np.flatnonzero(~binned):
        out[:, j] = np.unique(values[:, j], return_inverse=True)[1]
    if binned.any():
        quantiles = np.quantile(values[:, binned],
                                np.linspace(0, 1, bins + 1)[1:-1], axis=0)
        for j, edges in zip(np.flatnonzero(binned), quantiles.T):
            out[:, j] = np.digitize(values[:, j], np.unique(edges))
    return out
