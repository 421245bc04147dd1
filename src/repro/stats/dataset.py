"""A lightweight column-named dataset.

The offline environment provides numpy but not pandas, so measurement data is
carried in a small ``Dataset`` wrapper: a 2-D float array with named columns
and per-column metadata about whether a column is discrete.  All discovery,
inference and baseline code operates on ``Dataset`` instances.

A dataset is a value: its array is read-only, and adding rows
(:meth:`Dataset.append_rows`) returns a new dataset.  Whatever is derived
from a dataset — sufficient statistics, discretization codes, fitted
equations, column means — stays valid for as long as it is held.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np


class Dataset:
    """A named-column matrix of measurements.

    Parameters
    ----------
    columns:
        Column names, in order.
    values:
        Array of shape ``(n_rows, n_columns)``.  Copied, cast to float and
        made read-only.
    discrete:
        Optional set of column names whose values should be treated as
        discrete (categorical / integer-coded) by statistical tests.
    """

    def __init__(self, columns: Sequence[str], values: np.ndarray,
                 discrete: Iterable[str] = ()) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if values.shape[1] != len(columns):
            raise ValueError(
                f"expected {len(columns)} columns, got {values.shape[1]}")
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column names")
        self._columns = list(columns)
        self._index = {name: i for i, name in enumerate(self._columns)}
        self._values = values.copy()
        self._values.setflags(write=False)
        self._discrete = {c for c in discrete if c in self._index}

    # ------------------------------------------------------------ properties
    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    @property
    def values(self) -> np.ndarray:
        """The measurement matrix (read-only)."""
        return self._values

    @property
    def discrete_columns(self) -> set[str]:
        return set(self._discrete)

    @property
    def n_rows(self) -> int:
        return self._values.shape[0]

    @property
    def n_columns(self) -> int:
        return self._values.shape[1]

    def __len__(self) -> int:
        return self.n_rows

    def is_discrete(self, column: str) -> bool:
        return column in self._discrete

    # --------------------------------------------------------------- access
    def column(self, name: str) -> np.ndarray:
        """Return a copy-free view of one column."""
        return self.values[:, self._index[name]]

    def column_index(self, name: str) -> int:
        return self._index[name]

    def subset(self, columns: Sequence[str]) -> "Dataset":
        """Dataset restricted to the given columns (in the given order)."""
        idx = [self._index[c] for c in columns]
        return Dataset(columns, self.values[:, idx],
                       discrete=[c for c in columns if c in self._discrete])

    def row(self, i: int) -> dict[str, float]:
        """Row ``i`` as a ``{column: value}`` mapping."""
        if not 0 <= i < self.n_rows:
            raise IndexError(i)
        return {c: float(self._values[i, j])
                for j, c in enumerate(self._columns)}

    def rows(self) -> list[dict[str, float]]:
        return [self.row(i) for i in range(self.n_rows)]

    # ------------------------------------------------------------ construction
    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, float]],
                  columns: Sequence[str] | None = None,
                  discrete: Iterable[str] = ()) -> "Dataset":
        """Build a dataset from a list of dict rows."""
        if not rows:
            raise ValueError("cannot build a Dataset from zero rows")
        if columns is None:
            columns = list(rows[0].keys())
        values = np.array([[float(r[c]) for c in columns] for r in rows])
        return cls(columns, values, discrete=discrete)

    def append_rows(self, rows: Sequence[Mapping[str, float]]) -> "Dataset":
        """Return a new dataset with ``rows`` appended."""
        extra = np.array([[float(r[c]) for c in self._columns] for r in rows])
        values = np.vstack([self.values, extra]) if len(rows) else self.values
        return Dataset(self._columns, values, discrete=self._discrete)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe snapshot of the dataset (values bitwise, via base64)."""
        from repro.stats.codec import array_to_doc

        return {
            "columns": list(self._columns),
            "discrete": sorted(self._discrete),
            "values": array_to_doc(self.values),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Dataset":
        """Rebuild a dataset snapshotted by :meth:`to_dict`, bitwise."""
        from repro.stats.codec import array_from_doc

        return cls(payload["columns"], array_from_doc(payload["values"]),
                   discrete=payload.get("discrete", ()))

    def concat(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets with identical columns."""
        if other.columns != self._columns:
            raise ValueError("column mismatch in Dataset.concat")
        values = np.vstack([self.values, other.values])
        return Dataset(self._columns, values,
                       discrete=self._discrete | other.discrete_columns)

    def with_columns_dropped(self, columns: Iterable[str]) -> "Dataset":
        drop = set(columns)
        keep = [c for c in self._columns if c not in drop]
        return self.subset(keep)

    # ------------------------------------------------------------- summaries
    def describe(self) -> dict[str, dict[str, float]]:
        """Per-column min / max / mean / std summary."""
        out: dict[str, dict[str, float]] = {}
        for name in self._columns:
            col = self.column(name)
            out[name] = {
                "min": float(np.min(col)),
                "max": float(np.max(col)),
                "mean": float(np.mean(col)),
                "std": float(np.std(col)),
            }
        return out

    def __repr__(self) -> str:
        return f"Dataset(rows={self.n_rows}, columns={self.n_columns})"
