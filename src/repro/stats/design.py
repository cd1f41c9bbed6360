"""Design-matrix construction with categorical dummy coding.

The paper's logistic model (Table 4) uses categorical inputs with an
explicit control level ("Control = Fast", "Control = Cloudflare"...):
each non-control level becomes a dummy column whose coefficient is the
log-odds ratio against the control.  This module builds such matrices
and keeps human-readable column names so the analysis can report
"Income Group: Low → 1.98x" directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["CategoricalSpec", "DesignMatrix"]


@dataclass(frozen=True)
class CategoricalSpec:
    """One categorical variable: its levels and the control level."""

    name: str
    control: str
    levels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.control not in self.levels:
            raise ValueError(
                "control {!r} not among levels {!r}".format(
                    self.control, self.levels
                )
            )

    @property
    def dummy_levels(self) -> Tuple[str, ...]:
        return tuple(l for l in self.levels if l != self.control)


class DesignMatrix:
    """Accumulates rows of mixed categorical/continuous features."""

    def __init__(
        self,
        categoricals: Sequence[CategoricalSpec] = (),
        continuous: Sequence[str] = (),
    ) -> None:
        self.categoricals = list(categoricals)
        self.continuous = list(continuous)
        self._rows: List[List[float]] = []
        self._targets: List[float] = []
        self.column_names: List[str] = ["(intercept)"]
        for spec in self.categoricals:
            for level in spec.dummy_levels:
                self.column_names.append("{}:{}".format(spec.name, level))
        self.column_names.extend(self.continuous)

    def add_row(
        self,
        categorical_values: Mapping[str, str],
        continuous_values: Mapping[str, float],
        target: float,
    ) -> None:
        """Add one observation."""
        row: List[float] = [1.0]
        for spec in self.categoricals:
            value = categorical_values[spec.name]
            if value not in spec.levels:
                raise ValueError(
                    "unknown level {!r} for {!r}".format(value, spec.name)
                )
            for level in spec.dummy_levels:
                row.append(1.0 if value == level else 0.0)
        for name in self.continuous:
            row.append(float(continuous_values[name]))
        self._rows.append(row)
        self._targets.append(float(target))

    def matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (X, y) numpy matrices."""
        if not self._rows:
            raise ValueError("empty design matrix")
        return np.asarray(self._rows, dtype=float), np.asarray(
            self._targets, dtype=float
        )

    def __len__(self) -> int:
        return len(self._rows)
