"""Ordinary least squares with the paper's reporting conventions.

Tables 5–6 report, per explanatory variable, the raw coefficient (ms
per unit) and a *scaled* coefficient: the effect of moving the variable
across its full observed range (min-max scaling to [0, 1]).  Both are
provided here, along with classical t-test p-values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["LinearModel", "fit_ols"]


@dataclass(frozen=True)
class LinearModel:
    """A fitted OLS regression."""

    column_names: Tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    n_observations: int
    residual_variance: float
    r_squared: float
    #: Observed (min, max) per column, for scaled coefficients.
    column_ranges: Tuple[Tuple[float, float], ...]

    def coefficient(self, column: str) -> float:
        """Fitted coefficient for *column*."""
        return float(self.coefficients[self._index(column)])

    def scaled_coefficient(self, column: str) -> float:
        """Coefficient after min-max scaling the column to [0, 1].

        Equals ``beta * (max - min)``: the predicted output change when
        the variable sweeps its observed range.
        """
        index = self._index(column)
        low, high = self.column_ranges[index]
        return float(self.coefficients[index] * (high - low))

    def p_value(self, column: str) -> float:
        """Two-sided t-test p-value for *column*."""
        index = self._index(column)
        se = self.standard_errors[index]
        if se <= 0 or not np.isfinite(se):
            return float("nan")
        # Deferred: see LogisticModel.p_value.
        from scipy import stats as scipy_stats

        dof = self.n_observations - len(self.column_names)
        t = self.coefficients[index] / se
        return float(2.0 * scipy_stats.t.sf(abs(t), dof))

    def _index(self, column: str) -> int:
        try:
            return self.column_names.index(column)
        except ValueError:
            raise KeyError("no column named {!r}".format(column)) from None


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    column_names: Optional[Sequence[str]] = None,
) -> LinearModel:
    """Fit ``y = X beta + e`` by least squares."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if y.shape[0] != X.shape[0]:
        raise ValueError("X and y disagree on the number of observations")
    n, p = X.shape
    if n <= p:
        raise ValueError("need more observations than parameters")
    names = tuple(column_names) if column_names else tuple(
        "x{}".format(i) for i in range(p)
    )
    if len(names) != p:
        raise ValueError("column_names length mismatch")

    gram = X.T @ X
    try:
        gram_inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        gram_inverse = np.linalg.pinv(gram)
    beta = gram_inverse @ (X.T @ y)
    residuals = y - X @ beta
    dof = max(1, n - p)
    sigma2 = float(residuals @ residuals) / dof
    standard_errors = np.sqrt(np.clip(np.diag(gram_inverse) * sigma2, 0.0, None))

    total = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(residuals @ residuals) / total if total > 0 else 0.0
    ranges = tuple(
        (float(X[:, j].min()), float(X[:, j].max())) for j in range(p)
    )
    return LinearModel(
        column_names=names,
        coefficients=beta,
        standard_errors=standard_errors,
        n_observations=n,
        residual_variance=sigma2,
        r_squared=r_squared,
        column_ranges=ranges,
    )
