"""Logistic regression fitted by iteratively reweighted least squares.

Implements exactly what Table 4 of the paper needs: maximum-likelihood
logit coefficients, Wald standard errors from the observed information
matrix, two-sided p-values, and odds ratios (``exp(beta)``).

The solver is plain IRLS/Newton with a ridge fallback for separable or
ill-conditioned problems; no external fitting library is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["LogisticModel", "fit_logistic"]

_MAX_ITERATIONS = 100
_TOLERANCE = 1e-8
_RIDGE = 1e-8


@dataclass(frozen=True)
class LogisticModel:
    """A fitted logistic regression."""

    column_names: Tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    n_observations: int
    converged: bool
    log_likelihood: float

    def odds_ratio(self, column: str) -> float:
        """exp(beta) for *column* — the Table 4 effect size."""
        return float(np.exp(self.coefficients[self._index(column)]))

    def p_value(self, column: str) -> float:
        """Two-sided Wald p-value for *column*."""
        index = self._index(column)
        se = self.standard_errors[index]
        if se <= 0 or not np.isfinite(se):
            return float("nan")
        # scipy is imported where it is used: importing it costs about
        # a second, which nothing on the measurement path should pay.
        from scipy import stats as scipy_stats

        z = self.coefficients[index] / se
        return float(2.0 * scipy_stats.norm.sf(abs(z)))

    def coefficient(self, column: str) -> float:
        """Fitted log-odds coefficient for *column*."""
        return float(self.coefficients[self._index(column)])

    def odds_ratio_ci(
        self, column: str, confidence: float = 0.95
    ) -> Tuple[float, float]:
        """Wald confidence interval for the odds ratio of *column*."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        index = self._index(column)
        se = self.standard_errors[index]
        from scipy import stats as scipy_stats

        z = scipy_stats.norm.ppf(0.5 + confidence / 2.0)
        beta = self.coefficients[index]
        return (
            float(np.exp(beta - z * se)),
            float(np.exp(beta + z * se)),
        )

    def _index(self, column: str) -> int:
        try:
            return self.column_names.index(column)
        except ValueError:
            raise KeyError("no column named {!r}".format(column)) from None

    def predict_probability(self, X: np.ndarray) -> np.ndarray:
        """P(y=1 | x) for rows of *X*."""
        return _sigmoid(np.asarray(X, dtype=float) @ self.coefficients)



def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    column_names: Optional[Sequence[str]] = None,
) -> LogisticModel:
    """Fit a logistic regression of binary *y* on *X* via IRLS."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if y.shape[0] != X.shape[0]:
        raise ValueError("X and y disagree on the number of observations")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be binary (0/1)")
    n, p = X.shape
    if n <= p:
        raise ValueError("need more observations than parameters")
    names = tuple(column_names) if column_names else tuple(
        "x{}".format(i) for i in range(p)
    )
    if len(names) != p:
        raise ValueError("column_names length mismatch")

    beta = np.zeros(p)
    converged = False
    for _ in range(_MAX_ITERATIONS):
        eta = X @ beta
        mu = _sigmoid(eta)
        weights = mu * (1.0 - mu)
        weights = np.maximum(weights, 1e-10)
        # Newton step: (X'WX + ridge) delta = X'(y - mu)
        XtW = X.T * weights
        hessian = XtW @ X + _RIDGE * np.eye(p)
        gradient = X.T @ (y - mu)
        try:
            delta = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(hessian, gradient, rcond=None)[0]
        beta = beta + delta
        if np.max(np.abs(delta)) < _TOLERANCE:
            converged = True
            break

    mu = _sigmoid(X @ beta)
    weights = np.maximum(mu * (1.0 - mu), 1e-10)
    information = (X.T * weights) @ X + _RIDGE * np.eye(p)
    try:
        covariance = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(information)
    standard_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))

    eps = 1e-12
    log_likelihood = float(
        np.sum(y * np.log(mu + eps) + (1.0 - y) * np.log(1.0 - mu + eps))
    )
    return LogisticModel(
        column_names=names,
        coefficients=beta,
        standard_errors=standard_errors,
        n_observations=n,
        converged=converged,
        log_likelihood=log_likelihood,
    )
