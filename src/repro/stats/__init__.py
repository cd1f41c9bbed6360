"""Statistics: descriptive tools and the paper's regression models.

* :mod:`repro.stats.descriptive` — medians, percentiles, empirical CDFs,
* :mod:`repro.stats.design` — design-matrix construction with
  categorical dummy coding (control levels),
* :mod:`repro.stats.logistic` — logistic regression fitted by IRLS with
  Wald tests (Table 4 odds ratios),
* :mod:`repro.stats.linear` — OLS with t-tests and min-max-scaled
  coefficients (Tables 5–6).

Both regressions are implemented from first principles on numpy; scipy
is used only for the survival functions of the reference
distributions, and imported only when one is evaluated.
"""

from repro.stats.descriptive import (
    empirical_cdf,
    mean,
    median,
    percentile,
    stddev,
)
from repro.stats.design import CategoricalSpec, DesignMatrix
from repro.stats.logistic import LogisticModel, fit_logistic
from repro.stats.linear import LinearModel, fit_ols

__all__ = [
    "CategoricalSpec",
    "DesignMatrix",
    "LinearModel",
    "LogisticModel",
    "empirical_cdf",
    "fit_logistic",
    "fit_ols",
    "mean",
    "median",
    "percentile",
    "stddev",
]
