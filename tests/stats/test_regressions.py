"""Regression tests: recover known coefficients from synthetic data."""

import numpy as np
import pytest

from repro.stats.design import CategoricalSpec, DesignMatrix
from repro.stats.linear import fit_ols
from repro.stats.logistic import fit_logistic


class TestLogistic:
    def make_data(self, n=4000, seed=3):
        rng = np.random.default_rng(seed)
        X = np.column_stack([
            np.ones(n),
            rng.integers(0, 2, n).astype(float),
            rng.normal(0.0, 1.0, n),
        ])
        beta_true = np.array([-0.5, 1.2, -0.8])
        probabilities = 1.0 / (1.0 + np.exp(-(X @ beta_true)))
        y = (rng.random(n) < probabilities).astype(float)
        return X, y, beta_true

    def test_recovers_coefficients(self):
        X, y, beta_true = self.make_data()
        model = fit_logistic(X, y, ["intercept", "flag", "z"])
        assert model.converged
        assert model.coefficient("flag") == pytest.approx(1.2, abs=0.2)
        assert model.coefficient("z") == pytest.approx(-0.8, abs=0.15)

    def test_odds_ratio_is_exp_beta(self):
        X, y, _ = self.make_data()
        model = fit_logistic(X, y, ["intercept", "flag", "z"])
        assert model.odds_ratio("flag") == pytest.approx(
            np.exp(model.coefficient("flag"))
        )

    def test_significant_effect_has_small_p(self):
        X, y, _ = self.make_data()
        model = fit_logistic(X, y, ["intercept", "flag", "z"])
        assert model.p_value("flag") < 0.001

    def test_null_effect_has_large_p(self):
        rng = np.random.default_rng(4)
        n = 3000
        X = np.column_stack([
            np.ones(n), rng.normal(0, 1, n), rng.normal(0, 1, n)
        ])
        y = (rng.random(n) < 0.5).astype(float)
        model = fit_logistic(X, y, ["intercept", "a", "b"])
        assert model.p_value("a") > 0.01

    def test_predictions_are_probabilities(self):
        X, y, _ = self.make_data(n=500)
        model = fit_logistic(X, y)
        predictions = model.predict_probability(X)
        assert np.all((predictions > 0) & (predictions < 1))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_logistic(np.ones((5, 1)), np.array([0, 1, 2, 0, 1.0]))
        with pytest.raises(ValueError):
            fit_logistic(np.ones((3, 5)), np.zeros(3))
        with pytest.raises(ValueError):
            fit_logistic(np.ones(5), np.zeros(5))


class TestLinear:
    def make_data(self, n=2000, seed=5, noise=1.0):
        rng = np.random.default_rng(seed)
        X = np.column_stack([
            np.ones(n),
            rng.uniform(0.0, 10.0, n),
            rng.uniform(-5.0, 5.0, n),
        ])
        beta_true = np.array([3.0, 2.5, -1.5])
        y = X @ beta_true + rng.normal(0.0, noise, n)
        return X, y, beta_true

    def test_recovers_coefficients(self):
        X, y, beta_true = self.make_data()
        model = fit_ols(X, y, ["intercept", "a", "b"])
        assert model.coefficient("a") == pytest.approx(2.5, abs=0.05)
        assert model.coefficient("b") == pytest.approx(-1.5, abs=0.05)

    def test_scaled_coefficient_uses_range(self):
        X, y, _ = self.make_data()
        model = fit_ols(X, y, ["intercept", "a", "b"])
        low, high = model.column_ranges[1]
        assert model.scaled_coefficient("a") == pytest.approx(
            model.coefficient("a") * (high - low)
        )

    def test_r_squared_high_for_low_noise(self):
        X, y, _ = self.make_data(noise=0.1)
        model = fit_ols(X, y)
        assert model.r_squared > 0.99

    def test_p_values(self):
        X, y, _ = self.make_data()
        model = fit_ols(X, y, ["intercept", "a", "b"])
        assert model.p_value("a") < 0.001
        # A pure-noise column should not be significant.
        rng = np.random.default_rng(6)
        X2 = np.column_stack([X, rng.normal(0, 1, len(y))])
        model2 = fit_ols(X2, y, ["intercept", "a", "b", "noise"])
        assert model2.p_value("noise") > 0.01

    def test_prediction(self):
        X, y, _ = self.make_data(noise=0.01)
        model = fit_ols(X, y)
        predictions = model.predict(X[:10])
        assert np.allclose(predictions, y[:10], atol=0.2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_ols(np.ones((3, 5)), np.zeros(3))


class TestDesignMatrix:
    def test_dummy_coding_excludes_control(self):
        design = DesignMatrix(
            categoricals=[CategoricalSpec(
                "color", control="red", levels=("red", "green", "blue")
            )],
        )
        assert design.column_names == [
            "(intercept)", "color:green", "color:blue",
        ]

    def test_rows_encode_levels(self):
        design = DesignMatrix(
            categoricals=[CategoricalSpec(
                "color", control="red", levels=("red", "green", "blue")
            )],
            continuous=("size",),
        )
        design.add_row({"color": "green"}, {"size": 2.0}, 1.0)
        design.add_row({"color": "red"}, {"size": 3.0}, 0.0)
        X, y = design.matrices()
        assert X.tolist() == [[1.0, 1.0, 0.0, 2.0], [1.0, 0.0, 0.0, 3.0]]
        assert y.tolist() == [1.0, 0.0]

    def test_unknown_level_rejected(self):
        design = DesignMatrix(
            categoricals=[CategoricalSpec(
                "color", control="red", levels=("red", "green")
            )],
        )
        with pytest.raises(ValueError):
            design.add_row({"color": "purple"}, {}, 0.0)

    def test_control_must_be_level(self):
        with pytest.raises(ValueError):
            CategoricalSpec("x", control="missing", levels=("a", "b"))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            DesignMatrix().matrices()

    def test_end_to_end_with_logistic(self):
        # Categorical effect recovered through the design-matrix path.
        import random

        rng = random.Random(9)
        design = DesignMatrix(
            categoricals=[CategoricalSpec(
                "speed", control="fast", levels=("fast", "slow")
            )],
        )
        for _ in range(3000):
            slow = rng.random() < 0.5
            p = 0.7 if slow else 0.3
            design.add_row(
                {"speed": "slow" if slow else "fast"},
                {},
                1.0 if rng.random() < p else 0.0,
            )
        X, y = design.matrices()
        model = fit_logistic(X, y, design.column_names)
        # True OR = (0.7/0.3)/(0.3/0.7) = 5.44
        assert model.odds_ratio("speed:slow") == pytest.approx(5.44, rel=0.3)


class TestOddsRatioCI:
    def test_ci_brackets_estimate(self):
        import numpy as np

        rng = np.random.default_rng(3)
        n = 2000
        X = np.column_stack([
            np.ones(n), rng.integers(0, 2, n).astype(float)
        ])
        p = 1.0 / (1.0 + np.exp(-(X @ np.array([-0.5, 1.0]))))
        y = (rng.random(n) < p).astype(float)
        model = fit_logistic(X, y, ["i", "f"])
        low, high = model.odds_ratio_ci("f")
        assert low < model.odds_ratio("f") < high
        # True OR = e^1 = 2.72 should be inside a 95% CI here.
        assert low < np.exp(1.0) < high

    def test_wider_confidence_wider_interval(self):
        import numpy as np

        rng = np.random.default_rng(4)
        n = 800
        X = np.column_stack([
            np.ones(n), rng.normal(0, 1, n)
        ])
        y = (rng.random(n) < 0.5).astype(float)
        model = fit_logistic(X, y, ["i", "z"])
        narrow = model.odds_ratio_ci("z", confidence=0.8)
        wide = model.odds_ratio_ci("z", confidence=0.99)
        assert wide[0] < narrow[0] and wide[1] > narrow[1]

    def test_invalid_confidence(self):
        import numpy as np

        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(100), rng.normal(0, 1, 100)])
        y = (rng.random(100) < 0.5).astype(float)
        model = fit_logistic(X, y)
        with pytest.raises(ValueError):
            model.odds_ratio_ci("x1", confidence=1.5)
