"""Unit tests for the from-scratch Gaussian Process."""

import numpy as np
import pytest
from scipy import linalg

from repro.ml.gp import (
    _JITTERS,
    GaussianProcessRegressor,
    _cho_solve,
    _cholesky,
    _cholesky_with_jitter,
)
from repro.ml.kernels import RBF, Matern52


@pytest.fixture(scope="module")
def toy_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(30, 2))
    y = np.sin(X[:, 0]) + 0.5 * np.cos(2 * X[:, 1])
    return X, y


class TestFitPredict:
    def test_interpolates_training_points(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        mean = gp.predict(X)
        assert np.max(np.abs(mean - y)) < 1e-2

    def test_uncertainty_near_zero_at_training_points(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        _, std = gp.predict(X, return_std=True)
        assert np.all(std < 0.1 * y.std())

    def test_uncertainty_grows_away_from_data(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(RBF(), seed=1).fit(X, y)
        _, std_near = gp.predict(X[:1], return_std=True)
        _, std_far = gp.predict(np.array([[30.0, 30.0]]), return_std=True)
        assert std_far[0] > 5 * std_near[0]

    def test_far_extrapolation_reverts_to_mean(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(RBF(), seed=1).fit(X, y)
        mean = gp.predict(np.array([[100.0, 100.0]]))
        assert mean[0] == pytest.approx(y.mean(), abs=0.2 * np.abs(y).max() + 0.1)

    def test_generalises_on_smooth_function(self, toy_data):
        X, y = toy_data
        rng = np.random.default_rng(5)
        X_test = rng.uniform(-3, 3, size=(100, 2))
        y_test = np.sin(X_test[:, 0]) + 0.5 * np.cos(2 * X_test[:, 1])
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        rmse = np.sqrt(np.mean((gp.predict(X_test) - y_test) ** 2))
        assert rmse < 0.35

    def test_single_point_fit(self):
        gp = GaussianProcessRegressor(Matern52(), seed=0)
        gp.fit(np.array([[1.0, 2.0]]), np.array([5.0]))
        assert gp.predict(np.array([[1.0, 2.0]]))[0] == pytest.approx(5.0, abs=1e-6)

    def test_constant_targets_handled(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        gp = GaussianProcessRegressor(Matern52(), seed=0).fit(X, np.full(10, 3.0))
        assert gp.predict(np.array([[4.5]]))[0] == pytest.approx(3.0, abs=1e-6)

    def test_1d_query_reshaped(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(), seed=1).fit(X, y)
        assert gp.predict(X[0]).shape == (1,)


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError, match="zero observations"):
            GaussianProcessRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="rows"):
            GaussianProcessRegressor().fit(np.zeros((3, 2)), np.zeros(4))

    def test_non_2d_X_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            GaussianProcessRegressor().fit(np.zeros((2, 2, 2)), np.zeros(2))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            GaussianProcessRegressor(noise=-1.0)


class TestHyperparameterFit:
    def test_marginal_likelihood_improves_with_optimisation(self, toy_data):
        X, y = toy_data
        y_scaled = (y - y.mean()) / y.std()

        unoptimised = GaussianProcessRegressor(
            Matern52(lengthscale=100.0), optimise=False
        )
        unoptimised.fit(X, y)
        lml_before = unoptimised.log_marginal_likelihood(y_scaled)

        optimised = GaussianProcessRegressor(
            Matern52(lengthscale=100.0), optimise=True, seed=0
        )
        optimised.fit(X, y)
        lml_after = optimised.log_marginal_likelihood(y_scaled)
        assert lml_after > lml_before

    def test_learns_sensible_lengthscale(self, toy_data):
        X, y = toy_data
        gp = GaussianProcessRegressor(Matern52(lengthscale=50.0), seed=0, n_restarts=2)
        gp.fit(X, y)
        assert 0.05 < gp.kernel.lengthscale < 20.0

    def test_kernel_argument_not_mutated(self, toy_data):
        X, y = toy_data
        kernel = Matern52(lengthscale=7.0)
        GaussianProcessRegressor(kernel, seed=0).fit(X, y)
        assert kernel.lengthscale == 7.0

    def test_noisy_targets_learn_noise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(60, 1))
        y = np.sin(X[:, 0]) + rng.normal(0, 0.3, size=60)
        gp = GaussianProcessRegressor(Matern52(), seed=0, n_restarts=2).fit(X, y)
        # Learned noise should be material, not the 1e-4 default.
        assert gp.noise > 1e-3


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n) * rng.uniform(1e-3, 1.0)


class TestLapackHelpers:
    """The direct-LAPACK helpers against the scipy wrappers they replace."""

    @pytest.mark.parametrize("n", [1, 2, 5, 18, 40])
    def test_cholesky_and_solve_match_scipy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            K = _random_spd(rng, n)
            before = K.copy()
            L = _cholesky(K)
            np.testing.assert_array_equal(L, linalg.cholesky(K, lower=True))
            np.testing.assert_array_equal(K, before)
            b = rng.normal(size=n)
            np.testing.assert_array_equal(_cho_solve(L, b), linalg.cho_solve((L, True), b))
            eye = np.eye(n)
            np.testing.assert_array_equal(
                _cho_solve(L, eye), linalg.cho_solve((L, True), eye)
            )
            np.testing.assert_array_equal(eye, np.eye(n))

    def test_indefinite_matrix_raises_linalg_error(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(K)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        K = _random_spd(np.random.default_rng(0), 4)
        L = _cholesky(K)
        K[1, 2] = bad
        with pytest.raises(ValueError):
            _cholesky(K)
        b = np.ones(4)
        b[3] = bad
        with pytest.raises(ValueError):
            _cho_solve(L, b)

    def test_jitter_ladder_matches_scipy_ladder(self):
        """A slightly indefinite matrix climbs the ladder exactly as before."""
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        K = (Q * np.array([2.0, 1.0, 0.5, 0.2, 0.1, -5e-7])) @ Q.T
        K = (K + K.T) / 2
        L, index = _cholesky_with_jitter(K)
        assert index == 2
        for expected_index, jitter in enumerate(_JITTERS):
            try:
                expected = linalg.cholesky(K + jitter * np.eye(6), lower=True)
                break
            except linalg.LinAlgError:
                continue
        assert index == expected_index
        np.testing.assert_array_equal(L, expected)

    def test_jitter_ladder_propagates_non_finite_input(self):
        K = np.eye(3)
        K[0, 1] = np.nan
        with pytest.raises(ValueError):
            _cholesky_with_jitter(K)
