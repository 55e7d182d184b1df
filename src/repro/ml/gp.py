"""Gaussian Process regression, from scratch.

This is the surrogate of Naive BO (CherryPick): a GP prior over the
objective with one of the four kernels of :mod:`repro.ml.kernels`.
The implementation follows Rasmussen & Williams Algorithm 2.1:

* Cholesky factorisation of ``K + sigma_n^2 I`` (with jitter escalation if
  the matrix is numerically indefinite),
* hyperparameters (kernel theta and the noise level) fitted by maximising
  the log marginal likelihood with multi-restart L-BFGS-B in log space,
* targets are standardised internally so priors are scale-free.

Hyperparameter fitting has two gradient modes:

* ``gradient="analytic"`` (default) — the hot path.  One fused
  evaluation per L-BFGS-B iteration returns the log marginal likelihood
  *and* its gradient (Rasmussen & Williams Eq. 5.9,
  ``d lml/d theta = 1/2 tr((alpha alpha^T - K^-1) dK/d theta)``) from a
  single Cholesky factorisation, with ``dK/d theta`` computed
  analytically from a pairwise squared-distance geometry that is cached
  once per fit and merely rescaled by ``1/lengthscale**2`` per
  evaluation.  The jitter level that last made the Cholesky succeed is
  memoised across evaluations of one fit so escalation is not replayed.
* ``gradient="numeric"`` — the pre-existing behaviour, bit for bit:
  value-only likelihood evaluations with L-BFGS-B's own forward
  differences (one extra kernel build and Cholesky per parameter per
  gradient).

Both modes land in the same optima up to optimiser tolerance; the
numeric knob exists for A/B testing and for kernels without
:meth:`~repro.ml.kernels.Kernel.value_and_grad` (which also fall back
automatically).

Every Cholesky factorisation and solve goes through two small helpers,
:func:`_cholesky` and :func:`_cho_solve`, which call LAPACK ``dpotrf``
/ ``dpotrs`` directly.  They make the same calls as
``scipy.linalg.cholesky`` / ``cho_solve`` and return the same bits, but
skip the wrappers' per-call overhead, which dominates at the handful of
observations a search fits on.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, optimize
from scipy.linalg import lapack

from repro.ml.kernels import Geometry, Kernel, Matern52, stacked_stationary_value

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

#: Valid values of ``GaussianProcessRegressor(gradient=...)``.
GRADIENT_MODES = ("analytic", "numeric")


def _cholesky(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the float64 matrix ``K``, via LAPACK ``dpotrf``.

    The same LAPACK call ``scipy.linalg.cholesky(K, lower=True)`` makes,
    bit for bit, without its per-call wrapper overhead; the wrapper's
    guarantees are kept.  ``K`` is never mutated.

    Raises:
        ValueError: if ``K`` holds a NaN or an infinity.
        np.linalg.LinAlgError: if ``K`` is not positive definite.
    """
    if not np.isfinite(K).all():
        raise ValueError("array must not contain infs or NaNs")
    L, info = lapack.dpotrf(K, lower=True, clean=True)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return L


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` for a factor from :func:`_cholesky`.

    The same LAPACK call as ``scipy.linalg.cho_solve((L, True), b)``,
    bit for bit; ``b`` (a vector or a matrix) is never mutated.

    Raises:
        ValueError: if ``b`` holds a NaN or an infinity.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = lapack.dpotrs(L, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _cholesky_with_jitter(K: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of ``K``, escalating diagonal jitter as needed.

    Args:
        K: the (symmetric) matrix to factor; never mutated.
        start: index into the jitter ladder to start from — pass the
            index a previous factorisation of a nearby matrix succeeded
            at to skip re-escalating through jitters known to fail.

    Returns:
        ``(L, index)`` — the factor and the jitter index that succeeded.

    Raises:
        np.linalg.LinAlgError: if ``K`` stays indefinite even at the
            largest jitter.
    """
    n = K.shape[0]
    for index in range(start, len(_JITTERS)):
        jittered = K.copy()
        jittered.flat[:: n + 1] += _JITTERS[index]
        try:
            return _cholesky(jittered), index
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("covariance matrix is not positive definite")


class GaussianProcessRegressor:
    """GP regression with marginal-likelihood hyperparameter fitting.

    Args:
        kernel: covariance function; defaults to Matérn 5/2 (CherryPick's
            choice).  The instance is cloned, never mutated.
        noise: initial observation-noise variance.
        optimise: whether to fit hyperparameters at :meth:`fit` time.
        n_restarts: extra random restarts for the likelihood optimisation.
        seed: seed for restart sampling.
        gradient: ``"analytic"`` (fused one-Cholesky value+gradient, the
            default) or ``"numeric"`` (finite-difference L-BFGS-B, the
            legacy behaviour preserved exactly).

    Attributes:
        n_fits: :meth:`fit` calls so far (instrumentation).
        n_lml_evals: log-marginal-likelihood evaluations so far.
        n_kernel_builds: kernel-matrix constructions so far — the hot-path
            cost driver the analytic mode minimises.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise: float = 1e-4,
        optimise: bool = True,
        n_restarts: int = 2,
        seed: int | None = None,
        gradient: str = "analytic",
    ) -> None:
        if noise <= 0:
            raise ValueError("noise must be positive")
        if gradient not in GRADIENT_MODES:
            raise ValueError(
                f"unknown gradient mode {gradient!r}; known: {GRADIENT_MODES}"
            )
        self.kernel = (kernel if kernel is not None else Matern52()).clone()
        self.noise = float(noise)
        self.optimise = optimise
        self.n_restarts = n_restarts
        self.gradient = gradient
        self._rng = np.random.default_rng(seed)
        self._X: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._eye: np.ndarray | None = None
        self._fit_jitter = 0
        self.n_fits = 0
        self.n_lml_evals = 0
        self.n_kernel_builds = 0

    # -- fitting -----------------------------------------------------------

    def fit(
        self, X: np.ndarray, y: np.ndarray, geometry: Geometry | None = None
    ) -> GaussianProcessRegressor:
        """Fit the GP to observations ``(X, y)``.

        Args:
            X: ``(n, d)`` design matrix.
            y: ``n`` observed targets.
            geometry: optional precomputed pairwise distance geometry of
                ``X`` (shape ``(n, n)``, self-pair) — callers that track
                distances incrementally across fits pass it to skip the
                per-fit rebuild.  Only consulted in analytic mode.

        Raises:
            ValueError: on empty or mismatched inputs, or a geometry
                whose shape disagrees with ``X``.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP on zero observations")
        n = X.shape[0]
        if geometry is not None and geometry.shape != (n, n):
            raise ValueError(
                f"geometry shape {geometry.shape} does not match {n} rows"
            )

        self._X = X
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_scaled = (y - self._y_mean) / self._y_std
        self.n_fits += 1

        fit_geometry: Geometry | None = None
        if self.gradient == "analytic":
            fit_geometry = geometry if geometry is not None else Geometry(X)

        if self.optimise and n >= 2:
            self._optimise_hyperparameters(y_scaled, fit_geometry)

        if fit_geometry is not None:
            try:
                K = self.kernel.value(fit_geometry)
            except NotImplementedError:
                K = self.kernel(self._X)
        else:
            K = self.kernel(self._X)
        self.n_kernel_builds += 1
        K.flat[:: n + 1] += self.noise
        self._L = _cholesky_with_jitter(K)[0]
        self._alpha = _cho_solve(self._L, y_scaled)
        return self

    def _packed_theta(self) -> np.ndarray:
        return np.concatenate([self.kernel.theta, np.log([self.noise])])

    def _set_packed_theta(self, theta: np.ndarray) -> None:
        self.kernel.theta = theta[:-1]
        self.noise = float(np.exp(theta[-1]))

    def _packed_bounds(self) -> np.ndarray:
        noise_bounds = np.log([[1e-8, 1e1]])
        return np.vstack([self.kernel.bounds, noise_bounds])

    def log_marginal_likelihood(self, y_scaled: np.ndarray) -> float:
        """Log marginal likelihood at the current hyperparameters."""
        assert self._X is not None
        self.n_lml_evals += 1
        self.n_kernel_builds += 1
        n = self._X.shape[0]
        K = self.kernel(self._X)
        K.flat[:: n + 1] += self.noise
        try:
            L, _ = _cholesky_with_jitter(K)
        except np.linalg.LinAlgError:
            return -np.inf
        alpha = _cho_solve(L, y_scaled)
        return float(
            -0.5 * y_scaled @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    def _lml_value_and_grad(
        self, theta: np.ndarray, y_scaled: np.ndarray, geometry: Geometry
    ) -> tuple[float, np.ndarray]:
        """Fused log marginal likelihood and gradient at packed ``theta``.

        One kernel build and one Cholesky per call: the gradient reuses
        the factorisation through Rasmussen & Williams Eq. 5.9,
        ``d lml/d theta_p = 1/2 tr((alpha alpha^T - K^-1) dK/d theta_p)``.
        The observation noise enters as ``dK/d log noise = noise * I``.
        """
        assert self._X is not None and self._eye is not None
        self._set_packed_theta(theta)
        self.n_lml_evals += 1
        self.n_kernel_builds += 1
        K, K_grad = self.kernel.value_and_grad(geometry)
        n = K.shape[0]
        K.flat[:: n + 1] += self.noise
        try:
            L, self._fit_jitter = _cholesky_with_jitter(K, start=self._fit_jitter)
        except np.linalg.LinAlgError:
            return -np.inf, np.zeros(theta.size)
        alpha = _cho_solve(L, y_scaled)
        lml = float(
            -0.5 * y_scaled @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        inner = np.outer(alpha, alpha) - _cho_solve(L, self._eye)
        grad = np.empty(theta.size)
        grad[:-1] = 0.5 * np.einsum("ij,pij->p", inner, K_grad)
        grad[-1] = 0.5 * self.noise * np.trace(inner)
        return lml, grad

    def _optimise_hyperparameters(
        self, y_scaled: np.ndarray, geometry: Geometry | None = None
    ) -> None:
        bounds = self._packed_bounds()
        starts = [self._packed_theta()]
        for _ in range(self.n_restarts):
            starts.append(self._rng.uniform(bounds[:, 0], bounds[:, 1]))

        if self.gradient == "analytic":
            try:
                self._optimise_analytic(y_scaled, bounds, starts, geometry)
                return
            except NotImplementedError:
                # The kernel has no analytic gradient — fall back to the
                # numeric path for this (and every later) evaluation.
                pass
        self._optimise_numeric(y_scaled, bounds, starts)

    def _optimise_analytic(
        self,
        y_scaled: np.ndarray,
        bounds: np.ndarray,
        starts: list[np.ndarray],
        geometry: Geometry | None,
    ) -> None:
        assert self._X is not None
        if geometry is None:
            geometry = Geometry(self._X)
        n = self._X.shape[0]
        # One identity per fit, shared by every K^-1 solve of the
        # optimisation — no per-evaluation np.eye allocations.
        if self._eye is None or self._eye.shape[0] != n:
            self._eye = np.eye(n)
        self._fit_jitter = 0

        def negative_lml_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            lml, grad = self._lml_value_and_grad(theta, y_scaled, geometry)
            return -lml, -grad

        best_theta, best_value = starts[0], np.inf
        for start in starts:
            result = optimize.minimize(
                negative_lml_and_grad,
                start,
                method="L-BFGS-B",
                jac=True,
                bounds=bounds,
            )
            if result.fun < best_value:
                best_theta, best_value = result.x, float(result.fun)
        self._set_packed_theta(best_theta)

    def _optimise_numeric(
        self, y_scaled: np.ndarray, bounds: np.ndarray, starts: list[np.ndarray]
    ) -> None:
        def negative_lml(theta: np.ndarray) -> float:
            self._set_packed_theta(theta)
            return -self.log_marginal_likelihood(y_scaled)

        best_theta, best_value = starts[0], np.inf
        for start in starts:
            result = optimize.minimize(
                negative_lml, start, method="L-BFGS-B", bounds=bounds
            )
            if result.fun < best_value:
                best_theta, best_value = result.x, float(result.fun)
        self._set_packed_theta(best_theta)

    # -- prediction --------------------------------------------------------

    def predict(
        self,
        X: np.ndarray,
        return_std: bool = False,
        geometry: Geometry | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optionally standard deviation) at ``X``.

        Args:
            X: ``(m, d)`` query rows.
            geometry: optional precomputed cross geometry between ``X``
                and the training rows (shape ``(m, n)``) — callers that
                track distances incrementally pass it so the
                cross-covariance block is rescaled, not recomputed.

        Raises:
            RuntimeError: if called before :meth:`fit`.
            ValueError: on a geometry whose shape disagrees with the
                query and training rows.
        """
        if self._X is None or self._L is None or self._alpha is None:
            raise RuntimeError("GP must be fitted before predict")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)

        if geometry is not None:
            if geometry.shape != (X.shape[0], self._X.shape[0]):
                raise ValueError(
                    f"geometry shape {geometry.shape} does not match "
                    f"({X.shape[0]}, {self._X.shape[0]})"
                )
            try:
                K_star = self.kernel.value(geometry)
            except NotImplementedError:
                K_star = self.kernel(X, self._X)
        else:
            K_star = self.kernel(X, self._X)
        mean = K_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean

        v = linalg.solve_triangular(self._L, K_star.T, lower=True)
        var = self.kernel.diag(X) + self.noise - np.sum(v**2, axis=0)
        std = np.sqrt(np.maximum(var, 0.0)) * self._y_std
        return mean, std


def fit_gps_stacked(
    gps: list[GaussianProcessRegressor],
    Xs: list[np.ndarray],
    ys: list[np.ndarray],
    geometries: list[Geometry | None] | None = None,
) -> list[GaussianProcessRegressor]:
    """Fit many GPs, batching the conditioning kernel build across them.

    Each ``gps[i]`` ends in exactly the state its own
    ``fit(Xs[i], ys[i], geometry=geometries[i])`` would produce — same
    hyperparameters, same factor, same counters.  The marginal-likelihood
    optimisation stays per-GP (L-BFGS-B is iterative with data-dependent
    step counts, so there is nothing to lock-step); what batches is the
    post-optimisation conditioning: when every GP in the group shares the
    same concrete isotropic stationary kernel class and design size, the
    ``S`` conditioning matrices are evaluated in one fused
    :func:`repro.ml.kernels.stacked_stationary_value` call over an
    ``(S, n, n)`` distance stack.  The Cholesky factorisations and solves
    remain per-slice — batched ``np.linalg.cholesky`` is not bit-identical
    to the per-matrix LAPACK path, and the jitter ladder is
    per-matrix anyway.  Groups that don't qualify (ARD or composite
    kernels, ragged designs, numeric-gradient GPs without a geometry)
    silently fall back to per-GP kernel builds; the result is identical
    either way, batching only changes how many numpy dispatches it took.

    In practice the win here is modest: hyperparameter optimisation
    dominates GP fit time, and it is inherently sequential per GP.  The
    batched conditioning mainly keeps the vectorized driver's GP rounds
    from paying ``S`` separate kernel dispatches on top of that.
    """
    if geometries is None:
        geometries = [None] * len(gps)
    if not (len(gps) == len(Xs) == len(ys) == len(geometries)):
        raise ValueError(
            f"got {len(gps)} GPs, {len(Xs)} designs, {len(ys)} targets, "
            f"{len(geometries)} geometries"
        )

    # Per-GP prologue, exactly as fit(): validation, target scaling and
    # the (inherently sequential) hyperparameter optimisation.
    prepped: list[tuple[GaussianProcessRegressor, np.ndarray, Geometry | None]] = []
    for gp, X, y, geometry in zip(gps, Xs, ys, geometries):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP on zero observations")
        n = X.shape[0]
        if geometry is not None and geometry.shape != (n, n):
            raise ValueError(
                f"geometry shape {geometry.shape} does not match {n} rows"
            )
        gp._X = X
        gp._y_mean = float(y.mean())
        gp._y_std = float(y.std()) or 1.0
        y_scaled = (y - gp._y_mean) / gp._y_std
        gp.n_fits += 1
        fit_geometry: Geometry | None = None
        if gp.gradient == "analytic":
            fit_geometry = geometry if geometry is not None else Geometry(X)
        if gp.optimise and n >= 2:
            gp._optimise_hyperparameters(y_scaled, fit_geometry)
        prepped.append((gp, y_scaled, fit_geometry))

    # Batched conditioning: one stacked kernel evaluation if the group
    # is homogeneous, else per-GP builds (identical output either way).
    stacked_K: np.ndarray | None = None
    group_geometries = [fit_geometry for _, _, fit_geometry in prepped]
    if all(geometry is not None for geometry in group_geometries):
        try:
            stacked_K = stacked_stationary_value(
                [gp.kernel for gp, _, _ in prepped],
                group_geometries,  # type: ignore[arg-type]
            )
        except (NotImplementedError, ValueError):
            stacked_K = None

    for index, (gp, y_scaled, fit_geometry) in enumerate(prepped):
        assert gp._X is not None
        n = gp._X.shape[0]
        if stacked_K is not None:
            K = stacked_K[index]
        elif fit_geometry is not None:
            try:
                K = gp.kernel.value(fit_geometry)
            except NotImplementedError:
                K = gp.kernel(gp._X)
        else:
            K = gp.kernel(gp._X)
        gp.n_kernel_builds += 1
        K.flat[:: n + 1] += gp.noise
        gp._L = _cholesky_with_jitter(K)[0]
        gp._alpha = _cho_solve(gp._L, y_scaled)
    return gps
