"""Exact Gaussian process regression with a squared-exponential ARD kernel.

The model is ``y = f(x) + eps`` with ``eps ~ N(0, noise_variance)`` and a
zero-mean GP prior on ``f``.  Everything needed for prediction is cached in
a single lower Cholesky factor of the noisy kernel matrix together with the
weight vector ``alpha = (K + noise*I)^-1 y``.  The marginal likelihood
reuses that factorization path.  Hyperparameter training does not: its
objective (value and analytic gradient) factors the matrix on its own with
the initial jitter only, and a trial point that fails to factorize is
penalized rather than retried with more jitter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs
from scipy.optimize import minimize

__all__ = [
    "Hyperparameters",
    "Dataset",
    "PosteriorCache",
    "FactorizationError",
    "StaleCacheError",
    "NumericalError",
    "OptimizationError",
    "kernel_matrix",
    "fit_cache",
    "predict",
    "log_marginal_likelihood",
    "lml_gradient",
    "optimize_hyperparameters",
    "gaussian_entropy",
]

LOG_2PI = math.log(2.0 * math.pi)

# Diagonal jitter added before factorization, escalated x10 on failure.
JITTER_INITIAL = 1e-10
JITTER_MAX = 1e-6

# Predicted variances slightly below zero are roundoff; anything below this
# indicates a corrupted cache and raises instead of being clamped.
VARIANCE_CLAMP = -1e-10

_dataset_versions = itertools.count(1)


class FactorizationError(ArithmeticError):
    """Cholesky factorization failed: the matrix is not positive definite.

    ``pivot_index`` is the 0-based index of the first failing pivot.
    """

    def __init__(self, pivot_index: int):
        self.pivot_index = int(pivot_index)
        super().__init__(f"kernel matrix not positive definite at pivot {pivot_index}")


class StaleCacheError(RuntimeError):
    """A posterior cache was used with a dataset it was not fitted on."""


class NumericalError(ArithmeticError):
    """A computed quantity left its valid numerical range."""


class OptimizationError(RuntimeError):
    """Hyperparameter search hit a non-finite objective.

    ``last_valid`` holds the best hyperparameters seen before the failure.
    """

    def __init__(self, message: str, last_valid: "Hyperparameters"):
        self.last_valid = last_valid
        super().__init__(message)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Hyperparameters:
    """SE-ARD kernel and likelihood parameters, all strictly positive.

    signal_variance
        Kernel amplitude (target units squared); the prior variance of the
        latent function at any input.
    lengthscales
        One positive lengthscale per input dimension.
    noise_variance
        Variance of the Gaussian observation noise.
    """

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float

    def __post_init__(self):
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        ls = _readonly(np.atleast_1d(self.lengthscales))
        object.__setattr__(self, "lengthscales", ls)
        if ls.ndim != 1:
            raise ValueError("lengthscales must be a 1-D vector")
        values = np.concatenate(([self.signal_variance, self.noise_variance], ls))
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("hyperparameters must be finite and strictly positive")

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]

    def to_log_vector(self) -> np.ndarray:
        """Pack as (log signal_variance, log lengthscales..., log noise_variance)."""
        return np.log(
            np.concatenate(
                ([self.signal_variance], self.lengthscales, [self.noise_variance])
            )
        )

    @classmethod
    def from_log_vector(cls, theta: np.ndarray) -> "Hyperparameters":
        theta = np.asarray(theta, dtype=float)
        v = np.exp(theta)
        return cls(signal_variance=v[0], lengthscales=v[1:-1], noise_variance=v[-1])

    def to_dict(self) -> dict:
        """The JSON record of the hyper file and the snapshot."""
        return {"signal_variance": self.signal_variance,
                "lengthscales": self.lengthscales.tolist(),
                "noise_variance": self.noise_variance}

    @classmethod
    def from_dict(cls, record: dict) -> "Hyperparameters":
        """Inverse of :meth:`to_dict`; raises ``KeyError`` for a missing key."""
        return cls(record["signal_variance"], record["lengthscales"], record["noise_variance"])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Training data ``(inputs, targets)``; immutable after construction.

    Every new dataset, one made by ``dataclasses.replace`` included, gets a
    unique ``version`` token, not a constructor argument, so caches can detect
    that they are being used with the dataset they were fitted on.
    """

    inputs: np.ndarray
    targets: np.ndarray
    version: int = field(init=False, default_factory=lambda: next(_dataset_versions))

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.atleast_1d(np.asarray(self.targets, dtype=float))
        if y.ndim != 1:
            raise ValueError("targets must be a vector")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"inputs have {X.shape[0]} rows but targets have {y.shape[0]} entries"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "inputs", _readonly(X))
        object.__setattr__(self, "targets", _readonly(y))

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def with_appended(self, x: np.ndarray, y: float) -> "Dataset":
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return Dataset(np.vstack([self.inputs, x]), np.append(self.targets, y))

    def with_row_replaced(self, index: int, x: np.ndarray, y: float) -> "Dataset":
        X = self.inputs.copy()
        t = self.targets.copy()
        X[index] = np.asarray(x, dtype=float)
        t[index] = y
        return Dataset(X, t)

    def with_row_removed(self, index: int) -> "Dataset":
        keep = np.arange(self.n) != index
        return Dataset(self.inputs[keep], self.targets[keep])

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.inputs[indices], self.targets[indices])


@dataclass(frozen=True, eq=False)
class PosteriorCache:
    """Precomputed quantities for prediction from a fixed dataset.

    ``chol`` is the lower Cholesky factor of ``K + noise*I (+ jitter*I)`` and
    ``alpha`` solves that system against the targets.  ``dataset_version``
    ties the cache to the dataset it was fitted on; ``jitter`` records the
    diagonal regularization that was actually needed.
    """

    chol: np.ndarray
    alpha: np.ndarray
    dataset_version: int
    jitter: float = 0.0

    @cached_property
    def inverse_diagonal(self) -> np.ndarray:
        """d = diag((L L^T)^-1) on first read, as column sums of squares of L^-1:
        accurate for low-noise kernels, where ``cho_solve(L, I)`` is not."""
        inv, info = dtrtri(self.chol, lower=1)
        if info != 0:
            raise NumericalError(f"triangular inverse failed (LAPACK info {info})")
        return np.einsum("ij,ij->j", inv, inv)


def kernel_matrix(A: np.ndarray, B: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    """SE-ARD kernel matrix with entries
    ``signal_variance * exp(-0.5 * sum_d (a_d - b_d)^2 / l_d^2)``.

    When ``A`` and ``B`` are the same array the result is exactly symmetric
    with ``signal_variance`` on the diagonal.
    """
    same = A is B
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if same else np.atleast_2d(np.asarray(B, dtype=float))
    p = hyper.dim
    if A.shape[1] != p or B.shape[1] != p:
        raise ValueError(
            f"input dimension mismatch: kernel has {p} lengthscales, "
            f"inputs have {A.shape[1]} and {B.shape[1]} columns"
        )
    Au = A / hyper.lengthscales
    Bu = Au if same else B / hyper.lengthscales
    sq = Au @ Bu.T
    sq *= -2.0
    sq += np.einsum("ij,ij->i", Au, Au)[:, None]
    sq += np.einsum("ij,ij->i", Bu, Bu)[None, :]
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    K = np.exp(sq, out=sq)
    K *= hyper.signal_variance
    if same:
        K += K.T
        K *= 0.5
        np.fill_diagonal(K, hyper.signal_variance)
    return K


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    L, info = dpotrf(matrix, lower=1, clean=1)
    if info > 0:
        raise FactorizationError(pivot_index=info - 1)
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to dpotrf")
    return L


def fit_cache(dataset: Dataset, hyper: Hyperparameters) -> PosteriorCache:
    """Factorize the noisy kernel matrix and precompute the weight vector.

    A jitter of ``1e-10 * signal_variance`` is added to the diagonal before
    factorization and escalated tenfold (up to ``1e-6 * signal_variance``)
    while the factorization keeps failing.
    """
    if dataset.n == 0:
        raise ValueError("cannot fit a cache on an empty dataset")
    if dataset.dim != hyper.dim:
        raise ValueError(
            f"dataset has {dataset.dim} input dimensions, "
            f"hyperparameters expect {hyper.dim}"
        )
    K = kernel_matrix(dataset.inputs, dataset.inputs, hyper)
    idx = np.diag_indices_from(K)
    K[idx] += hyper.noise_variance
    base = K[idx].copy()

    jitter = JITTER_INITIAL * hyper.signal_variance
    jitter_max = JITTER_MAX * hyper.signal_variance
    error: FactorizationError | None = None
    while jitter <= jitter_max * (1.0 + 1e-12):
        K[idx] = base + jitter
        try:
            L = _cholesky_lower(K)
        except FactorizationError as exc:
            error = exc
            jitter *= 10.0
            continue
        alpha = cho_solve((L, True), dataset.targets, check_finite=False)
        return PosteriorCache(
            chol=L, alpha=alpha, dataset_version=dataset.version, jitter=jitter
        )
    assert error is not None
    raise error


def _clamp_variance(var: np.ndarray) -> np.ndarray:
    worst = var.min() if var.size else 0.0
    if worst < VARIANCE_CLAMP:
        raise NumericalError(
            f"predictive variance {worst:.3e} below the roundoff clamp; "
            "the posterior cache is likely corrupted"
        )
    return np.maximum(var, 0.0)


def predict(
    cache: PosteriorCache,
    dataset: Dataset,
    hyper: Hyperparameters,
    Xstar: np.ndarray,
):
    """Posterior mean and latent variance of ``f`` at the test inputs.

    Returns ``(mean, variance)`` where variance is the per-point latent
    variance (observation noise not added).  Negative values within
    roundoff of zero are clamped to zero.
    """
    if cache.dataset_version != dataset.version:
        raise StaleCacheError(
            f"cache fitted for dataset version {cache.dataset_version}, "
            f"got version {dataset.version}"
        )
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    Ks = kernel_matrix(Xstar, dataset.inputs, hyper)
    mean = Ks @ cache.alpha
    # The routine solve_triangular calls for this F-ordered factor, minus its wrapper.
    V, info = dtrtrs(cache.chol, Ks.T, lower=1)
    if info != 0:
        raise NumericalError(f"triangular solve failed (LAPACK info {info})")
    var = hyper.signal_variance - np.einsum("ij,ij->j", V, V)
    return mean, _clamp_variance(var)


def _lml_from_cache(cache: PosteriorCache, dataset: Dataset) -> float:
    fit = -0.5 * float(dataset.targets @ cache.alpha)
    logdet_half = float(np.sum(np.log(np.diagonal(cache.chol))))
    return fit - logdet_half - 0.5 * dataset.n * LOG_2PI


def log_marginal_likelihood(dataset: Dataset, hyper: Hyperparameters) -> float:
    """log p(y) = -1/2 y^T (K+noise*I)^-1 y - 1/2 log|K+noise*I| - n/2 log 2pi."""
    return _lml_from_cache(fit_cache(dataset, hyper), dataset)


def _lml_and_gradient(dataset: Dataset, hyper: Hyperparameters):
    """Value and analytic gradient of the log marginal likelihood with
    respect to the log-transformed hyperparameters
    (log signal_variance, log lengthscales..., log noise_variance)."""
    X = dataset.inputs
    n, p = X.shape
    K = kernel_matrix(X, X, hyper)
    eye = np.eye(n)
    Kn = K + (hyper.noise_variance + JITTER_INITIAL * hyper.signal_variance) * eye
    L = _cholesky_lower(Kn)
    alpha = cho_solve((L, True), dataset.targets, check_finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        lml = _lml_from_cache(PosteriorCache(L, alpha, dataset.version), dataset)
    if not np.isfinite(lml):
        return lml, np.full(p + 2, np.nan)
    Kinv = cho_solve((L, True), eye, check_finite=False)
    A = np.outer(alpha, alpha) - Kinv

    grad = np.empty(p + 2)
    AK = A * K
    grad[0] = 0.5 * float(np.sum(AK))
    for d in range(p):
        diff = X[:, d, None] - X[None, :, d]
        grad[1 + d] = 0.5 * float(
            np.sum(AK * (diff * diff)) / hyper.lengthscales[d] ** 2
        )
    grad[-1] = 0.5 * hyper.noise_variance * float(np.trace(A))
    return lml, grad


def lml_gradient(dataset: Dataset, hyper: Hyperparameters) -> np.ndarray:
    """Gradient of the log marginal likelihood over the log hyperparameters."""
    return _lml_and_gradient(dataset, hyper)[1]


# Penalty returned when a trial point cannot be factorized; large but finite
# so the line search backtracks instead of aborting the whole run.
_SEARCH_PENALTY = 1e25


def optimize_hyperparameters(
    dataset: Dataset,
    init: Hyperparameters,
    max_iters: int = 200,
    tol: float = 1e-5,
    bounds=None,
    restarts: int = 0,
    rng: np.random.Generator | None = None,
) -> Hyperparameters:
    """Maximize the log marginal likelihood over log-space hyperparameters.

    Runs L-BFGS-B from ``init`` (plus ``restarts`` perturbed starts drawn
    from ``rng``) and returns the best hyperparameters seen, never worse
    than ``init``.  Returns ``init`` unchanged when its gradient norm is
    already below ``tol``.  ``bounds`` are (low, high) pairs in log space.
    Raises :class:`OptimizationError` if the objective turns non-finite,
    reporting the best iterate found up to that point.  The objective is
    evaluated once at ``init`` and once per point L-BFGS-B asks for.
    """
    theta0 = init.to_log_vector()
    lml0, g0 = _lml_and_gradient(dataset, init)
    if np.max(np.abs(g0)) < tol:
        return init

    best = {"lml": lml0, "theta": theta0.copy()}

    def objective(theta):
        try:
            hyper = Hyperparameters.from_log_vector(theta)
            lml, grad = _lml_and_gradient(dataset, hyper)
        except (FactorizationError, ValueError):
            return _SEARCH_PENALTY, np.zeros_like(theta)
        if not np.isfinite(lml):
            raise OptimizationError(
                "log marginal likelihood became non-finite during search",
                last_valid=Hyperparameters.from_log_vector(best["theta"]),
            )
        if lml > best["lml"]:
            best["lml"] = lml
            best["theta"] = np.array(theta, copy=True)
        return -lml, -grad

    starts = [theta0]
    if restarts > 0:
        rng = rng if rng is not None else np.random.default_rng(0)
        starts += [theta0 + rng.normal(scale=0.5, size=theta0.shape) for _ in range(restarts)]

    for start in starts:
        minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": max_iters, "gtol": tol},
        )

    return Hyperparameters.from_log_vector(best["theta"])


def gaussian_entropy(dim: int, log_det_cov: float) -> float:
    """Differential entropy of a ``dim``-variate Gaussian:
    ``dim/2 * (1 + log 2pi) + 1/2 * log|cov|``."""
    return 0.5 * dim * (1.0 + LOG_2PI) + 0.5 * log_det_cov
