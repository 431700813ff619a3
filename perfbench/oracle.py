"""Dense numpy oracle for the benchmark's output checks.

Independent of ``budgetgp``'s own linear algebra: the SE-ARD kernel comes
from ``scipy.spatial.distance.cdist``, and every partition is materialized
as its own noisy kernel matrix and scored with ``numpy.linalg.slogdet`` and
``numpy.linalg.solve``.  The diagonal carries the noise variance plus the
program's documented initial jitter of ``1e-10 * signal_variance``.

A chosen index passes when its oracle score is within a relative tolerance
of the oracle's minimum, so exact near-ties may go either way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

JITTER = 1e-10
LOG_2PI = math.log(2.0 * math.pi)
SCORE_RTOL = 1e-7
VALUE_RTOL = 1e-6


def kernel(A, B, hyper) -> np.ndarray:
    A = np.atleast_2d(A) / hyper.lengthscales
    B = np.atleast_2d(B) / hyper.lengthscales
    return hyper.signal_variance * np.exp(-0.5 * cdist(A, B, "sqeuclidean"))


def _noisy(X, hyper) -> np.ndarray:
    K = kernel(X, X, hyper)
    K[np.diag_indices_from(K)] += hyper.noise_variance + JITTER * hyper.signal_variance
    return K


def log_evidence(X, y, hyper) -> float:
    C = _noisy(X, hyper)
    _, logdet = np.linalg.slogdet(C)
    return float(-0.5 * y @ np.linalg.solve(C, y) - 0.5 * logdet - 0.5 * len(y) * LOG_2PI)


def posterior_mean(X, y, hyper, Xstar) -> np.ndarray:
    return kernel(Xstar, X, hyper) @ np.linalg.solve(_noisy(X, hyper), y)


def posterior(X, y, hyper, Xstar):
    """Mean and latent variance at ``Xstar`` given training rows ``X, y``."""
    C = _noisy(X, hyper)
    Ks = kernel(Xstar, X, hyper)
    W = np.linalg.solve(C, Ks.T)
    mean = W.T @ y
    var = hyper.signal_variance - np.einsum("ij,ij->j", Ks.T, W)
    return mean, np.maximum(var, 0.0)


def _partition_score(criterion, Xi, yi, removed_x, hyper, full_mean):
    if criterion == "prior-entropy":
        _, logdet = np.linalg.slogdet(_noisy(Xi, hyper))
        return -(0.5 * len(yi) * (1.0 + LOG_2PI) + 0.5 * logdet)
    if criterion == "mll":
        return log_evidence(Xi, yi, hyper)
    if criterion == "mean-relevance":
        mu_loo, _ = posterior(Xi, yi, hyper, removed_x[None, :])
        return (full_mean - float(mu_loo[0])) ** 2
    raise ValueError(f"oracle has no criterion {criterion!r}")


def partition_scores(criterion: str, X, y, hyper, candidate=None) -> np.ndarray:
    """Score every replace-one partition (``candidate`` given) or delete-one
    partition (``candidate`` None), each materialized in full."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    full_means = None
    if criterion == "mean-relevance":
        full_means, _ = posterior(X, y, hyper, X)
    scores = np.empty(len(y))
    for i in range(len(y)):
        if candidate is None:
            Xi, yi = np.delete(X, i, axis=0), np.delete(y, i)
        else:
            Xi, yi = X.copy(), y.copy()
            Xi[i], yi[i] = np.asarray(candidate[0], float), float(candidate[1])
        full = float(full_means[i]) if full_means is not None else 0.0
        scores[i] = _partition_score(criterion, Xi, yi, X[i], hyper, full)
    return scores


def score_tolerance(scores: np.ndarray) -> float:
    return SCORE_RTOL * max(float(np.max(np.abs(scores))), 1e-300)


def choice_ok(scores: np.ndarray, chosen: int) -> bool:
    """True when ``chosen`` attains the oracle minimum up to the tolerance."""
    return bool(scores[chosen] - scores.min() <= score_tolerance(scores))


def values_close(actual, expected, scale: float) -> bool:
    """Element-wise agreement within ``VALUE_RTOL`` of ``scale``."""
    actual = np.asarray(actual, float)
    expected = np.asarray(expected, float)
    return bool(np.all(np.abs(actual - expected) <= VALUE_RTOL * scale))
