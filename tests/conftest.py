"""Shared fixtures and the naive dense-matrix oracles.

The oracles deliberately avoid the library's Cholesky path: kernels are
evaluated entry by entry, systems are solved with explicit inverses and
determinants come from slogdet.  They exist so that every fast-path result
can be checked against an independent from-scratch computation.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from budgetgp.criteria import AcceptanceKind, CriterionKind, acceptance_kind_for
from budgetgp.gp import Dataset, Hyperparameters

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

LOG_2PI = math.log(2.0 * math.pi)


def naive_kernel(A, B, hyper):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    K = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            d = (A[i] - B[j]) / hyper.lengthscales
            K[i, j] = hyper.signal_variance * math.exp(-0.5 * float(d @ d))
    return K


def naive_noisy_kernel(X, hyper):
    return naive_kernel(X, X, hyper) + hyper.noise_variance * np.eye(len(X))


def naive_model_matrix(X, hyper):
    """The matrix the model actually factorizes: noisy kernel plus the
    documented base diagonal jitter.  Including it keeps cancellation-prone
    oracle comparisons (mean differences squared) meaningful at 1e-8."""
    return naive_noisy_kernel(X, hyper) + 1e-10 * hyper.signal_variance * np.eye(len(X))


def naive_predict(X, y, hyper, Xstar):
    """Textbook dense evaluation of the posterior mean and latent variance."""
    Kinv = np.linalg.inv(naive_model_matrix(X, hyper))
    Ks = naive_kernel(Xstar, X, hyper)
    mean = Ks @ Kinv @ y
    cov = naive_kernel(Xstar, Xstar, hyper) - Ks @ Kinv @ Ks.T
    return mean, np.diag(cov).copy()


def naive_lml(X, y, hyper):
    Kn = naive_model_matrix(X, hyper)
    sign, logdet = np.linalg.slogdet(Kn)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(Kn) @ y - 0.5 * logdet - 0.5 * len(y) * LOG_2PI)


def naive_gaussian_logpdf(value, mean, variance):
    return float(-0.5 * math.log(2.0 * math.pi * variance) - (value - mean) ** 2 / (2.0 * variance))


def partition_arrays(d, i, candidate):
    """The reduced dataset as plain arrays, built independently."""
    X = d.inputs.copy()
    y = d.targets.copy()
    if candidate is None:
        keep = np.arange(d.n) != i
        return X[keep], y[keep]
    X[i] = candidate[0]
    y[i] = candidate[1]
    return X, y


def naive_reduction_score(kind, d, i, candidate, hyper):
    """From-scratch oracle: rebuild the partition, use dense formulas only."""
    Xr, yr = partition_arrays(d, i, candidate)
    xi = d.inputs[i]
    yi = d.targets[i]
    if kind is CriterionKind.PRIOR_ENTROPY:
        _, logdet = np.linalg.slogdet(naive_noisy_kernel(Xr, hyper))
        return -(0.5 * len(yr) * (1 + LOG_2PI) + 0.5 * logdet)
    if kind is CriterionKind.MARGINAL_LOG_LIKELIHOOD:
        return naive_lml(Xr, yr, hyper)
    mu, var = naive_predict(Xr, yr, hyper, xi[None, :])
    mu, var = float(mu[0]), float(var[0])
    if kind is CriterionKind.PREDICTIVE_ENTROPY:
        return 0.5 * (1 + LOG_2PI) + 0.5 * math.log(var)
    if kind is CriterionKind.LOG_PREDICTIVE_DENSITY:
        s = var + hyper.noise_variance
        return 0.5 * math.log(2 * math.pi * s) + (yi - mu) ** 2 / (2 * s)
    if kind is CriterionKind.MEAN_RELEVANCE:
        mu_full, _ = naive_predict(d.inputs, d.targets, hyper, xi[None, :])
        return (float(mu_full[0]) - mu) ** 2
    raise AssertionError(kind)


def naive_acceptance_score(kind, d, hyper, point):
    x, y = point
    mu, var = naive_predict(d.inputs, d.targets, hyper, np.atleast_2d(x))
    mu, var = float(mu[0]), float(var[0])
    acc = acceptance_kind_for(kind)
    if acc is AcceptanceKind.VARIANCE:
        return var
    if acc is AcceptanceKind.SQUARED_ERROR:
        return (y - mu) ** 2
    s = var + hyper.noise_variance
    return 0.5 * math.log(2 * math.pi * s) + (y - mu) ** 2 / (2 * s)


def random_candidate(rng, p):
    return rng.uniform(-2, 2, size=p), float(rng.normal())


def random_hyper(rng, p):
    # Noise floor keeps the noisy kernel well conditioned so that the
    # Cholesky path and the dense oracles agree to 1e-8 relative.
    return Hyperparameters(
        signal_variance=rng.uniform(0.5, 3.0),
        lengthscales=rng.uniform(0.4, 2.0, size=p),
        noise_variance=rng.uniform(0.05, 0.5),
    )


def random_instance(rng, n, p):
    """A random dataset/hyperparameter pair with smooth-ish targets."""
    hyper = random_hyper(rng, p)
    X = rng.uniform(-2.0, 2.0, size=(n, p))
    w = rng.normal(size=p)
    y = np.sin(X @ w) + 0.3 * rng.normal(size=n)
    return Dataset(X, y), hyper


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
