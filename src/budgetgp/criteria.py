"""Reduction and acceptance criteria for budget-constrained GP updates.

A reduction criterion scores every replace-one-point partition of the
training set (or delete-one partition when no replacement candidate is
given); the stored point whose partition scores lowest is the one to drop.
Each criterion has a paired acceptance criterion that filters candidates
against the cached minimum score of the stored points before any partition
sweep runs.

:func:`reduction_score` refits one materialized partition, as the paper
defines it, and is the reference for :func:`reduction_scores`, which the
loops use: every partition from one cache, in O(N^2) from the kept factor
for a replace-one sweep and from the stored set's own factor for deletion.

Two pairs of criteria are exact duals and always pick the same point:
prior entropy with predictive entropy (through the block-determinant
identity of the joint covariance), and marginal log likelihood with log
predictive density (through the chain-rule factorization of the joint
density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .gp import (
    Dataset,
    Hyperparameters,
    NumericalError,
    PosteriorCache,
    StaleCacheError,
    _clamp_variance,
    _lml_from_cache,
    fit_cache,
    gaussian_entropy,
    kernel_matrix,
    log_marginal_likelihood,
    predict,
)

__all__ = [
    "CriterionKind",
    "AcceptanceKind",
    "PartitionView",
    "acceptance_kind_for",
    "loo_predict",
    "reduction_score",
    "reduction_scores",
    "argmin_with_ties",
    "tie_tolerance",
    "acceptance_score",
    "acceptance_scores",
]


class CriterionKind(Enum):
    PRIOR_ENTROPY = "prior-entropy"
    PREDICTIVE_ENTROPY = "predictive-entropy"
    MEAN_RELEVANCE = "mean-relevance"
    MARGINAL_LOG_LIKELIHOOD = "mll"
    LOG_PREDICTIVE_DENSITY = "lpd"


class AcceptanceKind(Enum):
    VARIANCE = "variance"
    SQUARED_ERROR = "squared-error"
    NEGATIVE_LOG_PREDICTIVE_DENSITY = "negative-lpd"


_ACCEPTANCE_PAIRING = {
    CriterionKind.PRIOR_ENTROPY: AcceptanceKind.VARIANCE,
    CriterionKind.PREDICTIVE_ENTROPY: AcceptanceKind.VARIANCE,
    CriterionKind.MEAN_RELEVANCE: AcceptanceKind.SQUARED_ERROR,
    CriterionKind.MARGINAL_LOG_LIKELIHOOD: AcceptanceKind.NEGATIVE_LOG_PREDICTIVE_DENSITY,
    CriterionKind.LOG_PREDICTIVE_DENSITY: AcceptanceKind.NEGATIVE_LOG_PREDICTIVE_DENSITY,
}


def acceptance_kind_for(kind: CriterionKind) -> AcceptanceKind:
    """The acceptance criterion paired with a reduction criterion."""
    return _ACCEPTANCE_PAIRING[kind]


@dataclass(frozen=True, eq=False)
class PartitionView:
    """One partition of the training set: row ``replaced_index`` swapped for
    ``candidate`` (an ``(x, y)`` pair), or simply deleted when ``candidate``
    is ``None``."""

    base: Dataset
    replaced_index: int
    candidate: tuple | None = None

    def __post_init__(self):
        if not 0 <= self.replaced_index < self.base.n:
            raise ValueError(
                f"replaced_index {self.replaced_index} out of range for "
                f"{self.base.n} rows"
            )
        if self.candidate is not None:
            x = np.asarray(self.candidate[0], dtype=float).reshape(-1)
            if x.shape[0] != self.base.dim:
                raise ValueError(
                    f"candidate has {x.shape[0]} features, dataset has {self.base.dim}"
                )

    @property
    def removed_x(self) -> np.ndarray:
        return self.base.inputs[self.replaced_index]

    @property
    def removed_y(self) -> float:
        return float(self.base.targets[self.replaced_index])

    def materialize(self) -> Dataset:
        """The reduced dataset: base with the removed row swapped for the
        candidate (same size), or dropped (size N-1) in deletion mode."""
        if self.candidate is None:
            return self.base.with_row_removed(self.replaced_index)
        x, y = self.candidate
        return self.base.with_row_replaced(self.replaced_index, x, float(y))


def loo_predict(partition: PartitionView, hyper: Hyperparameters):
    """Predictive mean and latent variance at the removed input, conditioned
    on the partition's reduced dataset."""
    reduced = partition.materialize()
    cache = fit_cache(reduced, hyper)
    mu, var = predict(cache, reduced, hyper, partition.removed_x[None, :])
    return float(mu[0]), float(var[0])


def reduction_score(
    kind: CriterionKind,
    partition: PartitionView,
    hyper: Hyperparameters,
    base_cache: PosteriorCache | None = None,
    mean_reference: str = "model",
) -> float:
    """Score one partition; the removal loop takes the argmin over partitions.

    Scores per kind, writing D' for the reduced dataset and (x_i, y_i) for
    the removed row:

    - predictive entropy: Gaussian entropy of the latent prediction at x_i
      given D'.
    - prior entropy: negated Gaussian entropy of the marginal over D' 's
      targets (noise-inclusive covariance).
    - mean relevance: squared change of the predictive mean at x_i between
      the full model and D'.  With ``mean_reference="target"`` the stored
      target y_i replaces the full-model mean.
    - marginal log likelihood: log evidence of D'.
    - log predictive density: negated Gaussian log density of y_i under the
      noisy prediction at x_i given D'.

    ``base_cache`` lets callers reuse the full model's cache for the mean
    relevance reference instead of refitting it per partition.
    """
    if kind is CriterionKind.PREDICTIVE_ENTROPY:
        _, var = loo_predict(partition, hyper)
        if var <= 0.0:
            raise NumericalError("zero predictive variance in entropy score")
        return gaussian_entropy(1, math.log(var))

    if kind is CriterionKind.PRIOR_ENTROPY:
        reduced = partition.materialize()
        cache = fit_cache(reduced, hyper)
        log_det = 2.0 * float(np.sum(np.log(np.diagonal(cache.chol))))
        return -gaussian_entropy(reduced.n, log_det)

    if kind is CriterionKind.MEAN_RELEVANCE:
        mu_loo, _ = loo_predict(partition, hyper)
        if mean_reference == "target":
            reference = partition.removed_y
        elif mean_reference == "model":
            if base_cache is None:
                base_cache = fit_cache(partition.base, hyper)
            mu_full, _ = predict(
                base_cache, partition.base, hyper, partition.removed_x[None, :]
            )
            reference = float(mu_full[0])
        else:
            raise ValueError(f"unknown mean_reference {mean_reference!r}")
        return (reference - mu_loo) ** 2

    if kind is CriterionKind.MARGINAL_LOG_LIKELIHOOD:
        return log_marginal_likelihood(partition.materialize(), hyper)

    if kind is CriterionKind.LOG_PREDICTIVE_DENSITY:
        mu, var = loo_predict(partition, hyper)
        err_sq = (partition.removed_y - mu) ** 2
        return float(_neg_log_densities(err_sq, var + hyper.noise_variance))

    raise ValueError(f"unknown criterion {kind!r}")


def _extended_cache(base: PosteriorCache, dataset: Dataset, scored: Dataset,
                    hyper: Hyperparameters) -> PosteriorCache | None:
    """The cache of ``scored``, the dataset plus one row, extended from the
    dataset's cache ``base`` in O(N^2) with its jitter (the block update of
    Seeger 2004); ``None`` when the new pivot c is not positive.  With
    k = K(X, x*), l = L^-1 k, b = L^-T l and a* = (y* - k^T alpha) / c:
    c = k** + s^2 - l^T l, the weights are [alpha - b a*, a*] and
    d = [d + b^2 / c, 1 / c]."""
    k = kernel_matrix(scored.inputs[-1:], dataset.inputs, hyper)[0]
    l, info = dtrtrs(base.chol, k, lower=1)
    b, info_t = dtrtrs(base.chol, l, lower=1, trans=1)
    c = hyper.signal_variance + hyper.noise_variance + base.jitter - float(l @ l)
    if info or info_t or not c > 0.0:
        return None
    a = (scored.targets[-1] - float(k @ base.alpha)) / c
    chol = np.zeros((scored.n, scored.n), order="F")
    chol[:-1, :-1] = base.chol
    chol[-1] = np.append(l, math.sqrt(c))
    cache = PosteriorCache(chol, np.append(base.alpha - b * a, a), scored.version, base.jitter)
    # Set the lazily computed d to its O(N^2) update.
    d = np.append(base.inverse_diagonal + b * b / c, 1.0 / c)
    object.__setattr__(cache, "inverse_diagonal", d)
    return cache


def reduction_scores(
    kind: CriterionKind,
    dataset: Dataset,
    hyper: Hyperparameters,
    candidate: tuple | None = None,
    base_cache: PosteriorCache | None = None,
    mean_reference: str = "model",
) -> np.ndarray:
    """The scores of all partitions, ``reduction_score`` of
    ``PartitionView(dataset, i, candidate)`` for every row i, from one cache.

    Replacing row i with the candidate leaves the set S minus row i, where S
    is the dataset plus the candidate (or the dataset itself in deletion
    mode).  The dataset's own cache, ``base_cache`` or fitted here when it is
    not given, serves as S's cache in deletion mode and is extended to S in
    O(N^2) with a candidate; S is factored afresh only when the extension
    fails (a new pivot that is not positive, or a failed solve).  With
    d_i = [K_S^-1]_ii and alpha the weights of S, the leave-one-out
    identities (Rasmussen & Williams 2006, 5.4.2) give row i's noisy
    predictive variance 1/d_i, its residual alpha_i/d_i and
    log|K_S-i| = log|K_S| + log d_i; the evidence of S without row i is the
    evidence of S plus row i's negative log predictive density.  1/d_i
    includes the factor's jitter, which the latent variance leaves out.
    """
    if mean_reference not in ("model", "target"):
        raise ValueError(f"unknown mean_reference {mean_reference!r}")
    if base_cache is None:
        base_cache = fit_cache(dataset, hyper)
    elif base_cache.dataset_version != dataset.version:
        raise StaleCacheError("base_cache was fitted on a different dataset")
    if candidate is None:
        scored, cache = dataset, base_cache
    else:
        scored = dataset.with_appended(candidate[0], float(candidate[1]))
        cache = _extended_cache(base_cache, dataset, scored, hyper) or fit_cache(scored, hyper)
    d = cache.inverse_diagonal[: dataset.n]
    noisy_var = 1.0 / d
    residual = cache.alpha[: dataset.n] * noisy_var

    if kind is CriterionKind.PRIOR_ENTROPY:
        log_det = 2.0 * float(np.sum(np.log(np.diagonal(cache.chol))))
        return -gaussian_entropy(scored.n - 1, log_det + np.log(d))
    if kind is CriterionKind.MARGINAL_LOG_LIKELIHOOD:
        return _lml_from_cache(cache, scored) + _neg_log_densities(residual**2, noisy_var)

    latent_var = _clamp_variance(noisy_var - (hyper.noise_variance + cache.jitter))
    if kind is CriterionKind.PREDICTIVE_ENTROPY:
        if np.any(latent_var <= 0.0):
            raise NumericalError("zero predictive variance in entropy score")
        return gaussian_entropy(1, np.log(latent_var))
    if kind is CriterionKind.LOG_PREDICTIVE_DENSITY:
        return _neg_log_densities(residual**2, latent_var + hyper.noise_variance)
    if kind is CriterionKind.MEAN_RELEVANCE:
        if mean_reference == "target":
            return residual**2
        # The full model's mean at its own inputs is y - (noise + jitter) alpha,
        # so the shift needs no difference of two near-equal means.
        return (residual - (hyper.noise_variance + base_cache.jitter) * base_cache.alpha) ** 2
    raise ValueError(f"unknown criterion {kind!r}")


def _neg_log_densities(err_sq: np.ndarray, total_var: np.ndarray) -> np.ndarray:
    if np.any(total_var <= 0.0):
        raise NumericalError("non-positive variance in log-density evaluation")
    return 0.5 * np.log(2.0 * math.pi * total_var) + err_sq / (2.0 * total_var)


# Scores closer to the minimum than this fraction of the largest absolute
# score are tied up to roundoff (duplicate stored rows are the common case).
TIE_RTOL = 1e-9


def tie_tolerance(scores) -> float:
    """Absolute score gap below which two partitions count as tied."""
    return TIE_RTOL * float(np.max(np.abs(scores)))


def argmin_with_ties(scores) -> int:
    """Index of the lowest score, the smallest index among tied scores.
    Raises :class:`NumericalError` if any score is not finite."""
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite score in the argmin")
    return int(np.argmax(scores <= scores.min() + tie_tolerance(scores)))


def acceptance_score(
    kind: CriterionKind,
    cache: PosteriorCache,
    dataset: Dataset,
    hyper: Hyperparameters,
    point: tuple,
) -> float:
    """Acceptance score of one point against the current full model: its
    latent variance, squared prediction error, or negative Gaussian log
    density of the target under the noisy prediction, following the
    reduction criterion's pairing."""
    x, y = point
    x = np.asarray(x, dtype=float).reshape(1, -1)
    mu, var = predict(cache, dataset, hyper, x)
    return float(_paired_scores(kind, var, float(y) - mu, hyper)[0])


def acceptance_scores(
    kind: CriterionKind,
    cache: PosteriorCache,
    dataset: Dataset,
    hyper: Hyperparameters,
) -> np.ndarray:
    """Acceptance scores of every stored row, in O(N) once d = diag(K^-1) of
    the factored matrix is known.  With s^2 = noise + the factor's jitter,
    row i's latent variance is s^2 (1 - s^2 d_i) and its residual
    y_i - mu_i is s^2 alpha_i; the scores follow from these two as
    :func:`acceptance_score` forms them."""
    if cache.dataset_version != dataset.version:
        raise StaleCacheError("cache was fitted on a different dataset")
    s2 = hyper.noise_variance + cache.jitter
    var = _clamp_variance(s2 * (1.0 - s2 * cache.inverse_diagonal))
    return _paired_scores(kind, var, s2 * cache.alpha, hyper)


def _paired_scores(kind: CriterionKind, latent_var: np.ndarray, residual: np.ndarray,
                   hyper: Hyperparameters) -> np.ndarray:
    """The acceptance scores paired with ``kind`` from latent variances and
    residuals y - mu: the variance, the squared error, or the negative
    Gaussian log density of y under the noisy prediction."""
    acc = acceptance_kind_for(kind)
    if acc is AcceptanceKind.VARIANCE:
        return latent_var
    if acc is AcceptanceKind.SQUARED_ERROR:
        return residual**2
    return _neg_log_densities(residual**2, latent_var + hyper.noise_variance)
