"""Budget-constrained online GP updates.

The update loop for one incoming point ``(x, y)``:

1. insertion gate: keep the point only if its predictive variance exceeds
   the variance threshold (strict) or its absolute prediction error reaches
   the error threshold; with both thresholds disabled every point passes.
2. under budget: append and re-cache.
3. at budget: the acceptance gate compares the point's acceptance score
   against the cached minimum over the stored rows; if it passes, the
   reduction criterion scores every replace-one partition and the argmin
   row is swapped for the point.

Hyperparameters stay frozen while streaming; only the dataset changes.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .criteria import (
    CriterionKind,
    acceptance_score,
    acceptance_scores,
    argmin_with_ties,
    reduction_scores,
)
from .dataio import smse
from .gp import (
    Dataset,
    FactorizationError,
    Hyperparameters,
    NumericalError,
    PosteriorCache,
    fit_cache,
    predict,
)

__all__ = [
    "Decision",
    "StepOutcome",
    "OnlineGp",
    "RunSummary",
    "insert_decision",
    "accept_decision",
    "select_removal",
    "step",
    "run_stream",
    "save_snapshot",
    "load_snapshot",
    "SNAPSHOT_FORMAT_VERSION",
]

logger = logging.getLogger(__name__)

SNAPSHOT_FORMAT_VERSION = 1


class Decision(Enum):
    REJECTED_INSERTION = "rejected-insertion"
    APPENDED = "appended"
    REJECTED_ACCEPTANCE = "rejected-acceptance"
    REPLACED = "replaced"
    FAILED = "failed"


@dataclass
class StepOutcome:
    """What happened to one streamed point."""

    decision: Decision
    replaced_index: int | None = None
    scores: np.ndarray | None = None
    error: str | None = None

    @property
    def revised(self) -> bool:
        return self.decision in (Decision.APPENDED, Decision.REPLACED)


@dataclass
class OnlineGp:
    """Mutable state of the online loop: dataset, frozen hyperparameters,
    posterior cache, budget, insertion thresholds, criterion selection and
    the cached acceptance scores of the stored rows."""

    dataset: Dataset
    hyper: Hyperparameters
    budget: int
    criterion: CriterionKind = CriterionKind.MARGINAL_LOG_LIKELIHOOD
    var_threshold: float | None = None
    err_threshold: float | None = None
    use_acceptance: bool = False
    cache: PosteriorCache = field(init=False)
    acc_scores: np.ndarray | None = field(init=False, default=None)
    j_min: float | None = field(init=False, default=None)

    def __post_init__(self):
        try:
            self.criterion = CriterionKind(self.criterion)
        except ValueError:
            raise ValueError(f"unknown criterion {self.criterion!r}") from None
        if not isinstance(self.use_acceptance, bool):
            raise ValueError(f"use_acceptance must be a bool, not {self.use_acceptance!r}")
        if isinstance(self.budget, bool) or not isinstance(self.budget, numbers.Integral):
            raise ValueError(f"budget must be an integer, not {self.budget!r}")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.dataset.n > self.budget:
            raise ValueError(
                f"initial dataset ({self.dataset.n} rows) exceeds budget {self.budget}"
            )
        for name in ("var_threshold", "err_threshold"):
            value = getattr(self, name)
            if value is not None and not (
                    isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, or disabled")
        self._recache(self.dataset)

    def _recache(self, dataset: Dataset) -> None:
        """Fit the cache for ``dataset`` and commit it (plus the acceptance
        score cache) atomically; on failure the previous state is intact."""
        cache = fit_cache(dataset, self.hyper)
        scores = None
        if self.use_acceptance:
            scores = acceptance_scores(self.criterion, cache, dataset, self.hyper)
        self.dataset = dataset
        self.cache = cache
        self.acc_scores = scores
        self.j_min = float(np.min(scores)) if scores is not None else None


class _Point(tuple):
    """An ``(x, y)`` pair that passed :func:`_checked_point`."""


def _checked_point(model: OnlineGp, point) -> _Point:
    """``point`` as a flat float input and a float target; raises
    ``ValueError`` when it cannot be unpacked or converted, has the wrong
    input dimension or a non-finite entry.  A point this function already
    returned passes through unchecked."""
    if type(point) is _Point:
        return point
    try:
        x, y = point
        x = np.asarray(x, dtype=float).reshape(-1)
        y = float(y)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed point: {exc}") from None
    if x.size != model.hyper.dim:
        raise ValueError(f"point has {x.size} features, model has {model.hyper.dim}")
    # math.isfinite per feature: a fraction of a numpy reduction's overhead.
    if not (math.isfinite(y) and all(map(math.isfinite, x.tolist()))):
        raise ValueError("point has non-finite entries")
    return _Point((x, y))


def insert_decision(model: OnlineGp, point: tuple) -> bool:
    """Insertion gate: variance strictly above the variance threshold, or
    absolute prediction error at or above the error threshold.  Always true
    with both thresholds disabled.  Raises ``ValueError`` for a malformed
    point (see :func:`step`)."""
    x, y = _checked_point(model, point)
    if model.var_threshold is None and model.err_threshold is None:
        return True
    mu, var = predict(model.cache, model.dataset, model.hyper, x.reshape(1, -1))
    if model.var_threshold is not None and float(var[0]) > model.var_threshold:
        return True
    if model.err_threshold is not None and abs(y - float(mu[0])) >= model.err_threshold:
        return True
    return False


def accept_decision(model: OnlineGp, point: tuple) -> bool:
    """Acceptance gate at budget: the candidate's acceptance score must
    strictly exceed the cached minimum over the stored rows.  A candidate
    equal to stored rows in ``x`` and ``y`` takes the smallest of their
    cached scores.  Raises ``ValueError`` for a malformed point (see
    :func:`step`)."""
    point = _checked_point(model, point)
    if not model.use_acceptance:
        return True
    if model.j_min is None:
        raise RuntimeError("acceptance score cache missing; model not re-cached")
    x, y = point
    same = (model.dataset.targets == y) & (model.dataset.inputs == x).all(axis=1)
    score = float(model.acc_scores[same].min()) if same.any() else acceptance_score(
        model.criterion, model.cache, model.dataset, model.hyper, point
    )
    return score > model.j_min


def _sweep(model: OnlineGp, point: tuple) -> tuple[int, np.ndarray]:
    scores = reduction_scores(
        model.criterion, model.dataset, model.hyper, point, base_cache=model.cache
    )
    return argmin_with_ties(scores), scores


def select_removal(model: OnlineGp, point: tuple) -> int:
    """Index of the stored row to replace: argmin of the reduction scores
    over all replace-one partitions, smallest index on ties (see
    :func:`budgetgp.criteria.argmin_with_ties`)."""
    return _sweep(model, point)[0]


def step(model: OnlineGp, point: tuple) -> tuple[OnlineGp, StepOutcome]:
    """Process one streamed point through the insertion, acceptance and
    reduction gates.  A malformed point (wrong input dimension, non-finite
    entries) and numerical failures abort the step: the point is dropped,
    the model is left unchanged and the error is recorded on the outcome."""
    try:
        point = _checked_point(model, point)
    except ValueError as exc:
        return model, StepOutcome(Decision.FAILED, error=str(exc))
    x, y = point
    try:
        if not insert_decision(model, point):
            return model, StepOutcome(Decision.REJECTED_INSERTION)
        if model.dataset.n < model.budget:
            model._recache(model.dataset.with_appended(x, y))
            return model, StepOutcome(Decision.APPENDED)
        if not accept_decision(model, point):
            return model, StepOutcome(Decision.REJECTED_ACCEPTANCE)
        r, scores = _sweep(model, point)
        model._recache(model.dataset.with_row_replaced(r, x, y))
        return model, StepOutcome(Decision.REPLACED, replaced_index=r, scores=scores)
    except (FactorizationError, NumericalError) as exc:
        logger.warning("online step skipped after numerical failure: %s", exc)
        return model, StepOutcome(Decision.FAILED, error=str(exc))


@dataclass
class RunSummary:
    """End-of-stream metrics: SMSE and mean latent variance over the
    evaluation set, and how many streamed points entered the model."""

    revised: int
    steps: int
    final_smse: float | None = None
    mean_variance: float | None = None


def run_stream(
    model: OnlineGp,
    stream,
    eval_set: Dataset | None = None,
) -> tuple[OnlineGp, list[StepOutcome], RunSummary]:
    """Apply :func:`step` to every point of the stream in order.

    ``stream`` yields ``(x, y)`` pairs.  With ``eval_set`` the summary
    carries the final SMSE and mean latent variance on it.
    """
    outcomes: list[StepOutcome] = []
    for point in stream:
        model, outcome = step(model, point)
        outcomes.append(outcome)
    summary = RunSummary(
        revised=sum(1 for o in outcomes if o.revised), steps=len(outcomes)
    )
    if eval_set is not None:
        mu, var = predict(model.cache, model.dataset, model.hyper, eval_set.inputs)
        summary.final_smse = smse(mu, eval_set.targets)
        summary.mean_variance = float(np.mean(var))
    return model, outcomes, summary


def snapshot_dict(model: OnlineGp) -> dict:
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "budget": model.budget,
        "criterion": model.criterion.value,
        "var_threshold": model.var_threshold,
        "err_threshold": model.err_threshold,
        "use_acceptance": model.use_acceptance,
        "hyper": model.hyper.to_dict(),
        "inputs": model.dataset.inputs.tolist(),
        "targets": model.dataset.targets.tolist(),
    }


def model_from_snapshot(payload: dict) -> OnlineGp:
    """The model a :func:`snapshot_dict` record describes.  A missing or
    malformed field raises ``ValueError`` naming it."""
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format version {version!r}")

    def entry(name, read=lambda value: value):
        try:
            return read(payload[name])
        except (LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"snapshot field {name!r}: {type(exc).__name__}: {exc}") from None

    floats = partial(np.asarray, dtype=float)
    return OnlineGp(
        dataset=Dataset(entry("inputs", floats), entry("targets", floats)),
        hyper=entry("hyper", Hyperparameters.from_dict),
        budget=entry("budget"),
        criterion=entry("criterion", CriterionKind),
        var_threshold=entry("var_threshold"),
        err_threshold=entry("err_threshold"),
        use_acceptance=entry("use_acceptance"),
    )


def save_snapshot(model: OnlineGp, path) -> None:
    """Persist the online model (dataset, hyperparameters, thresholds,
    criterion, budget) as a versioned JSON record; the cache is refit on
    load.  The record is written to a temporary file beside ``path`` and
    moved over it, so an interrupted save leaves any previous snapshot
    intact."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(snapshot_dict(model), fh, indent=2)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_snapshot(path) -> OnlineGp:
    """The model :func:`save_snapshot` wrote to ``path``.  A file that is
    not JSON, an unknown format version and a missing or malformed field
    each raise ``ValueError``; the message names the file or the field."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON snapshot: {exc}") from None
    return model_from_snapshot(payload)
