"""Tabular ingestion, normalization, the SMSE metric and result persistence.

CSV files are comma separated with a header row, UTF-8, '.' decimals and no
thousands separators.  Result files round-trip losslessly: floats are
written with shortest round-trip repr and parsed back bit-identically.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .gp import Dataset

__all__ = [
    "IngestionError",
    "NormalizationError",
    "NormalizationStats",
    "ResultRecord",
    "load_csv_dataset",
    "normalize_fit",
    "normalize_apply",
    "smse",
    "write_results",
    "read_results",
    "sha256_of_file",
]

logger = logging.getLogger(__name__)

# Cell contents treated as a missing value; rows containing one are dropped
# (with a warning giving the count) rather than rejected with an error.
_MISSING = {"", "na", "nan", "null"}


class IngestionError(ValueError):
    """A file could not be parsed into a numeric table."""


class NormalizationError(ValueError):
    """Normalization statistics could not be fitted or applied."""


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Feature z-scoring statistics plus the target mean, fitted on a
    training split only."""

    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_mean: float


def sha256_of_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_csv_dataset(path, target_column: str) -> tuple[tuple, Dataset]:
    """Parse a headed CSV into its feature names and a :class:`Dataset` of
    the feature columns and the named target column.

    Rows containing missing or non-finite cells are dropped, with one
    warning giving their count; any other unparsable cell raises
    :class:`IngestionError` naming the row and column.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise IngestionError(f"{path}: missing target column {target_column!r}")
        t_idx = header.index(target_column)
        feature_names = tuple(h for j, h in enumerate(header) if j != t_idx)

        rows, targets = [], []
        rejected = 0
        for r, record in enumerate(reader, start=2):  # 1-based, after header
            if len(record) != len(header):
                raise IngestionError(
                    f"{path}: row {r} has {len(record)} cells, expected {len(header)}"
                )
            values = []
            missing = False
            for j, cell in enumerate(record):
                text = cell.strip()
                if text.lower() in _MISSING:
                    missing = True
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise IngestionError(
                        f"{path}: unparsable cell at row {r}, column {header[j]!r}: {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    missing = True
                    continue
                values.append(value)
            if missing:
                rejected += 1
                continue
            targets.append(values.pop(t_idx))
            rows.append(values)

    if rejected:
        logger.warning("%s: dropped %d row(s) with missing or non-finite cells", path, rejected)
    if not rows:
        raise IngestionError(f"{path}: no usable data rows")
    return feature_names, Dataset(np.asarray(rows), np.asarray(targets))


def normalize_fit(train: Dataset, feature_names) -> NormalizationStats:
    """Fit z-scoring statistics on a training split; constant columns are an
    error, naming the column, since they cannot be scaled."""
    if train.n == 0:
        raise NormalizationError("cannot fit statistics on an empty table")
    means = train.inputs.mean(axis=0)
    stds = train.inputs.std(axis=0)
    flat = np.flatnonzero(stds <= 0.0)
    if flat.size:
        names = ", ".join(feature_names[j] for j in flat)
        raise NormalizationError(f"constant feature column(s): {names}")
    return NormalizationStats(means, stds, float(train.targets.mean()))


def normalize_apply(stats: NormalizationStats, data: Dataset) -> Dataset:
    """Z-score features and demean the target with previously fitted stats;
    never re-fits on the data it is applied to."""
    if data.dim != stats.feature_means.shape[0]:
        raise NormalizationError(
            f"statistics cover {stats.feature_means.shape[0]} features, "
            f"data has {data.dim}"
        )
    return Dataset((data.inputs - stats.feature_means) / stats.feature_stds,
                   data.targets - stats.target_mean)


def smse(predictions, targets) -> float:
    """Mean squared error normalized by the population (1/N) variance of the
    targets, so that predicting the target mean scores exactly 1."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or targets.ndim != 1:
        raise ValueError("predictions and targets must be equal-length vectors")
    if targets.size < 2:
        raise ValueError("need at least two targets")
    variance = float(np.var(targets))
    if variance == 0.0:
        raise ValueError("target variance is zero; SMSE undefined")
    return float(np.mean((targets - predictions) ** 2)) / variance


# --- result records -----------------------------------------------------------


@dataclass
class ResultRecord:
    """One row of an experiment output; configuration fields are embedded so
    every row is self-describing."""

    benchmark: str
    command: str
    criterion: str
    seed: int
    budget: int
    var_threshold: float | None = None
    err_threshold: float | None = None
    use_acceptance: bool = False
    size: int | None = None
    smse: float | None = None
    mean_variance: float | None = None
    revised: int | None = None
    accepted_fraction: float | None = None
    median_ms: float | None = None
    repeats: int | None = None
    note: str = ""


_FIELDS = [f.name for f in fields(ResultRecord)]
_FLOAT_FIELDS = {"var_threshold", "err_threshold", "smse", "mean_variance",
                 "accepted_fraction", "median_ms"}
_INT_FIELDS = {"seed", "budget", "size", "revised", "repeats"}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(name: str, text: str):
    if text == "":
        return None if name not in ("note", "benchmark", "command", "criterion") else ""
    if name == "use_acceptance":
        return text == "true"
    if name in _FLOAT_FIELDS:
        return float(text)
    if name in _INT_FIELDS:
        return int(text)
    return text


def write_results(records, path) -> None:
    """Write records as JSON when ``path`` ends in ``.json``, as CSV
    otherwise, with a deterministic column order; floats use shortest
    round-trip repr so files are byte-stable."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = [
            {name: getattr(r, name) for name in _FIELDS} for r in records
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_FIELDS)
    for r in records:
        writer.writerow([_cell(getattr(r, name)) for name in _FIELDS])
    path.write_text(buffer.getvalue())


def read_results(path) -> list:
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = json.loads(path.read_text())
        return [ResultRecord(**{k: v for k, v in row.items()}) for row in payload]
    out = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _FIELDS:
            raise IngestionError(f"{path}: unexpected results header")
        for record in reader:
            kwargs = {name: _parse(name, text) for name, text in zip(header, record)}
            out.append(ResultRecord(**kwargs))
    return out
