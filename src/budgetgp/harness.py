"""Experiment harness: benchmark resolution, hyperparameter training and the
implementations behind the CLI subcommands.

Every command takes an :class:`ExperimentConfig`, returns the result records
it produced and, when an output path is configured, writes them (plus a
metadata sidecar embedding the full configuration) through
:mod:`budgetgp.dataio`.  Commands are deterministic given the config and
seeds; nothing in the output depends on wall-clock time except the measured
medians of ``bench``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import (CriterionKind, PartitionView, argmin_with_ties, reduction_score,
                       reduction_scores, tie_tolerance)
from .dataio import (
    ResultRecord,
    load_csv_dataset,
    normalize_apply,
    normalize_fit,
    sha256_of_file,
    smse,
    write_results,
)
from .gp import (
    Dataset,
    Hyperparameters,
    NumericalError,
    _lml_from_cache,
    fit_cache,
    kernel_matrix,
    optimize_hyperparameters,
    predict,
)
from .online import OnlineGp, run_stream
from .systems import (
    BENCHMARK_BOUNDS,
    LAG_PRESETS,
    PARAMS_VERSION,
    SYSTEM_DEFAULTS,
    bouc_wen_dataset,
    building_dataset,
    eval_benchmark_function,
    sample_uniform,
    tanks_dataset,
    van_der_pol_dataset,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "resolve_benchmark",
    "train_hyperparameters",
    "save_hyper_file",
    "load_hyper_file",
    "cmd_generate",
    "cmd_train",
    "cmd_reduce_sweep",
    "cmd_accept_eval",
    "cmd_online_eval",
    "cmd_threshold_sweep",
    "cmd_bench",
    "COMPLEXITY_MODEL",
    "DEFAULT_STREAM_SIZE",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the fields."""


FUNCTION_BENCHMARKS = tuple(sorted(BENCHMARK_BOUNDS))
SYSTEM_BENCHMARKS = ("bouc-wen", "tanks", "van-der-pol", "building")

# Streamed-point count of a function benchmark, sampled on top of the
# initial training sample when the config does not set stream_size; the
# systems stream every row after the initial sample.
DEFAULT_STREAM_SIZE = 500

# The paper's protocol: threshold-sweep's full-GP baseline fits at most this
# many training rows, and bench times each criterion at these set sizes.
BASELINE_MAX = 1000
BENCH_SIZES = (20, 100)

# Operation-count models of one per-partition evaluation per criterion, next
# to ``bench``'s timings.  The loops' replace-one sweep costs O(N^2) from the
# kept factor, then one O(N^3) factorization and triangular inverse to recache.
COMPLEXITY_MODEL = {
    "prior-entropy": "N^3/6 + N^2 + N",
    "predictive-entropy": "N^3/6 + 3/2 N^2 + 2 N",
    "mean-relevance": "N^3/6 + 2 N^2 + 3 N",
    "lpd": "N^3/6 + 5/2 N^2 + 3 N",
    "mll": "N^3/6 + 2 N^2 + 2 N",
}

_EVAL_SEED_OFFSET = 90001
_DEFAULT_CRITERIA = ("prior-entropy", "mean-relevance", "mll")
_DEFAULT_THRESHOLDS = (0.0005, 0.001, 0.0025, 0.005, 0.0075, 0.01, 0.015)


# Each list field of ExperimentConfig: the type of its entries, their conversion.
_LIST_FIELDS = {
    "criteria": (str, str),
    "seeds": (numbers.Integral, int),
    "thresholds_grid": (numbers.Real, float),
}


@dataclass
class ExperimentConfig:
    benchmark: str = ""
    criteria: tuple = _DEFAULT_CRITERIA
    budget: int = 100
    var_threshold: float | None = None
    err_threshold: float | None = None
    use_acceptance: bool = False
    seeds: tuple = (0,)
    initial_train: int = 100
    stream_size: int | None = None
    eval_size: int = 500
    data_file: str | os.PathLike | None = None
    target_column: str | None = None
    hyper_file: str | os.PathLike | None = None
    train_restarts: int = 3
    train_max_iters: int = 200
    thresholds_grid: tuple | None = None
    reduce_min_size: int = 1
    bench_repeats: int = 1000
    mr_reference: str = "model"
    maps: bool = False
    verify: bool = False
    out: str | os.PathLike | None = None

    def __post_init__(self):
        # Check before converting: a config file can set any JSON value, and
        # seeds "12" would become seeds 1 and 2, seeds [1.7] seed 1.
        for name, (kind, convert) in _LIST_FIELDS.items():
            value = getattr(self, name)
            if value is None and name == "thresholds_grid":
                continue
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, kind) and not isinstance(v, bool) for v in value):
                raise ConfigError(f"{name}: must be a list of {convert.__name__}")
            setattr(self, name, tuple(convert(v) for v in value))

    def criterion_kinds(self) -> list:
        try:
            return [CriterionKind(c) for c in self.criteria]
        except ValueError as exc:
            raise ConfigError(f"criteria: {exc}") from None

    def _field_problems(self) -> list:
        """Numeric, bool, str and path fields that are not of their annotated
        type (a config file can set any JSON value) or are out of range,
        repeated list entries, and an ``out`` path that cannot be written."""
        problems = []
        kinds = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str,
                 "str | os.PathLike": (str, os.PathLike)}
        for f in dataclasses.fields(self):
            value, kind = getattr(self, f.name), kinds.get(f.type.removesuffix(" | None"))
            if kind is None or value is None and "None" in f.type:
                continue
            # A bool is an int to isinstance, but no number field takes one.
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                problems.append(f"{f.name}: must be {f.type}")
        if problems:
            return problems
        # eval_size >= 2: the SMSE needs two targets.
        for name, low in (("budget", 1), ("initial_train", 2), ("stream_size", 0),
                          ("eval_size", 2), ("train_restarts", 0), ("train_max_iters", 0),
                          ("reduce_min_size", 1), ("bench_repeats", 1),
                          ("var_threshold", 0), ("err_threshold", 0)):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= low):
                problems.append(f"{name}: must be finite and >= {low}")
        if self.thresholds_grid is not None and not self.thresholds_grid:
            problems.append("thresholds_grid: need at least one")
        if not all(math.isfinite(t) and t >= 0 for t in self.thresholds_grid or ()):
            problems.append("thresholds_grid: must be finite and >= 0")
        for name in _LIST_FIELDS:  # a repeated entry would run, and count, twice
            values = getattr(self, name) or ()
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                problems.append(f"{name}: {repeated[0]!r} given more than once")
        if self.out and Path(self.out).is_dir():
            problems.append(f"out: {self.out} is a directory")
        elif self.out and not Path(self.out).parent.is_dir():
            problems.append(f"out: directory {Path(self.out).parent} does not exist")
        return problems

    def validate(self) -> None:
        problems = self._field_problems()
        known = FUNCTION_BENCHMARKS + SYSTEM_BENCHMARKS + ("csv",)
        if self.benchmark not in known:
            problems.append(f"benchmark: unknown {self.benchmark!r} (choose from {known})")
        if self.benchmark == "csv" and not (self.data_file and self.target_column):
            problems.append("data_file/target_column: required for the csv benchmark")
        if self.benchmark != "csv" and (self.data_file or self.target_column):
            problems.append("data_file/target_column: only the csv benchmark reads them")
        if not self.criteria:
            problems.append("criteria: need at least one")
        if not self.seeds:
            problems.append("seeds: need at least one")
        if self.mr_reference not in ("model", "target"):
            problems.append("mr_reference: must be 'model' or 'target'")
        if problems:
            raise ConfigError("; ".join(problems))
        self.criterion_kinds()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {path}: the top level must be a JSON object")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ConfigError(f"config file {path}: unknown keys {sorted(unknown)}")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from None


@dataclass
class BenchmarkData:
    """One seed's worth of benchmark data: the initial training sample, the
    ordered stream of incoming points, a held-out evaluation set and the
    training set they were cut from (the initial rows, then the stream's)."""

    initial: Dataset
    stream: list
    eval_set: Dataset
    full_train: Dataset
    feature_names: tuple = ()
    target_name: str = "y"


def _lag_feature_names(benchmark: str) -> tuple:
    lags = LAG_PRESETS[benchmark]
    names = [f"y_lag{j}" for j in range(1, lags.n_y + 1)]
    for u_index, n_u in enumerate(lags.n_u, start=1):
        names += [f"u{u_index}_lag{j}" for j in range(1, n_u + 1)]
    return tuple(names)


# Systems validated on a second simulation at an offset seed; building's
# generator splits one simulated year into training and validation halves.
_SYSTEM_DATASETS = {
    "van-der-pol": van_der_pol_dataset,
    "bouc-wen": bouc_wen_dataset,
    "tanks": tanks_dataset,
}


def _split(train: Dataset, val: Dataset, names, config, normalize: bool,
           target_name: str = "y") -> BenchmarkData:
    """The first ``initial_train`` rows start the model and the rest, cut to
    ``stream_size``, are streamed.  With ``normalize`` the z-scoring is
    fitted on the initial slice only, so no statistics leak in from
    streamed or validation data."""
    initial_rows = min(config.initial_train, train.n)
    if normalize:
        head = Dataset(train.inputs[:initial_rows], train.targets[:initial_rows])
        stats = normalize_fit(head, names)
        train, val = normalize_apply(stats, train), normalize_apply(stats, val)
    end = train.n
    if config.stream_size is not None:
        end = min(initial_rows + config.stream_size, end)
    full = train.subset(np.arange(end))
    initial = full.subset(np.arange(initial_rows))
    stream = [(full.inputs[i], float(full.targets[i])) for i in range(initial_rows, end)]
    return BenchmarkData(initial, stream, val, full, names, target_name)


def resolve_benchmark(config: ExperimentConfig, seed: int) -> BenchmarkData:
    """Materialize one seed of the configured benchmark."""
    b = config.benchmark
    if b in BENCHMARK_BOUNDS:
        stream_size = DEFAULT_STREAM_SIZE if config.stream_size is None else config.stream_size
        train = sample_uniform(b, config.initial_train + stream_size, seed)
        val = sample_uniform(b, config.eval_size, seed + _EVAL_SEED_OFFSET)
        return _split(train, val, ("x1", "x2"), config, normalize=False)

    if b in _SYSTEM_DATASETS:
        make = _SYSTEM_DATASETS[b]
        return _split(make(seed), make(seed + _EVAL_SEED_OFFSET),
                      _lag_feature_names(b), config, normalize=False)

    if b == "building":
        train, val = building_dataset(seed)
        return _split(train, val, _lag_feature_names(b), config, normalize=True)

    if b == "csv":
        names, table = load_csv_dataset(config.data_file, config.target_column)
        cut = table.n - min(config.eval_size, max(2, table.n // 10))
        train = Dataset(table.inputs[:cut], table.targets[:cut])
        val = Dataset(table.inputs[cut:], table.targets[cut:])
        return _split(train, val, names, config, normalize=True,
                      target_name=config.target_column)

    raise ConfigError(f"benchmark: unknown {b!r}")


# --- hyperparameter training ----------------------------------------------------


def train_hyperparameters(train: Dataset, seed: int, config: ExperimentConfig) -> Hyperparameters:
    """Maximize the evidence on the initial sample from a data-driven start,
    with log-space bounds keeping the noise floor away from degeneracy."""
    vy = max(float(np.var(train.targets)), 1e-8)
    span = np.maximum(train.inputs.max(axis=0) - train.inputs.min(axis=0), 1e-6)
    init = Hyperparameters(
        signal_variance=vy,
        lengthscales=np.maximum(train.inputs.std(axis=0), 1e-3),
        noise_variance=0.01 * vy,
    )
    bounds = (
        [(np.log(1e-3 * vy), np.log(1e3 * vy))]
        + [(np.log(1e-2 * s), np.log(1e2 * s)) for s in span]
        + [(np.log(1e-6 * vy), np.log(vy))]
    )
    return optimize_hyperparameters(
        train,
        init,
        max_iters=config.train_max_iters,
        bounds=bounds,
        restarts=config.train_restarts,
        rng=np.random.default_rng(seed + 77),
    )


def save_hyper_file(path, benchmark: str, per_seed: dict) -> None:
    payload = {
        "format_version": 1,
        "benchmark": benchmark,
        "per_seed": {str(seed): h.to_dict() for seed, h in per_seed.items()},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_hyper_file(path) -> dict:
    """Per-seed hyperparameters from a file :func:`save_hyper_file` wrote.
    A missing, unparsable or malformed file raises :class:`ConfigError`."""
    try:
        payload = json.loads(Path(path).read_text())
        if payload.get("format_version") == 1:
            return {int(seed): Hyperparameters.from_dict(entry)
                    for seed, entry in payload["per_seed"].items()}
    except (OSError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"hyper_file: {path}: {type(exc).__name__}: {exc}") from None
    raise ConfigError(f"hyper_file: {path}: unsupported format version")


def _hyper_for(config: ExperimentConfig, seed: int, data: BenchmarkData) -> Hyperparameters:
    if config.hyper_file:
        per_seed = load_hyper_file(config.hyper_file)
        if seed not in per_seed:
            raise ConfigError(f"hyper_file: no entry for seed {seed}")
        if per_seed[seed].dim != data.initial.dim:
            raise ConfigError(f"hyper_file: seed {seed} has {per_seed[seed].dim} "
                              f"lengthscales, the data {data.initial.dim} inputs")
        return per_seed[seed]
    return train_hyperparameters(data.initial, seed, config)


# --- output helpers --------------------------------------------------------------


def _write_float_csv(path, header, rows) -> None:
    """A header line, then one line per row of shortest round-trip floats."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_metadata(out_path, config: ExperimentConfig, extra: dict) -> None:
    meta = {"config": dataclasses.asdict(config)}
    meta.update(extra)
    text = json.dumps(meta, indent=2, default=os.fspath)  # a path field may be a Path
    Path(out_path).with_suffix(".meta.json").write_text(text + "\n")


def _finish(records, config: ExperimentConfig, command: str) -> list:
    if config.out:
        out = Path(config.out)
        write_results(records, out)
        _write_metadata(out, config, {"command": command,
                                      "results_sha256": sha256_of_file(out)})
    return records


# --- commands ---------------------------------------------------------------------


def cmd_generate(config: ExperimentConfig) -> list:
    """Materialize the benchmark to CSV: a training file, a validation file
    and a metadata sidecar; system benchmarks also get a versioned
    parameter file whose checksum lands in the metadata."""
    config.validate()
    if not config.out:
        raise ConfigError("out: generate needs an output path")
    out = Path(config.out)
    records = []
    for seed in config.seeds:
        data = resolve_benchmark(config, seed)
        train = data.full_train
        stem = out.with_suffix("") if len(config.seeds) == 1 else Path(
            f"{out.with_suffix('')}_seed{seed}"
        )
        train_path = stem.with_suffix(".csv")
        val_path = Path(f"{stem}_val.csv")
        header = [*data.feature_names, data.target_name]
        for path, d in ((train_path, train), (val_path, data.eval_set)):
            _write_float_csv(path, header, np.column_stack([d.inputs, d.targets]))
        extra = {
            "command": "generate",
            "seed": seed,
            "rows_train": train.n,
            "rows_val": data.eval_set.n,
            "train_sha256": sha256_of_file(train_path),
            "val_sha256": sha256_of_file(val_path),
        }
        if config.benchmark in SYSTEM_BENCHMARKS:
            params_path = Path(f"{stem}.params.json")
            params_path.write_text(
                json.dumps(
                    {
                        "params_version": PARAMS_VERSION,
                        "system": config.benchmark,
                        "params": SYSTEM_DEFAULTS[config.benchmark],
                    },
                    indent=2,
                )
                + "\n"
            )
            extra["params_sha256"] = sha256_of_file(params_path)
        _write_metadata(train_path, config, extra)
        records.append(
            ResultRecord(
                benchmark=config.benchmark, command="generate", criterion="",
                seed=seed, budget=config.budget, size=train.n,
            )
        )
    return records


def cmd_train(config: ExperimentConfig) -> list:
    """Fit hyperparameters per seed on the initial training sample and
    persist them for downstream commands."""
    config.validate()
    if not config.out:
        raise ConfigError("out: train needs an output path for the hyper file")
    per_seed = {}
    records = []
    for seed in config.seeds:
        data = resolve_benchmark(config, seed)
        hyper = train_hyperparameters(data.initial, seed, config)
        per_seed[seed] = hyper
        cache = fit_cache(data.initial, hyper)
        records.append(
            ResultRecord(
                benchmark=config.benchmark, command="train", criterion="",
                seed=seed, budget=config.budget, size=data.initial.n,
                smse=_mean_smse(cache, data.initial, hyper, data.eval_set),
                note=f"lml={_lml_from_cache(cache, data.initial)!r}",
            )
        )
    save_hyper_file(config.out, config.benchmark, per_seed)
    _write_metadata(Path(config.out), config,
                    {"command": "train", "hyper_sha256": sha256_of_file(config.out)})
    return records


def _mean_smse(cache, dataset: Dataset, hyper, eval_set: Dataset) -> float:
    """SMSE on ``eval_set`` of :func:`predict`'s mean, without its variance."""
    mean = kernel_matrix(eval_set.inputs, dataset.inputs, hyper) @ cache.alpha
    return smse(mean, eval_set.targets)


def _verify_removal(dataset: Dataset, hyper, kind, chosen: int, mr_reference: str) -> None:
    """Shadow oracle for small sets: recompute every deletion score on the
    per-partition reference path, without any cache reuse, and insist that
    the chosen row attains its minimum up to a tie."""
    scores = np.array([
        reduction_score(kind, PartitionView(dataset, i, None), hyper,
                        mean_reference=mr_reference)
        for i in range(dataset.n)
    ])
    if scores[chosen] > scores.min() + tie_tolerance(scores):
        expected = argmin_with_ties(scores)
        raise NumericalError(
            f"reduce-sweep verification failed at size {dataset.n}: "
            f"removed {chosen}, oracle says {expected}"
        )


def cmd_reduce_sweep(config: ExperimentConfig) -> list:
    """Offline reduction: repeatedly delete the argmin-scored point down to
    ``reduce_min_size``, logging the SMSE at every size for each criterion."""
    config.validate()
    records = []
    for seed in config.seeds:
        data = resolve_benchmark(config, seed)
        hyper = _hyper_for(config, seed, data)
        for kind in config.criterion_kinds():
            current = data.initial
            while True:
                cache = fit_cache(current, hyper)
                records.append(
                    ResultRecord(
                        benchmark=config.benchmark, command="reduce-sweep",
                        criterion=kind.value, seed=seed, budget=config.budget,
                        size=current.n,
                        smse=_mean_smse(cache, current, hyper, data.eval_set),
                    )
                )
                if current.n <= config.reduce_min_size:
                    break
                r = argmin_with_ties(reduction_scores(
                    kind, current, hyper, base_cache=cache,
                    mean_reference=config.mr_reference,
                ))
                if config.verify and current.n <= 12:
                    _verify_removal(current, hyper, kind, r, config.mr_reference)
                current = current.with_row_removed(r)
    return _finish(records, config, "reduce-sweep")


def _stream_runs(config, command, seed, data: BenchmarkData, hyper,
                 var_threshold=None, err_threshold=None):
    """Stream ``data`` through a fresh model for each criterion, without and
    then with acceptance; yield each final model with its result record."""
    initial = data.initial
    if initial.n > config.budget:
        initial = initial.subset(np.arange(config.budget))
    for kind in config.criterion_kinds():
        for accept in (False, True):
            model = OnlineGp(
                dataset=initial, hyper=hyper, budget=config.budget, criterion=kind,
                var_threshold=var_threshold, err_threshold=err_threshold,
                use_acceptance=accept,
            )
            model, _, summary = run_stream(model, data.stream, data.eval_set)
            yield model, ResultRecord(
                benchmark=config.benchmark, command=command, criterion=kind.value,
                seed=seed, budget=config.budget, var_threshold=var_threshold,
                err_threshold=err_threshold, use_acceptance=accept,
                size=model.dataset.n, smse=summary.final_smse,
                mean_variance=summary.mean_variance, revised=summary.revised,
            )


def _selection_maps(config, model: OnlineGp) -> None:
    """Prediction-error and standard-deviation grids plus the selected
    dataset coordinates, written as plot-ready CSVs."""
    bound = BENCHMARK_BOUNDS[config.benchmark]
    axis = np.linspace(-bound, bound, 60)
    xx, yy = np.meshgrid(axis, axis)
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    truth = eval_benchmark_function(config.benchmark, grid[:, 0], grid[:, 1])
    mu, var = predict(model.cache, model.dataset, model.hyper, grid)
    stem = Path(config.out).with_suffix("")
    tag = f"{model.criterion.value}_{'accept' if model.use_acceptance else 'normal'}"
    _write_float_csv(f"{stem}_map_{tag}.csv", ["x1", "x2", "abs_error", "std"],
                     np.column_stack([grid, np.abs(truth - mu), np.sqrt(var)]))
    _write_float_csv(f"{stem}_points_{tag}.csv", ["x1", "x2", "y"],
                     np.column_stack([model.dataset.inputs, model.dataset.targets]))


def cmd_accept_eval(config: ExperimentConfig) -> list:
    """Stream the training remainder with the insertion gate disabled, with
    and without the acceptance criterion; report final SMSE and the
    fraction of points accepted into the model."""
    config.validate()
    records = []
    for seed in config.seeds:
        data = resolve_benchmark(config, seed)
        hyper = _hyper_for(config, seed, data)
        records.append(
            ResultRecord(
                benchmark=config.benchmark, command="accept-eval", criterion="initial",
                seed=seed, budget=config.budget, size=data.initial.n,
                smse=_mean_smse(fit_cache(data.initial, hyper), data.initial, hyper,
                                data.eval_set),
            )
        )
        for model, record in _stream_runs(config, "accept-eval", seed, data, hyper):
            record.accepted_fraction = record.revised / max(len(data.stream), 1)
            records.append(record)
            if config.maps and config.out and config.benchmark in BENCHMARK_BOUNDS:
                _selection_maps(config, model)
    return _finish(records, config, "accept-eval")


def cmd_online_eval(config: ExperimentConfig) -> list:
    """Online loop with exactly one insertion threshold active; reports
    SMSE, mean predictive variance and revised-point counts with and
    without acceptance."""
    config.validate()
    if (config.var_threshold is None) == (config.err_threshold is None):
        raise ConfigError(
            "var_threshold/err_threshold: online-eval needs exactly one of them"
        )
    records = []
    for seed in config.seeds:
        data = resolve_benchmark(config, seed)
        hyper = _hyper_for(config, seed, data)
        records += [record for _, record in _stream_runs(
            config, "online-eval", seed, data, hyper,
            var_threshold=config.var_threshold, err_threshold=config.err_threshold,
        )]
    return _finish(records, config, "online-eval")


def _baseline_record(config, data, hyper, seed) -> ResultRecord:
    """Full GP on the complete training data (subsampled to ``BASELINE_MAX``
    rows when larger), evaluated like the online runs."""
    full = data.full_train
    if full.n > BASELINE_MAX:
        idx = np.sort(
            np.random.default_rng(seed + 555).choice(full.n, size=BASELINE_MAX, replace=False)
        )
        full = full.subset(idx)
    cache = fit_cache(full, hyper)
    mu, var = predict(cache, full, hyper, data.eval_set.inputs)
    return ResultRecord(
        benchmark=config.benchmark, command="threshold-sweep", criterion="baseline",
        seed=seed, budget=config.budget, size=full.n,
        smse=smse(mu, data.eval_set.targets), mean_variance=float(np.mean(var)),
    )


def cmd_threshold_sweep(config: ExperimentConfig) -> list:
    """Sweep the error threshold over a grid, logging SMSE, mean predictive
    variance and revised counts per (threshold, criterion, acceptance,
    seed); one full-GP baseline row accompanies each seed."""
    config.validate()
    grid = _DEFAULT_THRESHOLDS if config.thresholds_grid is None else config.thresholds_grid
    records = []
    for seed in config.seeds:
        data = resolve_benchmark(config, seed)
        hyper = _hyper_for(config, seed, data)
        records.append(_baseline_record(config, data, hyper, seed))
        for threshold in grid:
            records += [record for _, record in _stream_runs(
                config, "threshold-sweep", seed, data, hyper, err_threshold=threshold,
            )]
    return _finish(records, config, "threshold-sweep")


def cmd_bench(config: ExperimentConfig) -> list:
    """Median wall-clock time of one partition evaluation per criterion at
    each benchmark size, reported next to the operation-count model (the
    ordering is reported, never asserted).  It times the per-partition
    reference path (:func:`reduction_score`) whose costs the model
    describes, not the one-factorization sweep the loops use."""
    problems = config._field_problems()
    if problems:
        raise ConfigError("; ".join(problems))
    rng = np.random.default_rng(config.seeds[0] if config.seeds else 0)
    records = []
    kinds = list(CriterionKind)  # the cost comparison always covers all five
    for n in BENCH_SIZES:
        X = rng.uniform(-2.0, 2.0, size=(n, 2))
        y = np.sin(X @ np.array([1.0, -0.7])) + 0.1 * rng.normal(size=n)
        dataset = Dataset(X, y)
        hyper = Hyperparameters(1.0, np.array([1.0, 1.0]), 0.05)
        cache = fit_cache(dataset, hyper)
        candidate = (rng.uniform(-2, 2, size=2), float(rng.normal()))
        partition = PartitionView(dataset, n // 2, candidate)
        for kind in kinds:
            reduction_score(kind, partition, hyper, base_cache=cache)  # warm up
            samples = np.empty(config.bench_repeats)
            for rep in range(config.bench_repeats):
                start = time.perf_counter()
                reduction_score(kind, partition, hyper, base_cache=cache)
                samples[rep] = time.perf_counter() - start
            records.append(
                ResultRecord(
                    benchmark="random", command="bench", criterion=kind.value,
                    seed=int(config.seeds[0] if config.seeds else 0),
                    budget=config.budget, size=n,
                    median_ms=float(np.median(samples) * 1e3),
                    repeats=config.bench_repeats,
                    note=f"ops: {COMPLEXITY_MODEL[kind.value]}",
                )
            )
    return _finish(records, config, "bench")


def format_records(records) -> str:
    """Console table: one aligned line per record, blank columns dropped."""
    if not records:
        return "(no records)"
    columns = [
        "benchmark", "command", "criterion", "seed", "size", "err_threshold",
        "var_threshold", "use_acceptance", "smse", "mean_variance", "revised",
        "accepted_fraction", "median_ms", "note",
    ]
    live = [
        c for c in columns
        if any(getattr(r, c) not in (None, "", False) for r in records)
    ]
    buffer = io.StringIO()
    rows = [[_fmt(getattr(r, c)) for c in live] for r in records]
    widths = [max(len(h), *(len(row[j]) for row in rows)) for j, h in enumerate(live)]
    buffer.write("  ".join(h.ljust(w) for h, w in zip(live, widths)).rstrip() + "\n")
    for row in rows:
        buffer.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")
    return buffer.getvalue()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
