"""The benchmark's workloads, each a closed loop with a single caller.

Every workload has a set-up (data generation and, for the stream
workloads, hyperparameter training) and a pass: one complete run of its
job.  The data (the simulated system, its initial training sample, the
stream in time order and the held-out rows) is the reference realization
``REF_SEED``, exactly what the CLI produces by default, so every run does
the same work; the workload seed draws which held-out rows are queried.
See ``README.md`` for why.

Only calls into the public functions of ``budgetgp.harness``, ``online``,
``criteria``, ``gp``, ``systems`` and ``dataio`` are timed.  Functions are
looked up through their modules at call time, so the tracer's rebinding
applies to the benchmark's own calls as well.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from budgetgp import criteria, dataio, gp, harness, online

import oracle

REF_SEED = 0
BUDGET = 100
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Sizes:
    """How much work one pass and one set-up do."""

    replace_points: int = 50          # streamed points per criterion, replace-stream
    serve_points: int | None = None   # None streams the whole building stream
    # Set-ups per run: more where a set-up is cheap, so that the median
    # training time rests on more samples.
    replace_setup_repeats: int = 7
    serve_setup_repeats: int = 5
    offline_setup_repeats: int = 3
    offline_initial: int = 100        # rows the offline reduce sweep starts from
    offline_train_iters: int = 200
    offline_restarts: int = 3
    queries_per_pass: int = 10000     # offline-fit one-row queries per pass
    checkpoints: int = 10             # SMSE checkpoints along a stream


TINY = Sizes(replace_points=4, serve_points=300, replace_setup_repeats=1,
             serve_setup_repeats=1, offline_setup_repeats=1, offline_initial=30,
             offline_train_iters=20, offline_restarts=0, queries_per_pass=50,
             checkpoints=2)


@dataclass
class Checks:
    """Output checks made outside the timed region."""

    counts: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)

    def record(self, kind: str, ok: bool, detail: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if not ok:
            self.mismatches.append(f"{kind}: {detail}")


@dataclass
class PassResult:
    wall_s: float
    step_ns: list = field(default_factory=list)
    query_ns: list = field(default_factory=list)
    decisions: dict = field(default_factory=dict)
    exceptions: int = 0
    train_s: float | None = None
    job_s: float | None = None
    units: int = 0               # points streamed, or rows deleted offline


def _query_rows(eval_set, indices) -> list:
    return [eval_set.inputs[i][None, :] for i in indices]


def _percentile_ms(samples_ns, q) -> float:
    return float(np.percentile(np.asarray(samples_ns, dtype=np.float64), q)) * 1e-6


def _median_of_passes(passes, attr, q) -> float:
    """The ``q``-th percentile within each pass, then the median over passes,
    so that a burst of load from outside the process during one pass does
    not move it."""
    return float(np.median([_percentile_ms(getattr(p, attr), q) for p in passes]))


# --- stream workloads ----------------------------------------------------------


@dataclass
class StreamState:
    data: object
    hyper: object
    stream: list
    queries: list


class StreamWorkload:
    """Stream points through ``online.step`` at budget; after each step the
    caller sends a one-row ``gp.predict`` query on a held-out row."""

    def __init__(self, benchmark, criteria_names, err_threshold, seed, sizes, traffic,
                 setup_repeats, replaced_check_stride, query_check_stride):
        self.config = harness.ExperimentConfig(
            benchmark=benchmark, criteria=criteria_names, budget=BUDGET,
            err_threshold=err_threshold, use_acceptance=True, seeds=(REF_SEED,),
        )
        self.seed = seed
        self.sizes = sizes
        self.traffic = traffic
        self.setup_repeats = setup_repeats
        self.replaced_check_stride = replaced_check_stride
        self.query_check_stride = query_check_stride
        self._samples = None

    def setup(self):
        """Generate the data, train the hyperparameters and draw the traffic;
        returns the state and the training time."""
        data = harness.resolve_benchmark(self.config, REF_SEED)
        start = time.perf_counter()
        hyper = harness.train_hyperparameters(data.initial, REF_SEED, self.config)
        train_s = time.perf_counter() - start
        stream, query_index = self.traffic(data, np.random.default_rng(self.seed), self.sizes)
        queries = _query_rows(data.eval_set, query_index)
        return StreamState(data, hyper, stream, queries), train_s

    def run_pass(self, st: StreamState, record: bool) -> PassResult:
        """One pass over the stream for each criterion.  With ``record`` the
        pass keeps references to what the output checks need."""
        clock = time.perf_counter_ns
        res = PassResult(wall_s=0.0)
        samples = {"replaced": [], "queries": [], "checkpoints": {}, "final": {}}
        every = max(len(st.stream) // self.sizes.checkpoints, 1)
        start = time.perf_counter()
        for name in self.config.criteria:
            model = online.OnlineGp(
                dataset=st.data.initial, hyper=st.hyper, budget=BUDGET,
                criterion=criteria.CriterionKind(name),
                err_threshold=self.config.err_threshold, use_acceptance=True,
            )
            replaced = 0
            for k, point in enumerate(st.stream):
                before = model.dataset
                t0 = clock()
                try:
                    model, outcome = online.step(model, point)
                except Exception:  # counted as a failed operation
                    outcome = None
                    res.exceptions += 1
                t1 = clock()
                query = st.queries[k]
                try:
                    mean, var = gp.predict(model.cache, model.dataset, model.hyper, query)
                except Exception:
                    mean = None
                    res.exceptions += 1
                t2 = clock()
                res.step_ns.append(t1 - t0)
                res.query_ns.append(t2 - t1)
                if outcome is not None:
                    key = outcome.decision.value
                    res.decisions[key] = res.decisions.get(key, 0) + 1
                if not record:
                    continue
                if outcome is not None and outcome.decision is online.Decision.REPLACED:
                    if replaced % self.replaced_check_stride == 0:
                        samples["replaced"].append((name, before, point, outcome.replaced_index))
                    replaced += 1
                if mean is not None and k % self.query_check_stride == 0:
                    samples["queries"].append((model.dataset, query, mean, var))
                if (k + 1) % every == 0:
                    samples["checkpoints"].setdefault(name, []).append((model.dataset, model.cache))
            if record:
                samples["final"][name] = (model.dataset, model.cache)
        res.wall_s = time.perf_counter() - start
        res.units = len(st.stream) * len(self.config.criteria)
        if record:
            self._samples = samples
        return res

    def _smse(self, st, dataset, cache) -> float:
        mean, _ = gp.predict(cache, dataset, st.hyper, st.data.eval_set.inputs)
        return dataio.smse(mean, st.data.eval_set.targets)

    def check_and_quality(self, st: StreamState, checks: Checks) -> dict:
        """Oracle checks of the recorded pass plus its quality metrics."""
        s = self._samples
        hyper = st.hyper
        for name, before, point, chosen in s["replaced"]:
            scores = oracle.partition_scores(name, before.inputs, before.targets, hyper, point)
            checks.record("replaced", oracle.choice_ok(scores, chosen),
                          f"{name}: replaced {chosen}, oracle argmin {int(np.argmin(scores))}")
        scale_y = float(np.std(st.data.initial.targets)) or 1.0
        for dataset, query, mean, var in s["queries"]:
            mu, v = oracle.posterior(dataset.inputs, dataset.targets, hyper, query)
            ok = (oracle.values_close(mean, mu, scale_y)
                  and oracle.values_close(var, v, hyper.signal_variance))
            checks.record("queries", ok, f"predict {mean}/{var} vs oracle {mu}/{v}")
        lml = gp.log_marginal_likelihood(st.data.initial, hyper)
        expected = oracle.log_evidence(st.data.initial.inputs, st.data.initial.targets, hyper)
        checks.record("lml", oracle.values_close(lml, expected, max(abs(expected), 1.0)),
                      f"log evidence {lml} vs oracle {expected}")
        finals = [self._smse(st, *s["final"][name]) for name in self.config.criteria]
        logged = [self._smse(st, *entry)
                  for name in self.config.criteria for entry in s["checkpoints"].get(name, [])]
        return {
            "final_smse": float(np.mean(finals)),
            "reduce_smse_mean": float(np.mean(logged)) if logged else float(np.mean(finals)),
            "train_lml": float(lml),
        }


def replace_traffic(data, rng, sizes):
    """The first points of the stream, as ``--stream-size`` cuts it, and one
    seeded random held-out row per point."""
    stream = data.stream[: sizes.replace_points]
    return stream, rng.integers(data.eval_set.n, size=len(stream))


def serve_traffic(data, rng, sizes):
    """The whole stream in time order; queries walk the held-out rows from a
    seeded offset."""
    stream = data.stream if sizes.serve_points is None else data.stream[: sizes.serve_points]
    first = int(rng.integers(data.eval_set.n))
    return stream, (first + np.arange(len(stream))) % data.eval_set.n


def stream_metrics(workload, st, passes, train_times, quality) -> dict:
    """Passes make the same calls in the same order, so ``job_s`` sums, over
    the calls of a pass, each call's median time across passes: a burst
    that slows a few replacement sweeps in one pass (they are 45% of a
    ``serve-mixed`` pass, in 45 calls) is filtered call by call."""
    first = passes[0]
    revised = first.decisions.get("appended", 0) + first.decisions.get("replaced", 0)
    calls = np.array([np.add(p.step_ns, p.query_ns) for p in passes], dtype=np.float64)
    job_s = float(np.median(calls, axis=0).sum()) * 1e-9
    return {
        "points_per_s": first.units / job_s,
        "step_ms_p50": _median_of_passes(passes, "step_ns", 50),
        "step_ms_p90": _median_of_passes(passes, "step_ns", 90),
        "query_ms_p50": _median_of_passes(passes, "query_ns", 50),
        "query_ms_p90": _median_of_passes(passes, "query_ns", 90),
        "train_s": float(np.median(train_times)),
        "job_s": job_s,
        "revised_fraction": revised / first.units,
        **quality,
    }


# --- offline-fit ------------------------------------------------------------------


@dataclass
class OfflineState:
    data: object
    queries: list


class OfflineWorkload:
    """``harness.cmd_train`` then ``harness.cmd_reduce_sweep`` on the trained
    hyper file, as ``budgetgp train`` and ``budgetgp reduce-sweep`` run them,
    followed by one-row queries against the trained model."""

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes
        self.setup_repeats = sizes.offline_setup_repeats
        self.hyper_path = OUT_DIR / "offline-fit-hyper.json"
        common = dict(benchmark="building", criteria=("mll",), budget=BUDGET,
                      seeds=(REF_SEED,), initial_train=sizes.offline_initial,
                      train_max_iters=sizes.offline_train_iters,
                      train_restarts=sizes.offline_restarts)
        self.train_config = harness.ExperimentConfig(out=str(self.hyper_path), **common)
        self.reduce_config = harness.ExperimentConfig(hyper_file=str(self.hyper_path), **common)
        self._records = None

    def setup(self):
        """Generate the data the queries and the oracle use."""
        OUT_DIR.mkdir(exist_ok=True)
        data = harness.resolve_benchmark(self.reduce_config, REF_SEED)
        rng = np.random.default_rng(self.seed)
        query_index = rng.integers(data.eval_set.n, size=self.sizes.queries_per_pass)
        return OfflineState(data, _query_rows(data.eval_set, query_index)), None

    def run_pass(self, st: OfflineState, record: bool) -> PassResult:
        """Train, reduce, then query.  An exception from a harness command
        ends the run; one from a query is counted."""
        clock = time.perf_counter_ns
        res = PassResult(wall_s=0.0)
        start = time.perf_counter()
        train_records = harness.cmd_train(self.train_config)
        t1 = time.perf_counter()
        reduce_records = harness.cmd_reduce_sweep(self.reduce_config)
        t2 = time.perf_counter()
        hyper = harness.load_hyper_file(self.hyper_path)[REF_SEED]
        cache = gp.fit_cache(st.data.initial, hyper)
        res.train_s, res.job_s = t1 - start, t2 - t1
        res.units = len(reduce_records) - 1
        res.step_ns.append(res.job_s * 1e9 / max(res.units, 1))
        answers = []
        for query in st.queries:
            q0 = clock()
            try:
                answers.append(gp.predict(cache, st.data.initial, hyper, query))
            except Exception:
                answers.append(None)
                res.exceptions += 1
            res.query_ns.append(clock() - q0)
        res.wall_s = time.perf_counter() - start
        if record:
            self._records = (train_records, reduce_records, hyper, answers)
        return res

    def check_and_quality(self, st: OfflineState, checks: Checks) -> dict:
        """Replay the deletion sweep with the oracle and compare the logged
        SMSE at every size; check the logged evidence and sampled queries."""
        train_records, reduce_records, hyper, answers = self._records
        initial, eval_set = st.data.initial, st.data.eval_set
        lml = float(re.search(r"lml=(\S+)", train_records[0].note).group(1))
        expected = oracle.log_evidence(initial.inputs, initial.targets, hyper)
        checks.record("lml", oracle.values_close(lml, expected, max(abs(expected), 1.0)),
                      f"log evidence {lml} vs oracle {expected}")

        X, y = initial.inputs.copy(), initial.targets.copy()
        for rec in reduce_records:
            if rec.size != len(y):
                checks.record("deletions", False, f"logged size {rec.size}, oracle {len(y)}")
                break
            mean = oracle.posterior_mean(X, y, hyper, eval_set.inputs)
            smse = float(np.mean((eval_set.targets - mean) ** 2) / np.var(eval_set.targets))
            checks.record("deletions", oracle.values_close(rec.smse, smse, smse),
                          f"size {rec.size}: smse {rec.smse} vs oracle {smse}")
            if len(y) <= 1:
                break
            scores = oracle.partition_scores("mll", X, y, hyper)
            order = np.argsort(scores)
            if scores[order[1]] - scores[order[0]] <= oracle.score_tolerance(scores):
                break  # near-tie: either deletion is right, later sizes diverge
            X, y = np.delete(X, order[0], axis=0), np.delete(y, order[0])

        scale_y = float(np.std(initial.targets)) or 1.0
        for i in range(0, len(st.queries), max(len(st.queries) // 20, 1)):
            if answers[i] is None:
                continue
            mu, v = oracle.posterior(initial.inputs, initial.targets, hyper, st.queries[i])
            ok = (oracle.values_close(answers[i][0], mu, scale_y)
                  and oracle.values_close(answers[i][1], v, hyper.signal_variance))
            checks.record("queries", ok, f"query {i}: {answers[i]} vs oracle {mu}/{v}")
        return {
            "final_smse": float(train_records[0].smse),
            "reduce_smse_mean": float(np.mean([r.smse for r in reduce_records])),
            "train_lml": lml,
        }


def offline_metrics(workload, st, passes, train_times, quality) -> dict:
    per_step = [t for p in passes for t in p.step_ns]
    job_s = float(np.median([p.job_s for p in passes]))
    return {
        "points_per_s": passes[0].units / job_s,
        "step_ms_p50": _percentile_ms(per_step, 50),
        "step_ms_p90": _percentile_ms(per_step, 90),
        "query_ms_p50": _median_of_passes(passes, "query_ns", 50),
        "query_ms_p90": _median_of_passes(passes, "query_ns", 90),
        "train_s": float(np.median([p.train_s for p in passes])),
        "job_s": job_s,
        "revised_fraction": passes[0].units / workload.sizes.offline_initial,
        **quality,
    }


def make(name: str, seed: int, sizes: Sizes):
    """The workload object and its metric function."""
    if name == "replace-stream":
        return StreamWorkload("van-der-pol", ("prior-entropy", "mean-relevance", "mll"),
                              None, seed, sizes, replace_traffic, sizes.replace_setup_repeats,
                              replaced_check_stride=4, query_check_stride=5), stream_metrics
    if name == "serve-mixed":
        return StreamWorkload("building", ("mll",), 0.8, seed, sizes, serve_traffic,
                              sizes.serve_setup_repeats, replaced_check_stride=1, query_check_stride=500), stream_metrics
    if name == "offline-fit":
        return OfflineWorkload(seed, sizes), offline_metrics
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("replace-stream", "serve-mixed", "offline-fit")
