"""Span tracing at the module bindings of ``budgetgp``.

Each traced layer is a public function such as ``budgetgp.gp.kernel_matrix``.
:meth:`Tracer.install` replaces every module attribute of the package that
is bound to that function object with a wrapper, so callers that look the
name up at call time (``online.step`` calling ``reduction_score``, ``gp``
calling ``kernel_matrix``) go through the wrapper.  No source file changes.

Spans are kept in memory as parallel lists (name, start, end, parent) and
written out when the run ends; self time is a span's duration minus the
durations of its direct children.  Hooks attached to a layer add counters
derived from the call's arguments and result (rows predicted, optimizer
evaluations, gate pass counts, step decisions).
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict

import numpy as np

PACKAGE_MODULES = (
    "budgetgp",
    "budgetgp.gp",
    "budgetgp.criteria",
    "budgetgp.online",
    "budgetgp.harness",
    "budgetgp.systems",
    "budgetgp.dataio",
)

CRITERIA = ("prior-entropy", "mean-relevance", "mll")
DECISIONS = ("rejected-insertion", "appended", "rejected-acceptance", "replaced", "failed")


def _predict_rows(args, kwargs, result, elapsed):
    xstar = kwargs.get("Xstar", args[3] if len(args) > 3 else None)
    return {"gp.predict.rows": np.atleast_2d(np.asarray(xstar)).shape[0]}


def _minimize_nfev(args, kwargs, result, elapsed):
    return {"gp.minimize.nfev": int(result.nfev)}


def _reduction_kind(args, kwargs, result, elapsed):
    kind = kwargs.get("kind", args[0] if args else None)
    return {f"criteria.reduction_score.{kind.value}.s": elapsed}


def _gate(name):
    def hook(args, kwargs, result, elapsed):
        return {f"{name}.passed": int(bool(result))}
    return hook


def _decision(args, kwargs, result, elapsed):
    return {f"online.decision.{result[1].decision.value}.count": 1}


# Traced layers: "<module>.<function>" -> optional counter hook.
LAYERS = {
    "gp.kernel_matrix": None,
    "gp.fit_cache": None,
    "gp.predict": _predict_rows,
    "gp.log_marginal_likelihood": None,
    "gp.optimize_hyperparameters": None,
    "gp.minimize": _minimize_nfev,
    "criteria.reduction_score": _reduction_kind,
    "criteria.acceptance_scores": None,
    "criteria.acceptance_score": None,
    "online.step": _decision,
    "online.insert_decision": _gate("online.insert_decision"),
    "online.accept_decision": _gate("online.accept_decision"),
    "systems.simulate": None,
    "systems.lag_embed": None,
    "harness.resolve_benchmark": None,
    "harness.train_hyperparameters": None,
    "harness.cmd_train": None,
    "harness.cmd_reduce_sweep": None,
    "dataio.normalize_apply": None,
    "dataio.smse": None,
}


def layer_metric_names() -> list:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.s", "s"), (f"{layer}.self_s", "s")]
    names += [("gp.predict.rows", "count"), ("gp.minimize.nfev", "count")]
    names += [(f"criteria.reduction_score.{c}.s", "s") for c in CRITERIA]
    names += [("online.insert_decision.pass_ratio", "ratio"),
              ("online.accept_decision.pass_ratio", "ratio")]
    names += [(f"online.decision.{d}.count", "count") for d in DECISIONS]
    names += [("trace_overhead_s", "s")]
    return names


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counters: dict = defaultdict(float)
        self.active = False
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, layer: str, fn):
        layer_id = self.layer_ids[layer]
        hook = LAYERS[layer]
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.starts)
            tracer.names.append(layer_id)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0)
            tracer.ends.append(0)
            tracer._stack.append(index)
            start = clock()
            tracer.starts[index] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.ends[index] = end
                tracer._stack.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, result, (end - start) * 1e-9).items():
                    tracer.counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every package module and start
        recording."""
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for layer in LAYERS:
            module_name, func_name = layer.split(".")
            original = getattr(importlib.import_module(f"budgetgp.{module_name}"), func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """Calls, total seconds and self seconds per layer, plus the hook
        counters and gate pass ratios."""
        n_layers = len(LAYERS)
        names = np.asarray(self.names, dtype=np.int64)
        durations = (np.asarray(self.ends, dtype=np.int64)
                     - np.asarray(self.starts, dtype=np.int64)) * 1e-9
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=durations[nested],
                                 minlength=len(durations))
        self_time = durations - child_time
        calls = np.bincount(names, minlength=n_layers)
        total = np.bincount(names, weights=durations, minlength=n_layers)
        own = np.bincount(names, weights=self_time, minlength=n_layers)
        out = {}
        for layer, i in self.layer_ids.items():
            out[f"{layer}.calls"] = int(calls[i])
            out[f"{layer}.s"] = float(total[i])
            out[f"{layer}.self_s"] = float(own[i])
        for key, unit in layer_metric_names():
            if unit == "count" and key not in out:
                out[key] = int(self.counters.get(key, 0))
            elif key.startswith("criteria.reduction_score.") and key not in out:
                out[key] = float(self.counters.get(key, 0.0))
        for gate in ("online.insert_decision", "online.accept_decision"):
            calls_gate = out[f"{gate}.calls"]
            out[f"{gate}.pass_ratio"] = (
                self.counters.get(f"{gate}.passed", 0) / calls_gate if calls_gate else 0.0
            )
        return out

    def write_spans(self, path) -> None:
        """Write every span as ``name,start_ns,end_ns,parent`` (gzip CSV)."""
        layer_names = list(LAYERS)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in zip(self.names, self.starts,
                                                self.ends, self.parents):
                fh.write(f"{layer_names[name]},{start},{end},{parent}\n")
