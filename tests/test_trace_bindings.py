"""The benchmark tracer (``perfbench/tracing.py``) rebinds the functions named
in its ``LAYERS`` by module attribute: each name must stay bound in
``budgetgp``, its hooks must read the arguments they expect, and
uninstalling must restore every binding."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from budgetgp import criteria, gp, online
from budgetgp.criteria import CriterionKind, PartitionView
from conftest import random_candidate, random_instance

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_layer_is_bound():
    for layer in tracing.LAYERS:
        module_name, func_name = layer.split(".")
        module = importlib.import_module(f"budgetgp.{module_name}")
        assert callable(getattr(module, func_name, None)), layer


def test_hooks_read_their_arguments(rng):
    modules = [importlib.import_module(m) for m in tracing.PACKAGE_MODULES]
    bindings = [(m, dict(vars(m))) for m in modules]
    d, h = random_instance(rng, 6, 2)
    model = online.OnlineGp(dataset=d, hyper=h, budget=6,
                            criterion=CriterionKind.MARGINAL_LOG_LIKELIHOOD,
                            use_acceptance=True)
    stream = [random_candidate(rng, 2) for _ in range(8)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for point in stream:
            model, _ = online.step(model, point)
        gp.predict(model.cache, model.dataset, h, np.zeros((3, 2)))
        criteria.reduction_score(CriterionKind.MARGINAL_LOG_LIKELIHOOD,
                                 PartitionView(d, 0, stream[0]), h)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["online.step.calls"] == len(stream)
    assert sum(metrics[f"online.decision.{name}.count"]
               for name in tracing.DECISIONS) == len(stream)
    # No gate is set, so the stream predicts only through acceptance_score.
    assert metrics["gp.predict.rows"] == 3 + metrics["criteria.acceptance_score.calls"]
    assert metrics["criteria.reduction_score.mll.s"] > 0
    for module, before in bindings:
        assert all(vars(module)[name] is value for name, value in before.items()), module
