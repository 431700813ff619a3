"""The paired runner's table (``scripts/bench_pairs.summarize``) on synthetic
results, without running the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def results(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


def row(name, better, before, after, bound=0.25):
    spec = [{"name": name, "unit": "s", "better": better, "bound": bound}]
    (out,) = bench_pairs.summarize(spec, results(name, before), results(name, after))
    assert out[:2] == (name, "s") and out[8] == bound
    return dict(zip(("median", "q1", "q3", "moved", "move", "won", "notes"), out[2:8] + out[9:]))


def test_median_quartiles_and_move():
    r = row("job_s", "lower", [5.0, 1.0, 4.0, 2.0, 3.0], [2.0, 1.5, 1.0, 2.5, 3.0])
    assert (r["median"], r["q1"], r["q3"]) == (3.0, 1.5, 4.5)
    assert r["moved"] == 2.0
    assert r["move"] == pytest.approx(-1.0 / 3.0)


@pytest.mark.parametrize("better, won", [("lower", 1), ("higher", 2)])
def test_won_counts_strict_moves_only(better, won):
    # pair 1 is a tie, pair 2 moves down, pairs 3 and 4 move up
    r = row("train_s", better, [1.0, 1.0, 1.0, 1.0], [1.0, 0.9, 1.1, 1.2])
    assert r["won"] == won


def test_spread_marks_a_wide_parent_range():
    wide = row("setup_s", "lower", [1.0, 2.0, 3.0, 4.0, 5.0], [3.0] * 5)
    assert (wide["q3"] - wide["q1"]) / wide["median"] == 1.0
    assert wide["notes"] == "SPREAD"
    narrow = row("setup_s", "lower", [1.0, 2.0, 3.0, 4.0, 5.0], [3.0] * 5, bound=1.0)
    assert narrow["notes"] == ""


def test_differs_marks_a_quality_metric_only():
    before, after = [0.25, 0.25, 0.25], [0.25, 0.25, 0.2500000001]
    assert row("final_smse", "lower", before, after)["notes"] == "DIFFERS"
    assert row("final_smse", "lower", before, before)["notes"] == ""
    assert row("job_s", "lower", before, after)["notes"] == ""
