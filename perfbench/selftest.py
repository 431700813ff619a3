"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the ``--tiny`` scale, untraced and traced, and
asserts that each metric named in ``BENCHMARK.json`` is printed with its
unit and that the output checks ran.  Also checks that the oracle rejects a
wrong choice and that the benchmark fails without printing a result where
the ``budgetgp`` sources are missing.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_CHECKS = {
    "replace-stream": ("replaced", "queries", "lml"),
    "serve-mixed": ("replaced", "queries", "lml"),
    "offline-fit": ("deletions", "queries", "lml"),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}, (
        set(result["metrics"]) ^ {m["name"] for m in expected})
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)
        if not trace:
            assert entry["value"] != 0, f"{workload}: {m['name']} is 0"
    assert lines[-2].startswith("details: "), lines[-2]
    details = json.loads(lines[-2][len("details: "):])
    for kind in EXPECTED_CHECKS[workload]:
        assert details["checks"].get(kind, 0) >= 1, (workload, kind, details["checks"])
    if trace:
        metrics = result["metrics"]
        assert metrics["gp.kernel_matrix.calls"]["value"] > 0
        assert metrics["gp.minimize.nfev"]["value"] > 0
    print(f"ok  {workload} trace={trace}: {len(expected)} metrics, checks {details['checks']}")


def check_oracle() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import oracle

    class Hyper:
        signal_variance = 1.0
        lengthscales = np.array([0.7, 1.3])
        noise_variance = 0.01

    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(12, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=12)
    candidate = (np.array([0.1, -0.2]), 0.3)
    for criterion in ("prior-entropy", "mean-relevance", "mll"):
        scores = oracle.partition_scores(criterion, X, y, Hyper, candidate)
        assert oracle.choice_ok(scores, int(np.argmin(scores))), criterion
        assert not oracle.choice_ok(scores, int(np.argmax(scores))), criterion
    print("ok  oracle rejects a wrong choice")


def check_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("replace-stream", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  fails without a result where src/budgetgp is missing")


def main() -> int:
    check_oracle()
    check_without_sources()
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            check_workload(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
