"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replace-stream --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; ``budgetgp`` is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload
once untraced and once with every public function of the measured modules
wrapped, and reports the per-layer metrics and the tracing overhead.  The
line before it, ``details: {...}``, records the environment, the pass
count, the step decisions and the output checks.  ``--workload all`` runs
each workload in its own process and prints a table.

The exit code is 1 when an output check fails or a timed call raises, and
2 when ``src/budgetgp`` is missing.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: with the default thread
# count on a small machine, wall times of identical runs spread widely.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_program():
    if not (SRC / "budgetgp" / "__init__.py").is_file():
        print(f"perfbench: no budgetgp sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import budgetgp

    if Path(budgetgp.__file__).resolve().parent != (SRC / "budgetgp").resolve():
        print(f"perfbench: imported budgetgp from {budgetgp.__file__}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    import numpy as np

    import tracing
    import workloads

    import_s = time.perf_counter() - _T_START
    sizes = workloads.TINY if tiny else workloads.Sizes()
    workload, metric_fn = workloads.make(name, seed, sizes)

    setup_times, train_times = [], []
    for _ in range(1 if trace else workload.setup_repeats):
        t0 = time.perf_counter()
        state, train_s = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        if train_s is not None:
            train_times.append(train_s)

    passes = [workload.run_pass(state, record=True)]
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_state, _ = workload.setup()
            traced = workload.run_pass(traced_state, record=False)
        finally:
            tracer.uninstall()
    else:
        # Stop at the pass boundary nearest to ``seconds``.
        start = time.perf_counter() - passes[0].wall_s
        while True:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(passes) >= seconds:
                break
            passes.append(workload.run_pass(state, record=False))

    checks = workloads.Checks()
    quality = workload.check_and_quality(state, checks)
    exceptions = sum(p.exceptions for p in passes)
    decisions = {}
    for p in passes:
        for key, count in p.decisions.items():
            decisions[key] = decisions.get(key, 0) + count
    attempted = sum(len(p.step_ns) + len(p.query_ns) for p in passes)
    if name == "offline-fit":
        attempted += 2 * len(passes)  # the two harness commands per pass
    failed = exceptions + decisions.get("failed", 0) + len(checks.mismatches)
    correct = exceptions == 0 and not checks.mismatches

    if trace:
        traced_metrics = tracer.metrics()
        traced_metrics["trace_overhead_s"] = traced.wall_s - passes[0].wall_s
        units = dict(tracing.layer_metric_names())
        metrics = {k: {"value": traced_metrics[k], "unit": u} for k, u in units.items()}
        (BENCH_DIR / "out").mkdir(exist_ok=True)
        tracer.write_spans(BENCH_DIR / "out" / f"spans-{name}-seed{seed}.csv.gz")
    else:
        values = metric_fn(workload, state, passes, train_times, quality)
        values["setup_s"] = import_s + float(np.median(setup_times))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in end_to_end_units().items()}

    details = {
        "workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
        "environment": environment(), "passes": len(passes),
        "pass_s": [p.wall_s for p in passes],
        "setup_s_samples": setup_times, "import_s": import_s,
        "decisions": decisions, "exceptions": exceptions,
        "failed_fraction": failed / max(attempted, 1),
        "checks": checks.counts, "mismatches": checks.mismatches[:20],
    }
    if trace:
        details["traced_pass_s"] = traced.wall_s
    print("details: " + json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:42s} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replace-stream", "serve-mixed", "offline-fit", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time of the untraced run, rounded to whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: a few points per stream, one set-up")
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
