"""Run one perfbench workload on two source trees in interleaved pairs and
report, for each end-to-end metric, how the second tree moved against the
first.  It reports; it gives no verdict.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload replace-stream --seeds 401,402,403,404,405,406

Each tree runs its own ``perfbench/run.py --trace 0`` from its own root,
at that script's default run length.
Pair i runs both trees on seed i, the parent first in odd pairs and the
change first in even ones, so a drift of the machine's speed over the
runs falls on both sides alike.  Passing the same tree twice gives an
A/A run: the moves it reports are the noise floor of the machine.

For each metric the table gives the parent's median and interquartile
range (``statistics.quantiles(values, n=4)``), the change's median, the
relative move of the medians, the pairs in which the change was better
and the bound from the parent tree's ``BENCHMARK.json``.  ``SPREAD`` marks
a metric whose parent interquartile range, as a share of its median,
exceeds the bound: a move of that metric cannot be told from noise.  The
quality metrics, ``correct`` and ``failed`` are checked for equality in
every pair; a difference is printed as ``DIFFERS``.  The exit code is 1
when a run prints no result, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Metrics that do not depend on timing: they must be equal on both sides.
QUALITY = ("final_smse", "reduce_smse_mean", "train_lml", "revised_fraction")


def run_once(tree: Path, workload: str, seed: int) -> dict | None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{tree} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarize(spec: list, parent: list, change: list) -> list:
    """One row per end-to-end metric of ``spec`` over the paired results."""
    rows = []
    for entry in spec:
        name, better, bound = entry["name"], entry["better"], entry["bound"]
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        median = statistics.median(before)
        q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        moved = statistics.median(after)
        move = (moved - median) / abs(median) if median else 0.0
        sign = -1.0 if better == "lower" else 1.0
        won = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        notes = []
        if spread > bound:
            notes.append("SPREAD")
        if name in QUALITY and before != after:
            notes.append("DIFFERS")
        rows.append((name, entry["unit"], median, q1, q3, moved, move, won, bound,
                     " ".join(notes)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the reference tree")
    parser.add_argument("change", type=Path, help="root of the tree compared with it")
    parser.add_argument("--workload", required=True,
                        choices=("replace-stream", "serve-mixed", "offline-fit"))
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one pair per seed")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    parent, change = [], []
    for i, seed in enumerate(seeds):
        order = (("parent", args.parent), ("change", args.change))
        if i % 2:
            order = order[::-1]
        results = {side: run_once(tree, args.workload, seed)
                   for side, tree in order}
        if None in results.values():
            return 1
        parent.append(results["parent"])
        change.append(results["change"])
        same = all(results["parent"][k] == results["change"][k] for k in ("correct", "failed"))
        print(f"pair {i + 1}/{len(seeds)} seed {seed}, {order[0][0]} first: "
              f"correct/failed {'equal' if same else 'DIFFER'} "
              f"({results['parent']['correct']}/{results['parent']['failed']} vs "
              f"{results['change']['correct']}/{results['change']['failed']})", flush=True)

    print(f"\n{args.workload}: {len(seeds)} pairs, seeds {args.seeds}")
    print(f"{'metric':18s} {'unit':5s} {'parent median':>13s} {'[q1, q3]':>23s} "
          f"{'change median':>13s} {'move':>8s} {'won':>5s} {'bound':>5s}")
    for name, unit, median, q1, q3, moved, move, won, bound, notes in summarize(
            spec, parent, change):
        print(f"{name:18s} {unit:5s} {median:13.6g} [{q1:10.4g}, {q3:10.4g}] "
              f"{moved:13.6g} {move:+8.1%} {won:>2d}/{len(seeds):<2d} {bound:5.2f} {notes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
