"""Criterion timing comparison: median cost of one partition evaluation at
N = 20 and N = 100 over 1000 repetitions, next to the operation-count model."""

from pathlib import Path

from budgetgp.harness import ExperimentConfig, cmd_bench, format_records

OUT = Path(__file__).resolve().parent.parent / "results"


def main():
    OUT.mkdir(exist_ok=True)
    config = ExperimentConfig(
        benchmark="rastrigin",
        seeds=(0,),
        bench_repeats=1000,
        out=str(OUT / "complexity_bench.csv"),
    )
    records = cmd_bench(config)
    print(format_records(records), end="")


if __name__ == "__main__":
    main()
