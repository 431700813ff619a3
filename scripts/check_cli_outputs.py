"""Run a fixed set of CLI commands into OUT_DIR and print one
``sha256  file`` line per file written, sorted by file name.

A change that should not move any result is checked by running this on
both commits with the same OUT_DIR (the metadata sidecars record output
paths) and diffing the two listings:

    python scripts/check_cli_outputs.py /tmp/cli_check > before.txt
    # switch commits
    python scripts/check_cli_outputs.py /tmp/cli_check > after.txt
    diff before.txt after.txt

The set covers ``generate`` for a function and for every simulated system,
``generate`` and ``online-eval`` on the csv benchmark fed the generated
van-der-pol file, ``train``, ``reduce-sweep --verify`` to CSV and to JSON,
``accept-eval`` with and without ``--maps``, ``online-eval`` with each
insertion gate and once from a config file (``online_cfg.json``, written
first) with a flag on top, and ``threshold-sweep``.  Each command's stdout
is kept as ``<name>.stdout``; each command's wall time goes to stderr.
OUT_DIR is emptied first.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (name, arguments); "{out}" is the output directory.
COMMANDS = (
    ("generate-rastrigin", "generate --benchmark rastrigin --out {out}/rastrigin.csv"),
    ("generate-vdp", "generate --benchmark van-der-pol --out {out}/vdp.csv"),
    ("generate-bouc-wen", "generate --benchmark bouc-wen --out {out}/bouc_wen.csv"),
    ("generate-tanks", "generate --benchmark tanks --out {out}/tanks.csv"),
    ("generate-building", "generate --benchmark building --out {out}/building.csv"),
    ("generate-csv", "generate --benchmark csv --data-file {out}/vdp.csv --target-column y"
                     " --out {out}/csv_vdp.csv"),
    ("train-vdp", "train --benchmark van-der-pol --out {out}/vdp_hyper.json"),
    ("reduce-vdp", "reduce-sweep --benchmark van-der-pol --hyper-file {out}/vdp_hyper.json"
                   " --verify --out {out}/reduce_vdp.csv"),
    ("reduce-rastrigin", "reduce-sweep --benchmark rastrigin --initial-train 40"
                         " --criterion prior-entropy,predictive-entropy,mean-relevance,mll,lpd"
                         " --mr-reference target --verify --out {out}/reduce_rastrigin.json"),
    ("accept-rastrigin", "accept-eval --benchmark rastrigin --maps"
                         " --out {out}/accept_rastrigin.csv"),
    ("accept-vdp", "accept-eval --benchmark van-der-pol --hyper-file {out}/vdp_hyper.json"
                   " --out {out}/accept_vdp.json"),
    ("accept-himmelblau", "accept-eval --benchmark himmelblau --out {out}/accept_himmelblau.csv"),
    ("accept-tanks", "accept-eval --benchmark tanks --out {out}/accept_tanks.csv"),
    ("accept-bouc-wen", "accept-eval --benchmark bouc-wen --criterion predictive-entropy,lpd"
                        " --out {out}/accept_bouc_wen.csv"),
    ("online-vdp-var", "online-eval --benchmark van-der-pol --hyper-file {out}/vdp_hyper.json"
                       " --var-threshold 1e-5 --out {out}/online_vdp_var.csv"),
    ("online-vdp-err", "online-eval --benchmark van-der-pol --hyper-file {out}/vdp_hyper.json"
                       " --err-threshold 0.005 --out {out}/online_vdp_err.csv"),
    ("online-building-err", "online-eval --benchmark building --stream-size 2000"
                            " --criterion mll --train-restarts 0 --err-threshold 0.8"
                            " --out {out}/online_building.csv"),
    ("online-csv-err", "online-eval --benchmark csv --data-file {out}/vdp.csv --target-column y"
                       " --criterion mean-relevance,lpd --err-threshold 0.005"
                       " --out {out}/online_csv.csv"),
    ("online-cfg-err", "online-eval --config {out}/online_cfg.json --err-threshold 0.005"
                       " --out {out}/online_cfg.csv"),
    ("threshold-rastrigin", "threshold-sweep --benchmark rastrigin --thresholds 0.5,2.0"
                            " --out {out}/threshold_rastrigin.json"),
)


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} OUT_DIR")
    out = Path(argv[1]).resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "online_cfg.json").write_text(json.dumps({
        "benchmark": "van-der-pol", "criteria": ["mean-relevance", "lpd"],
        "hyper_file": str(out / "vdp_hyper.json"),
    }, indent=2) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, args in COMMANDS:
        cmd = [sys.executable, "-m", "budgetgp.cli", *args.format(out=out).split()]
        start = time.perf_counter()
        with open(out / f"{name}.stdout", "w") as fh:
            subprocess.run(cmd, stdout=fh, env=env, check=True)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")


if __name__ == "__main__":
    main(sys.argv)
