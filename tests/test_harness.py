import json

import numpy as np
import numpy.testing as npt
import pytest

from budgetgp.cli import build_config, build_parser, main
from budgetgp.criteria import CriterionKind, PartitionView, reduction_score
from budgetgp.dataio import read_results
from budgetgp.gp import NumericalError
from budgetgp.harness import (
    COMPLEXITY_MODEL,
    ConfigError,
    ExperimentConfig,
    cmd_accept_eval,
    cmd_bench,
    cmd_generate,
    cmd_online_eval,
    cmd_reduce_sweep,
    cmd_threshold_sweep,
    cmd_train,
    load_hyper_file,
    resolve_benchmark,
    train_hyperparameters,
)


def tiny_config(**overrides):
    base = dict(
        benchmark="rastrigin",
        seeds=(0,),
        initial_train=12,
        stream_size=15,
        eval_size=60,
        budget=12,
        train_restarts=0,
        train_max_iters=60,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_unknown_benchmark_named(self):
        with pytest.raises(ConfigError, match="benchmark"):
            tiny_config(benchmark="nope").validate()

    def test_csv_requires_file_and_target(self):
        with pytest.raises(ConfigError, match="data_file"):
            tiny_config(benchmark="csv").validate()

    def test_empty_seeds_named(self):
        with pytest.raises(ConfigError, match="seeds"):
            tiny_config(seeds=()).validate()

    def test_bad_criterion_named(self):
        with pytest.raises(ConfigError, match="criteria"):
            tiny_config(criteria=("entropy-of-doom",)).validate()

    def test_path_objects_accepted(self, tmp_path):
        tiny_config(benchmark="csv", data_file=tmp_path / "d.csv", target_column="y",
                    hyper_file=tmp_path / "h.json", out=tmp_path / "r.csv").validate()
        written = []
        for out in (str(tmp_path / "r.csv"), tmp_path / "r.csv"):
            cmd_online_eval(tiny_config(criteria=("mll",), err_threshold=1.0, out=out))
            written.append([(tmp_path / name).read_bytes() for name in ("r.csv", "r.meta.json")])
        assert written[0] == written[1]

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"benchmark": "rosenbrock", "budget": 33, "seeds": [4, 5]}))
        config = ExperimentConfig.from_file(path)
        assert config.benchmark == "rosenbrock"
        assert config.budget == 33
        assert config.seeds == (4, 5)

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"bugdet": 10}')
        with pytest.raises(ConfigError, match="bugdet"):
            ExperimentConfig.from_file(path)

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"benchmark": "rastrigin", "budget": 50}))
        args = build_parser().parse_args(
            ["online-eval", "--config", str(path), "--budget", "25",
             "--err-threshold", "0.5"]
        )
        config = build_config(args)
        assert config.budget == 25
        assert config.benchmark == "rastrigin"
        assert config.err_threshold == 0.5


class TestResolveBenchmark:
    def test_function_benchmark_shapes(self):
        config = tiny_config()
        data = resolve_benchmark(config, 3)
        assert data.initial.n == 12
        assert len(data.stream) == 15
        assert data.eval_set.n == 60
        assert data.full_train.n == 27

    def test_stream_default_size(self):
        config = tiny_config(stream_size=None)
        data = resolve_benchmark(config, 0)
        assert len(data.stream) == 500

    def test_csv_benchmark_normalized_split(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["a,b,y"]
        for _ in range(60):
            v = rng.normal(size=3)
            lines.append(",".join(repr(float(x)) for x in v))
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        config = tiny_config(
            benchmark="csv", data_file=str(path), target_column="y",
            initial_train=20, stream_size=None, eval_size=10,
        )
        data = resolve_benchmark(config, 0)
        assert data.initial.n == 20
        assert data.eval_set.n == 6  # held-out tail capped at 10% of rows
        assert data.initial.n + len(data.stream) + data.eval_set.n == 60
        npt.assert_allclose(data.initial.inputs.mean(axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(data.initial.inputs.std(axis=0), 1.0, atol=1e-10)


class TestGenerate:
    def test_van_der_pol_row_count(self, tmp_path):
        config = ExperimentConfig(
            benchmark="van-der-pol", seeds=(0,), out=str(tmp_path / "vdp.csv")
        )
        cmd_generate(config)
        lines = (tmp_path / "vdp.csv").read_text().splitlines()
        assert len(lines) == 1001  # header + 1000 rows
        meta = json.loads((tmp_path / "vdp.meta.json").read_text())
        assert meta["rows_train"] == 1000
        params = json.loads((tmp_path / "vdp.params.json").read_text())
        assert params["params_version"] == 1

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            cmd_generate(tiny_config(out=str(out)))
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a_val.csv").read_bytes() == (tmp_path / "b_val.csv").read_bytes()

    def test_generated_csv_loads_back(self, tmp_path):
        from budgetgp.dataio import load_csv_dataset

        cmd_generate(tiny_config(out=str(tmp_path / "g.csv")))
        names, table = load_csv_dataset(tmp_path / "g.csv", "y")
        assert table.n == 27
        assert names == ("x1", "x2")

    def test_csv_keeps_target_column_name(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "d.csv"
        rows = [",".join(repr(float(v)) for v in rng.normal(size=4)) for _ in range(60)]
        path.write_text("\n".join(["a,b,c,medv", *rows]) + "\n")
        out = tmp_path / "g.csv"
        cmd_generate(tiny_config(benchmark="csv", data_file=str(path), target_column="medv",
                                 initial_train=20, stream_size=None, out=str(out)))
        for written in (out, tmp_path / "g_val.csv"):
            assert written.read_text().splitlines()[0] == "a,b,c,medv"


class TestTrain:
    def test_hyper_file_round_trip(self, tmp_path):
        out = tmp_path / "hyper.json"
        config = tiny_config(out=str(out), seeds=(0, 1))
        cmd_train(config)
        per_seed = load_hyper_file(out)
        assert set(per_seed) == {0, 1}
        data = resolve_benchmark(config, 0)
        fresh = train_hyperparameters(data.initial, 0, config)
        npt.assert_allclose(per_seed[0].lengthscales, fresh.lengthscales)

    def test_downstream_uses_hyper_file(self, tmp_path):
        out = tmp_path / "hyper.json"
        cmd_train(tiny_config(out=str(out)))
        config = tiny_config(hyper_file=str(out), criteria=("mll",))
        records = cmd_reduce_sweep(config)
        assert records  # ran without retraining

    def test_missing_seed_in_hyper_file(self, tmp_path):
        out = tmp_path / "hyper.json"
        cmd_train(tiny_config(out=str(out)))
        config = tiny_config(hyper_file=str(out), seeds=(9,))
        with pytest.raises(ConfigError, match="seed 9"):
            cmd_reduce_sweep(config)


class TestReduceSweep:
    def test_two_point_sweep_matches_bruteforce(self):
        config = tiny_config(initial_train=2, reduce_min_size=1, criteria=("mll",))
        records = cmd_reduce_sweep(config)
        assert [r.size for r in records] == [2, 1]
        data = resolve_benchmark(config, 0)
        hyper = train_hyperparameters(data.initial, 0, config)
        kind = CriterionKind.MARGINAL_LOG_LIKELIHOOD
        scores = [
            reduction_score(kind, PartitionView(data.initial, i, None), hyper)
            for i in range(2)
        ]
        survivor = 1 - int(np.argmin(scores))
        from budgetgp.dataio import smse
        from budgetgp.gp import fit_cache, predict

        kept = data.initial.subset([survivor])
        # SMSE of the one-point model must match the recorded final value
        cache = fit_cache(kept, hyper)
        mu, _ = predict(cache, kept, hyper, data.eval_set.inputs)
        assert records[-1].smse == pytest.approx(smse(mu, data.eval_set.targets), rel=1e-12)

    def test_first_record_equals_initial_smse_for_every_criterion(self):
        config = tiny_config(reduce_min_size=8)
        records = cmd_reduce_sweep(config)
        starts = [r.smse for r in records if r.size == 12]
        assert len(starts) == len(config.criteria)
        assert all(s == starts[0] for s in starts)

    def test_entropy_pair_identical_smse_sequences(self):
        config = tiny_config(
            criteria=("prior-entropy", "predictive-entropy"), reduce_min_size=3,
        )
        records = cmd_reduce_sweep(config)
        by = {
            c: [r.smse for r in records if r.criterion == c]
            for c in ("prior-entropy", "predictive-entropy")
        }
        assert by["prior-entropy"] == by["predictive-entropy"]

    def test_likelihood_pair_identical_smse_sequences(self):
        config = tiny_config(criteria=("mll", "lpd"), reduce_min_size=3)
        records = cmd_reduce_sweep(config)
        by = {c: [r.smse for r in records if r.criterion == c] for c in ("mll", "lpd")}
        assert by["mll"] == by["lpd"]

    def test_verify_flag_runs_shadow_oracle(self):
        config = tiny_config(criteria=("mll",), reduce_min_size=9, verify=True)
        records = cmd_reduce_sweep(config)
        assert [r.size for r in records] == [12, 11, 10, 9]

    @pytest.mark.parametrize("mr_reference", ["model", "target"])
    def test_sweep_agrees_with_per_partition_reference(self, mr_reference):
        # --verify rescores every size up to 12 on the per-partition path,
        # independent of the one-factorization sweep that chose the row.
        kinds = tuple(k.value for k in CriterionKind)
        config = tiny_config(criteria=kinds, reduce_min_size=1, verify=True,
                             mr_reference=mr_reference)
        records = cmd_reduce_sweep(config)
        assert len(records) == 12 * len(kinds)


class TestAcceptEval:
    def test_bookkeeping(self):
        config = tiny_config(criteria=("mll",), budget=12)
        records = cmd_accept_eval(config)
        normal = next(r for r in records if r.criterion == "mll" and not r.use_acceptance)
        assert normal.accepted_fraction == 1.0  # acceptance disabled -> 100%
        accepted = next(r for r in records if r.criterion == "mll" and r.use_acceptance)
        assert accepted.accepted_fraction <= 1.0
        assert accepted.revised == round(accepted.accepted_fraction * len(
            resolve_benchmark(config, 0).stream
        ))
        initial = next(r for r in records if r.criterion == "initial")
        assert initial.smse is not None

    def test_maps_emitted_for_function_benchmarks(self, tmp_path):
        config = tiny_config(
            criteria=("mll",), maps=True, out=str(tmp_path / "acc.csv")
        )
        cmd_accept_eval(config)
        map_file = tmp_path / "acc_map_mll_accept.csv"
        points_file = tmp_path / "acc_points_mll_accept.csv"
        assert map_file.exists() and points_file.exists()
        header = map_file.read_text().splitlines()[0]
        assert header == "x1,x2,abs_error,std"
        assert len(points_file.read_text().splitlines()) == 12 + 1


class TestOnlineEval:
    def test_requires_exactly_one_threshold(self):
        with pytest.raises(ConfigError, match="exactly one"):
            cmd_online_eval(tiny_config())
        with pytest.raises(ConfigError, match="exactly one"):
            cmd_online_eval(tiny_config(var_threshold=0.1, err_threshold=0.1))

    def test_variance_threshold_above_signal_blocks_everything(self):
        config = tiny_config(criteria=("mll",), var_threshold=1e9)
        records = cmd_online_eval(config)
        assert all(r.revised == 0 for r in records)

    def test_zero_error_threshold_passes_everything(self):
        config = tiny_config(criteria=("mll",), err_threshold=0.0)
        records = cmd_online_eval(config)
        assert all(r.revised == len(resolve_benchmark(config, 0).stream) for r in records
                   if not r.use_acceptance)

    def test_row_per_cell(self):
        config = tiny_config(criteria=("mll", "mean-relevance"), err_threshold=2.0,
                             seeds=(0, 1))
        records = cmd_online_eval(config)
        keys = {(r.seed, r.criterion, r.use_acceptance) for r in records}
        assert len(keys) == len(records) == 8


class TestStreamCommandsAgree:
    def test_online_eval_matches_threshold_sweep_cell(self):
        # online-eval with one error threshold and threshold-sweep over a
        # one-point grid stream the same models.
        t = 5.0
        criteria = ("prior-entropy", "mean-relevance", "mll", "lpd")
        online = cmd_online_eval(tiny_config(criteria=criteria, err_threshold=t))
        sweep = cmd_threshold_sweep(tiny_config(criteria=criteria, thresholds_grid=(t,)))

        def cells(records):
            return {
                (r.criterion, r.use_acceptance): (r.size, r.smse, r.mean_variance, r.revised)
                for r in records if r.criterion != "baseline"
            }

        assert len(cells(online)) == 2 * len(criteria)
        assert cells(online) == cells(sweep)


class TestThresholdSweep:
    def test_grid_enumeration_and_baseline(self):
        config = tiny_config(
            criteria=("mll",), thresholds_grid=(1.0, 3.0, 9.0), seeds=(0,),
        )
        records = cmd_threshold_sweep(config)
        baseline = [r for r in records if r.criterion == "baseline"]
        assert len(baseline) == 1
        assert baseline[0].size == 27  # full training data, under baseline_max
        cells = [r for r in records if r.criterion != "baseline"]
        keys = {(r.err_threshold, r.criterion, r.use_acceptance, r.seed) for r in cells}
        assert len(keys) == len(cells) == 6

    def test_baseline_subsampled_when_large(self):
        config = tiny_config(criteria=("mll",), thresholds_grid=(5.0,), baseline_max=10)
        records = cmd_threshold_sweep(config)
        baseline = next(r for r in records if r.criterion == "baseline")
        assert baseline.size == 10

    @pytest.mark.slow
    def test_oscillator_sweep_tendencies(self):
        # A looser error gate revises fewer points, and the full-data
        # baseline stays at least as accurate as any budgeted online run.
        config = ExperimentConfig(
            benchmark="van-der-pol", seeds=(0, 1), budget=100,
            criteria=("mll",), thresholds_grid=(0.0025, 0.015),
        )
        records = cmd_threshold_sweep(config)
        for seed in config.seeds:
            baseline = next(
                r for r in records if r.criterion == "baseline" and r.seed == seed
            )
            cells = [
                r for r in records
                if r.seed == seed and r.criterion == "mll" and not r.use_acceptance
            ]
            by_threshold = {r.err_threshold: r for r in cells}
            assert by_threshold[0.015].revised <= by_threshold[0.0025].revised
            assert all(baseline.smse <= r.smse for r in cells)


class TestBench:
    def test_medians_and_model_reported(self):
        # The default 1000 repeats give each median a window of a few hundred
        # milliseconds, so a slow spell of the machine cannot flip the order.
        config = ExperimentConfig(benchmark="rastrigin", bench_sizes=(20, 100))
        records = cmd_bench(config)
        assert len(records) == 2 * len(COMPLEXITY_MODEL)
        for kind, poly in COMPLEXITY_MODEL.items():
            small = next(r for r in records if r.criterion == kind and r.size == 20)
            large = next(r for r in records if r.criterion == kind and r.size == 100)
            assert large.median_ms > small.median_ms
            assert poly in small.note
            assert small.repeats == 1000


# A small online-eval run; a case appends the flag it makes malformed.
_SMALL_RUN = ["--benchmark", "rastrigin", "--initial-train", "10", "--stream-size", "5",
              "--eval-size", "40", "--criterion", "mll", "--train-restarts", "0"]
_ONLINE = ["online-eval", *_SMALL_RUN, "--err-threshold", "1.0"]


class TestCli:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main([
            "online-eval", "--benchmark", "rastrigin", "--seeds", "0",
            "--initial-train", "10", "--budget", "10", "--stream-size", "8",
            "--eval-size", "40", "--err-threshold", "1.0", "--criterion", "mll",
            "--train-restarts", "0", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert len(read_results(out)) == 2
        meta = json.loads((tmp_path / "r.meta.json").read_text())
        assert meta["config"]["benchmark"] == "rastrigin"

    def test_exit_two_on_config_error(self, capsys):
        assert main(["online-eval", "--benchmark", "not-a-benchmark"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("table, message", [
        (None, "no such file"),
        ("a,y\n1.0,2.0\nx,3.0\n", "unparsable cell"),
        ("".join(["a,b,y\n"] + [f"1.0,{i}.5,{i}.0\n" for i in range(30)]), "constant feature"),
    ], ids=["missing-file", "unparsable-cell", "constant-column"])
    def test_exit_two_on_data_file_error(self, tmp_path, capsys, table, message):
        path = tmp_path / "d.csv"
        if table is not None:
            path.write_text(table)
        code = main([
            "online-eval", "--benchmark", "csv", "--data-file", str(path),
            "--target-column", "y", "--initial-train", "10", "--budget", "10",
            "--err-threshold", "1.0", "--criterion", "mll",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("args, prefix", [
        (_ONLINE + ["--eval-size", "0"], "eval_size:"),
        (_ONLINE + ["--eval-size", "1"], "eval_size:"),
        (["online-eval", *_SMALL_RUN, "--var-threshold", "nan"], "var_threshold:"),
        (_ONLINE + ["--stream-size", "-3"], "stream_size:"),
        (["threshold-sweep", *_SMALL_RUN, "--thresholds=-1"], "thresholds_grid:"),
        (_ONLINE + ["--hyper-file", "{tmp}/missing.json"], "hyper_file:"),
        (_ONLINE + ["--hyper-file", "{tmp}/no_lengthscales.json"], "hyper_file:"),
        (_ONLINE + ["--hyper-file", "{tmp}/four_inputs.json"], "hyper_file:"),
        (_ONLINE + ["--config", "{tmp}/text_budget.json"], "budget:"),
        (_ONLINE + ["--config", "{tmp}/text_seeds.json"], "config file"),
        (["bench", "--repeats", "0"], "bench_repeats:"),
        (_ONLINE + ["--config", "{tmp}/digit_seeds.json"],
         "config file {tmp}/digit_seeds.json: seeds:"),
        (_ONLINE + ["--config", "{tmp}/fractional_seed.json"],
         "config file {tmp}/fractional_seed.json: seeds:"),
        (["threshold-sweep", *_SMALL_RUN, "--config", "{tmp}/text_thresholds.json"],
         "config file {tmp}/text_thresholds.json: thresholds_grid:"),
        (["accept-eval", *_SMALL_RUN, "--config", "{tmp}/text_maps.json"], "maps:"),
        (["reduce-sweep", *_SMALL_RUN, "--config", "{tmp}/text_verify.json"], "verify:"),
        (_ONLINE + ["--config", "{tmp}/bool_budget.json"], "budget:"),
        (["bench", "--config", "{tmp}/zero_bench_size.json"], "bench_sizes:"),
        (["bench", "--config", "{tmp}/text_bench_sizes.json"],
         "config file {tmp}/text_bench_sizes.json: bench_sizes:"),
        (_ONLINE + ["--config", "{tmp}/number_out.json"], "out:"),
        (["train", "--config", "{tmp}/number_out.json", "--benchmark", "rastrigin"], "out:"),
        (_ONLINE + ["--config", "{tmp}/number_data_file.json"], "data_file:"),
        (_ONLINE + ["--config", "{tmp}/number_hyper_file.json"], "hyper_file:"),
        (_ONLINE + ["--config", "{tmp}/number_target_column.json"], "target_column:"),
    ], ids=["eval-size-0", "eval-size-1", "nan-var-threshold", "negative-stream-size",
            "negative-threshold", "missing-hyper-file", "hyper-record-without-lengthscales",
            "hyper-file-of-other-dimension", "text-budget-in-config", "text-seeds-in-config",
            "zero-repeats", "digit-string-seeds", "fractional-seed", "text-thresholds",
            "text-maps", "text-verify", "bool-budget", "zero-bench-size", "text-bench-sizes",
            "number-out", "number-out-train", "number-data-file", "number-hyper-file",
            "number-target-column"])
    def test_exit_two_on_malformed_config(self, tmp_path, capsys, args, prefix):
        record = {"signal_variance": 1.0, "lengthscales": [1.0] * 4, "noise_variance": 0.1}
        for name, entry in (("four_inputs", record),
                            ("no_lengthscales", {"signal_variance": 1.0, "noise_variance": 0.1})):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"format_version": 1, "benchmark": "tanks", "per_seed": {"0": entry}}))
        configs = {
            "text_budget": {"budget": "abc"}, "text_seeds": {"seeds": "abc"},
            "digit_seeds": {"seeds": "12"}, "fractional_seed": {"seeds": [1.7]},
            "text_thresholds": {"thresholds_grid": "05"}, "text_maps": {"maps": "false"},
            "text_verify": {"verify": "no"}, "bool_budget": {"budget": True},
            "zero_bench_size": {"bench_sizes": [0]}, "text_bench_sizes": {"bench_sizes": "20"},
            "number_out": {"out": 5}, "number_data_file": {"data_file": 5},
            "number_hyper_file": {"hyper_file": 5}, "number_target_column": {"target_column": 5},
        }
        for name, payload in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        assert main([a.format(tmp=tmp_path) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {prefix.format(tmp=tmp_path)}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("args, unread", [
        (_ONLINE, ["--thresholds", "9,9"]),
        (["threshold-sweep", *_SMALL_RUN], ["--var-threshold", "0.001"]),
        (["accept-eval", *_SMALL_RUN], ["--err-threshold", "0.5"]),
        (["train", "--benchmark", "rastrigin", "--initial-train", "10", "--train-restarts", "0",
          "--out", "{tmp}/h.json"], ["--hyper-file", "{tmp}/h.json"]),
        (["bench", "--repeats", "1"], ["--criterion", "mll"]),
        (_ONLINE, ["--accept"]),
    ], ids=["online-eval-thresholds", "threshold-sweep-var-threshold",
            "accept-eval-err-threshold", "train-hyper-file", "bench-criterion",
            "online-eval-accept"])
    def test_exit_two_on_flag_the_command_does_not_take(self, tmp_path, capsys, args, unread):
        # Each command takes only the flags it reads; argparse rejects the rest.
        argv = [a.format(tmp=tmp_path) for a in args + unread]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        message = "unrecognized arguments: " + " ".join(argv[len(args):])
        assert message in capsys.readouterr().err

    def test_exit_three_on_numerical_failure(self, monkeypatch, capsys):
        import budgetgp.cli as cli_mod

        def boom(config):
            raise NumericalError("synthetic failure")

        monkeypatch.setitem(cli_mod._COMMANDS, "bench", boom)
        assert main(["bench"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_results_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main([
                "online-eval", "--benchmark", "rastrigin", "--seeds", "0,1",
                "--initial-train", "10", "--budget", "10", "--stream-size", "10",
                "--eval-size", "40", "--err-threshold", "1.0", "--criterion", "mll",
                "--train-restarts", "0", "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
