"""Acceptance suite: one test per criterion, each printing a pass line.

The naive oracles (dense inverses, slogdet, loop kernels) live in conftest
and are independent of the library's Cholesky code paths.  Experiment-scale
criteria (7, 8, 9) share per-seed hyperparameter files trained once per
session to stay inside their runtime budgets.
"""

import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from budgetgp.cli import main as cli_main
from budgetgp.criteria import (
    CriterionKind,
    PartitionView,
    acceptance_score,
    loo_predict,
    reduction_score,
)
from budgetgp.dataio import smse
from budgetgp.gp import (
    Dataset,
    Hyperparameters,
    fit_cache,
    lml_gradient,
    log_marginal_likelihood,
    predict,
)
from budgetgp.harness import (
    ExperimentConfig,
    cmd_accept_eval,
    cmd_online_eval,
    cmd_reduce_sweep,
    resolve_benchmark,
    save_hyper_file,
    train_hyperparameters,
)
from budgetgp.online import OnlineGp, run_stream
from budgetgp.systems import SimConfig, eval_benchmark_function, simulate
from conftest import (
    naive_acceptance_score,
    naive_kernel,
    naive_lml,
    naive_noisy_kernel,
    naive_predict,
    naive_reduction_score,
    random_candidate,
    random_instance,
)

SEEDS = tuple(range(10))


def report(number, name):
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


@pytest.fixture(scope="module")
def rastrigin_hyper_file(tmp_path_factory):
    """Per-seed hyperparameters for the Rastrigin experiments, trained once."""
    config = ExperimentConfig(benchmark="rastrigin", seeds=SEEDS)
    per_seed = {
        seed: train_hyperparameters(resolve_benchmark(config, seed).initial, seed, config)
        for seed in SEEDS
    }
    path = tmp_path_factory.mktemp("hyper") / "rastrigin.json"
    save_hyper_file(path, "rastrigin", per_seed)
    return str(path)


@pytest.fixture(scope="module")
def vdp_hyper_file(tmp_path_factory):
    config = ExperimentConfig(benchmark="van-der-pol", seeds=SEEDS)
    per_seed = {
        seed: train_hyperparameters(resolve_benchmark(config, seed).initial, seed, config)
        for seed in SEEDS
    }
    path = tmp_path_factory.mktemp("hyper") / "vdp.json"
    save_hyper_file(path, "van-der-pol", per_seed)
    return str(path)


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for _ in range(30):
        n = int(rng.integers(4, 21))
        p = int(rng.integers(1, 4))
        d, hyper = random_instance(rng, n, p)
        candidate = random_candidate(rng, p)
        cache = fit_cache(d, hyper)
        for kind in CriterionKind:
            for i in range(n):
                got = reduction_score(kind, PartitionView(d, i, candidate), hyper,
                                      base_cache=cache)
                want = naive_reduction_score(kind, d, i, candidate, hyper)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
        for kind in CriterionKind:
            points = [candidate] + [
                (d.inputs[i], float(d.targets[i])) for i in range(min(n, 5))
            ]
            for point in points:
                got = acceptance_score(kind, cache, d, hyper, point)
                want = naive_acceptance_score(kind, d, hyper, point)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
    assert time.monotonic() - started < 30.0
    report(1, "oracle equivalence")


def test_criterion_02_entropy_duality():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(4, 16))
        d, hyper = random_instance(rng, n, 2)
        candidate = random_candidate(rng, 2)
        cache = fit_cache(d, hyper)
        pred = np.empty(n)
        prior = np.empty(n)
        joint = np.empty(n)
        for i in range(n):
            part = PartitionView(d, i, candidate)
            pred[i] = reduction_score(CriterionKind.PREDICTIVE_ENTROPY, part, hyper)
            prior[i] = reduction_score(CriterionKind.PRIOR_ENTROPY, part, hyper)
            _, var = loo_predict(part, hyper)
            reduced = part.materialize()
            _, logdet = np.linalg.slogdet(naive_noisy_kernel(reduced.inputs, hyper))
            joint[i] = math.log(var + hyper.noise_variance) + logdet
        assert int(np.argmin(pred)) == int(np.argmin(prior))
        npt.assert_allclose(joint, joint[0], rtol=1e-8)
    report(2, "entropy duality")


def test_criterion_03_likelihood_duality():
    rng = np.random.default_rng(303)
    for _ in range(30):
        n = int(rng.integers(4, 16))
        d, hyper = random_instance(rng, n, 2)
        candidate = random_candidate(rng, 2)
        mll = np.empty(n)
        lpd = np.empty(n)
        for i in range(n):
            part = PartitionView(d, i, candidate)
            mll[i] = reduction_score(CriterionKind.MARGINAL_LOG_LIKELIHOOD, part, hyper)
            lpd[i] = reduction_score(CriterionKind.LOG_PREDICTIVE_DENSITY, part, hyper)
        joint_lml = naive_lml(
            np.vstack([d.inputs, candidate[0]]), np.append(d.targets, candidate[1]), hyper
        )
        # The criterion scores are the evidence and the negated log density:
        # evidence plus log density reproduces the joint evidence exactly.
        npt.assert_allclose(mll + (-lpd), joint_lml, atol=1e-8)
        assert int(np.argmin(mll)) == int(np.argmin(lpd))
    report(3, "likelihood duality")


def test_criterion_04_gp_numerics():
    rng = np.random.default_rng(404)
    # prediction against the dense oracle
    for _ in range(10):
        n = int(rng.integers(3, 26))
        d, hyper = random_instance(rng, n, 2)
        cache = fit_cache(d, hyper)
        Xs = rng.uniform(-2, 2, size=(6, 2))
        mean, var = predict(cache, d, hyper, Xs)
        mean_o, var_o = naive_predict(d.inputs, d.targets, hyper, Xs)
        npt.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-12)
        npt.assert_allclose(var, var_o, rtol=1e-8, atol=1e-12)
    # gradient against central finite differences
    for _ in range(20):
        n = int(rng.integers(3, 15))
        p = int(rng.integers(1, 4))
        d, hyper = random_instance(rng, n, p)
        grad = lml_gradient(d, hyper)
        theta = hyper.to_log_vector()
        fd = np.empty_like(theta)
        for j in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[j] += 1e-5
            down[j] -= 1e-5
            fd[j] = (
                log_marginal_likelihood(d, Hyperparameters.from_log_vector(up))
                - log_marginal_likelihood(d, Hyperparameters.from_log_vector(down))
            ) / 2e-5
        npt.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)
    # cache reconstruction
    for _ in range(10):
        d, hyper = random_instance(rng, 20, 2)
        cache = fit_cache(d, hyper)
        Kn = naive_noisy_kernel(d.inputs, hyper)
        err = np.linalg.norm(cache.chol @ cache.chol.T - Kn) / np.linalg.norm(Kn)
        assert err < 1e-10
    report(4, "gp numerics")


def test_criterion_05_smse_identity():
    rng = np.random.default_rng(505)
    for n in (5, 50, 500):
        y = rng.normal(size=n)
        assert smse(np.full(n, y.mean()), y) == pytest.approx(1.0, abs=1e-12)
        assert smse(y, y) == 0.0
    report(5, "smse identity")


def test_criterion_06_benchmark_anchors():
    assert eval_benchmark_function("himmelblau", 3.0, 2.0) == 0.0
    assert eval_benchmark_function("rastrigin", 0.0, 0.0) == 0.0
    assert eval_benchmark_function("rosenbrock", 1.0, 1.0) == 0.0
    assert eval_benchmark_function("six-hump-camel", 0.0, 0.0) == 0.0
    report(6, "benchmark anchors")


@pytest.mark.slow
def test_criterion_07_reduction_trend(rastrigin_hyper_file):
    started = time.monotonic()
    config = ExperimentConfig(
        benchmark="rastrigin", seeds=SEEDS, eval_size=400,
        reduce_min_size=25, hyper_file=rastrigin_hyper_file,
    )
    records = cmd_reduce_sweep(config)
    for size in (75, 50, 25):
        medians = {
            crit: np.median([
                r.smse for r in records if r.size == size and r.criterion == crit
            ])
            for crit in ("prior-entropy", "mean-relevance", "mll")
        }
        assert medians["prior-entropy"] >= medians["mll"]
        assert medians["prior-entropy"] >= medians["mean-relevance"]
    assert time.monotonic() - started < 300.0
    report(7, "reduction trend")


@pytest.mark.slow
def test_criterion_08_acceptance_effect(rastrigin_hyper_file):
    started = time.monotonic()
    config = ExperimentConfig(
        benchmark="rastrigin", seeds=SEEDS, budget=100, initial_train=100,
        stream_size=500, criteria=("mll",), hyper_file=rastrigin_hyper_file,
    )
    records = cmd_accept_eval(config)
    hits = 0
    improved = 0
    for seed in SEEDS:
        rows = {
            r.use_acceptance: r
            for r in records if r.seed == seed and r.criterion == "mll"
        }
        initial = next(
            r for r in records if r.seed == seed and r.criterion == "initial"
        )
        close_enough = rows[True].smse <= 1.3 * rows[False].smse
        filtered = rows[True].accepted_fraction < 1.0
        hits += close_enough and filtered
        improved += rows[False].smse < initial.smse
    assert hits >= 8
    assert improved >= 8
    assert time.monotonic() - started < 300.0
    report(8, "acceptance effect")


@pytest.mark.slow
def test_criterion_09_online_improvement(vdp_hyper_file):
    started = time.monotonic()
    config = ExperimentConfig(
        benchmark="van-der-pol", seeds=SEEDS, budget=100,
        err_threshold=0.005, hyper_file=vdp_hyper_file,
    )
    records = cmd_online_eval(config)
    criteria = ("prior-entropy", "mean-relevance", "mll")
    improved = {c: 0 for c in criteria}
    fewer_revisions = 0
    from budgetgp.harness import load_hyper_file

    per_seed = load_hyper_file(vdp_hyper_file)
    for seed in SEEDS:
        data = resolve_benchmark(config, seed)
        hyper = per_seed[seed]
        cache = fit_cache(data.initial, hyper)
        mu, _ = predict(cache, data.initial, hyper, data.eval_set.inputs)
        initial_smse = smse(mu, data.eval_set.targets)
        paired = True
        for crit in criteria:
            rows = {
                r.use_acceptance: r
                for r in records if r.seed == seed and r.criterion == crit
            }
            improved[crit] += rows[False].smse < initial_smse
            paired &= rows[True].revised <= rows[False].revised
        fewer_revisions += paired
    for crit in criteria:
        assert improved[crit] >= 8, f"{crit}: improved in {improved[crit]}/10 seeds"
    assert fewer_revisions >= 8
    assert time.monotonic() - started < 600.0
    report(9, "online improvement")


def test_criterion_10_state_machine_replay():
    rng = np.random.default_rng(1010)
    d, hyper = random_instance(rng, 6, 2)
    stream = [(rng.uniform(-2, 2, size=2), float(rng.normal())) for _ in range(50)]
    model = OnlineGp(
        dataset=d, hyper=hyper, budget=8,
        criterion=CriterionKind.MARGINAL_LOG_LIKELIHOOD,
        use_acceptance=True, err_threshold=0.2,
    )
    model, _, _ = run_stream(model, stream)

    # independent reference: dense linear algebra only
    X, y = d.inputs.copy(), d.targets.copy()
    for x_new, y_new in stream:
        mu, _ = naive_predict(X, y, hyper, x_new[None, :])
        if not abs(y_new - float(mu[0])) >= 0.2:
            continue
        if len(y) < 8:
            X = np.vstack([X, x_new])
            y = np.append(y, y_new)
            continue
        row_scores = [
            naive_acceptance_score(
                CriterionKind.MARGINAL_LOG_LIKELIHOOD, Dataset(X, y), hyper, (X[i], y[i])
            )
            for i in range(len(y))
        ]
        cand = naive_acceptance_score(
            CriterionKind.MARGINAL_LOG_LIKELIHOOD, Dataset(X, y), hyper, (x_new, y_new)
        )
        if not cand > min(row_scores):
            continue
        scores = [
            naive_lml(
                np.vstack([X[:i], x_new[None, :], X[i + 1:]]),
                np.concatenate([y[:i], [y_new], y[i + 1:]]),
                hyper,
            )
            for i in range(len(y))
        ]
        r = int(np.argmin(scores))
        X[r], y[r] = x_new, y_new
    npt.assert_array_equal(model.dataset.inputs, X)
    npt.assert_array_equal(model.dataset.targets, y)
    report(10, "state machine replay")


def test_criterion_11_simulator_sanity():
    quiet = {"w": 0.0, "w1": 0.0, "w2": 0.0, "w3": 0.0,
             "w_y": 0.0, "w_v": 0.0, "w_z": 0.0, "e": 0.0}
    # equilibria over 100 steps
    _, _, y = simulate("van-der-pol",
                       SimConfig(dt=0.1, horizon=10.0, noise_scales=quiet))
    assert np.max(np.abs(y)) < 1e-9
    _, _, y = simulate("tanks",
                       SimConfig(dt=1.0, horizon=100.0, noise_scales=quiet),
                       input_signal=lambda t: 0.0)
    assert np.max(np.abs(y)) < 1e-9
    _, _, y = simulate("bouc-wen",
                       SimConfig(dt=1e-3, horizon=0.1, noise_scales=quiet),
                       input_signal=lambda t: 0.0)
    assert np.max(np.abs(y)) < 1e-9
    config = SimConfig(
        dt=900.0, horizon=90000.0, noise_scales=quiet,
        params={"T_a_mean": 20.0, "T_a_seasonal": 0.0, "T_a_daily": 0.0,
                "T_a_noise": 0.0},
        initial_state=np.full(3, 20.0),
    )
    _, _, y = simulate("building", config, input_signal=lambda t: 0.0)
    assert np.max(np.abs(y - 20.0)) < 1e-9

    # fourth-order convergence when halving dt, on smooth segments
    def final_y(system, dt, horizon, x0, signal=None, params=None):
        c = SimConfig(dt=dt, horizon=horizon, noise_scales=quiet,
                      params=params or {}, initial_state=np.asarray(x0, float))
        return simulate(system, c, input_signal=signal)[2][-1]

    for system, dt, horizon, x0, signal, params in (
        ("van-der-pol", 0.1, 2.0, [1.0, 0.5], None, None),
        ("tanks", 4.0, 200.0, [10.0, 10.0], (lambda t: 1.0), None),
        ("building", 900.0, 36000.0, [15.0, 10.0, 30.0], (lambda t: 0.02),
         {"T_a_mean": 5.0, "T_a_seasonal": 0.0, "T_a_daily": 0.0, "T_a_noise": 0.0}),
    ):
        e1 = abs(final_y(system, dt, horizon, x0, signal, params)
                 - final_y(system, dt / 2, horizon, x0, signal, params))
        e2 = abs(final_y(system, dt / 2, horizon, x0, signal, params)
                 - final_y(system, dt / 4, horizon, x0, signal, params))
        assert e1 / e2 >= 8.0, system
    report(11, "simulator sanity")


def test_criterion_12_determinism(tmp_path):
    pairs = []
    for name in ("a", "b"):
        gen_out = tmp_path / f"gen_{name}.csv"
        code = cli_main([
            "generate", "--benchmark", "van-der-pol", "--seeds", "3",
            "--out", str(gen_out),
        ])
        assert code == 0
        run_out = tmp_path / f"run_{name}.csv"
        code = cli_main([
            "online-eval", "--benchmark", "rastrigin", "--seeds", "0,1",
            "--initial-train", "15", "--budget", "15", "--stream-size", "20",
            "--eval-size", "50", "--err-threshold", "1.0", "--criterion", "mll",
            "--train-restarts", "0", "--out", str(run_out),
        ])
        assert code == 0
        pairs.append((
            gen_out.read_bytes(),
            (tmp_path / f"gen_{name}_val.csv").read_bytes(),
            run_out.read_bytes(),
        ))
    assert pairs[0] == pairs[1]
    report(12, "determinism")
