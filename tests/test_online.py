import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetgp.criteria import (
    AcceptanceKind,
    CriterionKind,
    acceptance_kind_for,
    acceptance_score,
)
from budgetgp.gp import Dataset, Hyperparameters, fit_cache, predict
from budgetgp.online import (
    Decision,
    OnlineGp,
    accept_decision,
    insert_decision,
    load_snapshot,
    run_stream,
    save_snapshot,
    select_removal,
    step,
)
from conftest import LOG_2PI, naive_lml, naive_noisy_kernel, naive_predict, random_instance


def make_model(rng, n=8, p=2, budget=8, **kwargs):
    d, h = random_instance(rng, n, p)
    return OnlineGp(dataset=d, hyper=h, budget=budget, **kwargs)


def random_stream(rng, p, length):
    return [
        (rng.uniform(-2, 2, size=p), float(rng.normal())) for _ in range(length)
    ]


# --- independent reference implementation, dense oracles only ---------------


def naive_scores(kind, X, y, hyper, cand):
    n = len(y)
    out = np.empty(n)
    for i in range(n):
        Xr, yr = X.copy(), y.copy()
        Xr[i], yr[i] = cand[0], cand[1]
        if kind is CriterionKind.MARGINAL_LOG_LIKELIHOOD:
            out[i] = naive_lml(Xr, yr, hyper)
        elif kind is CriterionKind.PRIOR_ENTROPY:
            _, logdet = np.linalg.slogdet(naive_noisy_kernel(Xr, hyper))
            out[i] = -(0.5 * n * (1 + LOG_2PI) + 0.5 * logdet)
        elif kind is CriterionKind.MEAN_RELEVANCE:
            mu_full, _ = naive_predict(X, y, hyper, X[i][None, :])
            mu_loo, _ = naive_predict(Xr, yr, hyper, X[i][None, :])
            out[i] = (float(mu_full[0]) - float(mu_loo[0])) ** 2
        else:
            raise AssertionError(kind)
    return out


def naive_acceptance(kind, X, y, hyper, point):
    mu, var = naive_predict(X, y, hyper, np.atleast_2d(point[0]))
    mu, var = float(mu[0]), float(var[0])
    acc = acceptance_kind_for(kind)
    if acc is AcceptanceKind.VARIANCE:
        return var
    if acc is AcceptanceKind.SQUARED_ERROR:
        return (point[1] - mu) ** 2
    s = var + hyper.noise_variance
    return 0.5 * math.log(2 * math.pi * s) + (point[1] - mu) ** 2 / (2 * s)


def naive_replay(X0, y0, hyper, budget, stream, kind, var_thr, err_thr, use_acc):
    """Reference loop: insertion gate, append under budget, acceptance gate,
    replace the argmin partition.  Dense linear algebra throughout."""
    X, y = X0.copy(), y0.copy()
    for x_new, y_new in stream:
        if var_thr is not None or err_thr is not None:
            mu, var = naive_predict(X, y, hyper, x_new[None, :])
            passed = False
            if var_thr is not None and float(var[0]) > var_thr:
                passed = True
            if err_thr is not None and abs(y_new - float(mu[0])) >= err_thr:
                passed = True
            if not passed:
                continue
        if len(y) < budget:
            X = np.vstack([X, x_new])
            y = np.append(y, y_new)
            continue
        if use_acc:
            row_scores = [
                naive_acceptance(kind, X, y, hyper, (X[i], y[i])) for i in range(len(y))
            ]
            cand_score = naive_acceptance(kind, X, y, hyper, (x_new, y_new))
            if not cand_score > min(row_scores):
                continue
        r = int(np.argmin(naive_scores(kind, X, y, hyper, (x_new, y_new))))
        X[r], y[r] = x_new, y_new
    return X, y


# --- tests -------------------------------------------------------------------


class TestInsertDecision:
    def test_duplicate_point_rejected(self, rng):
        d, _ = random_instance(rng, 6, 2)
        h = Hyperparameters(1.0, [1.0, 1.0], 1e-9)
        model = OnlineGp(dataset=d, hyper=h, budget=10, var_threshold=0.01, err_threshold=0.01)
        point = (d.inputs[2], float(d.targets[2]))
        assert insert_decision(model, point) is False

    def test_far_point_passes_variance_gate(self, rng):
        model = make_model(rng, var_threshold=0.4)
        assert model.hyper.signal_variance > 0.4
        assert insert_decision(model, (np.full(2, 60.0), 0.0)) is True

    def test_boundary_semantics(self, rng):
        # Variance exactly at the threshold does not pass (strict >); error
        # exactly at the threshold does (>=).
        d, h = random_instance(rng, 6, 2)
        model = OnlineGp(dataset=d, hyper=h, budget=10)
        x = rng.uniform(-2, 2, size=2)
        mu, var = predict(model.cache, d, h, x[None, :])
        model.var_threshold = float(var[0])
        model.err_threshold = None
        assert insert_decision(model, (x, float(mu[0]))) is False
        y_probe = float(mu[0]) + 0.25
        err_exact = abs(y_probe - float(mu[0]))
        model.var_threshold = None
        model.err_threshold = err_exact
        assert insert_decision(model, (x, y_probe)) is True
        assert insert_decision(model, (x, float(mu[0]) + 0.9 * err_exact)) is False

    def test_pass_through_when_disabled(self, rng):
        model = make_model(rng)
        assert insert_decision(model, (np.zeros(2), 0.0)) is True


class TestAcceptDecision:
    def test_row_attaining_minimum_is_rejected(self, rng):
        model = make_model(rng, use_acceptance=True)
        i = int(np.argmin(model.acc_scores))
        point = (model.dataset.inputs[i], float(model.dataset.targets[i]))
        assert accept_decision(model, point) is False

    def test_largest_error_point_accepted(self, rng):
        d, h = random_instance(rng, 6, 2)
        model = OnlineGp(
            dataset=d, hyper=h, budget=6,
            criterion=CriterionKind.MEAN_RELEVANCE, use_acceptance=True,
        )
        x = rng.uniform(-2, 2, size=2)
        mu, _ = predict(model.cache, d, h, x[None, :])
        assert accept_decision(model, (x, float(mu[0]) + 100.0)) is True

    def test_matches_naive_recompute(self, rng):
        for kind in (
            CriterionKind.PRIOR_ENTROPY,
            CriterionKind.MEAN_RELEVANCE,
            CriterionKind.MARGINAL_LOG_LIKELIHOOD,
        ):
            d, h = random_instance(rng, 10, 2)
            model = OnlineGp(dataset=d, hyper=h, budget=10, criterion=kind, use_acceptance=True)
            for _ in range(5):
                point = (rng.uniform(-2, 2, size=2), float(rng.normal()))
                want = naive_acceptance(kind, d.inputs, d.targets, h, point) > min(
                    naive_acceptance(kind, d.inputs, d.targets, h, (d.inputs[i], d.targets[i]))
                    for i in range(d.n)
                )
                assert accept_decision(model, point) == want

    def test_pass_through_when_disabled(self, rng):
        model = make_model(rng, use_acceptance=False)
        assert accept_decision(model, (np.zeros(2), -50.0)) is True


def count_fresh_scores(monkeypatch):
    from budgetgp import online as online_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return acceptance_score(*args, **kwargs)

    monkeypatch.setattr(online_mod, "acceptance_score", counted)
    return calls


class TestEqualRowRule:
    """A candidate equal to a stored row in x and y takes the row's cached
    score; any other candidate is scored afresh."""

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_stored_row_takes_cached_score(self, kind, rng, monkeypatch):
        model = make_model(rng, criterion=kind, use_acceptance=True)
        calls = count_fresh_scores(monkeypatch)
        for i in range(model.dataset.n):
            point = (model.dataset.inputs[i], float(model.dataset.targets[i]))
            assert accept_decision(model, point) is bool(model.acc_scores[i] > model.j_min)
        assert calls == []

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_same_input_other_target_is_scored_fresh(self, kind, rng, monkeypatch):
        model = make_model(rng, criterion=kind, use_acceptance=True)
        calls = count_fresh_scores(monkeypatch)
        for i in range(model.dataset.n):
            point = (model.dataset.inputs[i], float(model.dataset.targets[i]) + 0.5)
            want = acceptance_score(kind, model.cache, model.dataset, model.hyper, point)
            assert accept_decision(model, point) is (want > model.j_min)
        assert len(calls) == model.dataset.n

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_duplicated_row_copies_decide_alike(self, kind, rng):
        d, h = random_instance(rng, 7, 2)
        X = np.vstack([d.inputs, d.inputs[2]])
        y = np.append(d.targets, d.targets[2])
        model = OnlineGp(dataset=Dataset(X, y), hyper=h, budget=8, criterion=kind,
                         use_acceptance=True)
        want = bool(min(model.acc_scores[2], model.acc_scores[7]) > model.j_min)
        for i in (2, 7):
            assert accept_decision(model, (X[i], float(y[i]))) is want
        if acceptance_kind_for(kind) is AcceptanceKind.VARIANCE:
            # Two observations of one input leave it the least uncertain row.
            assert want is False


class TestSelectRemoval:
    def test_duplicate_pair_mean_relevance_prefers_smaller_index(self):
        X = np.array([[0.4, 0.4], [0.4, 0.4], [-1.2, 0.3], [0.8, -1.1]])
        y = np.array([0.9, 0.9, -0.2, 0.5])
        d = Dataset(X, y)
        h = Hyperparameters(1.0, [1.0, 1.0], 1e-8)
        model = OnlineGp(dataset=d, hyper=h, budget=4, criterion=CriterionKind.MEAN_RELEVANCE)
        r = select_removal(model, (np.array([30.0, 30.0]), 0.0))
        assert r == 0

    @pytest.mark.parametrize(
        "kind", [k for k in CriterionKind if k is not CriterionKind.MEAN_RELEVANCE]
    )
    def test_duplicate_pair_prefers_smaller_index(self, kind):
        # The other criteria on the data of the mean-relevance test above.
        # Swapping either copy of the duplicate leaves the same set, so the
        # two scores tie in exact arithmetic and up to roundoff here.
        X = np.array([[0.4, 0.4], [0.4, 0.4], [-1.2, 0.3], [0.8, -1.1]])
        y = np.array([0.9, 0.9, -0.2, 0.5])
        h = Hyperparameters(1.0, [1.0, 1.0], 1e-8)
        model = OnlineGp(dataset=Dataset(X, y), hyper=h, budget=4, criterion=kind)
        assert select_removal(model, (np.array([30.0, 30.0]), 0.0)) == 0

    @pytest.mark.parametrize(
        "kind",
        [CriterionKind.PRIOR_ENTROPY, CriterionKind.MEAN_RELEVANCE,
         CriterionKind.MARGINAL_LOG_LIKELIHOOD],
    )
    def test_matches_bruteforce(self, kind, rng):
        d, h = random_instance(rng, 10, 2)
        model = OnlineGp(dataset=d, hyper=h, budget=10, criterion=kind)
        point = (rng.uniform(-2, 2, size=2), float(rng.normal()))
        want = int(np.argmin(naive_scores(kind, d.inputs, d.targets, h, point)))
        assert select_removal(model, point) == want

    def test_entropy_pair_selects_same_row(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 12))
            d, h = random_instance(rng, n, 2)
            point = (rng.uniform(-2, 2, size=2), float(rng.normal()))
            m1 = OnlineGp(dataset=d, hyper=h, budget=n, criterion=CriterionKind.PRIOR_ENTROPY)
            m2 = OnlineGp(dataset=d, hyper=h, budget=n, criterion=CriterionKind.PREDICTIVE_ENTROPY)
            assert select_removal(m1, point) == select_removal(m2, point)


class TestStep:
    def test_append_under_budget(self, rng):
        model = make_model(rng, n=5, budget=8)
        before = model.dataset.n
        model, outcome = step(model, (rng.uniform(-2, 2, size=2), 0.3))
        assert outcome.decision is Decision.APPENDED
        assert model.dataset.n == before + 1

    def test_rejected_insertion_leaves_model_unchanged(self, rng):
        d, _ = random_instance(rng, 6, 2)
        h = Hyperparameters(1.0, [1.0, 1.0], 1e-9)
        model = OnlineGp(dataset=d, hyper=h, budget=6, var_threshold=0.5, err_threshold=10.0)
        ds, cache = model.dataset, model.cache
        model, outcome = step(model, (d.inputs[0], float(d.targets[0])))
        assert outcome.decision is Decision.REJECTED_INSERTION
        assert model.dataset is ds and model.cache is cache

    def test_replacement_at_budget(self, rng):
        model = make_model(rng, n=6, budget=6)
        model, outcome = step(model, (rng.uniform(-2, 2, size=2), 0.1))
        assert outcome.decision is Decision.REPLACED
        assert model.dataset.n == 6
        assert outcome.replaced_index is not None
        assert len(outcome.scores) == 6

    def test_replacement_changes_exactly_one_row(self, rng):
        model = make_model(rng, n=6, budget=6)
        old = model.dataset
        x_new = rng.uniform(-2, 2, size=2)
        model, outcome = step(model, (x_new, 9.9))
        r = outcome.replaced_index
        changed = [
            i for i in range(6)
            if not (np.array_equal(model.dataset.inputs[i], old.inputs[i])
                    and model.dataset.targets[i] == old.targets[i])
        ]
        assert changed == [r]
        npt.assert_array_equal(model.dataset.inputs[r], x_new)

    def test_numerical_failure_skips_and_continues(self, rng, monkeypatch):
        from budgetgp import online as online_mod
        from budgetgp.gp import FactorizationError

        model = make_model(rng, n=4, budget=8)
        ds = model.dataset

        def boom(*args, **kwargs):
            raise FactorizationError(0)

        monkeypatch.setattr(online_mod, "fit_cache", boom)
        model, outcome = step(model, (np.zeros(2), 0.0))
        assert outcome.decision is Decision.FAILED
        assert "pivot" in outcome.error
        assert model.dataset is ds

    def test_non_finite_sweep_score_fails_step(self, rng, monkeypatch):
        from budgetgp import online as online_mod

        model = make_model(rng, budget=8, use_acceptance=True)
        dataset, cache, acc = model.dataset, model.cache, model.acc_scores
        nan_scores = np.zeros(model.dataset.n)
        nan_scores[3] = np.nan
        monkeypatch.setattr(online_mod, "reduction_scores", lambda *a, **k: nan_scores)
        x = rng.uniform(-2, 2, size=2)
        mu, _ = predict(model.cache, dataset, model.hyper, x[None, :])
        model, outcome = step(model, (x, float(mu[0]) + 100.0))
        assert outcome.decision is Decision.FAILED
        assert "non-finite" in outcome.error
        assert model.dataset is dataset and model.cache is cache
        assert model.acc_scores is acc

    def test_malformed_point_in_stream_is_skipped(self, rng):
        model = make_model(rng, n=4, budget=5)
        stream = [(np.zeros(2), float("nan")), (np.zeros(3), 0.0), (np.ones(2), 0.5)]
        model, outcomes, summary = run_stream(model, stream)
        assert [o.decision for o in outcomes] == [
            Decision.FAILED, Decision.FAILED, Decision.APPENDED
        ]
        assert summary.revised == 1 and model.dataset.n == 5

    def test_cache_coherent_after_steps(self, rng):
        model = make_model(rng, n=6, budget=7)
        for point in random_stream(rng, 2, 5):
            model, _ = step(model, point)
            fresh = fit_cache(model.dataset, model.hyper)
            Xs = rng.uniform(-2, 2, size=(3, 2))
            m1, v1 = predict(model.cache, model.dataset, model.hyper, Xs)
            m2, v2 = predict(fresh, model.dataset, model.hyper, Xs)
            npt.assert_allclose(m1, m2, rtol=1e-8)
            npt.assert_allclose(v1, v2, rtol=1e-8, atol=1e-12)


BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def malformed_points(draw, p=2):
    """A point with a non-finite target, a non-finite input entry, or an
    input of the wrong dimension (possibly several at once)."""
    flaw = draw(st.sampled_from(["y", "x", "dim"]))
    finite = st.floats(-3.0, 3.0)
    dim = draw(st.sampled_from([1, 3, 4])) if flaw == "dim" else p
    x = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    y = draw(BAD_VALUES) if flaw == "y" else draw(finite)
    if flaw == "x":
        x[draw(st.integers(0, dim - 1))] = draw(BAD_VALUES)
    return x, y


class TestMalformedPoints:
    @given(point=malformed_points(), at_budget=st.booleans(),
           use_acceptance=st.booleans(), gate=st.booleans(),
           kind=st.sampled_from(list(CriterionKind)))
    def test_failed_and_model_unchanged(self, point, at_budget, use_acceptance,
                                        gate, kind):
        d, h = random_instance(np.random.default_rng(7), 6, 2)
        model = OnlineGp(
            dataset=d, hyper=h, budget=6 if at_budget else 8, criterion=kind,
            use_acceptance=use_acceptance, err_threshold=0.1 if gate else None,
        )
        dataset, cache, acc = model.dataset, model.cache, model.acc_scores
        for decide in (insert_decision, accept_decision):
            with pytest.raises(ValueError):
                decide(model, point)
        model, outcome = step(model, point)
        assert outcome.decision is Decision.FAILED
        assert outcome.error
        assert model.dataset is dataset and model.cache is cache
        assert model.acc_scores is acc

    def test_unconvertible_target(self, rng):
        model = make_model(rng)
        for decide in (insert_decision, accept_decision):
            with pytest.raises(ValueError, match="malformed"):
                decide(model, (np.zeros(2), "abc"))
        model, outcome = step(model, (np.zeros(2), "abc"))
        assert outcome.decision is Decision.FAILED and "malformed" in outcome.error


class TestRunStream:
    def test_empty_stream(self, rng):
        model = make_model(rng)
        ds = model.dataset
        model, outcomes, summary = run_stream(model, [])
        assert outcomes == [] and summary.revised == 0
        assert model.dataset is ds

    def test_all_rejected_keeps_smse(self, rng):
        d, h = random_instance(rng, 6, 2)
        eval_set, _ = random_instance(rng, 20, 2)
        model = OnlineGp(dataset=d, hyper=h, budget=6, var_threshold=1e6, err_threshold=1e6)
        from budgetgp.dataio import smse

        mu0, _ = predict(model.cache, d, h, eval_set.inputs)
        initial = smse(mu0, eval_set.targets)
        model, outcomes, summary = run_stream(model, random_stream(rng, 2, 10), eval_set)
        assert summary.revised == 0
        assert summary.final_smse == pytest.approx(initial)

    def test_everything_revised_when_gates_disabled(self, rng):
        model = make_model(rng, n=4, budget=6)
        stream = random_stream(rng, 2, 10)
        model, outcomes, summary = run_stream(model, stream)
        assert summary.revised == len(stream)
        assert model.dataset.n == 6

    def test_budget_never_exceeded_and_monotone_fill(self, rng):
        model = make_model(rng, n=2, budget=5)
        sizes = []
        for point in random_stream(rng, 2, 12):
            model, _ = step(model, point)
            sizes.append(model.dataset.n)
        assert max(sizes) <= 5
        assert sizes == sorted(sizes)

    def test_determinism(self, rng):
        stream = random_stream(rng, 2, 15)
        d, h = random_instance(rng, 5, 2)

        def run():
            model = OnlineGp(
                dataset=d, hyper=h, budget=5,
                criterion=CriterionKind.MARGINAL_LOG_LIKELIHOOD,
                use_acceptance=True, err_threshold=0.05,
            )
            model, outcomes, _ = run_stream(model, stream)
            return [o.decision for o in outcomes], model.dataset.inputs

        dec1, X1 = run()
        dec2, X2 = run()
        assert dec1 == dec2
        npt.assert_array_equal(X1, X2)


class TestReplayAgainstNaive:
    @pytest.mark.parametrize("use_acc", [False, True])
    @pytest.mark.parametrize(
        "kind",
        [CriterionKind.PRIOR_ENTROPY, CriterionKind.MEAN_RELEVANCE,
         CriterionKind.MARGINAL_LOG_LIKELIHOOD],
    )
    def test_fifty_step_replay(self, kind, use_acc, rng):
        d, h = random_instance(rng, 6, 2)
        stream = random_stream(rng, 2, 50)
        model = OnlineGp(
            dataset=d, hyper=h, budget=8, criterion=kind,
            use_acceptance=use_acc, err_threshold=0.2,
        )
        model, _, _ = run_stream(model, stream)
        X_ref, y_ref = naive_replay(
            d.inputs, d.targets, h, 8, stream, kind,
            var_thr=None, err_thr=0.2, use_acc=use_acc,
        )
        npt.assert_array_equal(model.dataset.inputs, X_ref)
        npt.assert_array_equal(model.dataset.targets, y_ref)


class TestSnapshot:
    def test_round_trip(self, rng, tmp_path):
        model = make_model(
            rng, n=5, budget=9, use_acceptance=True,
            criterion=CriterionKind.LOG_PREDICTIVE_DENSITY,
        )
        model.var_threshold = 0.25
        path = tmp_path / "model.json"
        save_snapshot(model, path)
        back = load_snapshot(path)
        npt.assert_array_equal(back.dataset.inputs, model.dataset.inputs)
        npt.assert_array_equal(back.dataset.targets, model.dataset.targets)
        assert back.budget == model.budget
        assert back.criterion is model.criterion
        assert back.var_threshold == model.var_threshold
        assert back.use_acceptance == model.use_acceptance
        npt.assert_allclose(back.hyper.lengthscales, model.hyper.lengthscales)
        npt.assert_allclose(back.j_min, model.j_min)

    def test_failed_write_keeps_previous_snapshot(self, rng, tmp_path, monkeypatch):
        model = make_model(rng, n=5, budget=9)
        path = tmp_path / "model.json"
        save_snapshot(model, path)
        before = path.read_bytes()

        def partial_dump(obj, fh, **kwargs):
            fh.write('{"format_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", partial_dump)
        model.budget = 11
        with pytest.raises(OSError, match="disk full"):
            save_snapshot(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="format version"):
            load_snapshot(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda r: r.pop("budget"), "budget"),
        (lambda r: r.pop("hyper"), "hyper"),
        (lambda r: r.update(budget="10"), "budget"),
        (lambda r: r.update(inputs=[[0.0, 1.0], [2.0]]), "inputs"),
        (lambda r: r["hyper"].pop("lengthscales"), "hyper"),
        (lambda r: r.update(use_acceptance="false"), "use_acceptance"),
    ], ids=["missing-budget", "missing-hyper", "text-budget", "ragged-inputs",
            "hyper-without-lengthscales", "text-use-acceptance"])
    def test_malformed_field_named(self, rng, tmp_path, edit, field):
        path = tmp_path / "model.json"
        save_snapshot(make_model(rng, n=2, budget=4), path)
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=field):
            load_snapshot(path)

    def test_truncated_file_named(self, rng, tmp_path):
        path = tmp_path / "model.json"
        save_snapshot(make_model(rng, n=2, budget=4), path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(ValueError, match="model.json"):
            load_snapshot(path)


class TestInvariants:
    def test_oversized_initial_dataset_rejected(self, rng):
        d, h = random_instance(rng, 6, 2)
        with pytest.raises(ValueError):
            OnlineGp(dataset=d, hyper=h, budget=5)

    @pytest.mark.parametrize("budget", [5.0, 2.5, True, "10"])
    def test_non_integer_budget_rejected(self, rng, budget):
        d, h = random_instance(rng, 1, 2)
        with pytest.raises(ValueError, match="budget must be an integer"):
            OnlineGp(dataset=d, hyper=h, budget=budget)

    @pytest.mark.parametrize("use_acceptance", ["no", "false", 1, None])
    def test_non_bool_use_acceptance_rejected(self, rng, use_acceptance):
        d, h = random_instance(rng, 4, 2)
        with pytest.raises(ValueError, match="use_acceptance"):
            OnlineGp(dataset=d, hyper=h, budget=5, use_acceptance=use_acceptance)

    @pytest.mark.parametrize("use_acceptance", [False, True])
    def test_criterion_given_by_name(self, rng, use_acceptance):
        model = make_model(rng, criterion="mll", use_acceptance=use_acceptance)
        assert model.criterion is CriterionKind.MARGINAL_LOG_LIKELIHOOD
        for point in random_stream(rng, 2, 5):
            model, outcome = step(model, point)
            assert outcome.decision is not Decision.FAILED, outcome.error

    def test_unknown_criterion_rejected(self, rng):
        d, h = random_instance(rng, 4, 2)
        with pytest.raises(ValueError, match="unknown criterion 'entropy'"):
            OnlineGp(dataset=d, hyper=h, budget=5, criterion="entropy")

    @pytest.mark.parametrize("field", ["var_threshold", "err_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_threshold_rejected(self, rng, field, value):
        d, h = random_instance(rng, 4, 2)
        with pytest.raises(ValueError, match=field):
            OnlineGp(dataset=d, hyper=h, budget=5, **{field: value})

    def test_j_min_tracks_score_cache(self, rng):
        model = make_model(rng, n=6, budget=6, use_acceptance=True)
        for point in random_stream(rng, 2, 6):
            model, _ = step(model, point)
            if model.acc_scores is not None:
                assert model.j_min == pytest.approx(float(np.min(model.acc_scores)))
