import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import norm

from budgetgp.criteria import (
    AcceptanceKind,
    CriterionKind,
    PartitionView,
    acceptance_kind_for,
    acceptance_score,
    acceptance_scores,
    loo_predict,
    reduction_score,
)
from budgetgp.gp import Dataset, Hyperparameters, fit_cache, gaussian_entropy, predict
from conftest import (
    LOG_2PI,
    naive_acceptance_score,
    naive_lml,
    naive_noisy_kernel,
    naive_reduction_score,
    random_candidate,
    random_instance,
)

ALL_KINDS = list(CriterionKind)


class TestPartitionView:
    def test_replacement_keeps_size_and_order(self, rng):
        d, _ = random_instance(rng, 6, 2)
        x, y = random_candidate(rng, 2)
        part = PartitionView(d, 3, (x, y))
        reduced = part.materialize()
        assert reduced.n == d.n
        npt.assert_array_equal(reduced.inputs[3], x)
        assert reduced.targets[3] == y
        keep = np.arange(6) != 3
        npt.assert_array_equal(reduced.inputs[keep], d.inputs[keep])

    def test_deletion_mode_shrinks(self, rng):
        d, _ = random_instance(rng, 6, 2)
        reduced = PartitionView(d, 0, None).materialize()
        assert reduced.n == d.n - 1
        npt.assert_array_equal(reduced.inputs, d.inputs[1:])

    def test_bad_index_rejected(self, rng):
        d, _ = random_instance(rng, 4, 2)
        with pytest.raises(ValueError):
            PartitionView(d, 4, None)

    def test_candidate_dimension_checked(self, rng):
        d, _ = random_instance(rng, 4, 2)
        with pytest.raises(ValueError):
            PartitionView(d, 0, (np.zeros(3), 0.0))


class TestLooPredict:
    def test_interpolation_when_duplicate_remains(self):
        X = np.array([[0.0], [0.0], [2.0]])
        y = np.array([1.3, 1.3, -0.4])
        d = Dataset(X, y)
        h = Hyperparameters(1.0, [1.0], 1e-9)
        mu, var = loo_predict(PartitionView(d, 0, None), h)
        assert mu == pytest.approx(1.3, abs=1e-5)
        assert var == pytest.approx(0.0, abs=1e-5)

    def test_prior_recovery_when_isolated(self):
        X = np.array([[0.0], [100.0], [101.0]])
        d = Dataset(X, np.array([0.5, 1.0, -1.0]))
        h = Hyperparameters(2.0, [1.0], 0.1)
        mu, var = loo_predict(PartitionView(d, 0, None), h)
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(2.0, rel=1e-10)

    def test_matches_explicit_rebuild(self, rng):
        d, h = random_instance(rng, 12, 2)
        cand = random_candidate(rng, 2)
        part = PartitionView(d, 5, cand)
        reduced = part.materialize()
        cache = fit_cache(reduced, h)
        mu_ref, var_ref = predict(cache, reduced, h, d.inputs[5][None, :])
        mu, var = loo_predict(part, h)
        assert mu == pytest.approx(float(mu_ref[0]), rel=1e-12)
        assert var == pytest.approx(float(var_ref[0]), rel=1e-12)


class TestReductionScore:
    def test_predictive_entropy_unit_variance(self, monkeypatch):
        d = Dataset(np.zeros((2, 1)), np.zeros(2))
        h = Hyperparameters(1.0, [1.0], 0.1)
        monkeypatch.setattr("budgetgp.criteria.loo_predict", lambda *a: (0.0, 1.0))
        score = reduction_score(CriterionKind.PREDICTIVE_ENTROPY, PartitionView(d, 0, None), h)
        assert score == pytest.approx(0.5 * (1 + LOG_2PI))

    @pytest.mark.parametrize(
        "kind", [CriterionKind.PREDICTIVE_ENTROPY, CriterionKind.LOG_PREDICTIVE_DENSITY]
    )
    def test_collapsed_variance_raises(self, kind, monkeypatch):
        from budgetgp.gp import NumericalError

        d = Dataset(np.zeros((2, 1)), np.zeros(2))
        h = Hyperparameters(1.0, [1.0], 0.1)
        monkeypatch.setattr(
            "budgetgp.criteria.loo_predict",
            lambda *a: (0.0, -h.noise_variance if kind is CriterionKind.LOG_PREDICTIVE_DENSITY else 0.0),
        )
        with pytest.raises(NumericalError):
            reduction_score(kind, PartitionView(d, 0, None), h)

    def test_mean_relevance_of_redundant_duplicate(self, rng):
        # Row 0 duplicates row 1; swapping row 0 for a far-away candidate
        # barely moves the mean at its location.
        X = np.array([[0.5, 0.5], [0.5, 0.5], [-1.0, 0.2], [0.1, -0.8]])
        y = np.array([1.0, 1.0, -0.3, 0.6])
        d = Dataset(X, y)
        h = Hyperparameters(1.0, [1.0, 1.0], 1e-6)
        candidate = (np.array([50.0, 50.0]), 0.0)
        score = reduction_score(CriterionKind.MEAN_RELEVANCE, PartitionView(d, 0, candidate), h)
        assert score == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_rebuild_oracle_with_candidate(self, kind, rng):
        d, h = random_instance(rng, 10, 2)
        cand = random_candidate(rng, 2)
        for i in range(d.n):
            got = reduction_score(kind, PartitionView(d, i, cand), h)
            want = naive_reduction_score(kind, d, i, cand, h)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_rebuild_oracle_deletion(self, kind, rng):
        d, h = random_instance(rng, 9, 2)
        for i in range(d.n):
            got = reduction_score(kind, PartitionView(d, i, None), h)
            want = naive_reduction_score(kind, d, i, None, h)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_mean_relevance_target_reference(self, rng):
        d, h = random_instance(rng, 8, 2)
        part = PartitionView(d, 2, None)
        mu_loo, _ = loo_predict(part, h)
        score = reduction_score(CriterionKind.MEAN_RELEVANCE, part, h, mean_reference="target")
        assert score == pytest.approx((d.targets[2] - mu_loo) ** 2, rel=1e-12)

    def test_base_cache_reuse_matches_fresh(self, rng):
        d, h = random_instance(rng, 8, 2)
        cand = random_candidate(rng, 2)
        cache = fit_cache(d, h)
        for i in range(d.n):
            part = PartitionView(d, i, cand)
            a = reduction_score(CriterionKind.MEAN_RELEVANCE, part, h)
            b = reduction_score(CriterionKind.MEAN_RELEVANCE, part, h, base_cache=cache)
            assert a == pytest.approx(b, rel=1e-12)


class TestAcceptanceScore:
    def test_variance_kind_far_from_data(self, rng):
        d, h = random_instance(rng, 6, 2)
        cache = fit_cache(d, h)
        point = (np.full(2, 80.0), 0.0)
        score = acceptance_score(CriterionKind.PRIOR_ENTROPY, cache, d, h, point)
        assert score == pytest.approx(h.signal_variance, rel=1e-10)

    def test_error_kind_zero_at_exact_mean(self, rng):
        d, h = random_instance(rng, 6, 2)
        cache = fit_cache(d, h)
        x = rng.uniform(-2, 2, size=2)
        mu, _ = predict(cache, d, h, x[None, :])
        score = acceptance_score(CriterionKind.MEAN_RELEVANCE, cache, d, h, (x, float(mu[0])))
        assert score == 0.0

    def test_lpd_kind_is_negative_gaussian_logpdf(self, rng):
        d, h = random_instance(rng, 6, 2)
        cache = fit_cache(d, h)
        x, y = random_candidate(rng, 2)
        mu, var = predict(cache, d, h, x[None, :])
        expected = -norm.logpdf(
            y, loc=float(mu[0]), scale=math.sqrt(float(var[0]) + h.noise_variance)
        )
        score = acceptance_score(CriterionKind.MARGINAL_LOG_LIKELIHOOD, cache, d, h, (x, y))
        assert score == pytest.approx(expected, abs=1e-10)

    def test_lpd_kind_on_stored_row_is_its_own_log_density(self, rng):
        # A stored row's acceptance score is the negative log density of its
        # target under the full model's own prediction at its input.
        d, h = random_instance(rng, 8, 2)
        cache = fit_cache(d, h)
        for i in range(d.n):
            mu, var = predict(cache, d, h, d.inputs[i][None, :])
            expected = -norm.logpdf(
                d.targets[i], loc=float(mu[0]),
                scale=math.sqrt(float(var[0]) + h.noise_variance),
            )
            score = acceptance_score(
                CriterionKind.LOG_PREDICTIVE_DENSITY, cache, d, h,
                (d.inputs[i], float(d.targets[i])),
            )
            assert score == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_naive_oracle(self, kind, rng):
        d, h = random_instance(rng, 9, 2)
        cache = fit_cache(d, h)
        for point in [random_candidate(rng, 2), (d.inputs[3], float(d.targets[3]))]:
            got = acceptance_score(kind, cache, d, h, point)
            want = naive_acceptance_score(kind, d, h, point)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vectorized_rows_match_single_point(self, kind, rng):
        d, h = random_instance(rng, 7, 2)
        cache = fit_cache(d, h)
        vec = acceptance_scores(kind, cache, d, h)
        for i in range(d.n):
            single = acceptance_score(kind, cache, d, h, (d.inputs[i], float(d.targets[i])))
            assert vec[i] == pytest.approx(single, rel=1e-10, abs=1e-12)

    def test_pairing_is_total(self):
        for kind in ALL_KINDS:
            assert acceptance_kind_for(kind) in AcceptanceKind


def scores_over_partitions(kind, d, hyper, candidate):
    cache = fit_cache(d, hyper)
    return np.array(
        [
            reduction_score(kind, PartitionView(d, i, candidate), hyper, base_cache=cache)
            for i in range(d.n)
        ]
    )


class TestDualities:
    def test_entropy_duality_argmin_and_value(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 16))
            d, h = random_instance(rng, n, 2)
            cand = random_candidate(rng, 2)
            pred = scores_over_partitions(CriterionKind.PREDICTIVE_ENTROPY, d, h, cand)
            prior = scores_over_partitions(CriterionKind.PRIOR_ENTROPY, d, h, cand)
            assert int(np.argmin(pred)) == int(np.argmin(prior))
            # log(var_i + noise) + log|K_i + noise*I| stays constant over i.
            joint = np.empty(n)
            for i in range(n):
                part = PartitionView(d, i, cand)
                _, var = loo_predict(part, h)
                reduced = part.materialize()
                _, logdet = np.linalg.slogdet(naive_noisy_kernel(reduced.inputs, h))
                joint[i] = math.log(var + h.noise_variance) + logdet
            npt.assert_allclose(joint, joint[0], rtol=1e-8)

    def test_likelihood_duality_joint_decomposition(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 16))
            d, h = random_instance(rng, n, 2)
            cand = random_candidate(rng, 2)
            mll = scores_over_partitions(CriterionKind.MARGINAL_LOG_LIKELIHOOD, d, h, cand)
            lpd = scores_over_partitions(CriterionKind.LOG_PREDICTIVE_DENSITY, d, h, cand)
            assert int(np.argmin(mll)) == int(np.argmin(lpd))
            # Evidence of the partition plus log density of the removed
            # target equals the joint evidence of all n+1 points.
            joint = Dataset(
                np.vstack([d.inputs, cand[0]]), np.append(d.targets, cand[1])
            )
            expected = naive_lml(joint.inputs, joint.targets, h)
            npt.assert_allclose(mll + (-lpd), expected, atol=1e-8)

    def test_mean_relevance_nonnegative(self, rng):
        d, h = random_instance(rng, 10, 2)
        cand = random_candidate(rng, 2)
        scores = scores_over_partitions(CriterionKind.MEAN_RELEVANCE, d, h, cand)
        assert np.all(scores >= 0.0)
