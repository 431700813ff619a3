import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetgp.gp import (
    Dataset,
    FactorizationError,
    Hyperparameters,
    NumericalError,
    OptimizationError,
    StaleCacheError,
    fit_cache,
    gaussian_entropy,
    kernel_matrix,
    log_marginal_likelihood,
    lml_gradient,
    optimize_hyperparameters,
    predict,
)
from conftest import (
    LOG_2PI,
    naive_kernel,
    naive_lml,
    naive_noisy_kernel,
    naive_predict,
    random_hyper,
    random_instance,
)


class TestTypes:
    def test_hyperparameters_reject_nonpositive(self):
        with pytest.raises(ValueError):
            Hyperparameters(0.0, [1.0], 0.1)
        with pytest.raises(ValueError):
            Hyperparameters(1.0, [1.0, -1.0], 0.1)
        with pytest.raises(ValueError):
            Hyperparameters(1.0, [1.0], float("nan"))

    def test_log_vector_round_trip(self):
        h = Hyperparameters(2.0, [0.5, 1.5], 0.01)
        back = Hyperparameters.from_log_vector(h.to_log_vector())
        npt.assert_allclose(back.lengthscales, h.lengthscales)
        assert back.signal_variance == pytest.approx(h.signal_variance)
        assert back.noise_variance == pytest.approx(h.noise_variance)

    def test_dataset_shape_and_finiteness_checks(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))

    def test_dataset_versions_are_unique(self):
        a = Dataset(np.zeros((1, 1)), np.zeros(1))
        b = a.with_appended([1.0], 2.0)
        assert a.version != b.version
        assert b.n == 2

    def test_dataset_arrays_are_immutable(self):
        d = Dataset(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            d.inputs[0, 0] = 1.0


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        h = Hyperparameters(2.0, [0.7, 1.3], 0.1)
        A = np.array([[0.0, 0.0]])
        npt.assert_allclose(kernel_matrix(A, A, h), [[2.0]])

    def test_unit_mahalanobis_distance(self):
        for l1 in (0.3, 1.0, 2.5):
            h = Hyperparameters(1.0, [l1], 0.1)
            K = kernel_matrix(np.array([[0.0]]), np.array([[l1]]), h)
            npt.assert_allclose(K, [[math.exp(-0.5)]], rtol=1e-12)

    def test_matches_elementwise_oracle(self, rng):
        h = random_hyper(rng, 2)
        A = rng.normal(size=(5, 2))
        B = rng.normal(size=(3, 2))
        npt.assert_allclose(kernel_matrix(A, B, h), naive_kernel(A, B, h), rtol=1e-12)

    def test_symmetric_on_same_array(self, rng):
        h = random_hyper(rng, 3)
        A = rng.normal(size=(6, 3))
        K = kernel_matrix(A, A, h)
        npt.assert_array_equal(K, K.T)
        npt.assert_array_equal(np.diag(K), np.full(6, h.signal_variance))

    def test_dimension_mismatch_raises(self):
        h = Hyperparameters(1.0, [1.0, 1.0], 0.1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_matrix(np.zeros((2, 3)), np.zeros((2, 3)), h)


class TestFitCache:
    def test_scalar_case(self):
        d = Dataset(np.array([[0.0]]), np.array([3.0]))
        h = Hyperparameters(1.0, [1.0], 1.0)
        cache = fit_cache(d, h)
        npt.assert_allclose(cache.chol, [[math.sqrt(2.0)]], rtol=1e-9)
        npt.assert_allclose(cache.alpha, [1.5], rtol=1e-9)

    def test_alpha_matches_dense_solve(self, rng):
        d, h = random_instance(rng, 20, 2)
        cache = fit_cache(d, h)
        expected = np.linalg.solve(naive_noisy_kernel(d.inputs, h), d.targets)
        npt.assert_allclose(cache.alpha, expected, rtol=1e-8)

    def test_reconstruction_invariant(self, rng):
        for _ in range(5):
            d, h = random_instance(rng, 15, 2)
            cache = fit_cache(d, h)
            Kn = naive_noisy_kernel(d.inputs, h)
            err = np.linalg.norm(cache.chol @ cache.chol.T - Kn) / np.linalg.norm(Kn)
            assert err < 1e-10

    def test_degenerate_duplicates_never_silently_wrong(self):
        X = np.array([[0.3, 0.3], [0.3, 0.3], [1.0, -1.0]])
        d = Dataset(X, np.array([1.0, 1.0, -0.5]))
        h = Hyperparameters(1.0, [1.0, 1.0], 1e-12)
        try:
            cache = fit_cache(d, h)
        except FactorizationError as exc:
            assert 0 <= exc.pivot_index < 3
        else:
            Kn = naive_noisy_kernel(d.inputs, h)
            err = np.linalg.norm(cache.chol @ cache.chol.T - Kn) / np.linalg.norm(Kn)
            assert err < 1e-9  # jitter level is recorded on the cache
            assert cache.jitter <= 1e-6 * h.signal_variance * (1 + 1e-12)

    def test_empty_dataset_rejected(self):
        d = Dataset(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_cache(d, Hyperparameters(1.0, [1.0], 0.1))


class TestPredict:
    def test_prior_recovery_far_from_data(self):
        d = Dataset(np.array([[0.0], [0.5]]), np.array([1.0, -1.0]))
        h = Hyperparameters(2.0, [0.2], 0.1)
        cache = fit_cache(d, h)
        mean, var = predict(cache, d, h, np.array([[50.0]]))
        npt.assert_allclose(mean, [0.0], atol=1e-12)
        npt.assert_allclose(var, [2.0], rtol=1e-10)

    def test_interpolation_limit(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([0.7, -0.2]))
        h = Hyperparameters(1.0, [1.0], 1e-10)
        cache = fit_cache(d, h)
        mean, var = predict(cache, d, h, d.inputs)
        npt.assert_allclose(mean, d.targets, atol=1e-6)
        npt.assert_allclose(var, [0.0, 0.0], atol=1e-6)

    def test_matches_dense_oracle(self, rng):
        d, h = random_instance(rng, 15, 2)
        cache = fit_cache(d, h)
        Xs = rng.uniform(-2, 2, size=(4, 2))
        mean, var = predict(cache, d, h, Xs)
        mean_o, var_o = naive_predict(d.inputs, d.targets, h, Xs)
        npt.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-12)
        npt.assert_allclose(var, var_o, rtol=1e-8, atol=1e-12)

    def test_variance_bounds(self, rng):
        for _ in range(5):
            d, h = random_instance(rng, 20, 2)
            cache = fit_cache(d, h)
            Xs = rng.uniform(-3, 3, size=(50, 2))
            _, var = predict(cache, d, h, Xs)
            assert np.all(var >= 0.0)
            assert np.all(var <= h.signal_variance + 1e-10)

    def test_stale_cache_rejected(self, rng):
        d, h = random_instance(rng, 5, 1)
        cache = fit_cache(d, h)
        mutated = d.with_appended([0.0], 0.0)
        with pytest.raises(StaleCacheError):
            predict(cache, mutated, h, np.array([[0.0]]))

    def test_replaced_dataset_gets_new_version(self, rng):
        d, h = random_instance(rng, 5, 1)
        cache = fit_cache(d, h)
        retargeted = dataclasses.replace(d, targets=d.targets + 1.0)
        assert retargeted.version != d.version
        with pytest.raises(StaleCacheError):
            predict(cache, retargeted, h, np.array([[0.0]]))
        with pytest.raises(ValueError, match="version"):
            dataclasses.replace(d, version=d.version)

    def test_corrupted_variance_raises(self, rng):
        d, h = random_instance(rng, 5, 1)
        cache = fit_cache(d, h)
        bad = type(cache)(
            chol=cache.chol * 0.5,  # wrong factor -> large negative variances
            alpha=cache.alpha,
            dataset_version=cache.dataset_version,
        )
        with pytest.raises(NumericalError):
            predict(bad, d, h, d.inputs)


class TestLogMarginalLikelihood:
    def test_standard_normal_at_zero(self):
        d = Dataset(np.array([[0.0]]), np.array([0.0]))
        h = Hyperparameters(0.5, [1.0], 0.5)
        assert log_marginal_likelihood(d, h) == pytest.approx(-0.5 * LOG_2PI, abs=1e-9)

    def test_univariate_gaussian_density(self):
        v, s = 1.7, 2.5
        d = Dataset(np.array([[0.0]]), np.array([v]))
        h = Hyperparameters(1.5, [1.0], 1.0)  # total variance 2.5
        expected = -(v**2) / (2 * s) - 0.5 * math.log(2 * math.pi * s)
        assert log_marginal_likelihood(d, h) == pytest.approx(expected, abs=1e-9)

    def test_matches_dense_oracle(self, rng):
        d, h = random_instance(rng, 12, 2)
        assert log_marginal_likelihood(d, h) == pytest.approx(
            naive_lml(d.inputs, d.targets, h), abs=1e-8
        )


def finite_difference_gradient(d, h, step=1e-5):
    theta = h.to_log_vector()
    g = np.empty_like(theta)
    for j in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[j] += step
        down[j] -= step
        g[j] = (
            log_marginal_likelihood(d, Hyperparameters.from_log_vector(up))
            - log_marginal_likelihood(d, Hyperparameters.from_log_vector(down))
        ) / (2 * step)
    return g


class TestLmlGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 15))
            p = int(rng.integers(1, 4))
            d, h = random_instance(rng, n, p)
            grad = lml_gradient(d, h)
            fd = finite_difference_gradient(d, h)
            npt.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_scalar_closed_form(self):
        # One point at the origin: lml depends only on s = signal + noise,
        # d lml / d log(signal) = (signal/s) * (v^2/s - 1) / 2, lengthscale
        # component is exactly zero.
        v, sig, noise = 2.0, 1.2, 0.8
        s = sig + noise
        d = Dataset(np.array([[0.0]]), np.array([v]))
        grad = lml_gradient(d, Hyperparameters(sig, [1.0], noise))
        total = (v**2 / s - 1.0) / (2.0 * s)
        npt.assert_allclose(grad[0], sig * total, rtol=1e-9)
        npt.assert_allclose(grad[1], 0.0, atol=1e-12)
        npt.assert_allclose(grad[2], noise * total, rtol=1e-9)

    def test_noise_component_vanishes_at_conditional_optimum(self, rng):
        d, h = random_instance(rng, 10, 1)

        def lml_of_noise(log_noise):
            return log_marginal_likelihood(
                d, Hyperparameters(h.signal_variance, h.lengthscales, math.exp(log_noise))
            )

        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda t: -lml_of_noise(t), bounds=(-8, 3), method="bounded")
        tuned = Hyperparameters(h.signal_variance, h.lengthscales, math.exp(res.x))
        assert abs(lml_gradient(d, tuned)[-1]) < 1e-5


class TestOptimizeHyperparameters:
    def test_fixed_point_returns_init(self, rng):
        d, h = random_instance(rng, 12, 1)
        tuned = optimize_hyperparameters(d, h, max_iters=200, tol=1e-6)
        again = optimize_hyperparameters(d, tuned, max_iters=200, tol=1e-2)
        assert again is tuned

    def test_never_worse_than_init(self, rng):
        for _ in range(3):
            d, h = random_instance(rng, 15, 2)
            tuned = optimize_hyperparameters(d, h, max_iters=50, tol=1e-6)
            assert log_marginal_likelihood(d, tuned) >= log_marginal_likelihood(d, h) - 1e-9

    def test_recovers_known_lengthscale(self):
        # Data drawn from a known GP; the fitted lengthscale should land
        # within a factor of two of the truth for most seeds.
        truth = Hyperparameters(1.0, [0.6], 0.01)
        hits = 0
        for seed in range(10):
            gen = np.random.default_rng(seed)
            X = gen.uniform(-3, 3, size=(60, 1))
            K = naive_noisy_kernel(X, truth)
            y = np.linalg.cholesky(K) @ gen.normal(size=60)
            d = Dataset(X, y)
            init = Hyperparameters(2.0, [2.0], 0.1)
            tuned = optimize_hyperparameters(d, init, max_iters=200, tol=1e-6)
            if 0.3 <= tuned.lengthscales[0] <= 1.2:
                hits += 1
        assert hits >= 8

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_objective_evaluated_once_per_point(self, rng, monkeypatch, restarts):
        # One evaluation at init for the gradient check, then exactly the
        # points L-BFGS-B asks for: no iterate is scored a second time.
        from budgetgp import gp as gp_mod

        calls, nfev = [0], []
        lml_and_gradient, minimize = gp_mod._lml_and_gradient, gp_mod.minimize

        def counted(*args):
            calls[0] += 1
            return lml_and_gradient(*args)

        def recorded(*args, **kwargs):
            result = minimize(*args, **kwargs)
            nfev.append(result.nfev)
            return result

        monkeypatch.setattr(gp_mod, "_lml_and_gradient", counted)
        monkeypatch.setattr(gp_mod, "minimize", recorded)
        d, h = random_instance(rng, 15, 2)
        optimize_hyperparameters(d, h, max_iters=50, tol=1e-6, restarts=restarts,
                                 rng=np.random.default_rng(0))
        assert len(nfev) == restarts + 1
        assert calls[0] == 1 + sum(nfev)

    def test_non_finite_reports_last_valid(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([1e200, -1e200]))
        h = Hyperparameters(1.0, [1.0], 0.1)
        with pytest.raises(OptimizationError) as err:
            optimize_hyperparameters(d, h, max_iters=50, tol=1e-8)
        assert isinstance(err.value.last_valid, Hyperparameters)


class TestGaussianEntropy:
    def test_unit_variance(self):
        assert gaussian_entropy(1, 0.0) == pytest.approx(0.5 * (1 + LOG_2PI))
        assert gaussian_entropy(1, 0.0) == pytest.approx(1.41894, abs=1e-5)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_law(self, variance):
        base = gaussian_entropy(1, 0.0)
        assert gaussian_entropy(1, math.log(variance)) == pytest.approx(
            base + 0.5 * math.log(variance), rel=1e-12, abs=1e-12
        )

    def test_diagonal_additivity(self, rng):
        variances = rng.uniform(0.1, 5.0, size=3)
        joint = gaussian_entropy(3, float(np.sum(np.log(variances))))
        parts = sum(gaussian_entropy(1, math.log(v)) for v in variances)
        assert joint == pytest.approx(parts, abs=1e-12)


class TestDeterminantIdentity:
    def test_joint_determinant_factorizes(self, rng):
        # |joint noisy covariance| = |train block| * (latent var + noise)
        # over the last point, with the noise on every block.
        for _ in range(10):
            n = int(rng.integers(2, 14))
            d, h = random_instance(rng, n + 1, 2)
            Kn = naive_noisy_kernel(d.inputs, h)
            train = Dataset(d.inputs[:n], d.targets[:n])
            cache = fit_cache(train, h)
            _, var = predict(cache, train, h, d.inputs[n:])
            lhs = np.linalg.det(Kn)
            rhs = np.linalg.det(Kn[:n, :n]) * (var[0] + h.noise_variance)
            npt.assert_allclose(lhs, rhs, rtol=1e-8)
