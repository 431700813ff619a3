"""The one-cache sweep ``reduction_scores``, with a fresh factor and with the
stored set's kept factor, against the per-partition reference
``reduction_score`` and, in the low-noise regime, against a 50-digit
``mpmath`` oracle; the closed-form stored-row acceptance scores
``acceptance_scores`` against the same oracle."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetgp.criteria import (
    CriterionKind,
    PartitionView,
    _extended_cache,
    acceptance_scores,
    argmin_with_ties,
    reduction_score,
    reduction_scores,
    tie_tolerance,
)
from budgetgp.gp import (Dataset, Hyperparameters, NumericalError, PosteriorCache,
                         StaleCacheError, fit_cache)
from budgetgp.online import Decision, OnlineGp, step
from conftest import random_instance

mpmath = pytest.importorskip("mpmath")

ALL_KINDS = list(CriterionKind)
REFERENCES = ("model", "target")


def per_partition(kind, d, hyper, candidate, mean_reference="model"):
    return np.array([
        reduction_score(kind, PartitionView(d, i, candidate), hyper,
                        mean_reference=mean_reference)
        for i in range(d.n)
    ])


def random_candidate(rng, p):
    return rng.uniform(-2, 2, size=p), float(rng.normal())


# --- 50-digit oracle -----------------------------------------------------------


def mp_scores(kind, X, y, hyper, candidate, mean_reference="model"):
    """Every partition materialized and scored at 50 significant digits,
    with the model's documented base jitter of 1e-10 * signal_variance on
    the diagonal."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        sf = mp.mpf(hyper.signal_variance)
        diag = mp.mpf(hyper.noise_variance) + mp.mpf(1e-10 * hyper.signal_variance)
        ls = [mp.mpf(v) for v in hyper.lengthscales]
        rows = [[mp.mpf(v) for v in row] for row in X]
        ys = [mp.mpf(v) for v in y]
        if candidate is not None:
            rows.append([mp.mpf(v) for v in np.asarray(candidate[0], float)])
            ys.append(mp.mpf(float(candidate[1])))
        m = len(rows)
        K = [[sf * mp.exp(-sum((a - b) ** 2 / l ** 2
                                for a, b, l in zip(rows[i], rows[j], ls)) / 2)
              for j in range(m)] for i in range(m)]

        def noisy(idx):
            C = mp.matrix(len(idx))
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    C[a, b] = K[i][j] + (diag if i == j else 0)
            return C

        def predict(idx, t):
            kv = mp.matrix([K[t][j] for j in idx])
            w = mp.lu_solve(noisy(idx), kv)
            return sum(w[a] * ys[j] for a, j in enumerate(idx)), sf - (w.T * kv)[0]

        log_2pi = mp.log(2 * mp.pi)
        out = []
        for i in range(len(y)):
            idx = [j for j in range(m) if j != i]
            if kind is CriterionKind.PRIOR_ENTROPY:
                out.append(-(len(idx) * (1 + log_2pi) + mp.log(mp.det(noisy(idx)))) / 2)
            elif kind is CriterionKind.MARGINAL_LOG_LIKELIHOOD:
                C = noisy(idx)
                yv = mp.matrix([ys[j] for j in idx])
                fit = (yv.T * mp.lu_solve(C, yv))[0]
                out.append(-(fit + mp.log(mp.det(C)) + len(idx) * log_2pi) / 2)
            else:
                mu, var = predict(idx, i)
                if kind is CriterionKind.PREDICTIVE_ENTROPY:
                    out.append((1 + log_2pi + mp.log(var)) / 2)
                elif kind is CriterionKind.LOG_PREDICTIVE_DENSITY:
                    s = var + hyper.noise_variance
                    out.append(mp.log(2 * mp.pi * s) / 2 + (ys[i] - mu) ** 2 / (2 * s))
                elif mean_reference == "target":
                    out.append((ys[i] - mu) ** 2)
                else:
                    out.append((predict(list(range(len(y))), i)[0] - mu) ** 2)
        return np.array([float(v) for v in out])


def mp_acceptance_scores(kind, X, y, hyper, jitter):
    """Each stored row's acceptance score under the full model at 50
    significant digits, with ``jitter`` on the diagonal of the noisy kernel."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        sf = mp.mpf(hyper.signal_variance)
        ls = [mp.mpf(v) for v in hyper.lengthscales]
        rows = [[mp.mpf(v) for v in row] for row in X]
        n = len(rows)
        K = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                K[i, j] = sf * mp.exp(-sum((a - b) ** 2 / l ** 2
                                           for a, b, l in zip(rows[i], rows[j], ls)) / 2)
        C = K + (mp.mpf(hyper.noise_variance) + mp.mpf(jitter)) * mp.eye(n)
        ys = mp.matrix([mp.mpf(v) for v in y])
        alpha = mp.lu_solve(C, ys)
        out = []
        for i in range(n):
            k = K.column(i)
            var = sf - (k.T * mp.lu_solve(C, k))[0]
            err_sq = (ys[i] - (k.T * alpha)[0]) ** 2
            if kind in (CriterionKind.PRIOR_ENTROPY, CriterionKind.PREDICTIVE_ENTROPY):
                out.append(var)
            elif kind is CriterionKind.MEAN_RELEVANCE:
                out.append(err_sq)
            else:
                s = var + hyper.noise_variance
                out.append(mp.log(2 * mp.pi * s) / 2 + err_sq / (2 * s))
        return np.array([float(v) for v in out])


# --- properties ----------------------------------------------------------------


class TestAgainstPerPartition:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           replace=st.booleans())
    def test_all_criteria_match_reference(self, seed, n, replace):
        rng = np.random.default_rng(seed)
        d, h = random_instance(rng, n, 2)
        cand = random_candidate(rng, 2) if replace else None
        for kind in ALL_KINDS:
            for ref in REFERENCES:
                want = per_partition(kind, d, h, cand, ref)
                for base in (None, fit_cache(d, h)):
                    got = reduction_scores(kind, d, h, cand, base_cache=base,
                                           mean_reference=ref)
                    npt.assert_allclose(got, want, rtol=1e-8, atol=1e-12,
                                        err_msg=f"{kind.value} {ref} base={base}")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_base_cache_gives_same_scores(self, kind, rng):
        d, h = random_instance(rng, 9, 2)
        cache = fit_cache(d, h)
        # Deletion mode scores the base cache itself; replace mode extends it,
        # a different path to the same values.
        npt.assert_array_equal(reduction_scores(kind, d, h, base_cache=cache),
                               reduction_scores(kind, d, h))
        cand = random_candidate(rng, 2)
        npt.assert_allclose(reduction_scores(kind, d, h, cand, base_cache=cache),
                            reduction_scores(kind, d, h, cand), rtol=1e-8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_non_positive_pivot_falls_back_to_fresh_factor(self, kind, rng):
        # A factor a hundred times too small makes l^T l exceed k** + s^2.
        d, h = random_instance(rng, 9, 2)
        good = fit_cache(d, h)
        shrunk = PosteriorCache(good.chol * 0.01, good.alpha, d.version, good.jitter)
        cand = random_candidate(rng, 2)
        assert _extended_cache(shrunk, d, d.with_appended(cand[0], cand[1]), h) is None
        npt.assert_array_equal(reduction_scores(kind, d, h, cand, base_cache=shrunk),
                               reduction_scores(kind, d, h, cand))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_escalated_jitter_is_taken_out(self, kind, rng, monkeypatch):
        # A jitter as large as the noise makes any mismatch in how it is
        # accounted for visible at the reference tolerance.
        monkeypatch.setattr("budgetgp.gp.JITTER_INITIAL", 1e-2)
        monkeypatch.setattr("budgetgp.gp.JITTER_MAX", 1e-1)
        d, h = random_instance(rng, 8, 2)
        assert fit_cache(d, h).jitter == pytest.approx(1e-2 * h.signal_variance)
        for cand in (random_candidate(rng, 2), None):
            npt.assert_allclose(reduction_scores(kind, d, h, cand),
                                per_partition(kind, d, h, cand), rtol=1e-8)


class TestLowNoiseAgainstMpmath:
    """Noise 1e-7 to 1e-5 (van-der-pol trains to about 3e-6) on clustered
    inputs, where the noisy kernel matrix is ill-conditioned."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7),
           log_noise=st.floats(-7.0, -5.0), spread=st.sampled_from([0.05, 0.3, 2.0]),
           replace=st.booleans())
    def test_values_and_argmin(self, seed, n, log_noise, spread, replace):
        rng = np.random.default_rng(seed)
        h = Hyperparameters(rng.uniform(0.5, 3.0), rng.uniform(0.4, 2.0, size=2),
                            10.0**log_noise)
        X = rng.uniform(-spread, spread, size=(n, 2))
        y = np.sin(X @ rng.normal(size=2)) + 0.3 * rng.normal(size=n)
        d = Dataset(X, y)
        cand = random_candidate(rng, 2) if replace else None
        for kind in ALL_KINDS:
            for ref in REFERENCES:
                want = mp_scores(kind, X, y, h, cand, ref)
                scale = float(np.max(np.abs(want)))
                first, second = np.sort(want)[:2]
                for base in (None, fit_cache(d, h)):
                    got = reduction_scores(kind, d, h, cand, base_cache=base,
                                           mean_reference=ref)
                    npt.assert_allclose(got, want, rtol=0, atol=1e-6 * scale,
                                        err_msg=f"{kind.value} {ref} base={base}")
                    if second - first > 1e-6 * scale:
                        assert argmin_with_ties(got) == int(np.argmin(want)), kind.value


class TestKeptFactorOverLongStreams:
    """Every replaced step of a long low-noise stream of clustered inputs
    scores the sweep from the kept factor; those scores must match a fresh
    factorization of the stored set plus the candidate.  Both are off a
    50-digit oracle by up to a few 1e-9 of the largest score here, so the
    absolute tolerance scales with it."""

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(ALL_KINDS),
           spread=st.sampled_from([0.05, 0.3, 2.0]))
    def test_step_scores_match_fresh_factor(self, seed, kind, spread):
        rng = np.random.default_rng(seed)
        h = Hyperparameters(rng.uniform(0.5, 3.0), rng.uniform(0.4, 2.0, size=2), 1e-6)
        w = rng.normal(size=2)
        X = rng.uniform(-spread, spread, size=(220, 2))
        y = np.sin(X @ w) + 0.3 * rng.normal(size=220)
        model = OnlineGp(Dataset(X[:20], y[:20]), h, budget=20, criterion=kind)
        replaced = 0
        for point in zip(X[20:], y[20:]):
            before = model.dataset
            model, outcome = step(model, point)
            if outcome.decision is not Decision.REPLACED:
                continue
            replaced += 1
            fresh = reduction_scores(kind, before, h, point)
            npt.assert_allclose(outcome.scores, fresh, rtol=1e-8,
                                atol=1e-8 * float(np.max(np.abs(fresh))), err_msg=kind.value)
            first, second = np.sort(fresh)[:2]
            if second - first > tie_tolerance(fresh):
                assert outcome.replaced_index == argmin_with_ties(fresh), kind.value
        assert replaced > 0


class TestAcceptanceScoresAgainstMpmath:
    """The closed form s^2 (1 - s^2 d_i) and s^2 alpha_i at noise 1e-7 to
    1e-5 on clustered inputs, the regime where it cancels most."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7),
           log_noise=st.floats(-7.0, -5.0), spread=st.sampled_from([0.05, 0.3, 2.0]))
    def test_values_and_argmin(self, seed, n, log_noise, spread):
        rng = np.random.default_rng(seed)
        h = Hyperparameters(rng.uniform(0.5, 3.0), rng.uniform(0.4, 2.0, size=2),
                            10.0**log_noise)
        X = rng.uniform(-spread, spread, size=(n, 2))
        y = np.sin(X @ rng.normal(size=2)) + 0.3 * rng.normal(size=n)
        d = Dataset(X, y)
        cache = fit_cache(d, h)
        for kind in ALL_KINDS:
            want = mp_acceptance_scores(kind, X, y, h, cache.jitter)
            got = acceptance_scores(kind, cache, d, h)
            scale = float(np.max(np.abs(want)))
            npt.assert_allclose(got, want, rtol=0, atol=1e-6 * scale, err_msg=kind.value)
            first, second = np.sort(want)[:2]
            if second - first > 1e-6 * scale:
                assert argmin_with_ties(got) == int(np.argmin(want)), kind.value

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_jitter_is_part_of_s2(self, kind, rng, monkeypatch):
        # With a jitter as large as the noise, s^2 without it is far off.
        monkeypatch.setattr("budgetgp.gp.JITTER_INITIAL", 1e-2)
        monkeypatch.setattr("budgetgp.gp.JITTER_MAX", 1e-1)
        d, h = random_instance(rng, 8, 2)
        cache = fit_cache(d, h)
        assert cache.jitter == pytest.approx(1e-2 * h.signal_variance)
        want = mp_acceptance_scores(kind, d.inputs, d.targets, h, cache.jitter)
        npt.assert_allclose(acceptance_scores(kind, cache, d, h), want, rtol=1e-9)


# --- tie rule --------------------------------------------------------------------


class TestTies:
    def test_smallest_index_among_roundoff_ties(self):
        scores = np.array([3.0, 1.0 + 1e-13, 1.0, 2.0])
        assert argmin_with_ties(scores) == 1

    def test_real_gap_is_not_a_tie(self):
        scores = np.array([3.0, 1.0 + 1e-6, 1.0, 2.0])
        assert argmin_with_ties(scores) == 2

    @pytest.mark.parametrize("scores", [[2.0, 1.0, np.inf], [np.nan, 1.0, 2.0],
                                        [2.0, 1.0, -np.inf]])
    def test_non_finite_score_raises(self, scores):
        with pytest.raises(NumericalError, match="non-finite"):
            argmin_with_ties(np.array(scores))

    def test_tolerance_scales_with_largest_score(self):
        assert tie_tolerance(np.array([-4.0, 2.0])) == pytest.approx(4.0 * 1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_duplicate_pair_deletion_prefers_smaller_index(self, kind):
        X = np.array([[-1.2, 0.3], [0.4, 0.4], [0.4, 0.4], [0.8, -1.1]])
        d = Dataset(X, np.array([-0.2, 0.9, 0.9, 0.5]))
        h = Hyperparameters(1.0, [1.0, 1.0], 1e-8)
        assert argmin_with_ties(reduction_scores(kind, d, h)) == 1


class TestArguments:
    def test_stale_base_cache_rejected(self, rng):
        d, h = random_instance(rng, 5, 2)
        other, _ = random_instance(rng, 5, 2)
        with pytest.raises(StaleCacheError):
            reduction_scores(CriterionKind.MARGINAL_LOG_LIKELIHOOD, d, h,
                             base_cache=fit_cache(other, h))

    def test_stale_cache_rejected_by_acceptance_scores(self, rng):
        d, h = random_instance(rng, 5, 2)
        other, _ = random_instance(rng, 5, 2)
        with pytest.raises(StaleCacheError):
            acceptance_scores(CriterionKind.MEAN_RELEVANCE, fit_cache(other, h), d, h)

    def test_candidate_dimension_checked(self, rng):
        d, h = random_instance(rng, 5, 2)
        with pytest.raises(ValueError):
            reduction_scores(CriterionKind.PRIOR_ENTROPY, d, h, (np.zeros(3), 0.0))

    def test_unknown_mean_reference(self, rng):
        d, h = random_instance(rng, 5, 2)
        with pytest.raises(ValueError, match="mean_reference"):
            reduction_scores(CriterionKind.MEAN_RELEVANCE, d, h, mean_reference="median")
