import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, stats

from skewtmix.distributions import (
    CHUNK_SIZE,
    MixtureParams,
    SkewTParams,
    component_seed,
    derive_shape,
    mixture_cov,
    mixture_logpdf,
    mixture_mean,
    mt_logpdf,
    sample_mixture,
    sample_skewt,
    skewt_cov,
    skewt_logpdf,
    skewt_mean,
)
from skewtmix.entropy import skewt_renyi
from skewtmix.linalg import SpdMatrix

from conftest import make_component, make_mixture


def scipy_transcription_logpdf(p, x):
    """Independent transcription of the density using scipy only."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = p.dim
    s = np.asarray(p.scale.entries)
    sinv = np.linalg.inv(s)
    diff = x - p.mu
    q = np.einsum("ni,ij,nj->n", diff, sinv, diff)
    lt = stats.multivariate_t.logpdf(x, loc=p.mu, shape=s, df=p.dof)
    arg = diff @ (sinv @ p.delta) * np.sqrt((p.dof + d) / (p.dof + q))
    return np.log(2.0) + lt + stats.t.logcdf(arg, p.dof + d)


def is_normalization(p, n, seed):
    """Importance-sampled integral of the density; should be 1."""
    envelope = stats.multivariate_t(loc=p.mu, shape=2.0 * np.asarray(p.scale.entries), df=1.0)
    draws = np.atleast_2d(envelope.rvs(size=n, random_state=np.random.default_rng(seed)))
    if draws.shape[1] != p.dim:
        draws = draws.reshape(n, p.dim)
    weights = np.exp(skewt_logpdf(p, draws) - envelope.logpdf(draws))
    return float(np.mean(weights)), float(np.std(weights) / math.sqrt(n))


class TestParams:
    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            make_component([0.0, 1.0], [[1.0]], [0.0], 3.0)
        with pytest.raises(ValueError, match="dof"):
            make_component([0.0], [[1.0]], [0.0], -2.0)

    def test_weights_simplex(self):
        c = make_component([0.0], [[1.0]], [0.0], 3.0)
        with pytest.raises(ValueError, match="sum to 1"):
            make_mixture([c, c], [0.5, 0.6])
        with pytest.raises(ValueError, match="nonnegative"):
            make_mixture([c, c], [1.5, -0.5])

    def test_components_own_their_arrays(self):
        mu, delta, weights = np.zeros(2), np.array([1.0, 0.5]), np.array([0.25, 0.75])
        p = SkewTParams(mu=mu, scale=SpdMatrix(np.eye(2)), delta=delta, dof=3.0)
        mix = MixtureParams(components=(p, p), weights=weights)
        mu[0], delta[0], weights[:] = 7.0, 3.0, [0.75, 0.25]
        assert p.mu.tolist() == [0.0, 0.0]
        assert p.delta.tolist() == [1.0, 0.5]
        assert derive_shape(p).dd == pytest.approx(1.25, rel=1e-15)
        assert mix.weights.tolist() == [0.25, 0.75]


class TestDerivedShape:
    def test_zero_shape(self, case1):
        p = make_component(case1.mu, case1.scale.entries, [0.0], case1.dof)
        shape = derive_shape(p)
        assert shape.dd == 0.0
        assert not shape.delta_hat.any()

    def test_dd_is_standardized_length(self, case2):
        shape = derive_shape(case2)
        sinv = np.linalg.inv(case2.scale.entries)
        assert shape.dd == pytest.approx(case2.delta @ sinv @ case2.delta, rel=1e-12)
        assert np.allclose(shape.delta_hat, case2.delta / math.sqrt(1 + shape.dd))

    def test_kept_on_the_component(self, case2):
        shape = derive_shape(case2)
        assert derive_shape(case2) is shape
        assert not shape.delta_hat.flags.writeable

    def test_overflowing_shape_raises_on_every_call(self):
        p = make_component([0.0], [[1.0]], [1e200], 3.0)
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="shape standardization failed"):
                    derive_shape(p)

    def test_concurrent_first_use_agrees(self, case2):
        def first_use(p, x):
            return derive_shape(p).dd, skewt_logpdf(p, x), skewt_renyi(p, 3.0)

        x = sample_skewt(case2, 64, 5)
        want = first_use(make_component(case2.mu, case2.scale.entries, case2.delta, case2.dof), x)
        p = make_component(case2.mu, case2.scale.entries, case2.delta, case2.dof)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(first_use, p, x) for _ in range(32)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(dd == want[0] and np.array_equal(lp, want[1]) and r == want[2] for dd, lp, r in got)

    def test_normalization_1d(self):
        p = make_component([0.0], [[1.5]], [0.3], 3.0)
        val, se = is_normalization(p, 400_000, 101)
        assert abs(val - 1.0) <= max(0.002, 4 * se)

    def test_normalization_case2(self, case2):
        val, se = is_normalization(case2, 400_000, 102)
        assert abs(val - 1.0) <= max(0.005, 4 * se)


class TestLogpdfs:
    def test_mode_value(self, case1):
        # at x = mu the skewing factor is 2 G1(0) = 1
        assert skewt_logpdf(case1, case1.mu) == pytest.approx(mt_logpdf(case1, case1.mu), abs=1e-14)

    def test_zero_shape_reduction(self, case2):
        p = make_component(case2.mu, case2.scale.entries, [0.0, 0.0], case2.dof)
        xs = np.random.default_rng(0).standard_normal((64, 2)) * 3.0
        assert np.array_equal(skewt_logpdf(p, xs), mt_logpdf(p, xs))

    def test_matches_independent_transcription(self):
        p = make_component([0.3], [[1.5]], [0.3], 3.0)
        assert skewt_logpdf(p, np.array([1.0])) == pytest.approx(
            float(scipy_transcription_logpdf(p, [[1.0]])[0]), abs=1e-10
        )

    def test_matches_transcription_batch(self, case2):
        xs = np.random.default_rng(2).standard_normal((40, 2)) * 2.0 + case2.mu
        ours = skewt_logpdf(case2, xs)
        ref = scipy_transcription_logpdf(case2, xs)
        assert np.max(np.abs(ours - ref)) <= 1e-10

    def test_mt_cauchy(self):
        p = make_component([0.0], [[1.0]], [0.0], 1.0)
        assert mt_logpdf(p, np.array([0.0])) == pytest.approx(math.log(1.0 / math.pi), abs=1e-12)

    def test_mt_mode_2d(self):
        from skewtmix import specfn

        v = 5.0
        p = make_component([1.0, -2.0], np.eye(2), [0.0, 0.0], v)
        expected = (
            specfn.log_gamma((v + 2) / 2.0) - specfn.log_gamma(v / 2.0) - math.log(v * math.pi)
        )
        assert mt_logpdf(p, p.mu) == pytest.approx(expected, abs=1e-12)

    def test_mt_normalizes(self):
        p = make_component([0.0], [[1.0]], [0.0], 3.0)
        val, _ = integrate.quad(
            lambda t: math.exp(mt_logpdf(p, np.array([t]))), -np.inf, np.inf,
            epsabs=1e-12, epsrel=1e-12,
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_reflection_symmetry(self, case2):
        flipped = make_component(case2.mu, case2.scale.entries, -case2.delta, case2.dof)
        zs = np.random.default_rng(3).standard_normal((32, 2)) * 2.0
        lhs = skewt_logpdf(case2, case2.mu + zs)
        rhs = skewt_logpdf(flipped, case2.mu - zs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_mixture_single_component(self, case1):
        mix = make_mixture([case1], [1.0])
        xs = np.linspace(-4.0, 4.0, 33)[:, None]
        assert np.allclose(mixture_logpdf(mix, xs), skewt_logpdf(case1, xs), atol=1e-14)

    def test_mixture_identical_components(self, case1):
        mix = make_mixture([case1, case1], [0.3, 0.7])
        xs = np.linspace(-4.0, 4.0, 17)[:, None]
        assert np.allclose(mixture_logpdf(mix, xs), skewt_logpdf(case1, xs), atol=1e-12)

    def test_mixture_linear_space(self, mix_d1_m2):
        x = np.array([0.0])
        direct = sum(
            w * math.exp(skewt_logpdf(c, x))
            for w, c in zip(mix_d1_m2.weights, mix_d1_m2.components)
        )
        assert math.exp(mixture_logpdf(mix_d1_m2, x)) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self, case2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            skewt_logpdf(case2, np.zeros(3))


class TestMoments:
    def test_zero_shape_mean(self):
        p = make_component([1.0, 2.0], np.eye(2), [0.0, 0.0], 3.0)
        assert np.allclose(skewt_mean(p), p.mu)

    def test_zero_shape_cov(self):
        p = make_component([0.0, 0.0], np.eye(2), [0.0, 0.0], 4.0)
        assert np.allclose(skewt_cov(p).entries, 2.0 * np.eye(2), atol=1e-14)

    def test_dof_boundaries(self):
        p1 = make_component([0.0], [[1.0]], [1.0], 1.0)
        with pytest.raises(ValueError, match="mean undefined"):
            skewt_mean(p1)
        p2 = make_component([0.0], [[1.0]], [1.0], 2.0)
        with pytest.raises(ValueError, match="covariance undefined"):
            skewt_cov(p2)

    def test_mean_against_sampler(self):
        p = make_component([0.0], [[1.0]], [1.0], 3.0)
        draws = sample_skewt(p, 1_000_000, 11)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - skewt_mean(p)[0]) <= 4 * se

    def test_cov_against_sampler(self):
        p = make_component([0.0], [[1.0]], [1.0], 5.0)
        draws = sample_skewt(p, 1_000_000, 12)[:, 0]
        var = skewt_cov(p).entries[0, 0]
        centered = (draws - draws.mean()) ** 2
        se = centered.std() / math.sqrt(len(draws))
        assert abs(draws.var() - var) <= 4 * se

    def test_mixture_moment_degeneracies(self, case1):
        mix = make_mixture([case1, case1], [0.4, 0.6])
        assert np.allclose(mixture_mean(mix), skewt_mean(case1))
        assert np.allclose(mixture_cov(mix).entries, skewt_cov(case1).entries, atol=1e-12)

    def test_mixture_moments_against_sampler(self, mix_d1_m2):
        draws = sample_mixture(mix_d1_m2, 1_000_000, 13)[:, 0]
        mean_se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - mixture_mean(mix_d1_m2)[0]) <= 4 * mean_se
        centered = (draws - draws.mean()) ** 2
        var_se = centered.std() / math.sqrt(len(draws))
        assert abs(draws.var() - mixture_cov(mix_d1_m2).entries[0, 0]) <= 4 * var_se

    def test_mixture_dof_error_names_component(self, case1):
        bad = make_component([0.0], [[1.0]], [0.0], 1.5)
        mix = make_mixture([case1, bad], [0.5, 0.5])
        with pytest.raises(ValueError, match="component 1"):
            mixture_cov(mix)


class TestSamplers:
    def test_deterministic(self, case1):
        a = sample_skewt(case1, 3 * CHUNK_SIZE // 2, 99)
        b = sample_skewt(case1, 3 * CHUNK_SIZE // 2, 99)
        assert np.array_equal(a, b)

    def test_chunk_consistency(self, case1):
        # a longer run starts with exactly the draws of a shorter run
        long = sample_skewt(case1, CHUNK_SIZE + 500, 4)
        short = sample_skewt(case1, CHUNK_SIZE, 4)
        assert np.array_equal(long[:CHUNK_SIZE], short)

    def test_normal_limit(self):
        p = make_component([1.0], [[2.0]], [0.0], 1e6)
        draws = sample_skewt(p, 1_000_000, 21)[:, 0]
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) <= 4 * se
        centered = (draws - draws.mean()) ** 2
        var_se = centered.std() / math.sqrt(len(draws))
        assert abs(draws.var() - 2.0) <= 4 * var_se

    def test_ks_against_quadrature_cdf(self):
        p = make_component([0.0], [[1.0]], [1.0], 3.0)
        draws = np.sort(sample_skewt(p, 1_000_000, 31)[:, 0])
        deciles = np.quantile(draws, np.arange(1, 10) / 10.0)
        for k, q in enumerate(deciles, start=1):
            cdf, _ = integrate.quad(
                lambda t: math.exp(skewt_logpdf(p, np.array([t]))), -np.inf, q,
                epsabs=1e-10, epsrel=1e-10,
            )
            assert abs(cdf - k / 10.0) < 0.005

    def test_zero_shape_matches_t_distribution(self):
        p = make_component([0.5], [[1.5]], [0.0], 3.0)
        draws = np.sort(sample_skewt(p, 400_000, 41)[:, 0])
        grid = (draws - 0.5) / math.sqrt(1.5)
        empirical = np.arange(1, len(draws) + 1) / len(draws)
        ks = np.max(np.abs(stats.t.cdf(grid, 3.0) - empirical))
        assert ks < 0.005

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_seed_outside_64_bits_rejected(self, case1, seed):
        # such seeds used to alias: 2**64 drew seed 0's rows and -1 drew 2**64 - 1's
        mix = make_mixture([case1], [1.0])
        with pytest.raises(ValueError, match="seed must be an integer in"):
            sample_skewt(case1, 10, seed)
        with pytest.raises(ValueError, match="seed must be an integer in"):
            sample_mixture(mix, 10, seed)
        assert sample_skewt(case1, 10, 2**64 - 1).shape == (10, 1)

    def test_mixture_single_component_stream(self, case1):
        mix = make_mixture([case1], [1.0])
        a = sample_mixture(mix, CHUNK_SIZE + 100, 77)
        b = sample_skewt(case1, CHUNK_SIZE + 100, component_seed(77, 0))
        assert np.array_equal(a, b)

    def test_mixture_never_draws_zero_weight(self):
        near = make_component([0.0], [[1.0]], [0.0], 5.0)
        far = make_component([1000.0], [[1.0]], [0.0], 5.0)
        mix = make_mixture([near, far], [1.0, 0.0])
        draws = sample_mixture(mix, 100_000, 5)
        assert np.max(np.abs(draws)) < 500.0

    def test_mixture_allocation_counts(self):
        near = make_component([0.0], [[1.0]], [0.0], 5.0)
        far = make_component([1000.0], [[1.0]], [0.0], 5.0)
        mix = make_mixture([near, far], [0.2, 0.8])
        n = 1_000_000
        draws = sample_mixture(mix, n, 6)
        count_near = int(np.sum(draws[:, 0] < 500.0))
        tol = 4.0 * math.sqrt(n * 0.2 * 0.8)
        assert abs(count_near - 0.2 * n) <= tol
