import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from skewtmix import linalg, specfn, tables
from skewtmix.distributions import (
    _ALLOC_TAG,
    CHUNK_SIZE,
    MixtureParams,
    SkewTParams,
    _component_labels,
    _stream,
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
from skewtmix.entropy import skewt_renyi, skewt_shannon
from skewtmix.linalg import NotPositiveDefiniteError, SpdMatrix

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


def last_axis_mixture_logpdf(m, x):
    """The mixture log density as once computed: stacked (..., m), reduced over the last axis."""
    x = np.asarray(x, dtype=float)
    logs, logw = [], []
    for w, comp in zip(m.weights, m.components):
        if w == 0.0:
            continue
        logs.append(np.asarray(skewt_logpdf(comp, x), dtype=float))
        logw.append(math.log(w))
    stacked = np.stack(logs, axis=-1) + np.asarray(logw)
    shift = np.max(stacked, axis=-1)
    out = shift + np.log(np.sum(np.exp(stacked - shift[..., None]), axis=-1))
    return float(out) if np.ndim(out) == 0 else out


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
            moments = skewt_mean(p).tolist() + skewt_cov(p).entries.ravel().tolist()
            return derive_shape(p).dd, skewt_logpdf(p, x), (skewt_renyi(p, 3.0), skewt_shannon(p), *moments)

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

    @pytest.mark.parametrize("mixture_id", tables.MIXTURE_IDS)
    def test_mixture_bit_identical_to_last_axis_reduction(self, mixture_id):
        mix = tables.builtin_mixture(mixture_id)
        x = sample_mixture(mix, CHUNK_SIZE + 123, 8)
        assert mixture_logpdf(mix, x).tobytes() == last_axis_mixture_logpdf(mix, x).tobytes()
        batch = x[:24].reshape(2, 3, 4, mix.dim)
        got = mixture_logpdf(mix, batch)
        assert got.shape == (2, 3, 4)
        assert got.tobytes() == last_axis_mixture_logpdf(mix, batch).tobytes()
        point = mixture_logpdf(mix, x[5])
        assert type(point) is float
        assert point == last_axis_mixture_logpdf(mix, x[5])

    def test_mixture_zero_weight_bit_identical(self, case2):
        far = make_component([40.0, -40.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], 4.0)
        lighter = make_component(case2.mu, case2.scale.entries, case2.delta, 7.0)
        mix = make_mixture([case2, far, lighter], [0.4, 0.0, 0.6])
        x = sample_mixture(mix, 5000, 9)
        assert mixture_logpdf(mix, x).tobytes() == last_axis_mixture_logpdf(mix, x).tobytes()

    @pytest.mark.parametrize("m, d", [(9, 1), (2, 9)])
    def test_mixture_many_terms_within_an_ulp(self, m, d):
        # numpy's pairwise sum over a last axis of 8 or more may round differently
        rng = np.random.default_rng(m * d)
        comps = [make_component(rng.uniform(-2.0, 2.0, d), np.eye(d) * rng.uniform(0.5, 2.0),
                                rng.uniform(-1.0, 1.0, d), rng.uniform(3.0, 9.0)) for _ in range(m)]
        mix = make_mixture(comps, np.full(m, 1.0 / m))
        x = sample_mixture(mix, 4000, 10)
        np.testing.assert_allclose(mixture_logpdf(mix, x), last_axis_mixture_logpdf(mix, x), rtol=1e-15, atol=0.0)

    def test_log_density_where_the_t_cdf_underflows(self):
        # G1 is 0 in floating point at x = -10 (dof 1e5, S = 1, delta = 4); its log is taken in log space,
        # with no RuntimeWarning (the suite turns those into errors)
        v, xs = 1e5, np.array([-8.0, -10.0, -12.0])
        p = make_component([0.0], [[1.0]], [4.0], v)
        got = skewt_logpdf(p, xs[:, None])
        with mpmath.workdps(40):
            for x, value in zip(xs, got):
                x, v1 = mpmath.mpf(x), mpmath.mpf(v + 1.0)
                arg = 4 * x * mpmath.sqrt(v1 / (v + x * x))
                w = v1 / (v1 + arg * arg)
                cdf = mpmath.betainc(v1 / 2, mpmath.mpf(0.5), 0, w, regularized=True) / 2
                density = mpmath.gamma(v1 / 2) / (mpmath.gamma(mpmath.mpf(v) / 2) * mpmath.sqrt(v * mpmath.pi))
                expected = mpmath.log(2 * density * cdf) - v1 / 2 * mpmath.log1p(x * x / v)
                assert value == pytest.approx(float(expected), rel=1e-13)
        assert got[1] == pytest.approx(-847.69, abs=0.01)
        assert skewt_logpdf(p, np.array([-10.0])) == got[1]

    @pytest.mark.parametrize("mu, scale, direction, dof", [
        ([0.5], [[1.5]], [1.0], 3.0),
        ([0.3, -0.2], [[1.0, 0.3], [0.3, 2.0]], [1.0, -0.5], 2.5),
        ([0.0], [[1.0]], [1.0], 0.3),
    ], ids=["d1", "d2", "d1_dof_below_1"])
    @pytest.mark.parametrize("skewed", [True, False], ids=["skew", "symmetric"])
    def test_log_density_where_the_quadratic_form_overflows(self, mu, scale, direction, dof, skewed):
        # Q = h'h overflows beyond |h| of about 1e154, and at dof 0.3 Q/v overflows from |h| of about 7.3e153; those
        # rows are formed at a scale, with no RuntimeWarning, and the rows of a batch where Q/v is finite keep their
        # values bit for bit
        d = len(mu)
        delta = [1.0, -2.0][:d] if skewed else [0.0] * d
        p = make_component(mu, scale, delta, dof)
        xs = np.outer([1e200, -1e200, 1e300, 1.2e154], direction)
        got = skewt_logpdf(p, xs)
        with mpmath.workdps(50):
            v, dd = mpmath.mpf(dof), mpmath.mpf(d)
            s = mpmath.matrix(scale)
            sinv = s ** -1
            norm = (mpmath.loggamma((v + dd) / 2) - mpmath.loggamma(v / 2) - dd / 2 * mpmath.log(v * mpmath.pi)
                    - mpmath.log(mpmath.det(s)) / 2)
            for x, value, t_value in zip(xs, got, mt_logpdf(p, xs)):
                z = mpmath.matrix([mpmath.mpf(float(a)) - mpmath.mpf(b) for a, b in zip(x, mu)])
                q = (z.T * sinv * z)[0]
                expected_t = norm - (v + dd) / 2 * mpmath.log1p(q / v)
                arg = (mpmath.matrix(delta).T * sinv * z)[0] * mpmath.sqrt((v + dd) / (v + q))
                w = (v + dd) / (v + dd + arg * arg)
                tail = mpmath.betainc((v + dd) / 2, mpmath.mpf(0.5), 0, w, regularized=True) / 2
                expected = mpmath.log(2) + expected_t + mpmath.log(tail if arg < 0 else 1 - tail)
                assert value == pytest.approx(float(expected), rel=1e-13)
                assert t_value == pytest.approx(float(expected_t), rel=1e-13)
        ordinary = np.outer([0.5, -3.0, 1e100], direction)
        for logpdf in (skewt_logpdf, mt_logpdf):
            both = logpdf(p, np.vstack([ordinary, xs]))
            assert both[:3].tobytes() == logpdf(p, ordinary).tobytes()
            assert both[3:].tobytes() == logpdf(p, xs).tobytes()
            assert logpdf(p, xs[2]) == both[5]
            assert logpdf(p, np.empty((0, d))).shape == (0,)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_block_equals_one_row_calls(self, d, monkeypatch):
        # the log densities work in place on whole blocks; every row of a (n, d) or (k, n, d) block is, bit for bit,
        # what a one-row call gives, on ordinary rows, on rows where Q overflows and on rows where G1 underflows
        rng = np.random.default_rng(90 + d)
        a = rng.standard_normal((d, d))
        scale = a @ a.T + 0.5 * np.eye(d)
        direction = np.eye(d)[0]
        skewed = make_component(rng.standard_normal(d), scale, rng.uniform(-3.0, 3.0, d), 3.0)
        symmetric = make_component(rng.standard_normal(d), scale, np.zeros(d), 2.5)
        under = make_component(np.zeros(d), np.eye(d), 4.0 * direction, 1e5)  # G1 = 0 at x = -10 e1
        comps = (skewed, symmetric, under)
        xs = np.vstack([
            sample_skewt(skewed, 40, 5),
            np.outer([1e200, -1e200, 1e300, -1e150], direction + 0.5),
            np.outer([-10.0, -12.0], direction),
        ])
        tails = []
        real = specfn.student_t_log_tail
        monkeypatch.setattr(specfn, "student_t_log_tail", lambda x, v: tails.append(np.size(x)) or real(x, v))
        mixtures = [make_mixture(comps, [0.5, 0.3, 0.2]), make_mixture(comps, [0.6, 0.0, 0.4])]
        laws = [(logpdf, p) for p in comps for logpdf in (mt_logpdf, skewt_logpdf)]
        for logpdf, law in laws + [(mixture_logpdf, m) for m in mixtures]:
            block = logpdf(law, xs)
            assert np.isfinite(block).all()
            rows = [logpdf(law, x) for x in xs]
            assert all(type(r) is float for r in rows)
            assert block.tobytes() == np.array(rows).tobytes()
            assert logpdf(law, xs.reshape(2, -1, d)).tobytes() == block.tobytes()
        assert tails  # G1 underflowed on some rows

    def test_fresh_dofs_from_threads_equal_serial(self):
        # components with dofs used nowhere else, so every t CDF table is built cold, and raced
        rng = np.random.default_rng(71)
        mixes = [make_mixture([make_component(rng.standard_normal(2), np.eye(2), rng.standard_normal(2),
                                              2.0 + k + 0.1 * i + 0.0123) for i in range(3)], [0.2, 0.3, 0.5])
                 for k in range(8)]
        x = sample_mixture(mixes[0], 20000, 12)
        serial = [mixture_logpdf(m, x).tobytes() for m in mixes]
        specfn._cdf_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda m: mixture_logpdf(m, x).tobytes(), mixes * 2))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 2
        kept = specfn._cdf_table(mixes[-1].components[-1].dof + 2.0)
        assert kept is specfn._cdf_table(mixes[-1].components[-1].dof + 2.0)
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 0.0

    def test_dimension_mismatch(self, case2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            skewt_logpdf(case2, np.zeros(3))

    @staticmethod
    def logpdf_of(name, p):
        if name == "mixture":
            return mixture_logpdf, make_mixture([p], [1.0])
        return {"mt": mt_logpdf, "skewt": skewt_logpdf}[name], p

    @pytest.mark.parametrize("width", [1, 3, None])
    @pytest.mark.parametrize("logpdf", ["mt", "skewt", "mixture"])
    def test_last_axis_must_match_dimension(self, case2, logpdf, width):
        # an (n, 1) batch would otherwise broadcast against the d = 2 location; None is a 0-d x
        fn, law = self.logpdf_of(logpdf, case2)
        x, has = (0.5, "no axis") if width is None else (np.zeros((5, width)), width)
        with pytest.raises(ValueError, match=f"dimension mismatch: x has {has}, expected 2"):
            fn(law, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("logpdf", ["mt", "skewt", "mixture"])
    def test_non_finite_x_rejected(self, case2, logpdf, bad):
        fn, law = self.logpdf_of(logpdf, case2)
        x = np.zeros((3, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match=rf"x must be finite, got x\[1, 0\] = {bad}"):
            fn(law, x)
        with pytest.raises(ValueError, match=rf"x must be finite, got x\[1\] = {bad}"):
            fn(law, x[1, ::-1])


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

    def test_mean_is_kept_and_handed_out_as_a_copy(self, case2):
        p = make_component(case2.mu, case2.scale.entries, case2.delta, case2.dof)
        mean = skewt_mean(p)
        want = mean.copy()
        mean += 1.0
        again = skewt_mean(p)
        assert again is not mean and again.flags.writeable
        assert again.tolist() == want.tolist() == skewt_mean(case2).tolist()

    def test_cov_is_factored_once_and_shared(self, monkeypatch, case1, case2):
        real, calls = linalg._cholesky_factor, []

        def spy(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(linalg, "_cholesky_factor", spy)
        p = make_component(case2.mu, case2.scale.entries, case2.delta, case2.dof)
        calls.clear()
        cov = skewt_cov(p)
        assert len(calls) == 1
        assert skewt_cov(p) is cov and len(calls) == 1
        assert not cov.entries.flags.writeable
        assert cov.entries.tolist() == skewt_cov(case2).entries.tolist()
        mix = make_mixture([make_component(c.mu, c.scale.entries, c.delta, c.dof) for c in (case1, case1)],
                           [0.3, 0.7])
        calls.clear()
        first = mixture_cov(mix)
        assert len(calls) == 3  # each component's covariance, then the mixture's
        calls.clear()
        assert mixture_cov(mix).entries.tolist() == first.entries.tolist() and len(calls) == 1

    def test_weight_zero_components_are_not_judged(self, case1):
        # dof 0.5: neither a mean nor a covariance exists, but weight 0 leaves the mixture's moments alone
        absent = make_component([5.0], [[2.0]], [1.0], 0.5)
        mix, alone = make_mixture([case1, absent], [1.0, 0.0]), make_mixture([case1], [1.0])
        assert mixture_mean(mix).tolist() == mixture_mean(alone).tolist() == skewt_mean(case1).tolist()
        assert mixture_cov(mix).entries.tolist() == mixture_cov(alone).entries.tolist()

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

    def test_one_chunk_equals_its_rows_of_a_whole_draw(self, case1):
        # chunk 1 is full and chunk 2 holds the last 500 rows of the whole draw
        n = 2 * CHUNK_SIZE + 500
        for sampler, law in ((sample_skewt, case1), (sample_mixture, tables.builtin_mixture("d2_m3"))):
            whole = sampler(law, n, 7)
            assert np.array_equal(sampler(law, CHUNK_SIZE, 7, chunk=1), whole[CHUNK_SIZE:2 * CHUNK_SIZE])
            assert np.array_equal(sampler(law, 500, 7, chunk=2), whole[2 * CHUNK_SIZE:])
            with pytest.raises(ValueError, match="a chunk holds at most CHUNK_SIZE = 65536 rows, got n = 65537"):
                sampler(law, CHUNK_SIZE + 1, 7, chunk=0)
            with pytest.raises(ValueError, match="chunk must be an integer in"):
                sampler(law, 10, 7, chunk=-1)

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

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_component_seed_outside_64_bits_rejected(self, seed, index):
        # such arguments used to alias: component_seed(-1, 0) == component_seed(2**64 - 1, 0)
        with pytest.raises(ValueError, match="must be an integer in"):
            component_seed(seed, index)

    def test_component_seed_edges_accepted(self):
        # 2**64 - 1 is also the index of the allocation stream
        edges = [component_seed(s, i) for s in (0, 2**64 - 1) for i in (0, 2**64 - 1)]
        assert len(set(edges)) == 4
        assert all(0 <= s < 2**64 for s in edges)

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

    def test_zero_weight_component_is_never_factored(self):
        # S - delta_hat delta_hat' of this shape is not numerically positive definite
        ok = make_component([0.0, 0.0], np.eye(2), [0.0, 0.0], 3.0)
        flat = make_component([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], [1e9, 1e9], 3.0)
        with pytest.raises(NotPositiveDefiniteError):
            sample_skewt(flat, 10, 1)
        assert sample_mixture(make_mixture([ok, flat], [1.0, 0.0]), 10, 1).shape == (10, 2)

    def test_unfactorable_psi_names_its_cause(self):
        # S - delta_hat delta_hat' = S / (1 + dd) rounds to 0 at dd = 1e16; the density still evaluates
        p = make_component([0.0], [[1.0]], [1e8], 3.0)
        for _ in range(2):  # a failed factorization is not kept
            with pytest.raises(NotPositiveDefiniteError, match=r"U's covariance S - delta_hat delta_hat' .* = 1e\+16"):
                sample_skewt(p, 10, 1)
            assert "psi_factor" not in p._kept
        assert math.isfinite(skewt_logpdf(p, [1.0]))

    @pytest.mark.parametrize("delta", [1.0, 0.0])
    def test_underflowed_mixing_draw_names_the_dof(self, delta):
        # at dof 0.02 about one Gamma(0.01, 100) draw in 1,800 rounds to 0, so a row would be infinite
        p = make_component([0.0], [[1.0]], [delta], 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="cannot sample at dof 0.02: .* mixing draw underflowed to 0"):
                sample_skewt(p, 200_000, 1)
            with pytest.raises(ArithmeticError, match="dof 0.02"):
                sample_mixture(make_mixture([p], [1.0]), 200_000, 1)

    def test_leftover_mass_goes_to_last_positive_weight(self):
        # the weights sum to 1 - 5e-13, so u = 0.99999999999999 lies past every edge
        weights = np.array([0.5, 0.5 - 5e-13, 0.0])
        u = np.array([0.0, 0.2, 0.5, 0.7, 1.0 - 5e-13, 0.99999999999999])
        assert _component_labels(weights, u).tolist() == [0, 0, 1, 1, 1, 1]
        leading = np.array([0.0, 0.3, 0.0, 0.7 - 5e-13, 0.0, 0.0])
        assert _component_labels(leading, u).tolist() == [1, 1, 3, 3, 3, 3]

    def test_labels_unchanged_when_last_weight_positive(self):
        weights = np.array([0.1, 0.0, 0.3, 0.6 - 5e-13])
        u = np.random.default_rng(11).random(10_000)
        u[:2] = [1.0 - 5e-13, 0.99999999999999]
        clipped = np.clip(np.searchsorted(np.cumsum(weights), u, side="right"), 0, len(weights) - 1)
        assert np.array_equal(_component_labels(weights, u), clipped)

    @pytest.mark.parametrize("weights", [
        [0.2, 0.3, 0.5],
        [0.1, 0.0, 0.3, 0.6 - 5e-13],
        [0.5, 0.5 - 5e-13, 0.0],
        [0.0, 0.3, 0.0, 0.7 - 5e-13, 0.0, 0.0],
    ])
    def test_labels_match_searchsorted(self, weights):
        # random u, u exactly at and just below every cumulative edge, and u past the sum
        weights = np.array(weights)
        edges = np.cumsum(weights)
        u = np.concatenate([np.random.default_rng(12).random(CHUNK_SIZE), edges,
                            np.nextafter(edges, 0.0), [0.0, 0.99999999999999]])
        expected = np.minimum(np.searchsorted(edges, u, side="right"), np.flatnonzero(weights)[-1])
        assert np.array_equal(_component_labels(weights, u), expected)

    @pytest.mark.parametrize("mixture_id", tables.MIXTURE_IDS)
    def test_mixture_draws_bit_identical_to_per_chunk_factor(self, mixture_id):
        # in-test copy of the sampler that factored S - delta_hat delta_hat' in every chunk
        mix, n, seed = tables.builtin_mixture(mixture_id), 2 * CHUNK_SIZE + 300, 19
        expected = np.empty((n, mix.dim))
        for c, start in enumerate(range(0, n, CHUNK_SIZE)):
            stop = min(start + CHUNK_SIZE, n)
            u = _stream(component_seed(seed, _ALLOC_TAG), c).random(stop - start)
            labels = np.minimum(np.searchsorted(np.cumsum(mix.weights), u, side="right"),
                                np.flatnonzero(mix.weights)[-1])
            for i, comp in enumerate(mix.components):
                rows = np.flatnonzero(labels == i)
                rng = _stream(component_seed(seed, i), c)
                delta_hat = derive_shape(comp).delta_hat
                lower = SpdMatrix(comp.scale.entries - np.outer(delta_hat, delta_hat)).cholesky_factor
                w = rng.gamma(comp.dof / 2.0, 2.0 / comp.dof, size=rows.size)
                u0 = np.abs(rng.standard_normal(rows.size))
                z = rng.standard_normal((rows.size, comp.dim)) @ lower.T
                expected[start + rows] = comp.mu + (delta_hat * u0[:, None] + z) / np.sqrt(w)[:, None]
        assert np.array_equal(sample_mixture(mix, n, seed), expected)

    def test_psi_factored_once_per_component_per_call(self, monkeypatch):
        # three chunks of a three-component mixture build three SpdMatrix, not nine
        mix = tables.builtin_mixture("d2_m3")
        first = tables.builtin_mixture("d2_m3").components[0]
        built = []
        real = SpdMatrix.__post_init__
        monkeypatch.setattr(SpdMatrix, "__post_init__", lambda self: built.append(1) or real(self))
        sample_mixture(mix, 3 * CHUNK_SIZE, 5)
        sample_skewt(first, 3 * CHUNK_SIZE, 5)
        assert len(built) == 3 + 1

    def test_psi_factor_is_kept_across_chunked_calls_on_two_threads(self, monkeypatch):
        # the chunk=c calls of one Monte Carlo draw, four chunks on two workers, factor each component
        # once; a short thread switch interval makes the workers meet each component at the same time
        mix = tables.builtin_mixture("d2_m3")
        n, seed = 4 * CHUNK_SIZE, 5
        expected = sample_mixture(tables.builtin_mixture("d2_m3"), n, seed)
        real, calls = linalg._cholesky_factor, []
        monkeypatch.setattr(linalg, "_cholesky_factor", lambda a: calls.append(a.shape) or real(a))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                chunks = list(pool.map(lambda c: sample_mixture(mix, CHUNK_SIZE, seed, chunk=c), range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == mix.n_components
        assert np.concatenate(chunks).tobytes() == expected.tobytes()
        assert all(not c._kept["psi_factor"].flags.writeable for c in mix.components)
        sample_mixture(mix, n, seed + 1)
        assert len(calls) == mix.n_components

    def test_mixture_allocation_counts(self):
        near = make_component([0.0], [[1.0]], [0.0], 5.0)
        far = make_component([1000.0], [[1.0]], [0.0], 5.0)
        mix = make_mixture([near, far], [0.2, 0.8])
        n = 1_000_000
        draws = sample_mixture(mix, n, 6)
        count_near = int(np.sum(draws[:, 0] < 500.0))
        tol = 4.0 * math.sqrt(n * 0.2 * 0.8)
        assert abs(count_near - 0.2 * n) <= tol
