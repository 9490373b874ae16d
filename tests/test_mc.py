import math

import numpy as np
import pytest

from skewtmix.distributions import (
    mixture_logpdf,
    sample_mixture,
    sample_skewt,
    skewt_logpdf,
)
from skewtmix.entropy import mt_renyi, mt_shannon, skewt_renyi
from skewtmix.mc import (
    Estimate,
    LowEffectiveSampleSize,
    fat_proposal,
    is_renyi,
    mc_renyi,
    mc_shannon,
)

from conftest import make_component, make_mixture

GAUSS_H = 0.5 * math.log(2.0 * math.pi * math.e)
GAUSS_R2 = 0.5 * math.log(2.0 * math.pi) + 0.5 * math.log(2.0)


def gauss_logpdf(x):
    x = np.asarray(x)[..., 0]
    return -0.5 * math.log(2.0 * math.pi) - 0.5 * x * x


def gauss_sampler(n, seed):
    # chunked Philox stream, mirroring the package sampler contract
    out = np.empty((n, 1))
    chunk = 1 << 16
    for c, start in enumerate(range(0, n, chunk)):
        stop = min(start + chunk, n)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, c], dtype=np.uint64)))
        out[start:stop, 0] = rng.standard_normal(stop - start)
    return out


class TestMcShannon:
    def test_gaussian_closed_form(self):
        est = mc_shannon(gauss_logpdf, gauss_sampler, 1_000_000, 7)
        assert abs(est.value - GAUSS_H) <= 3 * est.std_error
        assert est.method == "plain_mc"

    def test_multivariate_t(self):
        p = make_component([0.0], [[1.5]], [0.0], 3.0)
        est = mc_shannon(
            lambda x: skewt_logpdf(p, x), lambda n, s: sample_skewt(p, n, s), 1_000_000, 8
        )
        assert abs(est.value - mt_shannon(p)) <= 3 * est.std_error

    def test_skew_t_reference(self, case1):
        est = mc_shannon(
            lambda x: skewt_logpdf(case1, x),
            lambda n, s: sample_skewt(case1, n, s),
            1_000_000,
            9,
        )
        assert abs(est.value - 1.9590) <= max(3 * est.std_error, 0.01)

    def test_non_finite_detected(self):
        def broken_logpdf(x):
            lp = gauss_logpdf(x)
            lp[3] = np.nan
            return lp

        with pytest.raises(ArithmeticError, match="draw index 3"):
            mc_shannon(broken_logpdf, gauss_sampler, 1000, 1)


class TestMcRenyi:
    def test_gaussian_closed_form(self):
        est = mc_renyi(gauss_logpdf, gauss_sampler, 2.0, 1_000_000, 10)
        assert abs(est.value - GAUSS_R2) <= 3 * est.std_error

    def test_skew_t_reference(self, case1):
        est = mc_renyi(
            lambda x: skewt_logpdf(case1, x),
            lambda n, s: sample_skewt(case1, n, s),
            2.0,
            1_000_000,
            11,
        )
        assert abs(est.value - 1.6571) <= max(3 * est.std_error, 0.01)

    def test_brackets_shannon_near_one(self):
        h = mc_shannon(gauss_logpdf, gauss_sampler, 400_000, 12).value
        below = mc_renyi(gauss_logpdf, gauss_sampler, 1.001, 400_000, 12)
        above = mc_renyi(gauss_logpdf, gauss_sampler, 0.999, 400_000, 12)
        band = 3 * (below.std_error + above.std_error) + 1e-3
        assert above.value + band >= h >= below.value - band

    def test_alpha_validation(self):
        for bad in (1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                mc_renyi(gauss_logpdf, gauss_sampler, bad, 100, 0)
            with pytest.raises(ValueError):
                is_renyi(gauss_logpdf, gauss_logpdf, gauss_sampler, bad, 100, 0)


class TestDeterminism:
    def test_bit_identical(self, case1):
        args = (lambda x: skewt_logpdf(case1, x), lambda n, s: sample_skewt(case1, n, s))
        a = mc_shannon(*args, 200_000, 33)
        b = mc_shannon(*args, 200_000, 33)
        assert a == b

    def test_thread_count_invariant(self, case1):
        args = (lambda x: skewt_logpdf(case1, x), lambda n, s: sample_skewt(case1, n, s))
        serial = mc_renyi(*args, 2.0, 200_000, 34, threads=1)
        threaded = mc_renyi(*args, 2.0, 200_000, 34, threads=4)
        assert serial == threaded

    def test_se_scaling(self):
        small = mc_shannon(gauss_logpdf, gauss_sampler, 250_000, 35)
        large = mc_shannon(gauss_logpdf, gauss_sampler, 500_000, 35)
        ratio = small.std_error / large.std_error
        assert abs(ratio - math.sqrt(2.0)) <= 0.15 * math.sqrt(2.0)


class TestImportanceSampling:
    def test_identity_proposal_matches_plain(self, case1):
        logpdf = lambda x: skewt_logpdf(case1, x)  # noqa: E731
        sampler = lambda n, s: sample_skewt(case1, n, s)  # noqa: E731
        plain = mc_renyi(logpdf, sampler, 2.0, 100_000, 40)
        importance = is_renyi(logpdf, logpdf, sampler, 2.0, 100_000, 40)
        assert importance.value == pytest.approx(plain.value, abs=1e-12)
        assert importance.method == "importance"

    def test_mt_closed_form_with_fat_proposal(self):
        target = make_component([0.0], [[1.0]], [0.0], 3.0)
        proposal = fat_proposal(target)
        assert proposal.dof == 1.5
        est = is_renyi(
            lambda x: skewt_logpdf(target, x),
            lambda x: skewt_logpdf(proposal, x),
            lambda n, s: sample_skewt(proposal, n, s),
            5.0,
            1_000_000,
            41,
        )
        assert abs(est.value - mt_renyi(target, 5.0)) <= 3 * est.std_error

    def test_skew_t_d2_matches_formula(self, case2):
        proposal = fat_proposal(case2)
        est = is_renyi(
            lambda x: skewt_logpdf(case2, x),
            lambda x: skewt_logpdf(proposal, x),
            lambda n, s: sample_skewt(proposal, n, s),
            2.0,
            1_000_000,
            42,
        )
        assert abs(est.value - skewt_renyi(case2, 2.0)) <= 3 * est.std_error

    def test_consistency_with_plain(self, mix_d1_m2):
        logpdf = lambda x: mixture_logpdf(mix_d1_m2, x)  # noqa: E731
        sampler = lambda n, s: sample_mixture(mix_d1_m2, n, s)  # noqa: E731
        plain = mc_renyi(logpdf, sampler, 3.0, 400_000, 43)
        proposal = fat_proposal(mix_d1_m2)
        importance = is_renyi(
            logpdf,
            lambda x: mixture_logpdf(proposal, x),
            lambda n, s: sample_mixture(proposal, n, s),
            3.0,
            400_000,
            43,
        )
        assert abs(plain.value - importance.value) <= 3 * (plain.std_error + importance.std_error)

    def test_low_ess_flagged(self):
        # deliberately terrible proposal: much narrower than target^2
        target = make_component([0.0], [[400.0]], [0.0], 3.0)
        narrow = make_component([0.0], [[0.01]], [0.0], 50.0)
        with pytest.warns(LowEffectiveSampleSize):
            est = is_renyi(
                lambda x: skewt_logpdf(target, x),
                lambda x: skewt_logpdf(narrow, x),
                lambda n, s: sample_skewt(narrow, n, s),
                2.0,
                50_000,
                44,
            )
        assert est.low_ess
        assert est.ess < 0.01 * est.n

    def test_fat_proposal_mixture(self, mix_d1_m2):
        prop = fat_proposal(mix_d1_m2)
        assert all(c.dof == max(1.0, o.dof / 2.0) for c, o in zip(prop.components, mix_d1_m2.components))
        assert np.array_equal(prop.weights, mix_d1_m2.weights)


class TestEstimate:
    def test_interval(self):
        est = Estimate(value=1.0, std_error=0.1, n=100, seed=1, method="plain_mc")
        assert est.interval(2.0) == (0.8, 1.2)
