import math
import sys
import tracemalloc

import numpy as np
import pytest

from skewtmix import linalg, mc, specfn, tables
from skewtmix.distributions import (
    CHUNK_SIZE,
    mixture_logpdf,
    sample_mixture,
    sample_skewt,
    skewt_logpdf,
)
from skewtmix.entropy import mt_renyi, mt_shannon, skewt_renyi
from skewtmix.mc import (
    BLOCK_SIZE,
    LowEffectiveSampleSize,
    _log_densities,
    estimates,
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


def gauss_sampler(count, seed, chunk):
    # chunk `chunk` of a chunked Philox stream, mirroring the package sampler contract
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    return rng.standard_normal(count)[:, None]


def gauss_draws(n, seed):
    """All n rows of gauss_sampler's sample, chunk after chunk."""
    starts = range(0, n, CHUNK_SIZE)
    return np.concatenate([gauss_sampler(min(CHUNK_SIZE, n - start), seed, c) for c, start in enumerate(starts)])


def whole_array_renyi(logs, alpha):
    """Value, standard error and ESS of a Renyi estimate from one whole-array reduction."""
    n = len(logs)
    scaled = np.exp(logs - np.max(logs))
    mean = float(np.mean(scaled))
    value = (float(np.max(logs)) + math.log(mean)) / (1.0 - alpha)
    std_error = float(np.std(scaled) / (mean * math.sqrt(n))) / abs(1.0 - alpha)
    return value, std_error, float(np.sum(scaled) ** 2 / np.sum(scaled * scaled))


class TestMcShannon:
    def test_gaussian_closed_form(self):
        est = mc_shannon(gauss_logpdf, gauss_sampler, 1_000_000, 7)
        assert abs(est.value - GAUSS_H) <= 3 * est.std_error
        assert est.method == "plain_mc"

    def test_multivariate_t(self):
        p = make_component([0.0], [[1.5]], [0.0], 3.0)
        est = mc_shannon(
            lambda x: skewt_logpdf(p, x), lambda k, s, c: sample_skewt(p, k, s, chunk=c), 1_000_000, 8
        )
        assert abs(est.value - mt_shannon(p)) <= 3 * est.std_error

    def test_skew_t_reference(self, case1):
        est = mc_shannon(
            lambda x: skewt_logpdf(case1, x),
            lambda k, s, c: sample_skewt(case1, k, s, chunk=c),
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
            lambda k, s, c: sample_skewt(case1, k, s, chunk=c),
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
        args = (lambda x: skewt_logpdf(case1, x), lambda k, s, c: sample_skewt(case1, k, s, chunk=c))
        a = mc_shannon(*args, 200_000, 33)
        b = mc_shannon(*args, 200_000, 33)
        assert a == b

    @pytest.mark.parametrize("estimator", ["mc_shannon", "mc_renyi", "is_renyi"])
    def test_thread_count_invariant(self, case1, estimator):
        # 200k draws span four sampler chunks, so each of four threads draws and evaluates one
        target = lambda x: skewt_logpdf(case1, x)  # noqa: E731
        sampler = lambda k, s, c: sample_skewt(case1, k, s, chunk=c)  # noqa: E731
        proposal = fat_proposal(case1)
        calls = {
            "mc_shannon": lambda threads: mc_shannon(target, sampler, 200_000, 34, threads),
            "mc_renyi": lambda threads: mc_renyi(target, sampler, 2.0, 200_000, 34, threads),
            "is_renyi": lambda threads: is_renyi(
                target, lambda x: skewt_logpdf(proposal, x),
                lambda k, s, c: sample_skewt(proposal, k, s, chunk=c), 2.0, 200_000, 34, threads,
            ),
        }
        assert calls[estimator](1) == calls[estimator](4)

    def test_fresh_components_on_more_workers_than_cores(self):
        # new components and t CDF tables in every run, so eight workers race to derive the shapes and build the
        # tables, with a short switch interval; the log densities still equal one worker's bit for bit
        def log_densities(threads):
            mix, proposal = tables.builtin_mixture("d2_m3"), fat_proposal(tables.builtin_mixture("d2_m3"))
            _log_densities.cache_clear()
            kept = _log_densities(lambda k, s, c: sample_mixture(mix, k, s, chunk=c), 6 * CHUNK_SIZE, 47, threads,
                                  lambda x: mixture_logpdf(mix, x), lambda x: mixture_logpdf(proposal, x))
            return [lp.tobytes() for lp in kept]

        serial = log_densities(1)
        specfn._cdf_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            raced = log_densities(8)
        finally:
            sys.setswitchinterval(interval)
        assert raced == serial

    @pytest.mark.parametrize("threads", [1, 4])
    def test_chunked_equals_whole_array_reduction(self, mix_d1_m2, threads):
        # 3.5 sampler chunks (14 blocks) of draws; the reference evaluates each log density on all of them at once
        n, seed, alpha = 3 * CHUNK_SIZE + CHUNK_SIZE // 2, 36, 3.0
        proposal = fat_proposal(mix_d1_m2)
        lp = mixture_logpdf(mix_d1_m2, sample_mixture(mix_d1_m2, n, seed))
        draws = sample_mixture(proposal, n, seed)
        lt, lq = mixture_logpdf(mix_d1_m2, draws), mixture_logpdf(proposal, draws)
        target = lambda x: mixture_logpdf(mix_d1_m2, x)  # noqa: E731
        sampler = lambda k, s, c: sample_mixture(mix_d1_m2, k, s, chunk=c)  # noqa: E731
        shannon = mc_shannon(target, sampler, n, seed, threads)
        assert (shannon.value, shannon.std_error) == (float(-np.mean(lp)), float(np.std(lp) / math.sqrt(n)))
        plain = mc_renyi(target, sampler, alpha, n, seed, threads)
        assert (plain.value, plain.std_error) == whole_array_renyi((alpha - 1.0) * lp, alpha)[:2]
        importance = is_renyi(target, lambda x: mixture_logpdf(proposal, x),
                              lambda k, s, c: sample_mixture(proposal, k, s, chunk=c), alpha, n, seed, threads)
        assert (importance.value, importance.std_error, importance.ess) == whole_array_renyi(alpha * lt - lq, alpha)

    def test_one_draw_and_each_row_once_through_the_t_cdf(self, monkeypatch):
        # 8 blocks of a mixture with 3 skewed components: no row of any component is evaluated twice
        mix = tables.builtin_mixture("d2_m3")
        assert all(np.any(c.delta) for c in mix.components)
        n, args, draws = 2 * CHUNK_SIZE, [], []
        real = specfn.student_t_cdf
        monkeypatch.setattr(specfn, "student_t_cdf", lambda x, v: args.append(np.array(x)) or real(x, v))

        def sampler(count, seed, chunk):
            draws.append((count, chunk))
            return sample_mixture(mix, count, seed, chunk=chunk)

        # every order after the first reuses the kept draws and log densities
        logpdf = lambda x: mixture_logpdf(mix, x)  # noqa: E731
        mc_shannon(logpdf, sampler, n, 37, threads=2)
        mc_renyi(logpdf, sampler, 2.0, n, 37, threads=2)
        mc_renyi(logpdf, sampler, 5.0, n, 37, threads=2)
        assert sorted(draws) == [(CHUNK_SIZE, 0), (CHUNK_SIZE, 1)]
        assert [a.size for a in args] == [BLOCK_SIZE] * (3 * n // BLOCK_SIZE)
        blocked = np.sort(np.concatenate(args))
        args.clear()
        mixture_logpdf(mix, sample_mixture(mix, n, 37))
        assert len(args) == 3 and blocked.tobytes() == np.sort(np.concatenate(args)).tobytes()

    @pytest.mark.parametrize("n", [3 * CHUNK_SIZE + 1000, 2])
    def test_block_edges(self, n):
        # a partial last block, and a sample smaller than one block
        seed, alpha = 39, 2.0
        draws = gauss_draws(n, seed)
        lp = gauss_logpdf(draws)
        expected = [(float(-np.mean(lp)), float(np.std(lp) / math.sqrt(n))),
                    whole_array_renyi((alpha - 1.0) * lp, alpha)[:2]]
        for threads in (1, 2, 4):
            seen = []

            def logpdf(x):
                seen.append(x[:, 0].copy())
                return gauss_logpdf(x)

            shannon = mc_shannon(logpdf, gauss_sampler, n, seed, threads)
            renyi = mc_renyi(logpdf, gauss_sampler, alpha, n, seed, threads)
            assert max(len(x) for x in seen) <= BLOCK_SIZE
            assert np.sort(np.concatenate(seen)).tobytes() == np.sort(draws[:, 0]).tobytes()
            assert [(shannon.value, shannon.std_error), (renyi.value, renyi.std_error)] == expected

    def test_no_batched_triangular_solve(self, monkeypatch):
        # the workers whiten draws and the shape vector by the forward substitution itself: no solve function is called
        def estimate():
            mix = tables.builtin_mixture("d3_m3")
            return mc_shannon(lambda x: mixture_logpdf(mix, x),
                              lambda k, s, c: sample_mixture(mix, k, s, chunk=c), 2 * BLOCK_SIZE, 45, 2)

        def refused(*args, **kwargs):
            raise AssertionError("a triangular solve was called")

        expected = estimate()
        for name in ("solve", "solve_lower_batch", "solve_upper_batch"):
            monkeypatch.setattr(linalg, name, refused)
        assert estimate() == expected

    def test_working_set_of_the_evaluation(self):
        # only the log densities are kept. Each of the two workers holds one chunk of draws at a time: sampling it
        # peaks at 3.8 MiB, and 32,768-row blocks evaluate it in 2.5 MiB (a whole 65,536-row chunk would take 5.1 MiB)
        mix = tables.builtin_mixture("d3_m3")
        n = 4 * CHUNK_SIZE
        _log_densities.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mc_shannon(lambda x: mixture_logpdf(mix, x), lambda k, s, c: sample_mixture(mix, k, s, chunk=c),
                       n, 46, 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        kept = n * 8  # the log densities
        assert peak - kept < 10 * 2**20

    def test_se_scaling(self):
        small = mc_shannon(gauss_logpdf, gauss_sampler, 250_000, 35)
        large = mc_shannon(gauss_logpdf, gauss_sampler, 500_000, 35)
        ratio = small.std_error / large.std_error
        assert abs(ratio - math.sqrt(2.0)) <= 0.15 * math.sqrt(2.0)


class TestImportanceSampling:
    def test_identity_proposal_matches_plain(self, case1):
        logpdf = lambda x: skewt_logpdf(case1, x)  # noqa: E731
        sampler = lambda k, s, c: sample_skewt(case1, k, s, chunk=c)  # noqa: E731
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
            lambda k, s, c: sample_skewt(proposal, k, s, chunk=c),
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
            lambda k, s, c: sample_skewt(proposal, k, s, chunk=c),
            2.0,
            1_000_000,
            42,
        )
        assert abs(est.value - skewt_renyi(case2, 2.0)) <= 3 * est.std_error

    def test_consistency_with_plain(self, mix_d1_m2):
        logpdf = lambda x: mixture_logpdf(mix_d1_m2, x)  # noqa: E731
        sampler = lambda k, s, c: sample_mixture(mix_d1_m2, k, s, chunk=c)  # noqa: E731
        plain = mc_renyi(logpdf, sampler, 3.0, 400_000, 43)
        proposal = fat_proposal(mix_d1_m2)
        importance = is_renyi(
            logpdf,
            lambda x: mixture_logpdf(proposal, x),
            lambda k, s, c: sample_mixture(proposal, k, s, chunk=c),
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
                lambda k, s, c: sample_skewt(narrow, k, s, chunk=c),
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


class TestCalibration:
    # Over 20 seeds the estimates' spread matches the reported SE, and their mean sits within
    # 3 SE/sqrt(20) of the exact value. No per-seed bound: one seed in 20 may lie past 3 SE.
    SEEDS = range(1, 21)

    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    @pytest.mark.parametrize("method", ["plain", "importance"])
    def test_spread_matches_the_reported_se(self, case1, method, alpha):
        logpdf = lambda x: skewt_logpdf(case1, x)  # noqa: E731
        if method == "plain":
            sampler = lambda k, s, c: sample_skewt(case1, k, s, chunk=c)  # noqa: E731
            ests = [mc_renyi(logpdf, sampler, alpha, 20_000, seed) for seed in self.SEEDS]
        else:
            proposal = fat_proposal(case1)
            calls = (lambda x: skewt_logpdf(proposal, x), lambda k, s, c: sample_skewt(proposal, k, s, chunk=c))
            ests = [is_renyi(logpdf, *calls, alpha, 20_000, seed) for seed in self.SEEDS]
        values = np.array([e.value for e in ests])
        se = float(np.median([e.std_error for e in ests]))
        assert 0.6 <= np.std(values, ddof=1) / se <= 1.6
        assert abs(values.mean() - skewt_renyi(case1, alpha)) <= 3 * se / math.sqrt(len(ests))


class TestSharedEvaluation:
    @staticmethod
    def counting(draws):
        def sampler(count, seed, chunk):
            draws.append((count, seed))
            return gauss_sampler(count, seed, chunk)

        return sampler

    def test_new_seed_n_threads_or_callable_draws_again(self):
        draws = []
        sampler = self.counting(draws)
        mc_shannon(gauss_logpdf, sampler, 1000, 1)
        mc_renyi(gauss_logpdf, sampler, 2.0, 1000, 1)
        assert draws == [(1000, 1)]
        mc_shannon(gauss_logpdf, sampler, 1000, 2)
        mc_shannon(gauss_logpdf, sampler, 1001, 2)
        mc_shannon(gauss_logpdf, sampler, 1001, 2, threads=2)
        mc_shannon(lambda x: gauss_logpdf(x), sampler, 1001, 2, threads=2)
        assert draws == [(1000, 1), (1000, 2), (1001, 2), (1001, 2), (1001, 2)]

    def test_sampler_must_return_its_chunk(self):
        # a chunk of another length would leave rows unwritten or write into the next chunk's rows
        with pytest.raises(ValueError, match="sampler returned 999 rows for chunk 0, expected 1000"):
            mc_shannon(gauss_logpdf, lambda k, s, c: gauss_sampler(k - 1, s, c), 1000, 1)

    def test_kept_arrays_are_read_only(self):
        lt, lq = _log_densities(self.counting([]), 1000, 3, 1, gauss_logpdf, gauss_logpdf)
        for lp in (lt, lq):
            with pytest.raises(ValueError, match="read-only"):
                lp[0] = 0.0

    def test_shared_estimates_equal_fresh_ones(self, mix_d1_m2):
        # one set of callables for every order against new callables per order, bit for bit
        n, seed = CHUNK_SIZE + 1000, 38
        proposal = fat_proposal(mix_d1_m2)

        def callables():
            return (lambda x: mixture_logpdf(mix_d1_m2, x), lambda x: mixture_logpdf(proposal, x),
                    lambda k, s, c: sample_mixture(mix_d1_m2, k, s, chunk=c),
                    lambda k, s, c: sample_mixture(proposal, k, s, chunk=c))

        def estimates(fresh):
            shared = callables()
            pick = lambda: callables() if fresh else shared  # noqa: E731
            target, _, sampler, _ = pick()
            out = [mc_shannon(target, sampler, n, seed, 2)]
            for alpha in (2.0, 5.0):
                target, _, sampler, _ = pick()
                out.append(mc_renyi(target, sampler, alpha, n, seed, 2))
            for alpha in (2.0, 5.0):
                target, prop_logpdf, _, prop_sampler = pick()
                out.append(is_renyi(target, prop_logpdf, prop_sampler, alpha, n, seed, 2))
            return out

        assert estimates(fresh=False) == estimates(fresh=True)

    def test_failed_evaluation_is_not_kept(self):
        draws = []
        sampler = self.counting(draws)

        def broken_logpdf(x):
            lp = gauss_logpdf(x)
            lp[5] = np.inf
            return lp

        for _ in range(2):
            with pytest.raises(ArithmeticError, match="draw index 5"):
                mc_renyi(broken_logpdf, sampler, 2.0, 1000, 4)
        assert draws == [(1000, 4), (1000, 4)]


class TestEstimates:
    def test_equal_to_the_estimators_on_their_own_closures(self, mix_d1_m2, monkeypatch):
        # bit for bit, and each method draws every chunk once for all its orders
        n, seed = CHUNK_SIZE + 1000, 17
        draws = []
        real = mc.sample_mixture
        monkeypatch.setattr(mc, "sample_mixture",
                            lambda m, k, s, chunk: draws.append(chunk) or real(m, k, s, chunk=chunk))
        plain = list(estimates(mix_d1_m2, ["shannon", 2.0, 5.0], n, seed, 2))
        assert sorted(draws) == [0, 1]
        importance = list(estimates(mix_d1_m2, [2.0, 5.0], n, seed, 2, method="is"))
        assert sorted(draws) == [0, 0, 1, 1]

        proposal = fat_proposal(mix_d1_m2)
        target = lambda x: mixture_logpdf(mix_d1_m2, x)  # noqa: E731
        sampler = lambda k, s, c: sample_mixture(mix_d1_m2, k, s, chunk=c)  # noqa: E731
        assert plain == [mc_shannon(target, sampler, n, seed, 2), mc_renyi(target, sampler, 2.0, n, seed, 2),
                         mc_renyi(target, sampler, 5.0, n, seed, 2)]
        calls = (lambda x: mixture_logpdf(proposal, x), lambda k, s, c: sample_mixture(proposal, k, s, chunk=c))
        assert importance == [is_renyi(target, *calls, alpha, n, seed, 2) for alpha in (2.0, 5.0)]

    def test_each_order_is_checked_when_its_estimate_is_asked_for(self, mix_d1_m2):
        # an invalid order gets the order error, though the variance rule refuses it too
        ests = estimates(mix_d1_m2, [2.0, -2.0], 1000, 1)
        assert next(ests).method == "plain_mc"
        with pytest.raises(ValueError, match="alpha must be finite, positive and different from 1"):
            next(ests)
        ests = estimates(mix_d1_m2, [2.0, 0.5], 1000, 1)
        assert next(ests).method == "plain_mc"
        with pytest.raises(ValueError, match="plain Monte Carlo cannot estimate the Renyi entropy of order 0.5"):
            next(ests)
        with pytest.raises(ValueError) as info:
            next(estimates(mix_d1_m2, ["shannon"], 1000, 1, method="is"))
        # worded for library callers and CLI users alike
        assert str(info.value) == "importance sampling applies to Renyi orders; use method 'mc' for shannon"
        with pytest.raises(ValueError, match="method must be 'mc' or 'is'"):
            estimates(mix_d1_m2, [2.0], 1000, 1, method="exact")
