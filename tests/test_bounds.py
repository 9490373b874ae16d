import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from skewtmix import bounds, tables
from skewtmix.bounds import (
    DEFAULT_COMPOSITION_CAP,
    CompositionCapError,
    composition_count,
    enumerate_compositions,
    renyi_bounds,
    renyi_large_alpha_approx,
    renyi_lower,
    renyi_upper,
    shannon_bounds,
)
from skewtmix.distributions import MixtureParams, mixture_logpdf
from skewtmix.entropy import mt_renyi, skewt_renyi, skewt_shannon

from conftest import make_component, make_mixture


class TestCompositions:
    def test_binomial_row(self):
        comps = {c.parts: c.coefficient for c in enumerate_compositions(2, 2)}
        assert comps == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_single_part(self):
        comps = list(enumerate_compositions(1, 7))
        assert len(comps) == 1
        assert comps[0].parts == (7,) and comps[0].coefficient == 1

    def test_three_parts(self):
        comps = list(enumerate_compositions(3, 4))
        assert len(comps) == 15
        assert sum(c.coefficient for c in comps) == 3**4

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [1, 2, 5, 9, 12])
    def test_coefficient_totals_exact(self, m, alpha):
        total = sum(c.coefficient for c in enumerate_compositions(m, alpha))
        assert total == m**alpha  # exact big-integer comparison

    def test_each_once_and_lexicographic(self):
        seen = [c.parts for c in enumerate_compositions(3, 5)]
        assert len(seen) == len(set(seen)) == composition_count(3, 5)
        assert seen == sorted(seen)
        assert all(sum(p) == 5 for p in seen)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_order_zero_is_the_all_zero_composition(self, m):
        assert [(c.parts, c.coefficient) for c in enumerate_compositions(m, 0)] == [((0,) * m, 1)]

    def test_cap(self):
        assert composition_count(6, 100) == 96_560_646 > DEFAULT_COMPOSITION_CAP
        with pytest.raises(CompositionCapError, match="96560646"):
            next(enumerate_compositions(6, 100))


@pytest.fixture(scope="module")
def mixtures():
    return {m: tables.mixture_d1(m) for m in (2, 3, 4, 5)}


class TestShannonBounds:
    def test_reference_rows(self, mixtures):
        for m in (2, 3, 4):
            report = shannon_bounds(mixtures[m])
            ref_lower, ref_upper, ref_mid, _ = tables.REFERENCE_TABLE2_D1[m]
            assert report.lower == pytest.approx(ref_lower, abs=0.02)
            assert report.upper == pytest.approx(ref_upper, abs=0.02)
            assert report.approx == pytest.approx(ref_mid, abs=0.02)

    def test_midpoint_identity(self, mixtures):
        report = shannon_bounds(mixtures[3])
        assert report.approx == pytest.approx((report.lower + report.upper) / 2, abs=1e-12)
        assert report.half_width == pytest.approx((report.upper - report.lower) / 2, abs=1e-12)

    def test_single_component_exact_convention(self, case1):
        mix = make_mixture([case1], [1.0])
        report = shannon_bounds(mix, convention="exact")
        assert report.lower == pytest.approx(skewt_shannon(case1), abs=1e-12)
        assert report.upper >= report.lower

    def test_identical_components_jensen_equality(self, case1):
        mix = make_mixture([case1, case1], [0.25, 0.75])
        report = shannon_bounds(mix, convention="exact")
        assert report.lower == pytest.approx(skewt_shannon(case1), abs=1e-10)

    def test_exact_convention_upper_wider(self, mixtures):
        # separated locations enlarge the exact-convention covariance
        paper = shannon_bounds(mixtures[2], convention="paper")
        exact = shannon_bounds(mixtures[2], convention="exact")
        assert exact.upper > paper.upper
        assert exact.lower > paper.lower  # halved digamma entropies are larger

    def test_dof_guard(self, case1):
        shallow = make_component([0.0], [[1.0]], [0.5], 2.0)
        mix = make_mixture([case1, shallow], [0.5, 0.5])
        with pytest.raises(ValueError) as info:
            shannon_bounds(mix)
        assert str(info.value) == "covariance undefined: component 1 has dof = 2.0 (needs dof > 2)"

    def test_dof_guard_skips_components_of_weight_zero(self, case1):
        shallow = make_component([0.0], [[1.0]], [0.5], 1.5)
        mix, alone = make_mixture([case1, shallow], [1.0, 0.0]), make_mixture([case1], [1.0])
        for convention in ("paper", "exact"):
            got, want = shannon_bounds(mix, convention=convention), shannon_bounds(alone, convention=convention)
            assert (got.lower, got.upper) == (want.lower, want.upper)
        # The Gaussian maximum-entropy cap binds on two equal components and stays in force.
        pair = make_mixture([case1, case1], [0.5, 0.5])
        with_absent = make_mixture([case1, case1, shallow], [0.5, 0.5, 0.0])
        got, want = renyi_bounds(with_absent, 2, convention="exact"), renyi_bounds(pair, 2, convention="exact")
        assert (got.lower, got.upper) == (want.lower, want.upper)
        assert want.upper < skewt_renyi(case1, 2) + math.log(2.0)

    def test_permutation_invariance(self, mixtures):
        mix = mixtures[3]
        perm = MixtureParams(
            components=(mix.components[2], mix.components[0], mix.components[1]),
            weights=np.array([mix.weights[2], mix.weights[0], mix.weights[1]]),
        )
        a = shannon_bounds(mix)
        b = shannon_bounds(perm)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)


class TestRenyiBounds:
    def test_reference_m2_rows(self, mixtures):
        for alpha in (2, 5, 30):
            report = renyi_bounds(mixtures[2], alpha)
            ref = tables.REFERENCE_TABLE3_D1[(2, alpha)]
            assert report.lower == pytest.approx(ref[0], abs=0.01)
            assert report.upper == pytest.approx(ref[1], abs=0.01)
            assert report.approx == pytest.approx(ref[2], abs=0.01)

    def test_single_component_collapse(self, case1):
        mix = make_mixture([case1], [1.0])
        r = renyi_bounds(mix, 3)
        target = skewt_renyi(case1, 3.0)
        assert r.lower == pytest.approx(target, abs=1e-10)
        assert r.upper == pytest.approx(target, abs=1e-10)
        assert r.approx == pytest.approx(target, abs=1e-10)

    @staticmethod
    def composition_sum_lower(mix, alpha):
        """The lower bound as the explicit multinomial sum over every composition."""
        ratio = (1.0 - alpha) / alpha
        rs = [skewt_renyi(c, float(alpha)) for c in mix.components]
        terms = []
        for comp in enumerate_compositions(mix.n_components, alpha):
            if any(k and w == 0.0 for k, w in zip(comp.parts, mix.weights)):
                continue  # a zero weight to a positive power
            terms.append(
                math.log(comp.coefficient)
                + sum(k * (math.log(w) + ratio * r) for k, w, r in zip(comp.parts, mix.weights, rs) if k)
            )
        shift = max(terms)
        return (shift + math.log(math.fsum(math.exp(t - shift) for t in terms))) / (1.0 - alpha)

    def test_lower_multinomial_collapse(self, mixtures):
        # the closed form is the composition sum collapsed by the multinomial theorem
        zero_weight = make_mixture(mixtures[3].components, [0.6, 0.0, 0.4])
        for mix in (mixtures[2], mixtures[3], mixtures[4], mixtures[5], zero_weight):
            for alpha in (2, 7, 30):
                expected = self.composition_sum_lower(mix, alpha)
                assert renyi_lower(mix, alpha) == pytest.approx(expected, rel=1e-12)

    def test_order_beyond_composition_cap(self, mixtures):
        # 70,058,751 compositions: more than the default cap, yet one log-sum in closed form
        assert composition_count(5, 200) > DEFAULT_COMPOSITION_CAP
        for convention in ("paper", "exact", "listed"):
            report = renyi_bounds(mixtures[5], 200, convention=convention)
            assert math.isfinite(report.lower) and math.isfinite(report.upper)
            assert report.lower <= report.upper

    def test_ordering_always_holds(self, mixtures):
        for m in (2, 3, 4, 5):
            for alpha in (2, 3, 10):
                report = renyi_bounds(mixtures[m], alpha)
                assert report.lower <= report.upper + 1e-12

    def test_permutation_invariance(self, mixtures):
        mix = mixtures[3]
        perm = MixtureParams(
            components=(mix.components[1], mix.components[2], mix.components[0]),
            weights=np.array([mix.weights[1], mix.weights[2], mix.weights[0]]),
        )
        assert renyi_lower(mix, 4) == pytest.approx(renyi_lower(perm, 4), abs=1e-12)
        assert renyi_upper(mix, 4) == pytest.approx(renyi_upper(perm, 4), abs=1e-12)

    def test_integer_alpha_required(self, mixtures):
        with pytest.raises(ValueError, match="integer alpha required"):
            renyi_lower(mixtures[2], 2.5)
        with pytest.raises(ValueError, match="alpha >= 2"):
            renyi_upper(mixtures[2], 1)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="integer alpha required"):
                renyi_bounds(mixtures[2], bad)

    def test_half_width_stabilizes(self, mixtures):
        hw20 = renyi_bounds(mixtures[2], 20).half_width
        hw30 = renyi_bounds(mixtures[2], 30).half_width
        assert hw30 <= 2.0 * hw20

    @pytest.mark.parametrize("convention", ["paper", "exact", "listed"])
    def test_zero_weight_component_ignored(self, case1, convention):
        other = make_component([5.0], [[2.0]], [1.0], 4.0)
        mix = renyi_bounds(make_mixture([case1, other], [1.0, 0.0]), 3, convention=convention)
        solo = renyi_bounds(make_mixture([case1], [1.0]), 3, convention=convention)
        assert mix.lower == pytest.approx(solo.lower, abs=1e-12)
        assert mix.upper == pytest.approx(solo.upper, abs=1e-12)


def quadrature_renyi(mix, alpha):
    """(1/(1-alpha)) ln of the mixture's order-alpha power integral on the line.

    Adaptive quadrature split at the component locations, with the integrand
    scaled by its largest value there so that high orders do not underflow.
    """
    locs = sorted({float(c.mu[0]) for c in mix.components})

    def log_power(x):
        return alpha * float(mixture_logpdf(mix, np.array([[x]]))[0])

    shift = max(log_power(x) for x in locs)
    edges = [-np.inf, *locs, np.inf]
    value = sum(
        integrate.quad(lambda x: math.exp(log_power(x) - shift), a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )
    return (shift + math.log(value)) / (1.0 - alpha)


class TestRenyiConventions:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_exact_brackets_quadrature_truth(self, mixtures, m, alpha):
        truth = quadrature_renyi(mixtures[m], alpha)
        report = renyi_bounds(mixtures[m], alpha, convention="exact")
        assert report.lower <= truth <= report.upper

    def test_exact_d1_m2_alpha2_values(self, mixtures):
        report = renyi_bounds(mixtures[2], 2, convention="exact")
        assert quadrature_renyi(mixtures[2], 2) == pytest.approx(2.2651, abs=1e-4)
        assert report.lower == pytest.approx(1.8895, abs=1e-4)
        assert report.upper == pytest.approx(2.3177, abs=1e-4)
        # the default telescoping value falls below the truth here
        assert renyi_upper(mixtures[2], 2) < 2.2651

    def test_exact_single_component_collapse(self, case1):
        r = renyi_bounds(make_mixture([case1], [1.0]), 3, convention="exact")
        target = skewt_renyi(case1, 3.0)
        assert r.lower == pytest.approx(target, abs=1e-10)
        assert r.upper == pytest.approx(target, abs=1e-10)

    def test_exact_upper_without_covariance(self, case1):
        # dof <= 2 rules out the Gaussian bound; the cross-term bound remains
        heavy = make_component([3.0], [[1.0]], [0.5], 2.0)
        r = renyi_bounds(make_mixture([case1, heavy], [0.5, 0.5]), 2, convention="exact")
        rs = [skewt_renyi(c, 2.0) for c in (case1, heavy)]
        assert r.upper == pytest.approx(-math.log(sum(0.25 * math.exp(-x) for x in rs)), abs=1e-12)

    def test_paper_is_default(self, mixtures):
        a = renyi_bounds(mixtures[4], 5)
        b = renyi_bounds(mixtures[4], 5, convention="paper")
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert a.upper == renyi_upper(mixtures[4], 5)

    def test_listed_matches_paper_in_sorted_order(self, mixtures):
        # listed in non-increasing power integral order, the listed reading
        # is the paper pair with min/max applied
        mix = mixtures[4]
        alpha = 5
        order = np.argsort([skewt_renyi(c, float(alpha)) for c in mix.components], kind="stable")
        ordered = MixtureParams(
            components=tuple(mix.components[i] for i in order), weights=mix.weights[order]
        )
        listed = renyi_bounds(ordered, alpha, convention="listed")
        paper = renyi_bounds(mix, alpha)
        assert listed.lower == pytest.approx(min(paper.lower, paper.upper), abs=1e-12)
        assert listed.upper == pytest.approx(max(paper.lower, paper.upper), abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [2, 5, 30])
    def test_telescoped_matches_summation_by_parts(self, mixtures, m, alpha):
        # listed in non-increasing power integral order, the listed reading
        # telescopes the same sum as the paper reading; summation by parts
        # rewrites it as sum_j (W_j^alpha - W_{j-1}^alpha) I_j, all terms >= 0
        mix = mixtures[m]
        rs = [skewt_renyi(c, float(alpha)) for c in mix.components]
        order = sorted(range(m), key=lambda i: -(1.0 - alpha) * rs[i])
        ordered = MixtureParams(
            components=tuple(mix.components[i] for i in order), weights=mix.weights[order]
        )
        log_i = [(1.0 - alpha) * rs[i] for i in order]
        shift = max(log_i)
        cum = [0.0] + [math.fsum(ordered.weights[: j + 1]) for j in range(m)]
        total = math.fsum(
            (cum[j + 1] ** alpha - cum[j] ** alpha) * math.exp(log_i[j] - shift) for j in range(m)
        )
        reference = (shift + math.log(total)) / (1.0 - alpha)

        paper = renyi_bounds(mix, alpha).upper
        listed = renyi_bounds(ordered, alpha, convention="listed")
        telescoped = min((listed.lower, listed.upper), key=lambda v: abs(v - paper))
        assert telescoped == pytest.approx(paper, rel=1e-14, abs=0.0)
        assert paper == pytest.approx(reference, rel=1e-14, abs=0.0)
        assert telescoped == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_listed_depends_on_order(self, mixtures):
        mix = mixtures[3]
        perm = MixtureParams(
            components=(mix.components[2], mix.components[0], mix.components[1]),
            weights=np.array([mix.weights[2], mix.weights[0], mix.weights[1]]),
        )
        a = renyi_bounds(mix, 3, convention="listed")
        b = renyi_bounds(perm, 3, convention="listed")
        assert a.lower <= a.upper and b.lower <= b.upper
        assert abs(a.half_width - b.half_width) > 1e-6

    def test_unknown_convention(self, mixtures):
        with pytest.raises(ValueError, match="convention"):
            renyi_bounds(mixtures[2], 2, convention="sorted")


class TestLargeAlphaApprox:
    def test_single_component(self, case1):
        mix = make_mixture([case1], [1.0])
        assert renyi_large_alpha_approx(mix, 12) == pytest.approx(skewt_renyi(case1, 12.0), abs=1e-10)

    def test_needs_alpha_at_least_m(self, mixtures):
        with pytest.raises(ValueError, match="at least the component count"):
            renyi_large_alpha_approx(mixtures[3], 2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_order_equal_to_component_count(self, m):
        # only the all-ones composition: every part is a component Shannon entropy
        mix = tables.mixture_d1(m)
        terms = [
            math.log(m) + math.log(w) + (1.0 - m) / m * skewt_shannon(c)
            for c, w in zip(mix.components, mix.weights)
        ]
        assert renyi_large_alpha_approx(mix, m) == pytest.approx(sum(terms) / (1.0 - m), rel=1e-12)

    def test_identical_components_merge(self, case1):
        mix = make_mixture([case1, case1], [0.5, 0.5])
        # the approximation approaches the shared component value as the order grows
        diffs = [
            abs(renyi_large_alpha_approx(mix, a) - skewt_renyi(case1, float(a)))
            for a in (5, 10, 20, 40)
        ]
        assert all(x > y for x, y in zip(diffs, diffs[1:]))
        assert diffs[2] <= 0.05

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    def test_zero_weight_component_left_out(self, alpha):
        mix = tables.mixture_d1(3)
        zero = make_mixture(mix.components, [0.6, 0.0, 0.4])
        kept = make_mixture([mix.components[0], mix.components[2]], [0.6, 0.4])
        value = renyi_large_alpha_approx(zero, alpha)
        assert value == pytest.approx(renyi_large_alpha_approx(kept, alpha), rel=1e-12)

    def test_broken_component_raises_its_own_error(self, case1):
        # delta'S^-1 delta overflows, so every term needs an entropy that cannot be evaluated
        broken = make_component([0.0], [[1.0]], [1e200], 3.0)
        mix = make_mixture([case1, broken], [0.5, 0.5])
        with pytest.raises(ValueError, match="shape standardization failed"):
            renyi_large_alpha_approx(mix, 4)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [10, 15, 20, 30])
    def test_below_the_exact_lower_bound(self, mixtures, m, alpha):
        # the stated error: the form lies 0.019-0.081 below the valid lower bound
        # and 0.30-0.47 below the quadrature truth on these cells
        truth = quadrature_renyi(mixtures[m], alpha)
        report = renyi_bounds(mixtures[m], alpha, convention="exact")
        assert report.lower <= truth <= report.upper
        assert renyi_large_alpha_approx(mixtures[m], alpha) < report.lower

    def test_each_component_entropy_is_read_once(self, mixtures, case1, monkeypatch):
        renyi, shannon = [], []
        monkeypatch.setattr(bounds, "skewt_renyi", lambda c, a: renyi.append((id(c), a)) or skewt_renyi(c, a))
        monkeypatch.setattr(bounds, "skewt_shannon", lambda c: shannon.append(id(c)) or skewt_shannon(c))
        mix = mixtures[4]
        renyi_large_alpha_approx(mix, 30)
        assert (len(renyi), len(shannon)) == (104, 4)
        # orders 2 to alpha - m + 1 = 27 and Shannon at 1, each once per component
        assert sorted(renyi) == sorted((id(c), float(k)) for c in mix.components for k in range(2, 28))
        assert sorted(shannon) == sorted(id(c) for c in mix.components)
        renyi.clear()
        shannon.clear()
        renyi_large_alpha_approx(make_mixture([case1], [1.0]), 12)
        assert [a for _, a in renyi] == [12.0] and shannon == []

    @staticmethod
    def log_space_convolution(mix, alpha):
        """The form as the alpha-th entry of the convolution of one factor sequence per component."""
        ratio, top = (1.0 - alpha) / alpha, alpha - mix.n_components + 1
        ks = np.arange(1, top + 1)
        acc = np.array([0.0])  # log of the convolution so far, indexed by the order spent
        for w, c in zip(mix.weights, mix.components):
            ent = np.array([skewt_shannon(c) if k == 1 else skewt_renyi(c, float(k)) for k in ks])
            log_f = -ks * np.log(ks / alpha) + ks * math.log(w) + ratio * ks * ent
            nxt = np.full(len(acc) + top, -np.inf)
            for j in np.flatnonzero(np.isfinite(acc)):
                nxt[j + 1 : j + 1 + top] = np.logaddexp(nxt[j + 1 : j + 1 + top], acc[j] + log_f)
            acc = nxt
        return float(acc[alpha]) / (1.0 - alpha)

    @pytest.mark.parametrize("mixture_id", ["d1_m2", "d1_m3", "d1_m4", "d1_m5", "d2_m2", "d2_m3"])
    def test_matches_a_log_space_convolution(self, mixture_id):
        mix = tables.builtin_mixture(mixture_id)
        for alpha in sorted({mix.n_components, 5, 10, 20, 30}):
            expected = self.log_space_convolution(mix, alpha)
            assert renyi_large_alpha_approx(mix, alpha) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_cap_raises_before_any_entropy(self, case1, monkeypatch):
        reads = []
        monkeypatch.setattr(bounds, "skewt_renyi", lambda c, a: reads.append(a) or skewt_renyi(c, a))
        monkeypatch.setattr(bounds, "skewt_shannon", lambda c: reads.append(1) or skewt_shannon(c))
        mix = make_mixture([case1] * 6, [1.0 / 6.0] * 6)
        with pytest.raises(CompositionCapError, match="71523144"):
            renyi_large_alpha_approx(mix, 100)
        with pytest.raises(CompositionCapError):
            enumerate_compositions(6, 94)  # at the call, not at the first composition
        assert reads == []

    def test_within_widened_bounds(self, mixtures):
        alpha = 20
        lo = renyi_lower(mixtures[2], alpha)
        hi = renyi_upper(mixtures[2], alpha)
        val = renyi_large_alpha_approx(mixtures[2], alpha)
        assert lo - 0.05 <= val <= hi + 0.05


def test_bounds_return_float(mixtures):
    mix = mixtures[3]
    reports = [shannon_bounds(mix, convention=c) for c in ("paper", "exact")]
    reports += [renyi_bounds(mix, 3, convention=c) for c in ("paper", "exact", "listed")]
    values = [v for r in reports for v in (r.lower, r.upper, r.approx, r.half_width, *r.per_component)]
    values += [renyi_lower(mix, 3), renyi_upper(mix, 3), renyi_large_alpha_approx(mix, 3)]
    assert all(type(v) is float for v in values), [type(v) for v in values]


@pytest.mark.parametrize("delta", [1e200, 1e4])
def test_bounds_never_evaluate_a_component_of_weight_zero(mixtures, delta):
    # delta = 1e200 cannot be standardized and delta = 1e4 leaves the quadrature's convergent range;
    # neither can move a bound at weight 0, so neither may raise or warn
    base = mixtures[2]
    absent = make_component([0.0], [[1.0]], [delta], 3.0)
    mix = make_mixture(base.components + (absent,), [0.2, 0.8, 0.0])
    alone = make_mixture(base.components, [0.2, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (lambda m: shannon_bounds(m), lambda m: shannon_bounds(m, convention="exact"),
                   lambda m: renyi_bounds(m, 2), lambda m: renyi_bounds(m, 2, convention="exact")):
            got, want = fn(mix), fn(alone)
            assert (got.lower, got.upper, got.per_component) == (want.lower, want.upper, want.per_component)


class TestMtConsistency:
    def test_zero_shape_bounds_match_mt(self):
        p = make_component([0.0], [[1.5]], [0.0], 5.0)
        mix = make_mixture([p], [1.0])
        r = renyi_bounds(mix, 4)
        assert r.approx == pytest.approx(mt_renyi(p, 4.0), abs=1e-10)
