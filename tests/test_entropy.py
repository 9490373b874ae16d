import math
import re

import numpy as np
import pytest
from scipy import integrate

from skewtmix.distributions import sample_skewt, skewt_logpdf
from skewtmix.entropy import (
    QuadratureSpec,
    QuadratureWarning,
    mt_renyi,
    mt_shannon,
    power_integral_constant,
    skew_correction,
    skewt_renyi,
    skewt_shannon,
)

from conftest import make_component


def quad_entropy_1d(p):
    """Direct -integral of f ln f, independent of the formula path."""

    def integrand(t):
        lp = skewt_logpdf(p, np.array([t]))
        return -math.exp(lp) * lp

    val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=400, epsabs=1e-10, epsrel=1e-10)
    return val


def quad_renyi_1d(p, alpha):
    val, _ = integrate.quad(
        lambda t: math.exp(alpha * skewt_logpdf(p, np.array([t]))),
        -np.inf, np.inf, limit=400, epsabs=1e-13, epsrel=1e-13,
    )
    return math.log(val) / (1.0 - alpha)


class TestMtShannon:
    def test_case1_scale(self, case1):
        # closed form and the direct quadrature oracle agree
        p = make_component([0.0], [[1.5]], [0.0], 3.0)
        assert mt_shannon(p) == pytest.approx(quad_entropy_1d(p), abs=1e-8)
        assert mt_shannon(p) == pytest.approx(1.9762101259174, abs=1e-10)

    def test_normal_limit(self):
        p = make_component([0.0], [[1.0]], [0.0], 1e6)
        assert mt_shannon(p) == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-3)

    def test_translation_invariant(self):
        a = make_component([0.0], [[1.5]], [0.0], 3.0)
        b = make_component([57.0], [[1.5]], [0.0], 3.0)
        assert mt_shannon(a) == mt_shannon(b)


class TestMtRenyi:
    def test_alpha_near_one(self):
        p = make_component([0.0], [[1.5]], [0.0], 3.0)
        assert mt_renyi(p, 1.0001) == pytest.approx(mt_shannon(p), abs=1e-3)

    def test_quadrature_value(self):
        # frozen from the quadrature oracle of the squared t3 density
        p = make_component([0.0], [[1.0]], [0.0], 3.0)
        oracle = -math.log(integrate.quad(
            lambda t: math.exp(2.0 * skewt_logpdf(p, np.array([t]))),
            -np.inf, np.inf, epsabs=1e-14, epsrel=1e-14)[0])
        assert oracle == pytest.approx(1.4708924789, abs=1e-8)
        assert mt_renyi(p, 2.0) == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_alpha(self):
        p = make_component([0.0], [[1.5]], [0.0], 3.0)
        vals = [mt_renyi(p, a) for a in (1.5, 2.0, 3.0, 5.0, 10.0, 30.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_domain_errors(self):
        p = make_component([0.0], [[1.0]], [0.0], 3.0)
        with pytest.raises(ValueError, match="Shannon"):
            mt_renyi(p, 1.0)
        with pytest.raises(ValueError, match="too small for tail"):
            mt_renyi(p, 0.2)


class TestPowerIntegralConstant:
    def test_alpha_to_one(self):
        p = make_component([0.0], [[2.0]], [0.0], 4.0)
        assert power_integral_constant(p, 1.0 + 1e-9) == pytest.approx(0.0, abs=1e-7)

    def test_matches_quadrature(self):
        p = make_component([0.0], [[1.0]], [0.0], 3.0)
        direct = integrate.quad(
            lambda t: math.exp(2.0 * skewt_logpdf(p, np.array([t]))),
            -np.inf, np.inf, epsabs=1e-14, epsrel=1e-14)[0]
        assert math.exp(power_integral_constant(p, 2.0)) == pytest.approx(direct, rel=1e-10)

    def test_scale_shift_exact(self):
        alpha, c = 3.0, 2.5
        p1 = make_component([0.0, 0.0], np.eye(2), [0.0, 0.0], 4.0)
        p2 = make_component([0.0, 0.0], c * np.eye(2), [0.0, 0.0], 4.0)
        shift = power_integral_constant(p2, alpha) - power_integral_constant(p1, alpha)
        assert shift == pytest.approx((1.0 - alpha) / 2.0 * 2 * math.log(c), rel=1e-12)


class TestSkewCorrection:
    def test_zero_shape_exact(self):
        p = make_component([0.0], [[1.0]], [0.0], 3.0)
        assert skew_correction(p) == 0.0

    def test_case1_value(self, case1):
        # reference Shannon value 1.9590 pins the correction near 0.0172
        corr = skew_correction(case1)
        assert corr == pytest.approx(mt_shannon(case1) - 1.9590, abs=0.002)
        assert corr > 0.0

    def test_even_in_shape(self, case1):
        flipped = make_component(case1.mu, case1.scale.entries, -case1.delta, case1.dof)
        assert skew_correction(flipped) == pytest.approx(skew_correction(case1), abs=1e-10)
        # cross-check against the direct entropy quadrature
        assert quad_entropy_1d(flipped) == pytest.approx(quad_entropy_1d(case1), abs=1e-7)


class TestSkewtShannon:
    def test_reference_values(self, case1):
        assert skewt_shannon(case1) == pytest.approx(1.9590, abs=0.005)
        v12 = make_component(case1.mu, case1.scale.entries, case1.delta, 12.0)
        assert skewt_shannon(v12) == pytest.approx(1.6871, abs=0.005)

    def test_zero_shape_reduction(self):
        p = make_component([0.3], [[1.5]], [0.0], 3.0)
        assert skewt_shannon(p) == mt_shannon(p)

    def test_matches_quadrature(self, case1):
        assert skewt_shannon(case1) == pytest.approx(quad_entropy_1d(case1), abs=1e-7)

    def test_mc_oracle_agreement(self, case1):
        draws = sample_skewt(case1, 400_000, 17)
        lp = skewt_logpdf(case1, draws)
        se = lp.std() / math.sqrt(len(lp))
        assert abs(skewt_shannon(case1) + lp.mean()) <= 3 * se


class TestSkewtRenyi:
    def test_reference_values(self, case1):
        assert skewt_renyi(case1, 2.0) == pytest.approx(1.6571, abs=0.005)
        assert skewt_renyi(case1, 10.0) == pytest.approx(1.3371, abs=0.005)

    def test_large_alpha(self, case1):
        vals = [skewt_renyi(case1, a) for a in (10.0, 30.0, 100.0, 200.0)]
        assert abs(vals[-1] - 1.2311) <= 0.03
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_zero_shape_reduction(self):
        p = make_component([0.3], [[1.5]], [0.0], 3.0)
        for alpha in (0.7, 2.0, 5.0):
            assert skewt_renyi(p, alpha) == pytest.approx(mt_renyi(p, alpha), abs=1e-8)

    def test_matches_quadrature(self, case1):
        for alpha in (2.0, 5.0):
            assert skewt_renyi(case1, alpha) == pytest.approx(quad_renyi_1d(case1, alpha), abs=1e-6)

    def test_alpha_continuity(self, case1):
        h = skewt_shannon(case1)
        assert abs(skewt_renyi(case1, 1.001) - h) <= 5e-3
        assert abs(skewt_renyi(case1, 0.999) - h) <= 5e-3

    def test_fractional_alpha(self, case1):
        # orders below 1 are allowed down to the tail limit
        val = skewt_renyi(case1, 0.5)
        assert val > skewt_renyi(case1, 2.0)

    def test_warns_beyond_cap(self, case1):
        with pytest.warns(RuntimeWarning, match="beyond the supported range"):
            skewt_renyi(case1, 2e4)

    @pytest.mark.parametrize(
        "alpha, expected",
        [(100.0, 1.2128805633577888), (1000.0, 1.1910433754930791), (5000.0, 1.1882572454028546)],
    )
    def test_large_order_values(self, case1, alpha, expected):
        # the order-alpha integrand peaks ever further out (x ~ 12.5 at alpha = 5000);
        # the configured QuadratureWarning error filter fails a non-converged rule
        assert skewt_renyi(case1, alpha) == pytest.approx(expected, abs=1e-9)


class TestInvariants:
    @pytest.mark.parametrize("dof", [3.0, 5.0, 12.0])
    @pytest.mark.parametrize("scale", [1.0, 1.5])
    @pytest.mark.parametrize("delta", [0.3, 2.0])
    def test_continuity_grid(self, dof, scale, delta):
        p = make_component([0.0], [[scale]], [delta], dof)
        assert abs(skewt_renyi(p, 1.001) - skewt_shannon(p)) <= 5e-3

    def test_location_invariance(self, case2):
        moved = make_component(case2.mu + 3.25, case2.scale.entries, case2.delta, case2.dof)
        assert skewt_shannon(moved) == pytest.approx(skewt_shannon(case2), abs=1e-12)
        assert skewt_renyi(moved, 3.0) == pytest.approx(skewt_renyi(case2, 3.0), abs=1e-12)

    def test_skew_normal_limit(self, case1):
        near = make_component(case1.mu, case1.scale.entries, case1.delta, 1e4)
        far = make_component(case1.mu, case1.scale.entries, case1.delta, 1e6)
        assert abs(skewt_shannon(near) - skewt_shannon(far)) <= 0.01
        assert abs(skewt_renyi(near, 2.0) - skewt_renyi(far, 2.0)) <= 0.01

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_public_entropies_return_float(self, request, name):
        p = request.getfixturevalue(name)
        flat = make_component(p.mu, p.scale.entries, np.zeros(p.dim), p.dof)
        for comp in (p, flat):
            values = [
                mt_shannon(comp),
                mt_shannon(comp, digamma="printed"),
                mt_renyi(comp, 2.0),
                power_integral_constant(comp, 2.0),
                skewt_shannon(comp),
                skewt_renyi(comp, 2.0),
                skewt_renyi(comp, 0.7, variant="printed"),
            ]
            assert all(type(v) is float for v in values), [type(v) for v in values]

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=2)


# Tolerances no rule can meet within ten subdivisions: forces the failure path.
STARVED = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=10)


def fresh(p):
    """An equal component that has computed nothing yet."""
    return make_component(p.mu, p.scale.entries, p.delta, p.dof)


def no_quadrature(*args, **kwargs):
    raise AssertionError("the quadrature ran again")


class TestQuadratureFailure:
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    @pytest.mark.parametrize("entropy", [
        lambda p, quad=None: skewt_shannon(p, quad),
        lambda p, quad=None: skewt_renyi(p, 2.0, quad),
    ], ids=["shannon", "renyi"])
    def test_warns_with_an_error_covering_the_gap(self, request, entropy, name):
        p = fresh(request.getfixturevalue(name))
        with pytest.warns(QuadratureWarning, match="did not reach the requested tolerance") as record:
            starved = entropy(p, STARVED)
        assert p._corrections == {}
        message = next(str(w.message) for w in record if w.category is QuadratureWarning)
        error = float(re.search(r"error estimate (\S+) over \d+ points", message).group(1))
        assert error > 0.0
        assert abs(starved - entropy(p)) <= error


KEPT_CALLS = (
    lambda p: skewt_shannon(p),
    lambda p: skewt_renyi(p, 3.0),
    lambda p: skewt_renyi(p, 2.5, variant="printed"),
)


class TestKeptCorrections:
    """A converged correction is kept on its component; a warning or failure is not."""

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_second_call_reuses_the_first(self, request, monkeypatch, name):
        p = fresh(request.getfixturevalue(name))
        first = [f(p) for f in KEPT_CALLS]
        assert first == [f(fresh(p)) for f in KEPT_CALLS]
        monkeypatch.setattr("skewtmix.entropy._sinh_sinh", no_quadrature)
        assert [f(p) for f in KEPT_CALLS] == first

    def test_starved_calls_warn_every_time_and_keep_nothing(self, case1):
        p = fresh(case1)
        for _ in range(2):
            with pytest.warns(QuadratureWarning, match="Shannon skewness correction did not reach"):
                skew_correction(p, STARVED)
            with pytest.warns(QuadratureWarning, match="order-alpha power expectation did not reach"):
                skewt_renyi(p, 2.0, STARVED)
        assert skew_correction(p) == skew_correction(fresh(case1))
        assert skewt_renyi(p, 2.0) == skewt_renyi(fresh(case1), 2.0)

    def test_large_order_warning_repeats(self, case1):
        p = fresh(case1)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="beyond the supported range"):
                skewt_renyi(p, 2e4)

    @pytest.mark.parametrize("correction", [
        lambda p, **kw: skew_correction(p, **kw),
        lambda p, **kw: skewt_renyi(p, 3.0, **kw),
    ])
    def test_each_variant_and_spec_keeps_its_own_value(self, case2, correction):
        loose = QuadratureSpec(abs_tol=1e-4, rel_tol=1e-4)
        p = fresh(case2)
        values = [correction(p, variant="frozen"), correction(p, variant="printed"), correction(p, quad=loose)]
        assert len(set(values)) == 3
        for kwargs, value in zip(({"variant": "frozen"}, {"variant": "printed"}, {"quad": loose}), values):
            assert correction(p, **kwargs) == value == correction(fresh(case2), **kwargs)
