import itertools
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from skewtmix import entropy as entropy_module
from skewtmix import specfn, tables
from skewtmix.bounds import renyi_bounds, renyi_large_alpha_approx, shannon_bounds
from skewtmix.distributions import derive_shape, sample_skewt, skewt_logpdf
from skewtmix.entropy import (
    QuadratureWarning,
    mt_renyi,
    mt_shannon,
    power_integral_constant,
    skew_correction,
    skewt_renyi,
    skewt_shannon,
)
from skewtmix.mc import LowEffectiveSampleSize, is_renyi

from conftest import make_component, make_mixture


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


def mp_log_norm(v, d, logdet):
    return (mpmath.loggamma((v + d) / 2) - mpmath.loggamma(v / 2)
            - mpmath.mpf(d) / 2 * mpmath.log(v * mpmath.pi) - logdet / 2)


class TestDofLimit:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_largest_dof_is_accurate_and_a_larger_one_raises(self, d):
        # the closed forms subtract nearly equal lgamma/psi values as dof grows
        p = tables.single_case(d, 1e6)
        with mpmath.workdps(60):
            v, logdet = mpmath.mpf(p.dof), mpmath.log(mpmath.det(mpmath.matrix(p.scale.entries.tolist())))
            shannon = (v + d) / 2 * (mpmath.digamma((v + d) / 2) - mpmath.digamma(v / 2)) - mp_log_norm(v, d, logdet)
            assert abs(mt_shannon(p) - float(shannon)) <= 5e-9
            for alpha in (2, 5):
                # ln of the integral of f^alpha, as the t normaliser times the integral of (1 + Q/v)^-beta
                beta = alpha * (v + d) / 2
                log_power = (alpha * mp_log_norm(v, d, logdet) + mpmath.mpf(d) / 2 * mpmath.log(v * mpmath.pi)
                             + logdet / 2 + mpmath.loggamma(beta - mpmath.mpf(d) / 2) - mpmath.loggamma(beta))
                assert abs(mt_renyi(p, alpha) - float(log_power / (1 - alpha))) <= 5e-9
        for dof in (1e6 * (1.0 + 1e-9), math.inf, math.nan):
            with pytest.raises(ValueError, match=r"dof must be in \(0, 1e\+06\], got "):
                make_component(p.mu, p.scale.entries, p.delta, dof)


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

    def test_order_too_large_for_the_peak_probe(self, case1):
        # the probe would need 5,148,758 nodes; 2**16 is the most it may take
        with pytest.raises(ValueError, match=r"alpha = 1e\+12 is too large: the peak probe would need 5148758 nodes"):
            skewt_renyi(case1, 1e12)

    @pytest.mark.parametrize(
        "alpha, expected",
        [(100.0, 1.2128805633577888), (1000.0, 1.1910433754930791), (5000.0, 1.1882572454028546)],
    )
    def test_large_order_values(self, case1, alpha, expected):
        # the order-alpha integrand peaks ever further out (x ~ 12.5 at alpha = 5000);
        # the configured QuadratureWarning error filter fails a non-converged rule
        assert skewt_renyi(case1, alpha) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("alpha", [1e5, 1e6, 1e7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_large_orders_match_quadrature(self, d, alpha):
        # large orders are a well-posed limit: no warning, and the value agrees with scipy
        p = tables.single_case(d, 3.0)
        reference = mt_renyi(p, alpha) + reference_peak_correction(p, alpha)
        assert skewt_renyi(p, alpha) == pytest.approx(reference, abs=1e-12)


def reference_peak_correction(p, order):
    """The Renyi correction in nats by scipy quadrature of the integrand over its peak.

    The log integrand is evaluated with the t CDF's upper tail, so ln G keeps
    its relative precision near G = 1; the integral is split at the peak that
    minimize_scalar finds. Its relative error 1e-10 moves the correction by
    at most 1e-10 / (order - 1).
    """
    v, d, dd = p.dof, p.dim, float(p.delta @ np.linalg.solve(p.scale.entries, p.delta))
    s = math.sqrt((v + d) * dd)
    den = order * (v + d) - 1.0

    def log_g(x):
        tail = special.stdtr(v + d, -s * x / math.hypot(math.sqrt(den), x))
        return stats.t.logpdf(x, den) + order * (math.log(2.0) + math.log1p(-tail))

    peak = optimize.minimize_scalar(lambda x: -log_g(x), bracket=(0.0, 1.0)).x
    top = log_g(peak)
    kw = dict(epsabs=0.0, epsrel=1e-10, limit=200)
    total = sum(integrate.quad(lambda x: math.exp(log_g(x) - top), lo, hi, **kw)[0]
                for lo, hi in ((-np.inf, peak), (peak, np.inf)))
    return (top + math.log(total)) / (1.0 - order)


def split_quad(f):
    """Integral of f over the real line, split at 0 where the skew factor steps."""
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    return integrate.quad(f, -np.inf, 0.0, **kw)[0] + integrate.quad(f, 0.0, np.inf, **kw)[0]


def reference_correction(p, order):
    """The Shannon correction, or the Renyi one in nats, by scipy quadrature."""
    v, d, dd = p.dof, p.dim, float(p.delta @ np.linalg.solve(p.scale.entries, p.delta))
    s = math.sqrt((v + d) * dd)
    if order == "shannon":
        w = v + d - 1.0

        def f(y):
            g2 = 2.0 * special.stdtr(v + d, s * y / math.hypot(math.sqrt(w), y))
            return stats.t.pdf(y, w) * special.xlogy(g2, g2)

        return split_quad(f)
    den = order * (v + d) - 1.0

    def g(x):
        return stats.t.pdf(x, den) * special.stdtr(v + d, s * x / math.hypot(math.sqrt(den), x)) ** order

    return (order * math.log(2.0) + math.log(split_quad(g))) / (1.0 - order)


def library_correction(p, order):
    """The Shannon correction, or the Renyi one in nats, as the library computes it."""
    return skew_correction(p) if order == "shannon" else skewt_renyi(p, order) - mt_renyi(p, order)


class TestStronglySkewed:
    # Near a step at 0, these integrands need steps finer than 1/128 in t.
    @pytest.mark.parametrize("order", ["shannon", 2.0])
    @pytest.mark.parametrize("dd", [1e4, 1e6])
    @pytest.mark.parametrize("d", [1, 2])
    def test_default_spec_converges(self, d, dd, order):
        p = make_component(np.zeros(d), np.eye(d), np.r_[math.sqrt(dd), np.zeros(d - 1)], 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            value = library_correction(p, order)
        assert value == pytest.approx(reference_correction(p, order), abs=1e-12)


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


def fresh(p):
    """An equal component that has computed nothing yet."""
    return make_component(p.mu, p.scale.entries, p.delta, p.dof)


def unresolved(p):
    """A fresh component of p's dimension whose Shannon and order-2 rules stop short.

    With delta' S^-1 delta = 1e8 at dof 3, the step in the skew factor at 0
    is too sharp for the finest step 1/8192: both rules warn after 81,921
    nodes, while the order-30 rule still converges.
    """
    return make_component(np.zeros(p.dim), np.eye(p.dim), np.r_[1e4, np.zeros(p.dim - 1)], 3.0)


def no_quadrature(*args, **kwargs):
    raise AssertionError("a kept value was computed again")


class TestQuadratureFailure:
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    @pytest.mark.parametrize("order", ["shannon", 2.0], ids=["shannon", "renyi"])
    def test_warns_with_an_error_covering_the_gap(self, request, order, name):
        p = unresolved(request.getfixturevalue(name))
        with pytest.warns(QuadratureWarning, match="did not reach the requested tolerance") as record:
            value = library_correction(p, order)
        assert p._kept == {}
        message = next(str(w.message) for w in record if w.category is QuadratureWarning)
        error = float(re.search(r"error estimate (\S+) over 81921 points", message).group(1))
        assert error > 0.0
        assert abs(value - reference_correction(p, order)) <= error


KEPT_CALLS = (
    lambda p: skewt_shannon(p),
    lambda p: skewt_shannon(p, digamma="printed"),
    lambda p: skewt_renyi(p, 3.0),
    lambda p: skewt_renyi(p, 2.5, variant="printed"),
    lambda p: skewt_renyi(p, 2),
)


class TestKeptCorrections:
    """A converged entropy is kept on its component; a warning or failure is not."""

    def test_refused_orders_and_readings_keep_nothing(self, case1):
        p = fresh(case1)
        for _ in range(2):
            with pytest.raises(ValueError, match="Renyi order too small for tail"):
                skewt_renyi(p, 0.2)  # at or below d/(v+d) = 0.25
            with pytest.raises(ValueError, match="alpha must be finite"):
                skewt_renyi(p, math.nan)
            with pytest.raises(ValueError, match="variant must be"):
                skewt_renyi(p, 2.0, variant="other")
            with pytest.raises(ValueError, match="digamma must be"):
                skewt_shannon(p, digamma="other")
        assert p._kept == {}

    @pytest.mark.parametrize("name", ["case1", "case2", "case3", "flat"])
    def test_second_call_reuses_the_first(self, request, monkeypatch, name):
        if name == "flat":
            case = request.getfixturevalue("case2")
            p = make_component(case.mu, case.scale.entries, np.zeros(case.dim), case.dof)
        else:
            p = fresh(request.getfixturevalue(name))
        first = [f(p) for f in KEPT_CALLS]
        assert first == [f(fresh(p)) for f in KEPT_CALLS]
        assert skewt_renyi(fresh(p), 2.0) == first[-1]
        kept = dict(p._kept)
        assert len(kept) == len(KEPT_CALLS)
        # A warm call runs neither the rule nor the closed forms.
        for stage in ("_sinh_sinh", "power_integral_constant", "mt_shannon", "derive_shape"):
            monkeypatch.setattr(entropy_module, stage, no_quadrature)
        assert [f(p) for f in KEPT_CALLS] == first
        assert skewt_renyi(p, 2.0) == first[-1]  # 2 and 2.0 share one entry
        assert p._kept == kept

    def test_a_numpy_order_is_taken_as_a_python_float(self):
        p = tables.single_case(2, 3.0)
        first = skewt_renyi(p, np.float32(2.5))
        assert type(first) is float and type(skewt_renyi(p, 2.5)) is float
        assert first == skewt_renyi(tables.single_case(2, 3.0), 2.5)
        assert list(p._kept) == [(2.5, "frozen")]
        for order in (2.5 + 0j, np.complex128(2.5), "2.5", np.array(2.5)):
            with pytest.raises(TypeError, match="alpha must be a real number"):
                skewt_renyi(p, order)

    def test_starved_calls_warn_every_time_and_keep_nothing(self, case1):
        p = unresolved(case1)
        values = []
        for _ in range(2):
            with pytest.warns(QuadratureWarning, match="Shannon skewness correction did not reach"):
                values.append(skew_correction(p))
            with pytest.warns(QuadratureWarning, match="Shannon skewness correction did not reach"):
                values.append(skewt_shannon(p))
            with pytest.warns(QuadratureWarning, match="order-alpha power expectation did not reach"):
                values.append(skewt_renyi(p, 2.0))
        assert p._kept == {}
        assert values[:3] == values[3:]

    @pytest.mark.parametrize("correction", [
        lambda p, **kw: skew_correction(p, **kw),
        lambda p, **kw: skewt_renyi(p, 3.0, **kw),
    ])
    def test_each_variant_keeps_its_own_value(self, case2, correction):
        p = fresh(case2)
        values = [correction(p, variant="frozen"), correction(p, variant="printed")]
        assert values[0] != values[1]
        for variant, value in zip(("frozen", "printed"), values):
            assert correction(p, variant=variant) == value == correction(fresh(case2), variant=variant)


def sequential_sinh_sinh(fn, x0, scale, *, log=False):
    """The nested sinh-sinh rule evaluated level by level, one integrand call per level.

    The reference that ``_sinh_sinh``, which evaluates its first levels in
    one call, must match bit for bit in (value, error, points, converged).
    Its points count the nodes placed, and at least the step-1/32 grid's
    321, which ``_sinh_sinh`` places at once.
    """
    shift, points = None, 0

    def terms(t):
        nonlocal shift, points
        points += t.size
        u = 0.5 * math.pi * np.sinh(t)
        jac = scale * (0.5 * math.pi) * np.cosh(t) * np.cosh(u)
        vals = fn(x0 + scale * np.sinh(u))
        if not log:
            return vals * jac
        logs = vals + np.log(jac)
        if shift is None:
            shift = float(np.max(logs))
        return np.exp(logs - shift)

    h, n = 0.125, 40
    f = terms(h * np.arange(-n, n + 1))
    coarse, fine = 2.0 * h * float(np.sum(f[::2])), h * float(np.sum(f))
    while True:
        if log:
            value, error = shift + math.log(fine), abs(math.log(fine / coarse))
        else:
            value, error = fine, abs(fine - coarse)
        converged = error <= max(1e-9, 1e-9 * abs(value))
        if converged or h == 1.0 / 8192:
            return value, error, max(points, 321), converged
        h /= 2.0
        f = terms(h * (2.0 * np.arange(-n, n) + 1.0))
        coarse, fine = fine, 0.5 * fine + h * float(np.sum(f))
        n *= 2


def spy_rules(monkeypatch):
    """Record (arguments, nodes seen, result) of every _sinh_sinh call from now on."""
    real = entropy_module._sinh_sinh
    calls = []

    def spy(fn, x0, scale, *, log=False):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return fn(x)

        rule = real(counted, x0, scale, log=log)
        calls.append(((fn, x0, scale), {"log": log}, sizes, rule))
        return rule

    monkeypatch.setattr(entropy_module, "_sinh_sinh", spy)
    return calls


RULE_ENTROPIES = {
    "shannon": skewt_shannon,
    "renyi2": lambda p: skewt_renyi(p, 2.0),
    "renyi30": lambda p: skewt_renyi(p, 30.0),
}


class TestRuleBookkeeping:
    """The first three levels share one integrand call without changing a bit."""

    @pytest.mark.parametrize("make", [fresh, unresolved], ids=["default", "starved"])
    @pytest.mark.parametrize("kind", RULE_ENTROPIES)
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_equals_the_sequential_rule(self, request, monkeypatch, name, kind, make):
        calls = spy_rules(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            RULE_ENTROPIES[kind](make(request.getfixturevalue(name)))
        (args, kwargs, _, rule), = calls
        assert tuple(rule) == sequential_sinh_sinh(*args, **kwargs)
        assert rule.converged == (make is fresh or kind == "renyi30")

    # The Renyi rule skips the t CDF at nodes whose bound rules them out; that must not
    # move a bit against the whole integrand, t log density + alpha (ln 2 + ln G1), taken
    # at every node, down to the smallest orders and the starved delta' S^-1 delta = 1e8.
    @pytest.mark.parametrize("variant", ["frozen", "printed"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_renyi_rule_equals_the_whole_integrand(self, monkeypatch, d, variant):
        calls = spy_rules(monkeypatch)
        mismatches = []
        for v, dd in itertools.product([0.5, 3.0, 1e6], [1e-8, 1.0, 40.0, 1e4, 1e8]):
            p = make_component(np.zeros(d), np.eye(d), np.r_[math.sqrt(dd), np.zeros(d - 1)], v)
            for alpha in [1.001 * d / (v + d), 0.5, 2.0, 30.0, 100.0, 1e5]:
                if alpha * (v + d) <= d:
                    continue
                rule = entropy_module._renyi_rule(p, alpha, variant)
                (_, x0, scale), kwargs, _, _ = calls.pop()
                den = alpha * (v + d) - 1.0
                dof_x = den if variant == "frozen" else alpha * (v + d) - d
                s = math.sqrt((v + d) * derive_shape(p).dd)

                def whole(x):
                    g = special.stdtr(v + d, s * x / np.hypot(math.sqrt(den), x))
                    with np.errstate(divide="ignore"):
                        return specfn._t_logpdf(x, dof_x) + alpha * (math.log(2.0) + np.log(g))

                if tuple(rule) != sequential_sinh_sinh(whole, x0, scale, **kwargs):
                    mismatches.append((v, dd, alpha))
        assert mismatches == []

    def test_cold_threads_equal_serial(self, case1, case2, case3):
        skewed = make_component([0.0, 1.0], np.eye(2), [100.0, 0.0], 3.0)
        jobs = [(p, kind) for p in (case1, case2, case3, skewed) for kind in RULE_ENTROPIES] * 3
        serial = [RULE_ENTROPIES[kind](fresh(p)) for p, kind in jobs]
        entropy_module._level.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(RULE_ENTROPIES[kind], fresh(p)) for p, kind in jobs]
                threaded = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_level_tables_tile_the_finest_grid(self):
        # each node's t, recovered from sinh u and rounded to the step-1/8192 grid
        levels = [entropy_module._level(k) for k in (0, *range(3, 11))]
        grids = []
        for table in levels:
            assert not any(arr.flags.writeable for arr in table)
            t = np.arcsinh(np.arcsinh(table[2]) / (0.5 * math.pi))
            j = np.rint(8192 * t)
            assert np.abs(8192 * t - j).max() < 1e-6
            grids.append(j)
            # mirror-symmetric bit for bit, which the Shannon rule's one t CDF call per pair needs
            cosh_t, cosh_u, sinh_u = table
            assert np.array_equal(cosh_t, cosh_t[::-1]) and np.array_equal(cosh_u, cosh_u[::-1])
            assert np.array_equal(sinh_u, -sinh_u[::-1])
        assert grids[0].size == 321 and np.all(np.diff(grids[0]) == 256)
        assert np.array_equal(np.sort(np.concatenate(grids)), np.arange(-40960, 40961))

    # A perf guard without timing: a cold call makes one integrand call for the
    # first three levels, plus the peak probe of the Renyi rule. The Shannon call
    # sees the 161 nodes y <= 0 of level 0's 321; the Renyi rule calls the t CDF
    # on the probe's nodes, then on the level-0 nodes its bound keeps (of 321).
    @pytest.mark.parametrize("kind, calls", [("shannon", 1), ("renyi2", 2), ("renyi30", 2)])
    def test_cold_call_counts_of_the_t_cdf(self, monkeypatch, kind, calls):
        seen = []
        real = entropy_module.stdtr
        monkeypatch.setattr(entropy_module, "stdtr", lambda v, a: seen.append(np.size(a)) or real(v, a))
        RULE_ENTROPIES[kind](tables.single_case(1, 3.0))
        assert len(seen) == calls
        assert seen == {"shannon": [161], "renyi2": [10, 167], "renyi30": [32, 102]}[kind]

    @pytest.mark.parametrize("variant", ["frozen", "printed"])
    def test_shannon_rule_refuses_unpaired_nodes(self, monkeypatch, case2, variant):
        real = entropy_module._sinh_sinh
        monkeypatch.setattr(entropy_module, "_sinh_sinh", lambda fn, x0, scale: real(fn, x0 + 0.5, scale))
        with pytest.raises(RuntimeError, match="pairs"):
            skew_correction(fresh(case2), variant=variant)


class TestTCdfMirror:
    """The Shannon rule's premise: stdtr(v, a) == 1 - stdtr(v, -a) bit for bit, for a >= 0.

    A scipy whose stdtr breaks it fails here by name instead of moving entropies.
    """

    def test_bit_for_bit(self):
        dofs = np.concatenate((np.geomspace(0.1, 1e6, 57), [0.3, 0.9, 1.0, 2.0, 3.0, 4.5, 7.0, 64.0, 100.0]))
        rng = np.random.default_rng(26)
        a = np.concatenate((
            [0.0, 5e-324, 1e-300, 1e300, np.finfo(float).max],
            np.geomspace(1e-300, 1e300, 2001),
            10.0 ** rng.uniform(-4.0, 4.0, 4000),
            rng.uniform(0.0, 10.0, 2000),
        ))
        for v in dofs:
            upper = special.stdtr(v, a)
            assert upper.tobytes() == (1.0 - special.stdtr(v, -a)).tobytes(), v


def solo(p):
    return make_mixture([p], [1.0])


def low_ess_estimate(p):
    narrow = make_component(p.mu, 1e-4 * p.scale.entries, np.zeros(p.dim), 50.0)
    return is_renyi(lambda x: skewt_logpdf(p, x), lambda x: skewt_logpdf(narrow, x),
                    lambda k, s, c: sample_skewt(narrow, k, s, chunk=c), 2.0, 50_000, 44)


WARNING_CALLS = {
    "skewt_shannon": (QuadratureWarning, lambda p: skewt_shannon(unresolved(p))),
    "skew_correction": (QuadratureWarning, lambda p: skew_correction(unresolved(p))),
    "skewt_renyi": (QuadratureWarning, lambda p: skewt_renyi(unresolved(p), 2.0)),
    "shannon_bounds": (QuadratureWarning, lambda p: shannon_bounds(solo(unresolved(p)))),
    "renyi_bounds": (QuadratureWarning, lambda p: renyi_bounds(solo(unresolved(p)), 2)),
    "renyi_large_alpha_approx": (QuadratureWarning, lambda p: renyi_large_alpha_approx(solo(unresolved(p)), 2)),
    "is_renyi": (LowEffectiveSampleSize, low_ess_estimate),
}


@pytest.mark.parametrize("category, call", WARNING_CALLS.values(), ids=WARNING_CALLS.keys())
def test_warnings_point_at_the_caller(case1, category, call):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        call(fresh(case1))
    assert any(w.category is category for w in record)
    assert [w.filename for w in record] == [__file__] * len(record)
