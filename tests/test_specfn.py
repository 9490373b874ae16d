import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from skewtmix import specfn

EULER_GAMMA = 0.5772156649015329


def mp_reference(fn, *columns):
    """fn evaluated elementwise at 40 significant digits, rounded to float."""
    with mpmath.workdps(40):
        return np.array([float(fn(*map(mpmath.mpf, args))) for args in zip(*columns)])


class TestLogGamma:
    def test_known_values(self):
        assert specfn.log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert specfn.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)
        assert specfn.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)

    def test_accuracy_against_mpmath(self):
        xs = np.geomspace(1e-6, 1e6, 500)
        ours = specfn.log_gamma(xs)
        ref = mp_reference(mpmath.loggamma, xs)
        assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12

    def test_functional_equation(self):
        xs = np.geomspace(1e-3, 1e3, 200)
        lhs = specfn.log_gamma(xs + 1.0)
        rhs = np.log(xs) + specfn.log_gamma(xs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.maximum(1.0, np.abs(rhs)).max()

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            specfn.log_gamma(bad)


class TestDigamma:
    def test_known_values(self):
        assert specfn.digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert specfn.digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
        assert specfn.digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)

    def test_recurrence_grid(self):
        xs = np.geomspace(1e-3, 1e3, 300)
        gap = specfn.digamma(xs + 1.0) - specfn.digamma(xs)
        assert np.max(np.abs(gap - 1.0 / xs)) <= 1e-10

    def test_accuracy_against_mpmath(self):
        xs = np.geomspace(1e-3, 1e6, 500)
        assert np.max(np.abs(specfn.digamma(xs) - mp_reference(mpmath.digamma, xs))) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            specfn.digamma(bad)


class TestLogBeta:
    def test_known_value(self):
        # B(2, 3) = 1/12
        assert specfn.log_beta(2.0, 3.0) == pytest.approx(-math.log(12.0), abs=1e-12)

    def test_symmetry(self):
        assert specfn.log_beta(3.7, 0.4) == pytest.approx(specfn.log_beta(0.4, 3.7), abs=1e-12)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            specfn.log_beta(a, b)
        with pytest.raises(ValueError):
            specfn.log_beta(np.array([a, 1.0]), b)


class TestRegIncBeta:
    def test_edges(self):
        assert specfn.reg_inc_beta(2.3, 4.5, 0.0) == 0.0
        assert specfn.reg_inc_beta(2.3, 4.5, 1.0) == 1.0

    def test_symmetry_point(self):
        assert specfn.reg_inc_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.05, 400.0),
        b=st.floats(0.05, 400.0),
        # interior x keeps the complementary argument 1-x exactly representable
        x=st.floats(1e-3, 1.0 - 1e-3),
    )
    def test_complement_identity(self, a, b, x):
        total = specfn.reg_inc_beta(a, b, x) + specfn.reg_inc_beta(b, a, 1.0 - x)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_accuracy_against_mpmath(self):
        rng = np.random.default_rng(1)
        a = np.exp(rng.uniform(np.log(0.1), np.log(500.0), 4000))
        b = np.exp(rng.uniform(np.log(0.1), np.log(500.0), 4000))
        x = rng.uniform(0.0, 1.0, 4000)
        ref = mp_reference(lambda a, b, x: mpmath.betainc(a, b, 0, x, regularized=True), a, b, x)
        assert np.max(np.abs(specfn.reg_inc_beta(a, b, x) - ref)) <= 1e-12

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 200)
        vals = specfn.reg_inc_beta(3.7, 1.2, xs)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfn.reg_inc_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            specfn.reg_inc_beta(1.0, 2.0, 1.5)


class TestStudentT:
    def test_cdf_center_and_cauchy(self):
        assert specfn.student_t_cdf(0.0, 7.3) == pytest.approx(0.5, abs=1e-14)
        assert specfn.student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_cdf_against_quadrature(self):
        # independent oracle: integrate the t(5) density directly
        target, _ = integrate.quad(lambda t: stats.t.pdf(t, 5), -np.inf, 2.0,
                                   epsabs=1e-13, epsrel=1e-13)
        assert specfn.student_t_cdf(2.0, 5.0) == pytest.approx(target, abs=1e-10)

    def test_cdf_symmetry(self):
        xs = np.linspace(-30.0, 30.0, 101)
        total = specfn.student_t_cdf(xs, 4.0) + specfn.student_t_cdf(-xs, 4.0)
        assert np.max(np.abs(total - 1.0)) <= 1e-14

    def test_cdf_is_antiderivative_of_pdf(self):
        xs = np.linspace(-8.0, 8.0, 161)
        h = 1e-5
        for v in (0.7, 3.0, 11.0):
            deriv = (specfn.student_t_cdf(xs + h, v) - specfn.student_t_cdf(xs - h, v)) / (2 * h)
            pdf = np.exp(specfn.student_t_logpdf(xs, v))
            assert np.max(np.abs(deriv - pdf)) <= 1e-6

    def test_logpdf_values(self):
        assert specfn.student_t_logpdf(0.0, 1.0) == pytest.approx(math.log(1.0 / math.pi), abs=1e-12)
        direct = (specfn.log_gamma(2.0) - 0.5 * math.log(3.0 * math.pi)
                  - specfn.log_gamma(1.5))
        assert specfn.student_t_logpdf(0.0, 3.0) == pytest.approx(direct, abs=1e-12)

    def test_logpdf_integrates_to_one(self):
        val, _ = integrate.quad(lambda t: math.exp(specfn.student_t_logpdf(t, 3.0)),
                                -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_normal_limit(self):
        for x in (0.0, 1.0, 2.0):
            ours = specfn.student_t_logpdf(x, 1e6)
            normal = -0.5 * math.log(2.0 * math.pi) - 0.5 * x * x
            assert ours == pytest.approx(normal, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfn.student_t_cdf(0.0, -1.0)
        with pytest.raises(ValueError):
            specfn.student_t_logpdf(0.0, 0.0)
