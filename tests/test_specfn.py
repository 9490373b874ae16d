import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

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
        for x in (bad, np.array(bad), np.array([1.0, bad])):
            with pytest.raises(ValueError):
                specfn.log_gamma(x)


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
        for x in (bad, np.array(bad), np.array([1.0, bad])):
            with pytest.raises(ValueError):
                specfn.digamma(x)


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
        with pytest.raises(ValueError):
            specfn.log_beta(np.array(a), np.array(b))
        with pytest.raises(ValueError):
            specfn.log_beta(np.array([1.0, a]), np.array([1.0, b]))


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
        for a, b, x in [(-1.0, 2.0, 0.5), (1.0, 2.0, 1.5), (1.0, 0.0, 0.5), (1.0, 2.0, -0.1),
                        (1.0, 2.0, float("nan"))]:
            with pytest.raises(ValueError):
                specfn.reg_inc_beta(a, b, x)
            with pytest.raises(ValueError):
                specfn.reg_inc_beta(np.array(a), np.array(b), np.array(x))
            with pytest.raises(ValueError):
                specfn.reg_inc_beta(np.array([1.0, a]), np.array([2.0, b]), np.array([0.5, x]))


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
        for fn in (specfn.student_t_cdf, specfn.student_t_logpdf):
            for x, v in [(0.0, -1.0), (0.0, 0.0), (float("nan"), 3.0), (0.0, float("inf"))]:
                for args in ((x, v), (np.array(x), np.array(v)), (np.array([0.5, x]), np.array([3.0, v]))):
                    with pytest.raises(ValueError):
                        fn(*args)


def mp_t_cdf(t, v):
    """T_v(t) at 40 significant digits, rounded to float."""
    with mpmath.workdps(40):
        v, t = mpmath.mpf(float(v)), mpmath.mpf(float(t))
        tail = mpmath.betainc(v / 2, mpmath.mpf(0.5), 0, v / (v + t * t), regularized=True) / 2
        return float(tail if t < 0 else 1 - tail)


def mp_t_log_tail(t, v):
    """ln T_v(t) for t < 0 at 40 significant digits, from I_w(a, 1/2) = w^a (1-w)^(1/2) 2F1(a + 1/2, 1; a + 1; w) / (a B)."""
    with mpmath.workdps(40):
        v, t = mpmath.mpf(float(v)), mpmath.mpf(float(t))
        a, w = v / 2, v / (v + t * t)
        ratio = w**a * mpmath.sqrt(1 - w) / (a * mpmath.beta(a, mpmath.mpf(0.5)))
        return float(mpmath.log(ratio * mpmath.hyp2f1(a + mpmath.mpf(0.5), 1, a + 1, w) / 2))


# Both window edges, integer and real dofs, and a dof just above 1.
TABLE_DOFS = [1.0, 1.0 + 2.0**-40, 2.0, 3.7, 8.0, 12.5, 31.3, 64.0]


class TestTCdfTable:
    """One dof in [1, 64] reads T_v from 8 Taylor coefficients about each knot j/32 on [-16, 16]."""

    @pytest.mark.parametrize("v", TABLE_DOFS)
    def test_within_twice_the_error_of_stdtr(self, v):
        # every knot and knot midpoint (where the Taylor remainder is largest), both sides of +-16, and
        # the left tail beyond it down to T = 2e-41 at v = 64; the measured worst ratio is 1.6, at v = 64
        j = np.arange(-512, 512)
        edges = [-16.0 - 2.0**-40, -16.0, -15.9375, 15.9375, 16.0, 16.0 + 2.0**-40, -20.0, -24.0, -28.0, -32.0]
        t = np.concatenate([j / 32.0, (j + 0.5) / 32.0, edges])
        ref = np.array([mp_t_cdf(x, v) for x in t])
        ours = np.abs(specfn.student_t_cdf(t, v) / ref - 1.0)
        theirs = np.abs(special.stdtr(v, t) / ref - 1.0)
        assert ours.max() <= 2.0 * max(theirs.max(), np.finfo(float).eps)

    def test_mirrored_knot_values_are_stdtr(self):
        # the table's c_0 is stdtr on the knots <= 0 and 1 minus it on the rest
        knots = np.arange(-512, 513) / 32.0
        for v in TABLE_DOFS:
            assert specfn._cdf_table(v)[0].tobytes() == special.stdtr(v, knots).tobytes()

    def test_beyond_the_knots_and_outside_the_window_is_stdtr(self):
        t = np.array([-1e6, -40.0, -16.0 - 2.0**-40, 16.0 + 2.0**-40, 17.5, 1e3])
        for v in (1.0, 7.3, 64.0):
            assert specfn.student_t_cdf(t, v).tobytes() == special.stdtr(v, t).tobytes()
        t = np.linspace(-20.0, 20.0, 321)
        for v in (0.5, 1.0 - 2.0**-40, 64.0 + 2.0**-40, 100.0, 1e5):
            assert specfn.student_t_cdf(t, v).tobytes() == special.stdtr(v, t).tobytes()
        two = np.array([4.0, 4.0])
        assert specfn.student_t_cdf(t[:2], two).tobytes() == special.stdtr(two, t[:2]).tobytes()

    def test_each_value_depends_on_its_point_alone(self):
        t = np.random.default_rng(7).standard_normal(5000) * 12.0
        whole = specfn.student_t_cdf(t, 5.5)
        assert np.array([specfn.student_t_cdf(x, 5.5) for x in t[::50]]).tobytes() == whole[::50].tobytes()
        assert specfn.student_t_cdf(t[:, None], np.array([[5.5]]))[:, 0].tobytes() == whole.tobytes()


class TestTLogTail:
    # points where T_v(t) underflows or nearly does, across the dofs; the measured worst is 4e-15
    @pytest.mark.parametrize("t, v", [(-38.6, 1e5), (-40.0, 1e5), (-38.5, 1e6), (-41.2, 5.6e3), (-48.1, 1.8e3),
                                      (-862.6, 178.0), (-1e6, 64.0), (-1e108, 3.0)])
    def test_against_mpmath(self, t, v):
        assert specfn.student_t_log_tail(t, v) == pytest.approx(mp_t_log_tail(t, v), rel=1e-14)

    def test_meets_the_log_of_stdtr_where_it_is_finite(self):
        for v, t in [(2.0, [-1e10, -1e100]), (9.0, [-1e5, -1e30]), (1e4, [-30.0, -37.0])]:
            t = np.array(t)
            np.testing.assert_allclose(specfn.student_t_log_tail(t, v), np.log(special.stdtr(v, t)), rtol=1e-14)

    def test_domain(self):
        for x, v in [(-40.0, 0.0), (float("nan"), 3.0), (-40.0, float("inf"))]:
            with pytest.raises(ValueError):
                specfn.student_t_log_tail(x, v)


ARGS = [
    (specfn.log_gamma, (2.5,)),
    (specfn.digamma, (2.5,)),
    (specfn.log_beta, (2.5, 0.7)),
    (specfn.reg_inc_beta, (2.5, 0.7, 0.3)),
    (specfn.student_t_cdf, (-1.3, 4.5)),
    (specfn.student_t_logpdf, (-1.3, 4.5)),
    (specfn.student_t_log_tail, (-40.0, 1e5)),
]


@pytest.mark.parametrize("fn, args", ARGS, ids=[fn.__name__ for fn, _ in ARGS])
def test_scalar_0d_and_one_element_agree(fn, args):
    scalar = fn(*args)
    zero_d = fn(*map(np.array, args))
    one = fn(*(np.array([a]) for a in args))
    assert type(scalar) is float and type(zero_d) is float
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert scalar == zero_d == one[0]
