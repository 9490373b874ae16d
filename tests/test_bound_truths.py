"""Every "exact" mixture bound against a truth known in closed form or by quadrature.

Three families of mixtures have a deterministic truth:

* identical components, d = 1-3, m = 2-5: the mixture is the component, so its own Shannon and
  Renyi entropies are the truth, up to rounding. Some weights are 0, which the bounds must leave out;
* Gaussian-limit components (delta = 0, dof 1e6, scale S (v - 2)/v, so the covariance is S),
  d = 1-3, m = 2-5: at integer order the power integral of a Gaussian mixture is a sum over the
  compositions of the order by the multinomial theorem, and each product of Gaussian powers
  integrates in closed form. The t components sit about 1e-6 d from their normal limit, so the
  bounds may miss this truth by at most 1e-5 d;
* any mixture at d = 1, m = 2-5, dof 3-12: scipy's ``quad`` integrates -p ln p and p^alpha over
  the real line, split at the component locations; the bounds may miss by the error ``quad``
  reports plus 1e-9.

Two truths also calibrate ``mc.estimates``: over 40 seeds its spread matches the reported standard
error and its mean sits within 3 SE/sqrt(40) of the truth. The d = 3 Gaussian-limit closed form
checks plain sampling and the importance-sampling reduction; a mixture of two identical d = 3
skew-t components at dof 5, whose truth is the component's own entropy, checks importance sampling
from the dof-2.5 proposal, a real change of tails.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import integrate

from skewtmix import tables
from skewtmix.bounds import enumerate_compositions, renyi_bounds, shannon_bounds
from skewtmix.distributions import mixture_logpdf
from skewtmix.entropy import skewt_renyi, skewt_shannon
from skewtmix.mc import estimates

from conftest import make_component, make_mixture

GAUSSIAN_DOF = 1e6
ORDERS = (2, 3, 5)
HARNESS = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def draw_scale(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * d * np.eye(d)


def assert_brackets(report, truth, slack):
    assert report.lower <= truth + slack, (report.lower, truth)
    assert truth <= report.upper + slack, (report.upper, truth)


@st.composite
def identical_mixtures(draw):
    d, m = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comp = make_component(rng.standard_normal(d), draw_scale(rng, d), 3.0 * rng.standard_normal(d),
                          draw(st.floats(3.0, 12.0)))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=m, max_size=m)
                            .filter(lambda w: sum(w) > 0.0)))
    return comp, make_mixture([comp] * m, weights / weights.sum())


@HARNESS
@given(identical_mixtures())
def test_identical_components_bracket_their_own_entropy(case):
    comp, mix = case
    truth = skewt_shannon(comp)
    assert_brackets(shannon_bounds(mix, convention="exact"), truth, 1e-12 * max(1.0, abs(truth)))
    for alpha in ORDERS:
        truth = skewt_renyi(comp, alpha)
        assert_brackets(renyi_bounds(mix, alpha, convention="exact"), truth, 1e-12 * max(1.0, abs(truth)))


def gaussian_renyi(weights, means, covs, alpha):
    """Renyi entropy of order alpha of the Gaussian mixture sum_i w_i N(mu_i, S_i), in closed form.

    For a composition k of alpha, prod_i N_i^{k_i} integrates to
    (2 pi)^{d/2} |P|^{-1/2} exp((b'P^{-1}b - c)/2) prod_i ((2 pi)^d |S_i|)^{-k_i/2}, with
    P = sum k_i S_i^{-1}, b = sum k_i S_i^{-1} mu_i and c = sum k_i mu_i'S_i^{-1} mu_i.
    """
    d = len(means[0])
    precisions = [np.linalg.inv(c) for c in covs]
    log_norms = [-0.5 * (d * math.log(2.0 * math.pi) + np.linalg.slogdet(c)[1]) for c in covs]
    terms = []
    for comp in enumerate_compositions(len(weights), alpha):
        p, b, c = np.zeros((d, d)), np.zeros(d), 0.0
        log_term = math.log(comp.coefficient) + 0.5 * d * math.log(2.0 * math.pi)
        for k, w, mu, prec, log_norm in zip(comp.parts, weights, means, precisions, log_norms):
            if k:
                p, b, c = p + k * prec, b + k * prec @ mu, c + k * mu @ prec @ mu
                log_term += k * (math.log(w) + log_norm)
        terms.append(log_term - 0.5 * np.linalg.slogdet(p)[1] + 0.5 * (b @ np.linalg.solve(p, b) - c))
    shift = max(terms)
    return (shift + math.log(math.fsum(math.exp(t - shift) for t in terms))) / (1.0 - alpha)


def gaussian_limit_mixture(rng, d, m):
    """A Gaussian-limit mixture with its Gaussian weights, means and covariances."""
    means = [2.0 * rng.standard_normal(d) for _ in range(m)]
    covs = [draw_scale(rng, d) for _ in range(m)]
    weights = rng.dirichlet(np.ones(m))
    v = GAUSSIAN_DOF
    mix = make_mixture([make_component(mu, c * (v - 2.0) / v, np.zeros(d), v) for mu, c in zip(means, covs)],
                       weights)
    return mix, (weights, means, covs)


@st.composite
def gaussian_mixtures(draw):
    d, m = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    return gaussian_limit_mixture(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d, m)


@HARNESS
@given(gaussian_mixtures())
def test_gaussian_limit_mixtures_bracket_the_closed_form(case):
    mix, gaussian = case
    for alpha in ORDERS:
        truth = gaussian_renyi(*gaussian, alpha)
        assert_brackets(renyi_bounds(mix, alpha, convention="exact"), truth, 1e-5 * mix.dim)


def quad_truths(mix, orders=ORDERS):
    """(value, error) of a d = 1 mixture's Shannon entropy and of its Renyi entropy at each order, by quad.

    The Renyi error is quad's error of the power integral I carried to ln(I)/(1 - alpha).
    """
    logpdf = functools.lru_cache(maxsize=None)(lambda x: float(mixture_logpdf(mix, np.array([x]))))
    edges = [-math.inf] + sorted(float(c.mu[0]) for c in mix.components) + [math.inf]

    def integral(f):
        parts = [integrate.quad(f, a, b, limit=200) for a, b in zip(edges[:-1], edges[1:])]
        return math.fsum(v for v, _ in parts), math.fsum(e for _, e in parts)

    truths = {"shannon": integral(lambda x: -logpdf(x) * math.exp(logpdf(x)))}
    for alpha in orders:
        power, error = integral(lambda x: math.exp(alpha * logpdf(x)))
        truths[alpha] = (math.log(power) / (1.0 - alpha), error / (power * (alpha - 1.0)))
    return truths


@st.composite
def d1_mixtures(draw):
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = [make_component(2.0 * rng.standard_normal(1), [[rng.uniform(0.3, 5.0)]], 2.0 * rng.standard_normal(1),
                            draw(st.floats(3.0, 12.0))) for _ in range(m)]
    return make_mixture(comps, rng.dirichlet(np.ones(m)))


@settings(HARNESS, max_examples=30)
@given(d1_mixtures())
def test_d1_mixtures_bracket_their_quadrature_truth(mix):
    truths = quad_truths(mix)
    value, error = truths["shannon"]
    assert_brackets(shannon_bounds(mix, convention="exact"), value, error + 1e-9)
    for alpha in ORDERS:
        value, error = truths[alpha]
        assert_brackets(renyi_bounds(mix, alpha, convention="exact"), value, error + 1e-9)


# The "paper" Shannon upper drops the component locations from the covariance, so on every
# bundled d = 1 mixture it lies below the true Shannon entropy, quoted here to 6 decimals.
@pytest.mark.parametrize("m, truth", [(2, 2.557226), (3, 2.441573), (4, 2.326106), (5, 2.422176)])
def test_paper_shannon_upper_lies_below_the_truth(m, truth):
    mix = tables.mixture_d1(m)
    value, error = quad_truths(mix, orders=())["shannon"]
    assert abs(value - truth) <= 5e-7 and error <= 1e-7
    assert shannon_bounds(mix).upper < value - error
    assert_brackets(shannon_bounds(mix, convention="exact"), value, error + 1e-9)


def assert_calibrated(mix, method, alpha, truth):
    """Over 40 seeds the spread of the estimates matches their median reported SE within a factor
    0.6-1.6, and their mean lies within 3 SE/sqrt(40) of the truth. No per-seed bound: a seed in 20
    may lie past 3 SE."""
    ests = [next(estimates(mix, [alpha], 20_000, seed, method=method)) for seed in range(1, 41)]
    values = np.array([e.value for e in ests])
    se = float(np.median([e.std_error for e in ests]))
    assert 0.6 <= np.std(values, ddof=1) / se <= 1.6
    assert abs(values.mean() - truth) <= 3 * se / math.sqrt(len(ests))


# Plain sampling at two orders, and the importance-sampling reduction: at dof 1e6 the proposal's
# dof 5e5 is all but the target's, so "is" here samples all but the target itself: no change of law.
@pytest.mark.parametrize("method, alpha", [("mc", 2), ("mc", 3), ("is", 2)])
def test_estimates_calibrated_on_a_d3_gaussian_limit_mixture(method, alpha):
    mix, gaussian = gaussian_limit_mixture(np.random.default_rng(3), 3, 3)
    assert_calibrated(mix, method, alpha, gaussian_renyi(*gaussian, alpha))


# Importance sampling across a change of tails: the target's dof is 5, the proposal's 2.5. The two
# components are one law, so the mixture's Renyi entropy is the component's, by quadrature.
@pytest.mark.parametrize("alpha", [2, 3])
def test_importance_sampling_calibrated_on_a_d3_skewt_mixture(alpha):
    comp = make_component([0.5, -1.0, 0.0], [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]],
                          [1.0, -0.5, 0.3], 5.0)
    assert_calibrated(make_mixture([comp, comp], [0.4, 0.6]), "is", alpha, skewt_renyi(comp, alpha))
