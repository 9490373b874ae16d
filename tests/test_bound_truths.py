"""Every "exact" mixture bound against a truth known in closed form.

Two families of mixtures have a deterministic truth, drawn at d = 1-3 and m = 2-5:

* identical components: the mixture is the component, so its own Shannon and Renyi entropies
  are the truth, up to rounding. Some weights are 0, which the bounds must leave out;
* Gaussian-limit components (delta = 0, dof 1e6, scale S (v - 2)/v, so the covariance is S):
  at integer order the power integral of a Gaussian mixture is a sum over the compositions of
  the order by the multinomial theorem, and each product of Gaussian powers integrates in closed
  form. The t components sit about 1e-6 d from their normal limit, so the bounds may miss this
  truth by at most 1e-5 d.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewtmix.bounds import enumerate_compositions, renyi_bounds, shannon_bounds
from skewtmix.entropy import skewt_renyi, skewt_shannon

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


@st.composite
def gaussian_mixtures(draw):
    d, m = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = [2.0 * rng.standard_normal(d) for _ in range(m)]
    covs = [draw_scale(rng, d) for _ in range(m)]
    weights = rng.dirichlet(np.ones(m))
    v = GAUSSIAN_DOF
    mix = make_mixture([make_component(mu, c * (v - 2.0) / v, np.zeros(d), v) for mu, c in zip(means, covs)],
                       weights)
    return mix, (weights, means, covs)


@HARNESS
@given(gaussian_mixtures())
def test_gaussian_limit_mixtures_bracket_the_closed_form(case):
    mix, gaussian = case
    for alpha in ORDERS:
        truth = gaussian_renyi(*gaussian, alpha)
        assert_brackets(renyi_bounds(mix, alpha, convention="exact"), truth, 1e-5 * mix.dim)
