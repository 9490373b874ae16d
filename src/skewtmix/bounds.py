"""Entropy bounds and approximations for finite skew-t mixtures.

Shannon bounds pair the weighted component entropies (Jensen) with a
Gaussian maximum-entropy bound on the mixture covariance. Renyi bounds
for integer order pair a telescoping upper combinator with a
multinomial-Holder lower bound. That bound is the multinomial expansion
of (sum w_i ||f_i||_alpha)^alpha, which by the multinomial theorem is
evaluated in closed form as one log-sum over the components, so no
composition is enumerated. The composition cap belongs to
``enumerate_compositions``; the large-order approximation, its only
caller here, uses the default ``DEFAULT_COMPOSITION_CAP``.

Two conventions are exposed for the Shannon bounds:

* ``convention="paper"`` (default) evaluates the component entropies with
  the printed unhalved digamma arguments and the covariance with the
  component locations dropped. This is what the bundled reference table
  was computed with, and both pieces are still valid (weaker) bounds.
* ``convention="exact"`` uses the internally consistent entropies and the
  full mixture covariance.

Three conventions are exposed for the Renyi bounds. All three share the
multinomial-Holder lower bound, which is valid everywhere: by Minkowski,
||sum w_i f_i||_alpha <= sum w_i ||f_i||_alpha.

* ``convention="paper"`` (default) pairs it with the telescoping upper
  combinator. That combinator sorts components by non-increasing power
  integral before telescoping, which keeps every telescoped difference
  nonnegative and makes it permutation invariant, but it depends on the
  components only through location-free quantities. It is a
  table-reproduction value, not an upper bound: the true mixture entropy
  exceeds it once component locations separate.
* ``convention="exact"`` gives valid bounds on both sides. Its upper is
  the smaller of ln(sum w_i^alpha int f_i^alpha)/(1-alpha), which drops
  the nonnegative cross terms of int (sum w_i f_i)^alpha, and the Gaussian
  maximum-entropy bound on the mixture covariance, which applies because
  H_alpha <= H for alpha > 1 (used only when every dof exceeds 2).
* ``convention="listed"`` exists only to reproduce the bundled Renyi
  table: it telescopes in the listed component order, without the sort,
  and reports the smaller of that value and the Holder value as the lower
  and the larger as the upper. Neither side is a bound in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .distributions import MixtureParams, mixture_cov, skewt_mean
from .entropy import QuadratureSpec, skewt_renyi, skewt_shannon
from .linalg import SpdMatrix, log_det

__all__ = [
    "Composition",
    "CompositionCapError",
    "BoundsReport",
    "enumerate_compositions",
    "composition_count",
    "shannon_bounds",
    "renyi_lower",
    "renyi_upper",
    "renyi_bounds",
    "renyi_large_alpha_approx",
]

DEFAULT_COMPOSITION_CAP = 10**7
_LOG_2PIE = math.log(2.0 * math.pi * math.e)


class CompositionCapError(ValueError):
    pass


@dataclass(frozen=True)
class Composition:
    """m nonnegative integers summing to alpha, with the exact multinomial coefficient."""

    parts: tuple
    coefficient: int


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds with their midpoint approximation."""

    lower: float
    upper: float
    approx: float = field(init=False)
    half_width: float = field(init=False)
    per_component: tuple = ()
    alpha: float | str = "shannon"

    def __post_init__(self):
        if not (self.lower <= self.upper + 1e-12):
            raise RuntimeError(
                f"bound crossing: lower {self.lower!r} exceeds upper {self.upper!r}; "
                "this indicates a formula-reading error"
            )
        object.__setattr__(self, "approx", 0.5 * (self.lower + self.upper))
        object.__setattr__(self, "half_width", 0.5 * (self.upper - self.lower))
        object.__setattr__(self, "per_component", tuple(self.per_component))


def composition_count(m: int, alpha: int) -> int:
    return math.comb(alpha + m - 1, m - 1)


def enumerate_compositions(
    m: int, alpha: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> Iterator[Composition]:
    """Yield every composition of alpha into m nonnegative parts once.

    Lexicographic in the parts tuple; coefficients are exact integers.
    """
    if m < 1 or alpha < 1:
        raise ValueError("need m >= 1 and alpha >= 1")
    total = composition_count(m, alpha)
    if total > cap:
        raise CompositionCapError(
            f"composition count {total} exceeds the cap {cap} for m={m}, alpha={alpha}"
        )
    fact_alpha = math.factorial(alpha)

    def rec(remaining: int, parts: list):
        if len(parts) == m - 1:
            parts.append(remaining)
            coef = fact_alpha
            for k in parts:
                coef //= math.factorial(k)
            yield Composition(parts=tuple(parts), coefficient=coef)
            parts.pop()
            return
        for k in range(remaining + 1):
            parts.append(k)
            yield from rec(remaining - k, parts)
            parts.pop()

    yield from rec(alpha, [])


def _require_dof(m: MixtureParams, minimum: float, what: str) -> None:
    for i, comp in enumerate(m.components):
        if comp.dof <= minimum:
            raise ValueError(
                f"{what} needs dof > {minimum} in every component; component {i} has dof = {comp.dof}"
            )


def _centered_covariance(m: MixtureParams) -> SpdMatrix:
    """Covariance of the mixture with all component locations moved to zero."""
    d = m.dim
    acc = np.zeros((d, d))
    drift = np.zeros(d)
    for w, comp in zip(m.weights, m.components):
        acc += w * comp.dof / (comp.dof - 2.0) * comp.scale.entries
        drift += w * (skewt_mean(comp) - comp.mu)
    return SpdMatrix(acc - np.outer(drift, drift))


def shannon_bounds(
    m: MixtureParams,
    quad: QuadratureSpec | None = None,
    convention: str = "paper",
) -> BoundsReport:
    """Shannon entropy bounds for a mixture, in nats."""
    if convention not in ("paper", "exact"):
        raise ValueError("convention must be 'paper' or 'exact'")
    _require_dof(m, 2.0, "the covariance upper bound")
    digamma = "printed" if convention == "paper" else "halved"
    per_component = [skewt_shannon(c, quad, digamma=digamma) for c in m.components]
    lower = float(np.dot(m.weights, per_component))
    cov = _centered_covariance(m) if convention == "paper" else mixture_cov(m)
    upper = 0.5 * (m.dim * _LOG_2PIE + log_det(cov))
    return BoundsReport(lower=lower, upper=upper, per_component=per_component, alpha="shannon")


def _check_alpha_int(alpha) -> int:
    if isinstance(alpha, bool) or not math.isfinite(alpha) or int(alpha) != alpha:
        raise ValueError(f"integer alpha required for mixture bounds, got {alpha!r}")
    alpha = int(alpha)
    if alpha < 2:
        raise ValueError(f"mixture Renyi bounds need integer alpha >= 2, got {alpha}")
    return alpha


def _logsumexp(terms: np.ndarray) -> float:
    shift = np.max(terms)
    if not np.isfinite(shift):
        raise ArithmeticError("all combinator terms vanished")
    return float(shift + np.log(np.sum(np.exp(terms - shift))))


def _renyi_lower_from(m: MixtureParams, alpha: int, rs) -> float:
    # sum over compositions k of alpha!/prod k_i! prod (w_i e^{(1-alpha)/alpha r_i})^{k_i}
    # is (sum_i w_i e^{(1-alpha)/alpha r_i})^alpha by the multinomial theorem.
    w = np.asarray(m.weights)
    live = w > 0.0
    terms = np.log(w[live]) + (1.0 - alpha) / alpha * np.asarray(rs)[live]
    return alpha / (1.0 - alpha) * _logsumexp(terms)


def renyi_lower(m: MixtureParams, alpha, quad: QuadratureSpec | None = None) -> float:
    """Multinomial-Holder lower bound on the mixture Renyi entropy; valid for every convention.

    Evaluated in closed form: alpha/(1-alpha) ln sum_i w_i exp((1-alpha)/alpha R_alpha(f_i)),
    which is the multinomial expansion of (sum_i w_i ||f_i||_alpha)^alpha.
    """
    return renyi_bounds(m, alpha, quad).lower


def _telescoped(m: MixtureParams, alpha: int, rs, order) -> float:
    """Telescoping combinator over the components taken in the given order.

    ln(sum_i W_i^alpha (I_i - I_{i+1}) + I_m) / (1 - alpha), with I_i the
    order-alpha power integral exp((1-alpha) R_i) and W_i the cumulative
    weight of the first i components, evaluated with a max shift. The
    paper reading takes the stable sort by non-increasing power integral,
    which for alpha > 1 is non-decreasing R_alpha; the listed reading takes
    the listed order.
    """
    log_i = (1.0 - alpha) * np.asarray(rs)[order]
    w = np.asarray(m.weights)[order]
    shift = float(np.max(log_i))
    total = math.exp(log_i[-1] - shift)
    cum = 0.0
    for i in range(len(log_i) - 1):
        cum += w[i]
        total += cum**alpha * (math.exp(log_i[i] - shift) - math.exp(log_i[i + 1] - shift))
    # Positive in exact arithmetic (summation by parts gives nonnegative
    # weights on every power integral); only cancellation can break it.
    if not total > 0.0:
        raise ArithmeticError("telescoped sum is not positive")
    return (shift + math.log(total)) / (1.0 - alpha)


def _renyi_exact_upper_from(m: MixtureParams, alpha: int, rs) -> float:
    w = np.asarray(m.weights)
    live = w > 0.0
    upper = _logsumexp(alpha * np.log(w[live]) + (1.0 - alpha) * np.asarray(rs)[live]) / (1.0 - alpha)
    if all(c.dof > 2.0 for c in m.components):
        upper = min(upper, 0.5 * (m.dim * _LOG_2PIE + log_det(mixture_cov(m))))
    return upper


def renyi_upper(m: MixtureParams, alpha, quad: QuadratureSpec | None = None) -> float:
    """Telescoping upper combinator on the mixture Renyi entropy.

    Components are sorted by non-increasing order-alpha power integral so
    every telescoped difference is nonnegative. This is the table-reproduction
    value of the default ``"paper"`` convention, not an upper bound: it
    ignores component locations, and separated mixtures exceed it. Use
    ``renyi_bounds(..., convention="exact").upper`` for a valid upper bound.
    """
    return renyi_bounds(m, alpha, quad).upper


def renyi_bounds(
    m: MixtureParams,
    alpha,
    quad: QuadratureSpec | None = None,
    convention: str = "paper",
) -> BoundsReport:
    """Renyi lower and upper values plus their midpoint, in one report.

    ``convention="exact"`` gives valid bounds on both sides. The default
    ``"paper"`` pairs the valid multinomial-Holder lower bound with the
    telescoping combinator, a table-reproduction value that is not an
    upper bound. ``"listed"`` exists only to reproduce the bundled Renyi
    table: it telescopes in the listed component order and reports
    [min, max] of that value and the Holder value. See the module
    docstring for the formulas. The lower bound is evaluated in closed
    form, so no order is too large for the composition cap.
    """
    if convention not in ("paper", "exact", "listed"):
        raise ValueError("convention must be 'paper', 'exact' or 'listed'")
    alpha = _check_alpha_int(alpha)
    rs = [skewt_renyi(c, alpha, quad) for c in m.components]
    lower = _renyi_lower_from(m, alpha, rs)
    if convention == "paper":
        upper = _telescoped(m, alpha, rs, np.argsort(rs, kind="stable"))
    elif convention == "exact":
        upper = _renyi_exact_upper_from(m, alpha, rs)
    else:
        lower, upper = sorted((lower, _telescoped(m, alpha, rs, np.arange(len(rs)))))
    return BoundsReport(lower=lower, upper=upper, per_component=rs, alpha=float(alpha))


def renyi_large_alpha_approx(
    m: MixtureParams,
    alpha,
    quad: QuadratureSpec | None = None,
) -> float:
    """Large-order approximation over strictly positive compositions.

    Each term is prod_i gamma_i^{-k_i} eps_i^{k_i}
    exp(((1-alpha)/alpha) k_i R_{k_i}(component i)) with gamma_i = k_i /
    alpha; the exponents carry the Holder structure of the lower-bound
    chain while each part contributes its own order-k_i entropy, with the
    Shannon entropy standing in at k_i = 1. It collapses to the component
    entropy at m = 1. Components of zero weight are left out, as in the
    bounds, and m counts only the others. It is an approximation, not a
    bound: on the bundled d = 1 mixtures with m = 2-4 it lies below the
    multinomial-Holder lower bound at orders 10-30. An order with more
    than ``DEFAULT_COMPOSITION_CAP`` compositions raises
    ``CompositionCapError``, and a component whose entropy cannot be
    evaluated raises that component's own error.
    """
    alpha = _check_alpha_int(alpha)
    live = [(math.log(w), c) for w, c in zip(m.weights, m.components) if w > 0.0]
    n = len(live)
    if alpha < n:
        raise ValueError(
            "alpha must be at least the component count for the large-order form, zero weights "
            f"not counted; got alpha={alpha}, m={n}"
        )
    entropies: dict = {}

    def component_entropy(i: int, k: int) -> float:
        if (i, k) not in entropies:
            comp = live[i][1]
            entropies[(i, k)] = (
                skewt_shannon(comp, quad) if k == 1 else skewt_renyi(comp, float(k), quad)
            )
        return entropies[(i, k)]

    ratio = (1.0 - alpha) / alpha
    terms = []
    # parts shifted down by one; at alpha = m only the all-ones composition exists
    shifted = enumerate_compositions(n, alpha - n) if alpha > n else [Composition((0,) * n, 1)]
    for comp in shifted:
        acc = 0.0
        for i, part in enumerate(comp.parts):
            k = part + 1  # strictly positive parts
            acc += -k * math.log(k / alpha) + k * live[i][0] + ratio * k * component_entropy(i, k)
        terms.append(acc)
    return _logsumexp(np.array(terms)) / (1.0 - alpha)
