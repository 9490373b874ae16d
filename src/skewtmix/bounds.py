"""Entropy bounds and approximations for finite skew-t mixtures.

Shannon bounds pair the weighted component entropies (Jensen) with a
Gaussian maximum-entropy bound on the mixture covariance. Renyi bounds
for integer order pair a telescoping upper combinator with a
multinomial-Holder lower bound. That bound is the multinomial expansion
of (sum w_i ||f_i||_alpha)^alpha, which by the multinomial theorem is
evaluated in closed form as one log-sum over the components, so no
composition is enumerated. Only the large-order approximation enumerates
compositions, up to the fixed ``DEFAULT_COMPOSITION_CAP``, and it reads no
coefficient: a ``Composition`` computes its own from its parts when read.

Two conventions are exposed for the Shannon bounds:

* ``convention="paper"`` (default) evaluates the component entropies with
  the printed unhalved digamma arguments and the covariance with the
  component locations dropped. This is what the bundled reference table
  was computed with. Its lower is still a valid (weaker) bound: Jensen,
  over component entropies that the unhalved digamma lowers. Its upper is
  not a bound: the covariance without the locations is smaller than the
  mixture's, and the true entropy lies above it on all four bundled d = 1
  mixtures (d1_m3: 2.3523 against 2.441573 by scipy ``quad``).
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
  H_alpha <= H for alpha > 1 (used only when every dof of positive weight
  exceeds 2).
* ``convention="listed"`` exists only to reproduce the bundled Renyi
  table: it telescopes in the listed component order, without the sort,
  and reports the smaller of that value and the Holder value as the lower
  and the larger as the upper. Neither side is a bound in general.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .distributions import MixtureParams, _live, _mean, _require_dof, mixture_cov
from .entropy import skewt_renyi, skewt_shannon
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
    """m nonnegative parts summing to alpha; the exact multinomial coefficient is computed when read."""

    parts: tuple

    @property
    def coefficient(self) -> int:
        return math.factorial(sum(self.parts)) // math.prod(map(math.factorial, self.parts))


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds with their midpoint approximation.

    ``per_component`` holds the entropies of the components of positive weight, in order."""

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


def enumerate_compositions(m: int, alpha: int) -> Iterator[Composition]:
    """Every composition of alpha into m nonnegative parts once, lexicographic in the parts.

    Stars and bars: each of the ``itertools.combinations`` of m - 1 bars among
    alpha + m - 1 slots is one composition; alpha = 0 gives the all-zero one.
    Bad arguments raise ``ValueError``, and more than ``DEFAULT_COMPOSITION_CAP``
    compositions ``CompositionCapError``, at the call, before any is yielded.
    """
    if m < 1 or alpha < 0:
        raise ValueError("need m >= 1 and alpha >= 0")
    total = composition_count(m, alpha)
    if total > DEFAULT_COMPOSITION_CAP:
        raise CompositionCapError(
            f"composition count {total} exceeds the cap {DEFAULT_COMPOSITION_CAP} for m={m}, alpha={alpha}"
        )
    slots = alpha + m - 1
    bars = itertools.combinations(range(slots), m - 1)
    return (Composition(tuple(b - a - 1 for a, b in zip((-1, *c), (*c, slots)))) for c in bars)


def _centered_covariance(m: MixtureParams) -> SpdMatrix:
    """Covariance of the mixture with all component locations moved to zero."""
    d = m.dim
    acc = np.zeros((d, d))
    drift = np.zeros(d)
    for w, comp in _live(m):
        acc += w * comp.dof / (comp.dof - 2.0) * comp.scale.entries
        drift += w * (_mean(comp) - comp.mu)
    return SpdMatrix(acc - np.outer(drift, drift))


def _gaussian_upper(m: MixtureParams, cov: SpdMatrix) -> float:
    """Entropy of the Gaussian with covariance cov, the maximum-entropy upper bound."""
    return 0.5 * (m.dim * _LOG_2PIE + log_det(cov))


def shannon_bounds(m: MixtureParams, *, convention: str = "paper") -> BoundsReport:
    """Shannon entropy bounds for a mixture, in nats."""
    if convention not in ("paper", "exact"):
        raise ValueError("convention must be 'paper' or 'exact'")
    _require_dof(m, 2, "covariance")
    digamma = "printed" if convention == "paper" else "halved"
    live = _live(m)
    per_component = [skewt_shannon(c, digamma=digamma) for _, c in live]
    lower = float(np.dot([w for w, _ in live], per_component))
    upper = _gaussian_upper(m, _centered_covariance(m) if convention == "paper" else mixture_cov(m))
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


def _log_power_sum(w: np.ndarray, rs: np.ndarray, a: float, b: float) -> float:
    """ln sum_i w_i^a exp(b R_i); every weight must be positive."""
    return _logsumexp(a * np.log(w) + b * rs)


def renyi_lower(m: MixtureParams, alpha) -> float:
    """Multinomial-Holder lower bound on the mixture Renyi entropy; valid for every convention.

    Evaluated in closed form: alpha/(1-alpha) ln sum_i w_i exp((1-alpha)/alpha R_alpha(f_i)),
    which is the multinomial expansion of (sum_i w_i ||f_i||_alpha)^alpha.
    """
    return renyi_bounds(m, alpha).lower


def _telescoped(w: np.ndarray, alpha: int, rs: np.ndarray, order) -> float:
    """Telescoping combinator over the components taken in the given order.

    ln(sum_i W_i^alpha (I_i - I_{i+1}) + I_m) / (1 - alpha), with I_i the
    order-alpha power integral exp((1-alpha) R_i) and W_i the cumulative
    weight of the first i components, evaluated with a max shift. The
    paper reading takes the stable sort by non-increasing power integral,
    which for alpha > 1 is non-decreasing R_alpha; the listed reading takes
    the listed order.
    """
    log_i = (1.0 - alpha) * rs[order]
    w = w[order]
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


def renyi_upper(m: MixtureParams, alpha) -> float:
    """Telescoping upper combinator on the mixture Renyi entropy.

    Components are sorted by non-increasing order-alpha power integral so
    every telescoped difference is nonnegative. This is the table-reproduction
    value of the default ``"paper"`` convention, not an upper bound: it
    ignores component locations, and separated mixtures exceed it. Use
    ``renyi_bounds(..., convention="exact").upper`` for a valid upper bound.
    """
    return renyi_bounds(m, alpha).upper


def renyi_bounds(m: MixtureParams, alpha, *, convention: str = "paper") -> BoundsReport:
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
    live = _live(m)
    rs = [skewt_renyi(c, alpha) for _, c in live]
    w, r = np.array([weight for weight, _ in live]), np.array(rs)
    # The sum over compositions k of alpha!/prod k_i! prod (w_i e^{(1-alpha)/alpha R_i})^{k_i}
    # is (sum_i w_i e^{(1-alpha)/alpha R_i})^alpha by the multinomial theorem.
    lower = alpha / (1.0 - alpha) * _log_power_sum(w, r, 1.0, (1.0 - alpha) / alpha)
    if convention == "paper":
        upper = _telescoped(w, alpha, r, np.argsort(r, kind="stable"))
    elif convention == "exact":
        upper = _log_power_sum(w, r, alpha, 1.0 - alpha) / (1.0 - alpha)
        if all(c.dof > 2.0 for _, c in live):
            upper = min(upper, _gaussian_upper(m, mixture_cov(m)))
    else:
        lower, upper = sorted((lower, _telescoped(w, alpha, r, np.arange(len(r)))))
    return BoundsReport(lower=lower, upper=upper, per_component=rs, alpha=float(alpha))


def renyi_large_alpha_approx(m: MixtureParams, alpha) -> float:
    """Large-order approximation over strictly positive compositions.

    Each term is prod_i gamma_i^{-k_i} eps_i^{k_i}
    exp(((1-alpha)/alpha) k_i R_{k_i}(component i)) with gamma_i = k_i /
    alpha; the exponents carry the Holder structure of the lower-bound
    chain while each part contributes its own order-k_i entropy, with the
    Shannon entropy standing in at k_i = 1. It collapses to the component
    entropy at m = 1. Components of zero weight are left out, as in the
    bounds, and m counts only the others. It is an approximation, not a
    bound: on the bundled d = 1 mixtures with m = 2-4 it lies below the
    multinomial-Holder lower bound at orders 10-30. Each component's log
    factors form one row before the C(alpha - 1, m - 1) compositions add
    up its entries, so each entropy is read once per order per call, and
    none is kept. More than ``DEFAULT_COMPOSITION_CAP`` compositions raise
    ``CompositionCapError`` before any entropy is computed; a component
    whose entropy cannot be evaluated, the first in listed order, raises
    its own error.
    """
    alpha = _check_alpha_int(alpha)
    live = [(math.log(w), c) for w, c in _live(m)]
    n = len(live)
    if alpha < n:
        raise ValueError(
            "alpha must be at least the component count for the large-order form, zero weights "
            f"not counted; got alpha={alpha}, m={n}"
        )
    compositions = enumerate_compositions(n, alpha - n)  # each part is its order k less one
    ratio = (1.0 - alpha) / alpha
    rows = []
    for logw, comp in live:
        row = [None] * (alpha - n + 1)
        for k in range(1 if n > 1 else alpha, alpha - n + 2):  # one component reads only order alpha
            entropy = skewt_shannon(comp) if k == 1 else skewt_renyi(comp, float(k))
            row[k - 1] = -k * math.log(k / alpha) + k * logw + ratio * k * entropy
        rows.append(row)
    terms = []
    for composition in compositions:
        acc = 0.0
        for row, part in zip(rows, composition.parts):
            acc += row[part]
        terms.append(acc)
    return _logsumexp(np.array(terms)) / (1.0 - alpha)
