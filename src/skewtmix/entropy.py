"""Closed and semi-closed Shannon/Renyi entropies of the (skew) t family.

The multivariate t entropies are fully closed forms in gamma/digamma
terms. The skewness corrections are one dimensional expectations against
a Student t weight, evaluated on arrays by a nested double-exponential
rule. The Shannon rule calls the t CDF once per +- pair of its nodes. The
Renyi rule calls it on every node of its peak probe, but in the
double-exponential sum only at the nodes whose bound, from the t log
density alone, lies within 80 ln 2 of the centre term; the rest add an
exact zero, as their terms are below 2^-80 of the sum, and every value,
error estimate and point count is unchanged.

A finished ``skewt_renyi`` or ``skewt_shannon`` value is kept on its
component, keyed by the order (or Shannon and the digamma reading) and the
variant, and a later call with an equal key returns it after checking
only the variant: the closed-form part, the order checks and the
quadrature all run once. Orders are keyed by their float value, so 2,
2.0 and numpy.float32(2) share one entry. A large order needs no
warning, as the rule centred at the integrand's peak follows the entropy
down toward -ln max f. An order that is refused keeps nothing, so it
raises on every call, and neither does a rule that did not converge: its
value is returned with a ``QuadratureWarning`` quoting its error
estimate, so the warning recurs on every call. ``skew_correction``,
``mt_shannon``, ``mt_renyi`` and ``power_integral_constant`` keep nothing.

Two printed-formula ambiguities were resolved against an independent
Monte Carlo oracle and frozen (see the test suite's resolution gate):

* the digamma arguments of the t entropy use half arguments,
  psi((v+d)/2) - psi(v/2);
* the 1-D reduction of the order-alpha power integral runs over
  x ~ T1(0, 1, alpha*(v+d) - 1) with the same constant under the square
  root of its argument.

The rejected readings remain available through keyword switches so the
gate can quantify them; production callers use the defaults.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np
from scipy.special import psi, stdtr, xlogy

from . import specfn
from .distributions import SkewTParams, _check_order, _mt_log_norm, _warn_at_caller, derive_shape
from .linalg import log_det

__all__ = [
    "QuadratureWarning",
    "mt_shannon",
    "mt_renyi",
    "power_integral_constant",
    "skew_correction",
    "skewt_shannon",
    "skewt_renyi",
]

_LN2 = math.log(2.0)
_HALF_PI = 0.5 * math.pi
# Nodes span t in [-5, 5], |x - x0| up to ~1e50 scales, past which a dof-v t tail holds ~1e-50v.
_DE_T_MAX = 5.0
_DE_FIRST_STEP = 0.125
# The finest step in t (81,921 nodes in all): fine enough for delta' S^-1 delta up to 1e6.
_DE_MIN_STEP = 1.0 / 8192
_ABS_TOL = _REL_TOL = 1e-9
# How far below the centre term a node's bound must lie for the Renyi rule to skip it.
_PRUNE_MARGIN = 80.0 * _LN2
# Most nodes the peak probe of skewt_renyi may take; its count grows as sqrt(alpha).
_PROBE_MAX_NODES = 1 << 16


class QuadratureWarning(UserWarning):
    pass


class _Quadrature(NamedTuple):
    value: float
    error: float
    points: int
    converged: bool


@functools.cache
def _level(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cosh t, cosh u, sinh u), u = pi/2 sinh t, at the nodes t that level k adds; read-only.

    Level 0 holds every multiple of 1/32 on |t| <= 5 in ascending order
    (321 nodes), the levels of steps 1/8, 1/16 and 1/32 in one table. Each
    level k >= 3 adds the odd multiples of its step 1/2^(k+3).
    """
    h = _DE_FIRST_STEP / 2**k if k else _DE_FIRST_STEP / 4
    n = round(_DE_T_MAX / h)
    j = np.arange(-n, n + 1)
    t = h * (j if k == 0 else j[1::2])
    u = _HALF_PI * np.sinh(t)
    table = (np.cosh(t), np.cosh(u), np.sinh(u))
    for arr in table:
        arr.setflags(write=False)
    return table


def _sinh_sinh(fn, x0: float, scale: float, *, log: bool = False) -> _Quadrature:
    """Integral of fn over the real line by the nested sinh-sinh rule.

    The double-exponential rule of Takahasi & Mori (1974): the trapezoid
    rule in t after x = x0 + scale sinh(pi/2 sinh t). ``fn`` maps an array
    of nodes to integrand values, or to their logs with ``log=True``, which
    returns the log of the integral. The first call evaluates level 0, the
    step-1/32 grid, and reads the levels of steps 1/8, 1/16 and 1/32 as its
    strides ``[::4]``, ``[2::4]`` and ``[1::2]``; each further level halves
    the step and adds the odd nodes in one call, until the last two levels,
    whose difference is the error, agree within the tolerances or the step
    reaches 1/8192. ``points`` counts the nodes placed: the Renyi rule's
    integrand skips the t CDF at the nodes its bound rules out.
    """
    shift, points = None, 0

    def terms(cosh_t, cosh_u, sinh_u):
        nonlocal shift, points
        points += cosh_t.size
        jac = scale * _HALF_PI * cosh_t * cosh_u
        vals = fn(x0 + scale * sinh_u)
        if not log:
            return vals * jac
        logs = vals + np.log(jac)
        if shift is None:  # the step-1/8 nodes of the first call
            shift = float(logs[::4].max())
        return np.exp(logs - shift)

    block = terms(*_level(0))
    finer = itertools.chain((block[2::4], block[1::2]), (terms(*_level(k)) for k in itertools.count(3)))
    h, f = _DE_FIRST_STEP, block[::4]
    coarse, fine = 2.0 * h * float(f[::2].sum()), h * float(f.sum())
    while True:
        if log:
            value, error = shift + math.log(fine), abs(math.log(fine / coarse))
        else:
            value, error = fine, abs(fine - coarse)
        converged = error <= max(_ABS_TOL, _REL_TOL * abs(value))
        if converged or h == _DE_MIN_STEP:
            return _Quadrature(value, error, points, converged)
        h, f = h / 2.0, next(finer)
        coarse, fine = fine, 0.5 * fine + h * float(f.sum())


def mt_shannon(p: SkewTParams, *, digamma: str = "halved") -> float:
    """Shannon entropy of the multivariate t (shape ignored), in nats.

    ``digamma="printed"`` selects the rejected unhalved-argument reading;
    it exists for the resolution gate and for reproducing bundled
    reference bounds that were computed with it.
    """
    if digamma not in ("halved", "printed"):
        raise ValueError("digamma must be 'halved' or 'printed'")
    v, d = p.dof, p.dim
    psis = psi((v + d) / 2.0) - psi(v / 2.0) if digamma == "halved" else psi(v + d) - psi(v)
    return (v + d) / 2.0 * float(psis) - _mt_log_norm(v, d, log_det(p.scale))


def power_integral_constant(p: SkewTParams, alpha: float) -> float:
    """Log of the closed-form constant in the order-alpha power integral; checks the order."""
    v, d = p.dof, p.dim
    _check_order(alpha)
    if alpha * (v + d) <= d:
        raise ValueError(
            f"Renyi order too small for tail: need alpha > d/(v+d) = {d / (v + d):.6g}, got {alpha}"
        )
    u = alpha * (v + d) - d
    return (
        (alpha - 1.0) * _mt_log_norm(v, d, log_det(p.scale))
        + math.lgamma((v + d) / 2.0)
        + math.lgamma(u / 2.0)
        - math.lgamma(v / 2.0)
        - math.lgamma(alpha * (v + d) / 2.0)
    )


def mt_renyi(p: SkewTParams, alpha: float) -> float:
    """Renyi entropy of the multivariate t (shape ignored), in nats."""
    return power_integral_constant(p, alpha) / (1.0 - alpha)


def _check_variant(variant: str) -> None:
    if variant not in ("frozen", "printed"):
        raise ValueError("variant must be 'frozen' or 'printed'")


# The rule of a correction that is exactly zero (delta = 0).
_ZERO = _Quadrature(0.0, 0.0, 0, True)


def _correction(rule: _Quadrature, what: str, divisor: float = 1.0) -> float:
    """rule.value / divisor in nats, with a QuadratureWarning if the rule did not converge."""
    if not rule.converged:
        _warn_at_caller(
            f"{what} did not reach the requested tolerance: "
            f"error estimate {rule.error / abs(divisor):.3g} over {rule.points} points",
            QuadratureWarning,
        )
    return rule.value / divisor


def _keep(p: SkewTParams, key, value: float, rule: _Quadrature) -> float:
    """value, kept on p under key if its rule converged."""
    if rule.converged:
        p._kept[key] = value
    return value


def _shannon_rule(p: SkewTParams, variant: str) -> _Quadrature:
    """The quadrature of the Shannon skewness correction; see skew_correction."""
    dd = derive_shape(p).dd
    if dd == 0.0:
        return _ZERO
    v, d = p.dof, p.dim
    w = v + d - 1.0
    s = math.sqrt((v + d) * dd)

    # The nodes come in exact +- pairs and each t CDF argument is odd in y, so one stdtr
    # call per pair, on the y <= 0 half, gives the rest: stdtr(v, a) = 1 - stdtr(v, -a).
    def fn(y):
        if not np.array_equal(y, -y[::-1]):
            raise RuntimeError("the Shannon rule's nodes do not come in +- pairs")
        pairs, y = y.size // 2, y[: (y.size + 1) // 2]

        def cdf(dof, a):
            half = stdtr(dof, a)
            return np.concatenate((half, 1.0 - half[:pairs][::-1]))

        g2 = 2.0 * cdf(v + d, s * y / np.hypot(math.sqrt(w), y))
        if variant == "frozen":
            return xlogy(g2, g2)
        wt = 2.0 * cdf(v + 1.0, math.sqrt(dd) * y * np.sqrt((v + 1.0) / (v + y * y)))
        return xlogy(wt, g2)

    return _sinh_sinh(lambda y: np.exp(specfn._t_logpdf(y, w)) * fn(y), 0.0, 1.0)


def skew_correction(p: SkewTParams, *, variant: str = "frozen") -> float:
    """Amount by which the shape vector lowers the Shannon entropy.

    The correction is the expectation, under Y ~ t_{v+d-1}, of
    2 G1(a(Y); v+d) ln(2 G1(a(Y); v+d)) with
    a(y) = sqrt((v+d) dd) y / sqrt(v+d-1+y^2) and dd = delta'S^-1 delta.
    Nonnegative; exactly zero for delta = 0.

    ``variant="printed"`` swaps the weight factor for the rejected
    reading (argument sqrt(dd) y sqrt((v+1)/(v+y^2)), dof v+1), which
    coincides with the frozen one in dimension 1.
    """
    _check_variant(variant)
    return _correction(_shannon_rule(p, variant), "Shannon skewness correction")


def skewt_shannon(p: SkewTParams, *, digamma: str = "halved", variant: str = "frozen") -> float:
    """Shannon entropy of the skew-t, in nats; kept on the component once its rule converges."""
    _check_variant(variant)
    key = ("shannon", digamma, variant)
    value = p._kept.get(key)
    if value is None:
        base = mt_shannon(p, digamma=digamma)
        rule = _shannon_rule(p, variant)
        value = _keep(p, key, base - _correction(rule, "Shannon skewness correction"), rule)
    return value


def skewt_renyi(p: SkewTParams, alpha: float, *, variant: str = "frozen") -> float:
    """Renyi entropy of the skew-t, in nats.

    Adds to the symmetric-t value the correction
    (1/(1-alpha)) ln E[(2 G1(ar(X); v+d))^alpha] with
    X ~ T1(0, 1, alpha(v+d)-1) and
    ar(x) = sqrt((v+d) dd) x / sqrt(alpha(v+d)-1+x^2).

    ``variant="printed"`` runs the expectation over the rejected dof
    alpha(v+d)-d instead (identical in dimension 1). The value is kept on
    the component once its rule converges. A real order of any other type
    than int or float, such as a numpy float32, is taken as a Python float;
    a complex or other non-real order raises TypeError.
    """
    _check_variant(variant)
    if type(alpha) is not float and type(alpha) is not int:  # plain orders skip the slow numbers.Real check
        if not isinstance(alpha, numbers.Real):
            raise TypeError(f"alpha must be a real number, got {type(alpha).__name__}")
        alpha = float(alpha)
    key = (alpha, variant)
    value = p._kept.get(key)
    if value is None:
        base = power_integral_constant(p, alpha) / (1.0 - alpha)
        rule = _renyi_rule(p, alpha, variant)
        value = _keep(p, key, base + _correction(rule, "order-alpha power expectation", 1.0 - alpha), rule)
    return value


def _renyi_rule(p: SkewTParams, alpha: float, variant: str) -> _Quadrature:
    """The log-scale quadrature of skewt_renyi's power expectation, for an order already checked."""
    dd = derive_shape(p).dd
    if dd == 0.0:
        return _ZERO
    v, d = p.dof, p.dim
    den = alpha * (v + d) - 1.0
    dof_x = den if variant == "frozen" else alpha * (v + d) - d
    s = math.sqrt((v + d) * dd)

    def log_skew(x):
        g = stdtr(v + d, s * x / np.hypot(math.sqrt(den), x))
        with np.errstate(divide="ignore"):
            return alpha * (_LN2 + np.log(g))

    # Centre and scale the rule at the peak, which narrows as alpha grows. The
    # integrand is larger at x > 0 than at -x, and as 2 G1 <= 2 it beats its value
    # at 0 only where the t log density is within alpha ln 2 of its top, |x| <= reach.
    # A probe of step <= 1/4 on [0, reach] finds the peak and its curvature.
    reach = math.sqrt(dof_x * math.expm1(2.0 * alpha * _LN2 / (dof_x + 1.0)))
    n = math.ceil(4.0 * reach)
    if n + 3 > _PROBE_MAX_NODES:
        raise ValueError(
            f"Renyi order alpha = {alpha:g} is too large: the peak probe would need {n + 3} nodes "
            f"(at most {_PROBE_MAX_NODES})"
        )
    step = reach / n
    probe = step * np.arange(-1, n + 2)
    logs = specfn._t_logpdf(probe, dof_x) + log_skew(probe)
    j = min(max(int(np.argmax(logs)), 1), n + 1)
    if not math.isfinite(logs[j]):
        raise ArithmeticError("order-alpha power expectation degenerated to zero")
    curvature = (2.0 * logs[j] - logs[j - 1] - logs[j + 1]) / step**2
    scale = 1.0 / math.sqrt(curvature) if 0.0 < curvature < math.inf else 1.0
    x0 = float(probe[j])

    # Past the log of scale pi/2, which every term shares, a node's log term is at most
    # its t log density + alpha ln 2 (2 G1 <= 2) + 5 (cosh t <= e^5 on |t| <= 5)
    # + ln(1 + |x - x0|/scale) (cosh u <= 1 + |sinh u|), and the centre node's is logs[j].
    # A node whose bound lies 80 ln 2 below logs[j] adds under 2^-80 of the sum: it gets
    # -inf, an exact zero term, without a t CDF call.
    floor = logs[j] - _PRUNE_MARGIN - alpha * _LN2 - 5.0

    def pruned(x):
        out = specfn._t_logpdf(x, dof_x)
        keep = out + np.log1p(np.abs(x - x0) / scale) >= floor
        out[keep] += log_skew(x[keep])
        out[~keep] = -np.inf
        return out

    return _sinh_sinh(pruned, x0, scale, log=True)
