"""Closed and semi-closed Shannon/Renyi entropies of the (skew) t family.

The multivariate t entropies are fully closed forms in gamma/digamma
terms. The skewness corrections are one dimensional expectations against
a Student t weight, evaluated on arrays by a nested double-exponential
rule.

A converged correction is kept on its component, keyed by the order (or
Shannon), the ``QuadratureSpec`` and the variant, and later calls with the
same key reuse it. Order validation, the large-order warning and the
closed-form part run on every call. A rule that did not converge keeps
nothing: its value is returned with a ``QuadratureWarning`` quoting its
error estimate, so the warning recurs on every call.

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

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import psi, xlogy

from . import specfn
from .distributions import SkewTParams, _mt_log_norm, derive_shape
from .linalg import log_det

__all__ = [
    "QuadratureSpec",
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
_ALPHA_WARN = 1e4
# Nodes span t in [-5, 5], |x - x0| up to ~1e50 scales, past which a dof-v t tail holds ~1e-50v.
_DE_T_MAX = 5.0
_DE_FIRST_STEP = 0.125


class QuadratureWarning(UserWarning):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the 1-D expectations.

    ``max_subdivisions`` caps the finest level of the nested rule: its
    step in t is never below 1 / max_subdivisions.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


_DEFAULT_SPEC = QuadratureSpec()


class _Quadrature(NamedTuple):
    value: float
    error: float
    points: int
    converged: bool


def _sinh_sinh(fn, x0: float, scale: float, spec: QuadratureSpec, *, log: bool = False) -> _Quadrature:
    """Integral of fn over the real line by the nested sinh-sinh rule.

    The double-exponential rule of Takahasi & Mori (1974): the trapezoid
    rule in t after x = x0 + scale sinh(pi/2 sinh t). ``fn`` maps an array
    of nodes to integrand values, or to their logs with ``log=True``, which
    returns the log of the integral. The first call covers the steps 1/4
    and 1/8; each further level halves the step and adds the odd nodes,
    until the last two levels, whose difference is the error, agree.
    """
    shift = None

    def terms(t):
        nonlocal shift
        u = _HALF_PI * np.sinh(t)
        jac = scale * _HALF_PI * np.cosh(t) * np.cosh(u)
        vals = fn(x0 + scale * np.sinh(u))
        if not log:
            return vals * jac
        logs = vals + np.log(jac)
        if shift is None:
            shift = float(np.max(logs))
        return np.exp(logs - shift)

    h = _DE_FIRST_STEP
    n = round(_DE_T_MAX / h)
    f = terms(h * np.arange(-n, n + 1))
    coarse, fine = 2.0 * h * float(np.sum(f[::2])), h * float(np.sum(f))
    points = f.size
    while True:
        if log:
            value, error = shift + math.log(fine), abs(math.log(fine / coarse))
        else:
            value, error = fine, abs(fine - coarse)
        converged = error <= max(spec.abs_tol, spec.rel_tol * abs(value))
        if converged or h * spec.max_subdivisions < 2.0:
            return _Quadrature(value, error, points, converged)
        h /= 2.0
        f = terms(h * (2.0 * np.arange(-n, n) + 1.0))
        coarse, fine = fine, 0.5 * fine + h * float(np.sum(f))
        points += f.size
        n *= 2


def _digamma_term(v: float, d: int, halved: bool) -> float:
    if halved:
        return (v + d) / 2.0 * float(psi((v + d) / 2.0) - psi(v / 2.0))
    return (v + d) / 2.0 * float(psi(v + d) - psi(v))


def mt_shannon(p: SkewTParams, *, digamma: str = "halved") -> float:
    """Shannon entropy of the multivariate t (shape ignored), in nats.

    ``digamma="printed"`` selects the rejected unhalved-argument reading;
    it exists for the resolution gate and for reproducing bundled
    reference bounds that were computed with it.
    """
    if digamma not in ("halved", "printed"):
        raise ValueError("digamma must be 'halved' or 'printed'")
    v, d = p.dof, p.dim
    return _digamma_term(v, d, digamma == "halved") - _mt_log_norm(v, d, log_det(p.scale))


def _check_renyi_order(v: float, d: int, alpha: float) -> None:
    if alpha <= 0.0 or not math.isfinite(alpha):
        raise ValueError("alpha must be a positive real")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is the Shannon limit; call the Shannon entropy instead")
    if alpha * (v + d) <= d:
        raise ValueError(
            f"Renyi order too small for tail: need alpha > d/(v+d) = {d / (v + d):.6g}, got {alpha}"
        )
    if alpha > _ALPHA_WARN:
        warnings.warn(
            f"alpha = {alpha:g} is beyond the supported range; the order-alpha "
            "power integral degenerates",
            RuntimeWarning,
            stacklevel=3,
        )


def power_integral_constant(p: SkewTParams, alpha: float) -> float:
    """Log of the closed-form constant in the order-alpha power integral."""
    v, d = p.dof, p.dim
    _check_renyi_order(v, d, alpha)
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


def _keep_or_warn(p: SkewTParams, key, rule: _Quadrature, what: str, divisor: float = 1.0) -> float:
    """rule.value / divisor in nats; kept on p under key if the rule converged, else warned about."""
    value = rule.value / divisor
    if rule.converged:
        p._corrections[key] = value
    else:
        warnings.warn(
            f"{what} did not reach the requested tolerance: "
            f"error estimate {rule.error / abs(divisor):.3g} over {rule.points} points",
            QuadratureWarning,
            stacklevel=3,
        )
    return value


def skew_correction(
    p: SkewTParams,
    quad: QuadratureSpec | None = None,
    *,
    variant: str = "frozen",
) -> float:
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
    spec = quad or _DEFAULT_SPEC
    dd = derive_shape(p).dd
    if dd == 0.0:
        return 0.0
    key = ("shannon", spec, variant)
    if key in p._corrections:
        return p._corrections[key]
    v, d = p.dof, p.dim
    w = v + d - 1.0
    s = math.sqrt((v + d) * dd)

    def fn(y):
        g2 = 2.0 * specfn.student_t_cdf(s * y / np.hypot(math.sqrt(w), y), v + d)
        if variant == "frozen":
            return xlogy(g2, g2)
        wt = 2.0 * specfn.student_t_cdf(math.sqrt(dd) * y * np.sqrt((v + 1.0) / (v + y * y)), v + 1.0)
        return xlogy(wt, g2)

    rule = _sinh_sinh(lambda y: np.exp(specfn.student_t_logpdf(y, w)) * fn(y), 0.0, 1.0, spec)
    return _keep_or_warn(p, key, rule, "Shannon skewness correction")


def skewt_shannon(
    p: SkewTParams,
    quad: QuadratureSpec | None = None,
    *,
    digamma: str = "halved",
    variant: str = "frozen",
) -> float:
    """Shannon entropy of the skew-t, in nats."""
    return mt_shannon(p, digamma=digamma) - skew_correction(p, quad, variant=variant)


def skewt_renyi(
    p: SkewTParams,
    alpha: float,
    quad: QuadratureSpec | None = None,
    *,
    variant: str = "frozen",
) -> float:
    """Renyi entropy of the skew-t, in nats.

    Adds to the symmetric-t value the correction
    (1/(1-alpha)) ln E[(2 G1(ar(X); v+d))^alpha] with
    X ~ T1(0, 1, alpha(v+d)-1) and
    ar(x) = sqrt((v+d) dd) x / sqrt(alpha(v+d)-1+x^2).

    ``variant="printed"`` runs the expectation over the rejected dof
    alpha(v+d)-d instead (identical in dimension 1).
    """
    _check_variant(variant)
    spec = quad or _DEFAULT_SPEC
    v, d = p.dof, p.dim
    base = power_integral_constant(p, alpha) / (1.0 - alpha)
    dd = derive_shape(p).dd
    if dd == 0.0:
        return base
    key = (alpha, spec, variant)
    if key in p._corrections:
        return base + p._corrections[key]
    den = alpha * (v + d) - 1.0
    dof_x = den if variant == "frozen" else alpha * (v + d) - d
    s = math.sqrt((v + d) * dd)

    def log_integrand(x):
        g = specfn.student_t_cdf(s * x / np.hypot(math.sqrt(den), x), v + d)
        with np.errstate(divide="ignore"):
            return specfn.student_t_logpdf(x, dof_x) + alpha * (_LN2 + np.log(g))

    # Centre and scale the rule at the peak, which narrows as alpha grows. The
    # integrand is larger at x > 0 than at -x, and as 2 G1 <= 2 it beats its value
    # at 0 only where the t log density is within alpha ln 2 of its top, |x| <= reach.
    # A probe of step <= 1/4 on [0, reach] finds the peak and its curvature.
    reach = math.sqrt(dof_x * math.expm1(2.0 * alpha * _LN2 / (dof_x + 1.0)))
    n = math.ceil(4.0 * reach)
    step = reach / n
    probe = step * np.arange(-1, n + 2)
    logs = log_integrand(probe)
    j = min(max(int(np.argmax(logs)), 1), n + 1)
    if not math.isfinite(logs[j]):
        raise ArithmeticError("order-alpha power expectation degenerated to zero")
    curvature = (2.0 * logs[j] - logs[j - 1] - logs[j + 1]) / step**2
    scale = 1.0 / math.sqrt(curvature) if 0.0 < curvature < math.inf else 1.0

    rule = _sinh_sinh(log_integrand, float(probe[j]), scale, spec, log=True)
    return base + _keep_or_warn(p, key, rule, "order-alpha power expectation", 1.0 - alpha)
