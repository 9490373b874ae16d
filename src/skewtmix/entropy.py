"""Closed and semi-closed Shannon/Renyi entropies of the (skew) t family.

The multivariate t entropies are fully closed forms in gamma/digamma
terms. The skewness corrections are one dimensional expectations against
a Student t weight and are evaluated by adaptive quadrature, with a Monte
Carlo fallback if the quadrature reports non-convergence.

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

import numpy as np
from scipy import integrate

from . import specfn
from .distributions import SkewTParams, derive_shape
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
_ALPHA_WARN = 1e4
_MC_FALLBACK_N = 1_000_000


class QuadratureWarning(UserWarning):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the 1-D expectations."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 200
    domain_half_width: float = 60.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")
        if self.domain_half_width <= 0:
            raise ValueError("domain_half_width must be positive")


_DEFAULT_SPEC = QuadratureSpec()


def _integrate_line(fn, scale: float, spec: QuadratureSpec):
    """Integrate fn over the real line; returns (value, converged flag).

    Tries the infinite-interval rule first, then retries on the
    tan-compactified axis with split points scaled by sqrt(scale).
    """
    best = None
    try:
        val, err = integrate.quad(
            fn, -np.inf, np.inf,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_subdivisions,
        )
        if err <= max(spec.abs_tol, spec.rel_tol * abs(val)) * 100.0:
            return val, True
        best = val
    except Exception:  # noqa: BLE001 - fall through to the transformed retry
        pass

    root = math.sqrt(scale)
    edge = math.atan(spec.domain_half_width / root)

    def transformed(theta):
        y = root * math.tan(theta)
        return fn(y) * root / math.cos(theta) ** 2

    try:
        val, err = integrate.quad(
            transformed, -math.pi / 2.0, math.pi / 2.0,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_subdivisions,
            points=[-edge, 0.0, edge],
        )
        if err <= max(spec.abs_tol, spec.rel_tol * abs(val)) * 100.0:
            return val, True
        if best is None:
            best = val
    except Exception:  # noqa: BLE001
        pass
    return best, False


def _expect_t(fn, w: float, spec: QuadratureSpec) -> float:
    """E[fn(Y)] for Y ~ t_w, by adaptive quadrature with an MC fallback."""

    def integrand(y):
        return math.exp(specfn.student_t_logpdf(y, w)) * fn(y)

    val, ok = _integrate_line(integrand, w, spec)
    if ok:
        return val

    rng = np.random.Generator(np.random.Philox(key=np.array([0xE907, 0], dtype=np.uint64)))
    draws = rng.standard_t(w, size=_MC_FALLBACK_N)
    vals = np.array([fn(float(y)) for y in draws])
    est = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    warnings.warn(
        f"quadrature did not converge to tolerance; Monte Carlo fallback "
        f"value {est:.6g} with standard error {se:.2g}",
        QuadratureWarning,
        stacklevel=3,
    )
    return est


def _entropy_constant(v: float, d: int, logdet: float) -> float:
    return (
        specfn.log_gamma(v / 2.0)
        + d / 2.0 * math.log(v * math.pi)
        - specfn.log_gamma((v + d) / 2.0)
        + 0.5 * logdet
    )


def _digamma_term(v: float, d: int, halved: bool) -> float:
    if halved:
        return (v + d) / 2.0 * (specfn.digamma((v + d) / 2.0) - specfn.digamma(v / 2.0))
    return (v + d) / 2.0 * (specfn.digamma(v + d) - specfn.digamma(v))


def mt_shannon(p: SkewTParams, *, digamma: str = "halved") -> float:
    """Shannon entropy of the multivariate t (shape ignored), in nats.

    ``digamma="printed"`` selects the rejected unhalved-argument reading;
    it exists for the resolution gate and for reproducing bundled
    reference bounds that were computed with it.
    """
    if digamma not in ("halved", "printed"):
        raise ValueError("digamma must be 'halved' or 'printed'")
    v, d = p.dof, p.dim
    logdet = log_det(p.scale)
    return _entropy_constant(v, d, logdet) + _digamma_term(v, d, digamma == "halved")


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
    logdet = log_det(p.scale)
    return (
        (1.0 - alpha) * _entropy_constant(v, d, logdet)
        + specfn.log_gamma((v + d) / 2.0)
        + specfn.log_gamma(u / 2.0)
        - specfn.log_gamma(v / 2.0)
        - specfn.log_gamma(alpha * (v + d) / 2.0)
    )


def mt_renyi(p: SkewTParams, alpha: float) -> float:
    """Renyi entropy of the multivariate t (shape ignored), in nats."""
    return power_integral_constant(p, alpha) / (1.0 - alpha)


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
    if variant not in ("frozen", "printed"):
        raise ValueError("variant must be 'frozen' or 'printed'")
    spec = quad or _DEFAULT_SPEC
    dd = derive_shape(p).dd
    if dd == 0.0:
        return 0.0
    v, d = p.dof, p.dim
    w = v + d - 1.0
    s = math.sqrt((v + d) * dd)

    if variant == "frozen":

        def fn(y):
            g2 = 2.0 * specfn.student_t_cdf(s * y / math.sqrt(w + y * y), v + d)
            return g2 * math.log(g2) if g2 > 0.0 else 0.0

    else:

        def fn(y):
            a = s * y / math.sqrt(w + y * y)
            g2 = 2.0 * specfn.student_t_cdf(a, v + d)
            wt = 2.0 * specfn.student_t_cdf(
                math.sqrt(dd) * y * math.sqrt((v + 1.0) / (v + y * y)), v + 1.0
            )
            return wt * math.log(g2) if g2 > 0.0 else 0.0

    return _expect_t(fn, w, spec)


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
    if variant not in ("frozen", "printed"):
        raise ValueError("variant must be 'frozen' or 'printed'")
    spec = quad or _DEFAULT_SPEC
    v, d = p.dof, p.dim
    base = power_integral_constant(p, alpha) / (1.0 - alpha)
    dd = derive_shape(p).dd
    if dd == 0.0:
        return base
    den = alpha * (v + d) - 1.0
    dof_x = den if variant == "frozen" else alpha * (v + d) - d
    s = math.sqrt((v + d) * dd)

    def log_factor(x: float) -> float:
        g = specfn.student_t_cdf(s * x / math.sqrt(den + x * x), v + d)
        return alpha * (_LN2 + math.log(g)) if g > 0.0 else -math.inf

    # Shift by the peak of the full log integrand so extreme orders stay
    # representable (the factor is bounded by 2^alpha but concentrates).
    probe_half = 50.0 * max(1.0, s)
    probe = np.linspace(-probe_half, probe_half, 801)
    peak = max(specfn.student_t_logpdf(x, dof_x) + log_factor(x) for x in probe)
    if not math.isfinite(peak):
        raise ArithmeticError("order-alpha power expectation degenerated to zero")

    def fn(x):
        lf = log_factor(x)
        if lf == -math.inf:
            return 0.0
        return math.exp(specfn.student_t_logpdf(x, dof_x) + lf - peak)

    scaled, converged = _integrate_line(fn, dof_x, spec)
    if scaled is None or scaled <= 0.0:
        raise ArithmeticError("order-alpha power expectation evaluated to a nonpositive value")
    if not converged:
        warnings.warn(
            "order-alpha power expectation did not reach the requested tolerance",
            QuadratureWarning,
            stacklevel=2,
        )
    log_expectation = peak + math.log(scaled)
    return base + log_expectation / (1.0 - alpha)
