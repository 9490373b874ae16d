"""Special functions used by the entropy formulas.

All functions accept floats or numpy arrays and are evaluated elementwise;
scalar input gives a ``float``. They are thin wrappers over ``math.lgamma``
and ``scipy.special``. Plain floats are validated with ``math`` checks so
that quadrature integrands, which call these in tight loops, stay cheap.

Domain violations and NaN inputs raise ``ValueError``; they are never
propagated silently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = [
    "log_gamma",
    "digamma",
    "log_beta",
    "reg_inc_beta",
    "student_t_cdf",
    "student_t_logpdf",
]


def _is_scalar(*values) -> bool:
    return all(isinstance(v, (int, float)) for v in values)


def _finite_scalars(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _as_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _maybe_scalar(result, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(result)
    return result


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    if _is_scalar(x):
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
        return math.lgamma(x)
    arr = _as_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    return _maybe_scalar(special.gammaln(arr), x)


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    if _is_scalar(x):
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"digamma requires finite x > 0, got {x!r}")
        return float(special.psi(x))
    arr = _as_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError("digamma requires x > 0")
    return _maybe_scalar(special.psi(arr), x)


def log_beta(a, b):
    """ln B(a, b) for a, b > 0."""
    if _is_scalar(a, b):
        if not (_finite_scalars(a, b) and a > 0.0 and b > 0.0):
            raise ValueError(f"log_beta requires finite a > 0 and b > 0, got {a!r}, {b!r}")
        return float(special.betaln(a, b))
    a_arr = _as_array(a, "a")
    b_arr = _as_array(b, "b")
    if np.any(a_arr <= 0.0) or np.any(b_arr <= 0.0):
        raise ValueError("log_beta requires a > 0 and b > 0")
    return _maybe_scalar(special.betaln(a_arr, b_arr), a, b)


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if _is_scalar(a, b, x):
        if not _finite_scalars(a, b, x):
            raise ValueError("reg_inc_beta requires finite arguments")
        if a <= 0.0 or b <= 0.0:
            raise ValueError("reg_inc_beta requires a > 0 and b > 0")
        if not 0.0 <= x <= 1.0:
            raise ValueError("reg_inc_beta requires 0 <= x <= 1")
        return float(special.betainc(a, b, x))
    a_arr = _as_array(a, "a")
    b_arr = _as_array(b, "b")
    x_arr = _as_array(x, "x")
    if np.any(a_arr <= 0.0) or np.any(b_arr <= 0.0):
        raise ValueError("reg_inc_beta requires a > 0 and b > 0")
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    return _maybe_scalar(special.betainc(a_arr, b_arr, x_arr), a, b, x)


def student_t_cdf(x, v):
    """CDF of the standard Student t with v > 0 degrees of freedom."""
    if _is_scalar(x, v):
        if not _finite_scalars(x, v):
            raise ValueError("student_t_cdf requires finite arguments")
        if v <= 0.0:
            raise ValueError("student_t_cdf requires v > 0")
        return float(special.stdtr(v, x))
    x_arr = _as_array(x, "x")
    v_arr = _as_array(v, "v")
    if np.any(v_arr <= 0.0):
        raise ValueError("student_t_cdf requires v > 0")
    return _maybe_scalar(special.stdtr(v_arr, x_arr), x, v)


def student_t_logpdf(x, v):
    """Log density of the standard Student t with v > 0 degrees of freedom."""
    if _is_scalar(x, v):
        if not _finite_scalars(x, v):
            raise ValueError("student_t_logpdf requires finite arguments")
        if v <= 0.0:
            raise ValueError("student_t_logpdf requires v > 0")
        return (
            math.lgamma((v + 1.0) / 2.0)
            - math.lgamma(v / 2.0)
            - 0.5 * math.log(v * math.pi)
            - (v + 1.0) / 2.0 * math.log1p(x * x / v)
        )
    x_arr = _as_array(x, "x")
    v_arr = _as_array(v, "v")
    if np.any(v_arr <= 0.0):
        raise ValueError("student_t_logpdf requires v > 0")
    out = (
        np.asarray(log_gamma((v_arr + 1.0) / 2.0))
        - np.asarray(log_gamma(v_arr / 2.0))
        - 0.5 * np.log(v_arr * np.pi)
        - (v_arr + 1.0) / 2.0 * np.log1p(x_arr * x_arr / v_arr)
    )
    return _maybe_scalar(out, x, v)
