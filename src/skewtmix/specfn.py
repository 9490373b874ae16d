"""Special functions used by the entropy formulas.

All functions accept floats or numpy arrays and are evaluated elementwise
by ``scipy.special``; a scalar or 0-d input gives a ``float``. Every call
goes through one check: each argument must be finite, the positive-domain
arguments must be > 0, and the ``reg_inc_beta`` point must lie in [0, 1].
The closed-form entropy constants, whose arguments are valid by
construction, call ``math.lgamma`` and ``scipy.special.psi`` directly;
the quadrature integrands pass arrays through here.

Domain violations and NaN inputs raise ``ValueError``; they are never
propagated silently.
"""

from __future__ import annotations

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


def _apply(fn, name: str, positive: tuple, unit: str = "", **args):
    """fn of the arguments as float arrays, checked first; 0-d gives a float.

    Every argument must be finite, those named in ``positive`` > 0 and the
    one named ``unit`` within [0, 1].
    """
    arrays = []
    for key, value in args.items():
        arr = np.asarray(value, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} requires finite {key}, got {value!r}")
        if key in positive and (arr <= 0.0).any():
            raise ValueError(f"{name} requires {key} > 0, got {value!r}")
        if key == unit and ((arr < 0.0) | (arr > 1.0)).any():
            raise ValueError(f"{name} requires 0 <= {key} <= 1, got {value!r}")
        arrays.append(arr)
    out = fn(*arrays)
    return float(out) if np.ndim(out) == 0 else out


def _t_logpdf(x, v):
    return (
        special.gammaln((v + 1.0) / 2.0)
        - special.gammaln(v / 2.0)
        - 0.5 * np.log(v * np.pi)
        - (v + 1.0) / 2.0 * np.log1p(x * x / v)
    )


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    return _apply(special.gammaln, "log_gamma", ("x",), x=x)


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    return _apply(special.psi, "digamma", ("x",), x=x)


def log_beta(a, b):
    """ln B(a, b) for a, b > 0."""
    return _apply(special.betaln, "log_beta", ("a", "b"), a=a, b=b)


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    return _apply(special.betainc, "reg_inc_beta", ("a", "b"), "x", a=a, b=b, x=x)


def student_t_cdf(x, v):
    """CDF of the standard Student t with v > 0 degrees of freedom."""
    return _apply(lambda x, v: special.stdtr(v, x), "student_t_cdf", ("v",), x=x, v=v)


def student_t_logpdf(x, v):
    """Log density of the standard Student t with v > 0 degrees of freedom."""
    return _apply(_t_logpdf, "student_t_logpdf", ("v",), x=x, v=v)
