"""Special functions used by the entropy formulas.

All functions accept floats or numpy arrays and are evaluated elementwise
by ``scipy.special``; a scalar or 0-d input gives a ``float``. Every call
goes through one check: each argument must be finite, the positive-domain
arguments must be > 0, and the ``reg_inc_beta`` point must lie in [0, 1].
Callers whose arguments are valid by construction skip it: the closed-form
entropy constants call ``math.lgamma`` and ``scipy.special.psi``, and the
entropy quadrature calls ``scipy.special.stdtr`` and the unchecked
``_t_logpdf``, with one ``stdtr`` call per +- pair of its mirrored
Shannon nodes; the Renyi rule calls ``stdtr`` only at the nodes whose
bound, from ``_t_logpdf`` alone, can move its sum.

``student_t_cdf`` of one dof v in [1, 64] (a scalar, 0-d or one-element
``v``) reads T_v from a table of 8 Taylor coefficients about each knot
j/32 on [-16, 16] (1,025 knots, 66 KB): c_0 = ``stdtr(v, t0)``, from one
mirrored call on the knots t0 <= 0, and the rest from the density's
ODE, (v + t^2) f' = -(v + 1) t f. Horner's rule in h = t - t0 takes only
exact clip/rint/take steps and IEEE + and *, so a row's value depends on
(t, v) alone, never on the batch it is in; its relative error stays
within about twice ``stdtr``'s own. Tables are built on first use,
read-only, and kept for the 16 most recently used dofs. Rows with
|t| > 16, any other dof, and a ``v`` of more than one value keep ``stdtr``;
the mask of far rows is built only when the batch's extremes pass 16.
The entropy quadrature calls ``stdtr`` itself: each component entropy
meets a fresh dof, and building its table cost more than it saved.
Through ``student_t_cdf``, 1,500 cold seed-1 entropy-cells requests ran
at about 4,400 instead of 8,900 req/s (p50 0.255 against 0.125 ms), and
values moved by up to 6.8e-15 relative.
``student_t_log_tail`` gives ln T_v(t) where T_v(t) underflows.

Domain violations and NaN inputs raise ``ValueError``; they are never
propagated silently.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special

__all__ = [
    "log_gamma",
    "digamma",
    "log_beta",
    "reg_inc_beta",
    "student_t_cdf",
    "student_t_log_tail",
    "student_t_logpdf",
]

_KNOTS_PER_UNIT = 32  # knot step 1/32
_MID = 512  # knots j/32 for j in [-512, 512]; index of the knot at 0
_REACH = _MID / _KNOTS_PER_UNIT
_TERMS = 8
_TABLE_DOFS = (1.0, 64.0)
_TAIL_DEPTH = 16


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


@functools.lru_cache(maxsize=16)
def _cdf_table(v: float) -> np.ndarray:
    """Taylor coefficients of T_v about the knots, shape (terms, knots), read-only.

    c_0 is one ``stdtr`` call on the 513 knots t0 <= 0, mirrored as c_0(t0) = 1 - c_0(-t0)
    for the rest; ``stdtr(v, t) == 1 - stdtr(v, -t)`` holds bit for bit, so the row equals
    ``stdtr(v, t0)`` from half the points. c_{k+1} = a_k / (k + 1) for the density's
    coefficients a_k, which its ODE gives as
    (v + t0^2)(k + 1) a_{k+1} = -(2k + v + 1) t0 a_k - (k + v) a_{k-1}.
    """
    t0 = np.arange(-_MID, _MID + 1) / _KNOTS_PER_UNIT
    table = np.empty((_TERMS, t0.size))
    special.stdtr(v, t0[:_MID + 1], out=table[0, :_MID + 1])
    np.subtract(1.0, table[0, _MID - 1::-1], out=table[0, _MID + 1:])
    prev, a = 0.0, np.exp(_t_logpdf(t0, v))
    for k in range(_TERMS - 1):
        table[k + 1] = a / (k + 1)
        prev, a = a, -((2 * k + v + 1.0) * t0 * a + (k + v) * prev) / ((k + 1) * (v + t0 * t0))
    table.setflags(write=False)
    return table


def _t_cdf(x, v):
    if v.size != 1 or not _TABLE_DOFS[0] <= v.item() <= _TABLE_DOFS[1]:
        return special.stdtr(v, x)
    table = _cdf_table(v.item())
    shape = np.broadcast_shapes(x.shape, v.shape)
    t = np.broadcast_to(x, shape).ravel()
    h = np.clip(t, -_REACH, _REACH)
    h *= _KNOTS_PER_UNIT
    np.rint(h, out=h)
    index = h.astype(np.intp)
    index += _MID
    h /= _KNOTS_PER_UNIT
    np.subtract(t, h, out=h)
    out, term = table[-1].take(index, mode="clip"), np.empty_like(h)
    for row in table[-2::-1]:
        out *= h
        out += row.take(index, out=term, mode="clip")
    if t.size and (t.min() < -_REACH or t.max() > _REACH):
        far = np.abs(t) > _REACH
        out[far] = special.stdtr(v.item(), t[far])
    return out.reshape(shape)


def _t_log_tail(x, v):
    # ln T_v(x) = ln(I_w(a, 1/2) / 2) with a = v/2, w = v / (v + x^2), and
    # I_w = w^a (1 - w)^(1/2) / (a B(a, 1/2)) / (1 + d_1 / (1 + d_2 / (1 + ...))),
    # the incomplete beta's continued fraction, evaluated bottom-up from a fixed depth
    a = v / 2.0
    lu = 2.0 * np.log(np.abs(x)) - np.log(v)  # ln(x^2 / v), which cannot overflow
    w = special.expit(-lu)
    g = 1.0
    for m in range(_TAIL_DEPTH, -1, -1):
        g = 1.0 - (a + m) * (a + 0.5 + m) * w / ((a + 2 * m) * (a + 2 * m + 1)) / g
        if m:
            g = 1.0 + m * (0.5 - m) * w / ((a + 2 * m - 1) * (a + 2 * m)) / g
    # 1 / (a B(a, 1/2)) = poch(a, 1/2) / (a sqrt(pi)); betaln(a, 1/2) cancels for large a
    return (-a * np.logaddexp(0.0, lu) - 0.5 * np.logaddexp(0.0, -lu) + np.log(special.poch(a, 0.5) / a)
            - np.log(2.0 * g) - 0.5 * np.log(np.pi))


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
    """CDF of the standard Student t with v > 0 degrees of freedom; one dof in [1, 64] reads a table."""
    return _apply(_t_cdf, "student_t_cdf", ("v",), x=x, v=v)


def student_t_log_tail(x, v):
    """ln of the Student t CDF at x < 0, in log space: for the far left tail, where the CDF underflows.

    Within about 4e-15 relative where the CDF is below 1e-300. Its fixed-depth
    continued fraction converges only for x^2 > 3, and slowly near that edge.
    """
    return _apply(_t_log_tail, "student_t_log_tail", ("v",), x=x, v=v)


def student_t_logpdf(x, v):
    """Log density of the standard Student t with v > 0 degrees of freedom."""
    return _apply(_t_logpdf, "student_t_logpdf", ("v",), x=x, v=v)
