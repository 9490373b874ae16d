"""Multivariate t and skew-t distributions and their finite mixtures.

Parameterization
----------------
A component has location ``mu``, SPD scale ``S``, shape vector ``delta``
(unbounded reals) and degrees of freedom ``dof``. The log density is

    ln f(x) = ln 2 + ln t_d(x; mu, S, v)
              + ln G1(delta' S^{-1} (x - mu) * sqrt((v + d) / (v + Q)); v + d)

with Q = (x - mu)' S^{-1} (x - mu), t_d the multivariate t density and G1
the univariate t CDF. Equivalently, in Cholesky-whitened coordinates
h = L^{-1}(x - mu), L L' = S, the skewing direction is lam = L^{-1} delta,
so Q = h'h, delta' S^{-1} (x - mu) = h'lam, and the scalar that controls all
entropy corrections is dd = lam'lam = delta' S^{-1} delta. This reading was
frozen after validating density normalization, sampler agreement, and the
bundled reference entropies; the alternatives are retained in the test
suite as rejected readings.

``mt_logpdf`` and ``skewt_logpdf`` share one kernel for every batch shape.
It whitens the points a column at a time and takes every later step in
place on arrays of one value per point, adding the constants in the order
of the formula above, so a point's value depends on that point alone and
never on the batch it is in. G1 comes from ``specfn.student_t_cdf``,
which for a total dof v + d in [1, 64] reads a per-dof Taylor table and
otherwise calls ``stdtr``. Where G1 underflows to 0, its log comes from
``specfn.student_t_log_tail`` instead, and where Q or Q/v overflows (|h|
beyond about 1e154, or 1e154 sqrt(v) at v < 1) Q and the skew argument
are formed at a scale on those rows, so the log density stays finite at
every finite x.

The matching stochastic representation, used by the sampler and by the
moment formulas, is

    X = mu + (delta_hat |U0| + U) / sqrt(W),
    delta_hat = delta / sqrt(1 + dd),
    U0 ~ N(0, 1),  U ~ N_d(0, S - delta_hat delta_hat'),  W ~ Gamma(v/2, rate v/2),

all independent. ``delta = 0`` recovers the multivariate t exactly.

Sampling is deterministic for a fixed seed in [0, 2**64): draws are
produced in fixed size chunks, and chunk c of a run with seed s uses the
counter-based Philox stream keyed by (s, c). The samplers' ``chunk=``
form draws one chunk alone, the same rows in any order and on any thread;
``mc`` draws each chunk on the pool worker that evaluates it.
"""

from __future__ import annotations

import math
import sys
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import specfn
from .linalg import NotPositiveDefiniteError, SpdMatrix, _substitute, _whiten, log_det

__all__ = [
    "SkewTParams",
    "DerivedShape",
    "MixtureParams",
    "derive_shape",
    "mt_logpdf",
    "skewt_logpdf",
    "mixture_logpdf",
    "skewt_mean",
    "skewt_cov",
    "mixture_mean",
    "mixture_cov",
    "sample_skewt",
    "sample_mixture",
    "component_seed",
    "CHUNK_SIZE",
]

CHUNK_SIZE = 1 << 16
_MASK64 = (1 << 64) - 1
_ALLOC_TAG = 0xFFFFFFFF_FFFFFFFF
# Largest dof: the t entropies' nearly equal lgamma/psi terms lose 8e-10 nats at 1e6, 1.4e-4 at 1e12.
_MAX_DOF = 1e6
_PSI_LOCK = threading.Lock()  # see _psi_factor


def _warn_at_caller(message: str, category: type) -> None:
    """warnings.warn attributed to the innermost calling frame outside this package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _check_order(alpha: float) -> None:
    if not math.isfinite(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be finite, positive and different from 1, the Shannon limit")


@dataclass(frozen=True)
class SkewTParams:
    """One skew-t component: location, SPD scale, shape vector, dof.

    ``mu`` and ``delta`` are copied at construction, so a component never
    changes. What is derived from it is computed on first use and kept on
    the component in private fields: the shape quantities of
    ``derive_shape`` in ``_shape``, and in the ``_kept`` dict the finished
    values that depend on nothing else: ``skewt_mean`` (read-only, handed
    out as a copy), ``skewt_cov`` (one shared ``SpdMatrix``), the sampler's
    Cholesky factor of S - delta_hat delta_hat' and each converged
    ``skewt_shannon`` and ``skewt_renyi`` of the ``entropy`` module. A
    failed derivation or factorization, a refused order or dof and a
    quadrature that did not converge are never kept, so they raise or warn
    again on every call. Threads that use a component first at the same
    time may each compute a value; they store equal ones, so no lock is
    needed, except around the sampler's factor, which the chunks of one
    Monte Carlo draw meet on every pool worker at once.
    """

    mu: np.ndarray
    scale: SpdMatrix
    delta: np.ndarray
    dof: float
    _shape: DerivedShape | None = field(default=None, init=False, repr=False, compare=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float).reshape(-1)
        delta = np.array(self.delta, dtype=float).reshape(-1)
        scale = self.scale if isinstance(self.scale, SpdMatrix) else SpdMatrix(self.scale)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(delta))):
            raise ValueError("mu and delta must be finite")
        if not 0.0 < self.dof <= _MAX_DOF:  # NaN fails too
            raise ValueError(f"dof must be in (0, {_MAX_DOF:g}], got {self.dof!r}")
        if mu.shape[0] != scale.dim or delta.shape[0] != scale.dim:
            raise ValueError(
                f"inconsistent dimensions: mu has {mu.shape[0]}, "
                f"scale is {scale.dim}x{scale.dim}, delta has {delta.shape[0]}"
            )
        mu.setflags(write=False)
        delta.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "dof", float(self.dof))

    @property
    def dim(self) -> int:
        return self.scale.dim


@dataclass(frozen=True)
class DerivedShape:
    """Quantities derived from the shape vector.

    ``lam`` is the whitened shape L^{-1} delta (L L' = S), ``dd`` its squared
    length delta' S^{-1} delta, ``delta_hat`` the moment form delta / sqrt(1 + dd).
    """

    delta_hat: np.ndarray
    lam: np.ndarray
    dd: float


def _standardize(p: SkewTParams) -> DerivedShape:
    # An overflowing dd is rejected below, not reported by numpy.
    with np.errstate(over="ignore"):
        lam = np.array(_whiten(p.scale, p.delta))
        dd = float(sum(l * l for l in lam))
    if not np.isfinite(dd) or dd < 0.0:
        raise ValueError(f"shape standardization failed: delta'S^-1 delta = {dd}")
    delta_hat = p.delta / math.sqrt(1.0 + dd)
    delta_hat.setflags(write=False)
    lam.setflags(write=False)
    return DerivedShape(delta_hat=delta_hat, lam=lam, dd=dd)


def derive_shape(p: SkewTParams) -> DerivedShape:
    """Derived shape quantities for a component; delta = 0 gives all zeros.

    Computed on the first call and kept on the component; a shape that
    cannot be standardized raises ``ValueError`` on every call.
    """
    if p._shape is None:
        object.__setattr__(p, "_shape", _standardize(p))
    return p._shape


@dataclass(frozen=True)
class MixtureParams:
    """Finite mixture: components sharing a dimension, simplex weights (copied)."""

    components: tuple
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a mixture needs at least one component")
        if any(not isinstance(c, SkewTParams) for c in comps):
            raise TypeError("components must be SkewTParams")
        d = comps[0].dim
        if any(c.dim != d for c in comps):
            raise ValueError("all components must share the same dimension")
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != len(comps):
            raise ValueError(f"{len(comps)} components but {w.shape[0]} weights")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative and finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)


def _live(m: MixtureParams):
    """(weight, component) of every component of positive weight, in order."""
    return [(w, c) for w, c in zip(m.weights.tolist(), m.components) if w > 0.0]


def _check_x(p: SkewTParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != p.dim:
        raise ValueError(f"dimension mismatch: x has {x.shape[-1] if x.ndim else 'no axis'}, expected {p.dim}")
    finite = np.isfinite(x)
    if not finite.all():
        index = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"x must be finite, got x{index} = {x[tuple(index)]}")
    return x


def _mt_log_norm(v: float, d: int, logdet: float) -> float:
    """ln of the multivariate t density's normalising constant.

    ln Gamma((v+d)/2) - ln Gamma(v/2) - d/2 ln(v pi) - 1/2 ln|S|; its
    negation is the closed-form part of the t entropies. dof > 0 keeps the
    gamma arguments positive.
    """
    return math.lgamma((v + d) / 2.0) - (math.lgamma(v / 2.0) + d / 2.0 * math.log(v * math.pi)) - 0.5 * logdet


def _whitened_sums(p: SkewTParams, columns: list, lam):
    """Q = h'h and, given the whitened shape lam, h'lam, for h = L^{-1} z, L L' = S.

    ``columns`` holds z one array per column. The substitution and then the
    squares run in place on them, and each sum adds its terms in column
    order into the first, so Q is left in the first column's array.
    """
    half = _substitute(p.scale.cholesky_factor, columns)
    hl = None
    if lam is not None:
        hl, term = np.multiply(half[0], lam[0]), np.empty_like(half[0])
        for h, l in zip(half[1:], lam[1:]):
            hl += np.multiply(h, l, out=term)
    q = half[0]
    q *= q
    for h in half[1:]:
        h *= h
        q += h
    return q, hl


def _log_density(p: SkewTParams, x, skewed: bool) -> float | np.ndarray:
    """The t log density at every point of x, with the skew term when ``skewed``: one in-place kernel.

    The points are whitened a column at a time, h = L^{-1}(x - mu), and the
    columns are dropped once Q = h'h and h'lam are summed. log1p(Q/v), the
    skew argument h'lam sqrt((v + d) / (v + Q)) and ln G1 are then taken in
    place, and the constants are added in the order of the formula. On a row
    whose Q/v is not finite (|h| beyond about 1e154, or 1e154 sqrt(v) at
    v < 1), log1p(Q/v) and the argument are formed again from x and mu
    divided by s, the row's largest |x| or |mu| entry: with h and Q the
    whitened point and its form at that scale, log1p(Q s^2 / v) is
    logaddexp(ln Q + 2 ln s - ln v, 0) and the argument is
    h'lam sqrt((v + d) / (Q + v / s^2)).
    """
    x = _check_x(p, x)
    v, d = p.dof, p.dim
    rows = x.reshape(-1, d)
    lam = derive_shape(p).lam if skewed else None
    with np.errstate(over="ignore", invalid="ignore"):
        q, arg = _whitened_sums(p, [np.subtract(rows[:, j], p.mu[j]) for j in range(d)], lam)
        if skewed:
            root = np.add(q, v)
            np.divide(v + d, root, out=root)
            arg *= np.sqrt(root, out=root)
            del root  # freed before the t CDF, whose own arrays make the block's peak
        q /= v
        big = None if np.isfinite(np.max(q, initial=0.0)) else ~np.isfinite(q)  # max propagates NaN
        out = np.log1p(q, out=q)
    if big is not None:
        scaled = rows[big]
        s = np.maximum(np.max(np.abs(scaled), axis=-1), np.max(np.abs(p.mu)))[:, None]
        q_s, hl_s = _whitened_sums(p, list((scaled / s - p.mu / s).T), lam)
        s = s[:, 0]
        out[big] = np.logaddexp(np.log(q_s) + 2.0 * np.log(s) - math.log(v), 0.0)
        if skewed:
            arg[big] = hl_s * np.sqrt((v + d) / (q_s + v / s / s))
    out *= (v + d) / 2.0
    np.subtract(_mt_log_norm(v, d, log_det(p.scale)), out, out=out)
    if skewed:
        log_g = specfn.student_t_cdf(arg, v + d)
        with np.errstate(divide="ignore"):
            np.log(log_g, out=log_g)
        if log_g.min(initial=0.0) == -math.inf:  # G1 underflowed: take its log in log space on those rows
            under = log_g == -math.inf
            log_g[under] = specfn.student_t_log_tail(arg[under], v + d)
        out += math.log(2.0)
        out += log_g
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


def mt_logpdf(p: SkewTParams, x) -> float | np.ndarray:
    """Multivariate t log density (the shape vector is ignored)."""
    return _log_density(p, x, skewed=False)


def skewt_logpdf(p: SkewTParams, x) -> float | np.ndarray:
    """Skew-t log density; reduces exactly to mt_logpdf when delta = 0."""
    return _log_density(p, x, skewed=bool(np.any(p.delta)))


def mixture_logpdf(m: MixtureParams, x) -> float | np.ndarray:
    """Log density of the mixture via a max-shifted log-sum.

    The weighted component log densities are stacked component-major, one
    contiguous row per component of positive weight, and reduced over that
    leading axis in place. Every component's call checks x, so the first raises.
    """
    x = np.asarray(x, dtype=float)
    terms = [(math.log(w), comp) for w, comp in _live(m)]
    stacked = np.empty((len(terms),) + x.shape[:-1])
    for i, (logw, comp) in enumerate(terms):
        np.add(skewt_logpdf(comp, x), logw, out=stacked[i, ...])
    shift = stacked.max(axis=0)
    stacked -= shift
    np.exp(stacked, out=stacked)
    out = shift + np.log(stacked.sum(axis=0))
    return float(out) if np.ndim(out) == 0 else out


def _b_const(v: float) -> float:
    # E|U0| / sqrt(W) factor of the stochastic representation.
    return math.sqrt(v / math.pi) * math.exp(math.lgamma((v - 1.0) / 2.0) - math.lgamma(v / 2.0))


def _mean(p: SkewTParams) -> np.ndarray:
    """The kept, read-only mean vector; requires dof > 1."""
    mean = p._kept.get("mean")
    if mean is None:
        if p.dof <= 1.0:
            raise ValueError(f"mean undefined for dof = {p.dof} (needs dof > 1)")
        mean = p.mu + _b_const(p.dof) * derive_shape(p).delta_hat
        mean.setflags(write=False)
        p._kept["mean"] = mean
    return mean


def skewt_mean(p: SkewTParams) -> np.ndarray:
    """Mean vector; requires dof > 1. Computed once per component; each call returns a writable copy."""
    return _mean(p).copy()


def skewt_cov(p: SkewTParams) -> SpdMatrix:
    """Covariance matrix; requires dof > 2. Computed and factored once per component, then shared."""
    cov = p._kept.get("cov")
    if cov is None:
        if p.dof <= 2.0:
            raise ValueError(f"covariance undefined for dof = {p.dof} (needs dof > 2)")
        delta_hat = derive_shape(p).delta_hat
        b = _b_const(p.dof)
        cov = SpdMatrix(p.dof / (p.dof - 2.0) * p.scale.entries - b * b * np.outer(delta_hat, delta_hat))
        p._kept["cov"] = cov
    return cov


def _require_dof(m: MixtureParams, minimum: int, what: str) -> None:
    """Raise ValueError naming the first component of positive weight whose dof does not exceed minimum."""
    for i, (w, comp) in enumerate(zip(m.weights, m.components)):
        if w > 0.0 and comp.dof <= minimum:
            raise ValueError(f"{what} undefined: component {i} has dof = {comp.dof} (needs dof > {minimum})")


def mixture_mean(m: MixtureParams) -> np.ndarray:
    """Weighted mean of the component means; every dof of positive weight must exceed 1."""
    _require_dof(m, 1, "mean")
    return sum(w * _mean(c) for w, c in _live(m))


def mixture_cov(m: MixtureParams) -> SpdMatrix:
    """Mixture covariance by the law of total variance; every dof of positive weight must exceed 2."""
    _require_dof(m, 2, "covariance")
    d = m.dim
    second = np.zeros((d, d))
    mean = np.zeros(d)
    for w, comp in _live(m):
        mi = _mean(comp)
        second += w * (skewt_cov(comp).entries + np.outer(mi, mi))
        mean += w * mi
    return SpdMatrix(second - np.outer(mean, mean))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _check_u64(name: str, value: int) -> None:
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value}")


def component_seed(seed: int, index: int) -> int:
    """Derived seed of a mixture component's sampling stream; seed and index lie in [0, 2**64)."""
    _check_u64("seed", seed)
    _check_u64("index", index)
    return _splitmix64(seed ^ _splitmix64(index))


def _stream(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_ranges(n: int, chunk: int | None):
    """(chunk, start, stop) of every chunk of an n-row draw, or of the one n-row chunk asked for."""
    if chunk is not None:
        yield chunk, 0, n
        return
    for c, start in enumerate(range(0, n, CHUNK_SIZE)):
        yield c, start, min(start + CHUNK_SIZE, n)


def _psi_factor(p: SkewTParams) -> np.ndarray:
    """Cholesky factor of U's covariance S - delta_hat delta_hat', read-only, kept on the component.

    Computed under a lock, so the chunks of one draw running on several
    threads factor each component once; a failed factorization keeps nothing.
    """
    with _PSI_LOCK:
        lower = p._kept.get("psi_factor")
        if lower is None:
            shape = derive_shape(p)
            try:
                lower = SpdMatrix(p.scale.entries - np.outer(shape.delta_hat, shape.delta_hat)).cholesky_factor
            except NotPositiveDefiniteError:
                raise NotPositiveDefiniteError(
                    "cannot sample: U's covariance S - delta_hat delta_hat' is not positive definite "
                    f"in floating point at delta'S^-1 delta = {shape.dd:.6g}"
                ) from None
            p._kept["psi_factor"] = lower
    return lower


def _sample_component_chunk(p: SkewTParams, lower: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """count rows mu + (delta_hat |U0| + U) / sqrt(W), built in place on U's array one column at a time."""
    w = rng.gamma(p.dof / 2.0, 2.0 / p.dof, size=count)
    if not w.all():
        raise ArithmeticError(f"cannot sample at dof {p.dof:g}: a Gamma(v/2, 2/v) mixing draw underflowed to 0")
    u0 = rng.standard_normal(count)
    rows = rng.standard_normal((count, p.dim)) @ lower.T
    np.abs(u0, out=u0)
    np.sqrt(w, out=w)
    term = np.empty(count)
    for j, (delta_hat, mu) in enumerate(zip(derive_shape(p).delta_hat.tolist(), p.mu.tolist())):
        column = rows[:, j]
        column += np.multiply(u0, delta_hat, out=term)
        column /= w
        column += mu
    return rows


def _check_request(n: int, seed: int, chunk: int | None) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_u64("seed", seed)
    if chunk is not None:
        _check_u64("chunk", chunk)
        if n > CHUNK_SIZE:
            raise ValueError(f"a chunk holds at most CHUNK_SIZE = {CHUNK_SIZE} rows, got n = {n}")


def sample_skewt(p: SkewTParams, n: int, seed: int, chunk: int | None = None) -> np.ndarray:
    """Draw n rows from the skew-t law; bit-identical for a fixed seed.

    With ``chunk`` c, draw only that chunk's n <= CHUNK_SIZE rows: rows
    c * CHUNK_SIZE onward of every longer draw whose chunk c holds n rows.
    """
    _check_request(n, seed, chunk)
    out = np.empty((n, p.dim))
    lower = _psi_factor(p)
    for c, start, stop in _chunk_ranges(n, chunk):
        out[start:stop] = _sample_component_chunk(p, lower, stop - start, _stream(seed, c))
    return out


def _component_labels(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Component index of each uniform draw in u: the weight interval it falls in.

    The index is the number of cumulative weights at or below u, counted
    with one comparison per component into the narrowest unsigned type
    that holds the component count. The weights may sum to as little as
    1 - 1e-12, so a draw at or above their sum goes to the last component
    of positive weight, never to a trailing component of weight 0.
    """
    labels = np.zeros(u.shape, dtype=np.min_scalar_type(len(weights)))
    for edge in np.cumsum(weights):
        labels += u >= edge
    return np.minimum(labels, int(np.flatnonzero(weights)[-1]), out=labels)


def sample_mixture(m: MixtureParams, n: int, seed: int, chunk: int | None = None) -> np.ndarray:
    """Draw n rows from the mixture; ``chunk`` draws one chunk, as in sample_skewt.

    Each chunk first allocates rows to components from a dedicated
    allocation stream, then fills every component's rows from that
    component's own derived stream. A single-component mixture therefore
    produces exactly sample_skewt(component, n, component_seed(seed, 0)).
    """
    _check_request(n, seed, chunk)
    out = np.empty((n, m.dim))
    alloc_seed = component_seed(seed, _ALLOC_TAG)
    seeds = [component_seed(seed, i) for i in range(m.n_components)]
    # A component of weight 0 is never drawn, so its factor is never needed.
    lowers = [_psi_factor(comp) if w > 0.0 else None for comp, w in zip(m.components, m.weights)]
    for c, start, stop in _chunk_ranges(n, chunk):
        labels = _component_labels(m.weights, _stream(alloc_seed, c).random(stop - start))
        block = out[start:stop]
        for i, comp in enumerate(m.components):
            rows = np.flatnonzero(labels == i)
            if rows.size:
                block[rows] = _sample_component_chunk(comp, lowers[i], rows.size, _stream(seeds[i], c))
    return out
