"""Multivariate t and skew-t distributions and their finite mixtures.

Parameterization
----------------
A component has location ``mu``, SPD scale ``S``, shape vector ``delta``
(unbounded reals) and degrees of freedom ``dof``. The log density is

    ln f(x) = ln 2 + ln t_d(x; mu, S, v)
              + ln G1(delta' S^{-1} (x - mu) * sqrt((v + d) / (v + Q)); v + d)

with Q = (x - mu)' S^{-1} (x - mu), t_d the multivariate t density and G1
the univariate t CDF. Equivalently, in standardized coordinates
z = S^{-1/2}(x - mu) the skewing direction is lam = S^{-1/2} delta, so the
scalar that controls all entropy corrections is dd = lam'lam =
delta' S^{-1} delta. This reading was frozen after validating density
normalization, sampler agreement, and the bundled reference entropies;
the alternatives are retained in the test suite as rejected readings.

The matching stochastic representation, used by the sampler and by the
moment formulas, is

    X = mu + (delta_hat |U0| + U) / sqrt(W),
    delta_hat = delta / sqrt(1 + dd),
    U0 ~ N(0, 1),  U ~ N_d(0, S - delta_hat delta_hat'),  W ~ Gamma(v/2, rate v/2),

all independent. ``delta = 0`` recovers the multivariate t exactly.

Sampling is deterministic for a fixed seed in [0, 2**64): draws are
produced in fixed size chunks, and chunk c of a run with seed s uses the
counter-based Philox stream keyed by (s, c), so chunked parallel
generation and serial generation agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfn
from .linalg import SpdMatrix, log_det, quad_form, solve, solve_lower_batch

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


@dataclass(frozen=True)
class SkewTParams:
    """One skew-t component: location, SPD scale, shape vector, dof.

    ``mu`` and ``delta`` are copied at construction, so a component never
    changes. What is derived from it is computed on first use and kept on
    the component in private fields: the shape quantities of
    ``derive_shape``, S^{-1} delta for the log density, and the converged
    entropy corrections of the ``entropy`` module. A failed derivation is
    never kept, so it fails again on every call. Threads that use a
    component first at the same time may each compute a value; they store
    equal ones, so no lock is needed.
    """

    mu: np.ndarray
    scale: SpdMatrix
    delta: np.ndarray
    dof: float
    _shape: DerivedShape | None = field(default=None, init=False, repr=False, compare=False)
    _sinv_delta: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _corrections: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float).reshape(-1)
        delta = np.array(self.delta, dtype=float).reshape(-1)
        scale = self.scale if isinstance(self.scale, SpdMatrix) else SpdMatrix(self.scale)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(delta))):
            raise ValueError("mu and delta must be finite")
        if not (np.isfinite(self.dof) and self.dof > 0):
            raise ValueError("dof must be a positive real")
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

    ``dd`` is the squared standardized length delta' S^{-1} delta and
    ``delta_hat`` the moment-form shape delta / sqrt(1 + dd).
    """

    delta_hat: np.ndarray
    dd: float


def _standardize(p: SkewTParams) -> DerivedShape:
    if not np.any(p.delta):
        delta_hat, dd = np.zeros(p.dim), 0.0
    else:
        # An overflowing dd is rejected below, not reported by numpy.
        with np.errstate(over="ignore"):
            dd = float(quad_form(p.scale, p.delta))
        if not np.isfinite(dd) or dd < 0.0:
            raise ValueError(f"shape standardization failed: delta'S^-1 delta = {dd}")
        delta_hat = p.delta / math.sqrt(1.0 + dd)
    delta_hat.setflags(write=False)
    return DerivedShape(delta_hat=delta_hat, dd=dd)


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


def _check_x(p: SkewTParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.dim:
        raise ValueError(f"dimension mismatch: x has {x.shape[-1]}, expected {p.dim}")
    return x


def _mahalanobis(p: SkewTParams, x):
    """Checked x and Q = (x - mu)' S^{-1} (x - mu)."""
    x = _check_x(p, x)
    z = solve_lower_batch(p.scale.cholesky_factor, x - p.mu)
    return x, np.sum(z * z, axis=-1)


def _mt_log_norm(v: float, d: int, logdet: float) -> float:
    """ln of the multivariate t density's normalising constant.

    ln Gamma((v+d)/2) - ln Gamma(v/2) - d/2 ln(v pi) - 1/2 ln|S|; its
    negation is the closed-form part of the t entropies. dof > 0 keeps the
    gamma arguments positive.
    """
    return math.lgamma((v + d) / 2.0) - (math.lgamma(v / 2.0) + d / 2.0 * math.log(v * math.pi)) - 0.5 * logdet


def _mt_log_density(p: SkewTParams, q):
    v, d = p.dof, p.dim
    return _mt_log_norm(v, d, log_det(p.scale)) - (v + d) / 2.0 * np.log1p(q / v)


def mt_logpdf(p: SkewTParams, x) -> float | np.ndarray:
    """Multivariate t log density (the shape vector is ignored)."""
    _, q = _mahalanobis(p, x)
    out = _mt_log_density(p, q)
    return float(out) if np.ndim(out) == 0 else out


def skewt_logpdf(p: SkewTParams, x) -> float | np.ndarray:
    """Skew-t log density; reduces exactly to mt_logpdf when delta = 0."""
    x, q = _mahalanobis(p, x)
    out = _mt_log_density(p, q)
    if np.any(p.delta):
        v, d = p.dof, p.dim
        if p._sinv_delta is None:
            object.__setattr__(p, "_sinv_delta", solve(p.scale, p.delta))
        lin = (x - p.mu) @ p._sinv_delta
        arg = lin * np.sqrt((v + d) / (v + q))
        out = math.log(2.0) + out + np.log(specfn.student_t_cdf(arg, v + d))
    return float(out) if np.ndim(out) == 0 else out


def mixture_logpdf(m: MixtureParams, x) -> float | np.ndarray:
    """Log density of the mixture via a max-shifted log-sum."""
    x = _check_x(m.components[0], x)
    logs = []
    logw = []
    for w, comp in zip(m.weights, m.components):
        if w == 0.0:
            continue
        logs.append(np.asarray(skewt_logpdf(comp, x), dtype=float))
        logw.append(math.log(w))
    stacked = np.stack(logs, axis=-1) + np.asarray(logw)
    shift = np.max(stacked, axis=-1)
    out = shift + np.log(np.sum(np.exp(stacked - shift[..., None]), axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def _b_const(v: float) -> float:
    # E|U0| / sqrt(W) factor of the stochastic representation.
    return math.sqrt(v / math.pi) * math.exp(math.lgamma((v - 1.0) / 2.0) - math.lgamma(v / 2.0))


def skewt_mean(p: SkewTParams) -> np.ndarray:
    """Mean vector; requires dof > 1."""
    if p.dof <= 1.0:
        raise ValueError(f"mean undefined for dof = {p.dof} (needs dof > 1)")
    shape = derive_shape(p)
    return p.mu + _b_const(p.dof) * shape.delta_hat


def skewt_cov(p: SkewTParams) -> SpdMatrix:
    """Covariance matrix; requires dof > 2."""
    if p.dof <= 2.0:
        raise ValueError(f"covariance undefined for dof = {p.dof} (needs dof > 2)")
    shape = derive_shape(p)
    b = _b_const(p.dof)
    cov = p.dof / (p.dof - 2.0) * p.scale.entries - b * b * np.outer(shape.delta_hat, shape.delta_hat)
    return SpdMatrix(cov)


def mixture_mean(m: MixtureParams) -> np.ndarray:
    """Weighted mean of the component means; all dof must exceed 1."""
    for i, comp in enumerate(m.components):
        if comp.dof <= 1.0:
            raise ValueError(f"mean undefined: component {i} has dof = {comp.dof} (needs dof > 1)")
    return sum(w * skewt_mean(c) for w, c in zip(m.weights, m.components))


def mixture_cov(m: MixtureParams) -> SpdMatrix:
    """Mixture covariance by the law of total variance; all dof must exceed 2."""
    for i, comp in enumerate(m.components):
        if comp.dof <= 2.0:
            raise ValueError(f"covariance undefined: component {i} has dof = {comp.dof} (needs dof > 2)")
    d = m.dim
    second = np.zeros((d, d))
    mean = np.zeros(d)
    for w, comp in zip(m.weights, m.components):
        mi = skewt_mean(comp)
        second += w * (skewt_cov(comp).entries + np.outer(mi, mi))
        mean += w * mi
    return SpdMatrix(second - np.outer(mean, mean))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def component_seed(seed: int, index: int) -> int:
    """Derived seed of a mixture component's sampling stream."""
    return _splitmix64(((seed & _MASK64) ^ _splitmix64(index & _MASK64)))


def _stream(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_ranges(n: int):
    for c, start in enumerate(range(0, n, CHUNK_SIZE)):
        yield c, start, min(start + CHUNK_SIZE, n)


def _sample_component_chunk(p: SkewTParams, count: int, rng: np.random.Generator) -> np.ndarray:
    shape = derive_shape(p)
    psi = p.scale.entries - np.outer(shape.delta_hat, shape.delta_hat)
    lower = SpdMatrix(psi).cholesky_factor
    w = rng.gamma(p.dof / 2.0, 2.0 / p.dof, size=count)
    u0 = np.abs(rng.standard_normal(count))
    u = rng.standard_normal((count, p.dim)) @ lower.T
    return p.mu + (shape.delta_hat[None, :] * u0[:, None] + u) / np.sqrt(w)[:, None]


def _check_request(n: int, seed: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")


def sample_skewt(p: SkewTParams, n: int, seed: int) -> np.ndarray:
    """Draw n rows from the skew-t law; bit-identical for a fixed seed."""
    _check_request(n, seed)
    out = np.empty((n, p.dim))
    for c, start, stop in _chunk_ranges(n):
        out[start:stop] = _sample_component_chunk(p, stop - start, _stream(seed, c))
    return out


def sample_mixture(m: MixtureParams, n: int, seed: int) -> np.ndarray:
    """Draw n rows from the mixture.

    Each chunk first allocates rows to components from a dedicated
    allocation stream, then fills every component's rows from that
    component's own derived stream. A single-component mixture therefore
    produces exactly sample_skewt(component, n, component_seed(seed, 0)).
    """
    _check_request(n, seed)
    out = np.empty((n, m.dim))
    edges = np.cumsum(m.weights)
    alloc_seed = component_seed(seed, _ALLOC_TAG)
    for c, start, stop in _chunk_ranges(n):
        count = stop - start
        u = _stream(alloc_seed, c).random(count)
        labels = np.searchsorted(edges, u, side="right")
        np.clip(labels, 0, m.n_components - 1, out=labels)
        block = np.empty((count, m.dim))
        for i, comp in enumerate(m.components):
            rows = np.nonzero(labels == i)[0]
            if rows.size:
                block[rows] = _sample_component_chunk(comp, rows.size, _stream(component_seed(seed, i), c))
        out[start:stop] = block
    return out
