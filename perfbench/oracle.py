"""Independent reference values for every output the benchmark checks.

Nothing here calls skewtmix. Entropies use scipy.special (stdtr, gammaln,
digamma) and fixed Gauss-Legendre rules on a tan-mapped half line. Mixture
bounds use closed forms: the multinomial theorem collapses the Renyi lower
combinator to one log-sum, and the large-order approximation becomes a
convolution over the components. Monte Carlo estimates are recomputed on the
same draws: the sampler below reproduces skewtmix's chunked Philox streams,
and the log density is evaluated with scipy.

Components are plain tuples ``(mu, scale, delta, dof)`` of numpy arrays and
floats, so the oracle never sees a skewtmix object.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

CHUNK = 1 << 16
_MASK64 = (1 << 64) - 1
_ALLOC_TAG = 0xFFFFFFFF_FFFFFFFF
_LOG_2PIE = math.log(2.0 * math.pi * math.e)

# Nodes on (0, inf): y = tan(theta), theta Gauss-Legendre on (0, pi/2).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(400)
_THETA = (_GL_X + 1.0) * (math.pi / 4.0)
_HALF_Y = np.tan(_THETA)
_HALF_W = _GL_W * (math.pi / 4.0) / np.cos(_THETA) ** 2
LINE_Y = np.concatenate([-_HALF_Y[::-1], _HALF_Y])
LINE_LOGW = np.log(np.concatenate([_HALF_W[::-1], _HALF_W]))


def _t_logpdf(y, w):
    return (
        special.gammaln((w + 1.0) / 2.0)
        - special.gammaln(w / 2.0)
        - 0.5 * math.log(w * math.pi)
        - (w + 1.0) / 2.0 * np.log1p(y * y / w)
    )


def _logsumexp(a) -> float:
    a = np.asarray(a, dtype=float)
    shift = float(np.max(a))
    return shift + math.log(float(np.sum(np.exp(a - shift))))


def shape_dd(comp) -> float:
    _, scale, delta, _ = comp
    if not np.any(delta):
        return 0.0
    return float(delta @ np.linalg.solve(scale, delta))


def _entropy_constant(v, d, logdet) -> float:
    return (
        special.gammaln(v / 2.0)
        + d / 2.0 * math.log(v * math.pi)
        - special.gammaln((v + d) / 2.0)
        + 0.5 * logdet
    )


def mt_shannon(comp, digamma: str = "halved") -> float:
    _, scale, _, v = comp
    d = scale.shape[0]
    logdet = np.linalg.slogdet(scale)[1]
    if digamma == "halved":
        term = (v + d) / 2.0 * (special.digamma((v + d) / 2.0) - special.digamma(v / 2.0))
    else:
        term = (v + d) / 2.0 * (special.digamma(v + d) - special.digamma(v))
    return float(_entropy_constant(v, d, logdet) + term)


def skewt_shannon(comp, digamma: str = "halved") -> float:
    """mt_shannon minus E[2G ln 2G] over Y ~ t_{v+d-1}."""
    _, scale, _, v = comp
    d = scale.shape[0]
    dd = shape_dd(comp)
    base = mt_shannon(comp, digamma)
    if dd == 0.0:
        return base
    w = v + d - 1.0
    s = math.sqrt((v + d) * dd)
    g2 = 2.0 * special.stdtr(v + d, s * LINE_Y / np.sqrt(w + LINE_Y * LINE_Y))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(g2 > 0.0, g2 * np.log(g2), 0.0)
    weight = np.exp(LINE_LOGW + _t_logpdf(LINE_Y, w))
    return base - float(np.sum(weight * f))


def skewt_renyi(comp, alpha: float) -> float:
    """Closed-form t part plus (1/(1-alpha)) ln E[(2G)^alpha] over X ~ t_{alpha(v+d)-1}."""
    _, scale, _, v = comp
    d = scale.shape[0]
    logdet = np.linalg.slogdet(scale)[1]
    u = alpha * (v + d) - d
    log_const = (
        (1.0 - alpha) * _entropy_constant(v, d, logdet)
        + special.gammaln((v + d) / 2.0)
        + special.gammaln(u / 2.0)
        - special.gammaln(v / 2.0)
        - special.gammaln(alpha * (v + d) / 2.0)
    )
    base = log_const / (1.0 - alpha)
    dd = shape_dd(comp)
    if dd == 0.0:
        return float(base)
    den = alpha * (v + d) - 1.0
    s = math.sqrt((v + d) * dd)
    with np.errstate(divide="ignore"):
        log_g = np.log(special.stdtr(v + d, s * LINE_Y / np.sqrt(den + LINE_Y * LINE_Y)))
    log_terms = LINE_LOGW + _t_logpdf(LINE_Y, den) + alpha * (math.log(2.0) + log_g)
    return float(base + _logsumexp(log_terms) / (1.0 - alpha))


def _b_const(v: float) -> float:
    return math.sqrt(v / math.pi) * math.exp(special.gammaln((v - 1.0) / 2.0) - special.gammaln(v / 2.0))


def _delta_hat(comp) -> np.ndarray:
    return comp[2] / math.sqrt(1.0 + shape_dd(comp))


def shannon_bounds(comps, weights, convention: str) -> list:
    """[lower, upper] of skewtmix's Shannon bounds under a convention."""
    digamma = "printed" if convention == "paper" else "halved"
    lower = float(np.dot(weights, [skewt_shannon(c, digamma) for c in comps]))
    d = comps[0][1].shape[0]
    if convention == "paper":
        acc = np.zeros((d, d))
        drift = np.zeros(d)
        for w, (_, scale, _, v) in zip(weights, comps):
            acc += w * v / (v - 2.0) * scale
        for w, c in zip(weights, comps):
            drift += w * _b_const(c[3]) * _delta_hat(c)
        cov = acc - np.outer(drift, drift)
    else:
        second = np.zeros((d, d))
        mean = np.zeros(d)
        for w, c in zip(weights, comps):
            mu, scale, _, v = c
            b = _b_const(v)
            dh = _delta_hat(c)
            mi = mu + b * dh
            cov_i = v / (v - 2.0) * scale - b * b * np.outer(dh, dh)
            second += w * (cov_i + np.outer(mi, mi))
            mean += w * mi
        cov = second - np.outer(mean, mean)
    upper = 0.5 * (d * _LOG_2PIE + np.linalg.slogdet(cov)[1])
    return [lower, float(upper)]


def renyi_bounds(comps, weights, alpha: int, entropy=skewt_renyi) -> list:
    """[lower, upper] of the integer-order Renyi combinators.

    The lower combinator sums multinomial terms over all compositions of
    alpha; by the multinomial theorem that sum is (sum_i w_i e^{r_i})^alpha.
    """
    rs = np.array([entropy(c, float(alpha)) for c in comps])
    w = np.asarray(weights, dtype=float)
    ratio = (1.0 - alpha) / alpha
    live = w > 0.0
    lower = alpha * _logsumexp(np.log(w[live]) + ratio * rs[live]) / (1.0 - alpha)

    log_i = (1.0 - alpha) * rs
    order = np.argsort(-log_i, kind="stable")
    li = log_i[order]
    eps = w[order]
    terms = [li[-1]]
    cum = 0.0
    for i in range(len(li) - 1):
        cum += eps[i]
        gap = li[i + 1] - li[i]
        if cum == 0.0 or gap == 0.0:
            continue
        terms.append(alpha * math.log(cum) + li[i] + math.log1p(-math.exp(gap)))
    upper = _logsumexp(terms) / (1.0 - alpha)
    return [float(lower), float(upper)]


def large_alpha_approx(comps, weights, alpha: int, shannon=skewt_shannon, renyi=skewt_renyi) -> float:
    """Sum over strictly positive compositions, done as a convolution.

    Each composition term factorizes into one factor per component,
    f_i(k) = (alpha w_i / k)^k exp(((1-alpha)/alpha) k H_k(i)), so the sum
    over compositions of alpha into m positive parts is the alpha-th entry
    of the convolution of the m sequences.
    """
    m = len(comps)
    ratio = (1.0 - alpha) / alpha
    top = alpha - m + 1
    acc = np.array([0.0])  # log of the convolution so far, indexed from 0
    for w, c in zip(weights, comps):
        ks = np.arange(1, top + 1)
        ent = np.array([shannon(c) if k == 1 else renyi(c, float(k)) for k in ks])
        logf = -ks * np.log(ks / alpha) + ks * math.log(w) + ratio * ks * ent
        nxt = np.full(len(acc) + top, -np.inf)
        for j, a in enumerate(acc):
            if a == -np.inf:
                continue
            nxt[j + 1 : j + 1 + top] = np.logaddexp(nxt[j + 1 : j + 1 + top], a + logf)
        acc = nxt
    return float(acc[alpha] / (1.0 - alpha))


# --- Monte Carlo: same draws as skewtmix, log density from scipy ----------


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _component_seed(seed: int, index: int) -> int:
    return _splitmix64((seed & _MASK64) ^ _splitmix64(index & _MASK64))


def _stream(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_mixture(comps, weights, n: int, seed: int) -> np.ndarray:
    """Chunk c: labels from the allocation stream, then each component's rows from its own stream."""
    d = comps[0][1].shape[0]
    out = np.empty((n, d))
    edges = np.cumsum(weights)
    alloc_seed = _component_seed(seed, _ALLOC_TAG)
    factors = []
    for c in comps:
        dh = _delta_hat(c)
        factors.append((dh, np.linalg.cholesky(c[1] - np.outer(dh, dh))))
    for chunk, start in enumerate(range(0, n, CHUNK)):
        count = min(start + CHUNK, n) - start
        u = _stream(alloc_seed, chunk).random(count)
        labels = np.clip(np.searchsorted(edges, u, side="right"), 0, len(comps) - 1)
        block = np.empty((count, d))
        for i, (mu, _, _, v) in enumerate(comps):
            rows = np.nonzero(labels == i)[0]
            if not rows.size:
                continue
            rng = _stream(_component_seed(seed, i), chunk)
            dh, lower = factors[i]
            w = rng.gamma(v / 2.0, 2.0 / v, size=rows.size)
            u0 = np.abs(rng.standard_normal(rows.size))
            z = rng.standard_normal((rows.size, d)) @ lower.T
            block[rows] = mu + (dh[None, :] * u0[:, None] + z) / np.sqrt(w)[:, None]
        out[start : start + count] = block
    return out


def mixture_logpdf(comps, weights, x: np.ndarray) -> np.ndarray:
    logs = []
    for w, (mu, scale, delta, v) in zip(weights, comps):
        if w == 0.0:
            continue
        d = scale.shape[0]
        diff = x - mu
        q = np.sum(diff * np.linalg.solve(scale, diff.T).T, axis=-1)
        lp = (
            special.gammaln((v + d) / 2.0)
            - special.gammaln(v / 2.0)
            - d / 2.0 * math.log(v * math.pi)
            - 0.5 * np.linalg.slogdet(scale)[1]
            - (v + d) / 2.0 * np.log1p(q / v)
        )
        if np.any(delta):
            lin = diff @ np.linalg.solve(scale, delta)
            lp = lp + math.log(2.0) + np.log(special.stdtr(v + d, lin * np.sqrt((v + d) / (v + q))))
        logs.append(lp + math.log(w))
    stacked = np.stack(logs, axis=-1)
    shift = np.max(stacked, axis=-1)
    return shift + np.log(np.sum(np.exp(stacked - shift[:, None]), axis=-1))


def mc_shannon(lp: np.ndarray) -> list:
    return [float(-np.mean(lp)), float(np.std(lp) / math.sqrt(len(lp)))]


def _power_mean(logs: np.ndarray, alpha: float) -> list:
    shift = float(np.max(logs))
    scaled = np.exp(logs - shift)
    mean = float(np.mean(scaled))
    rel_se = float(np.std(scaled) / (mean * math.sqrt(len(scaled))))
    return [(shift + math.log(mean)) / (1.0 - alpha), rel_se / abs(1.0 - alpha)]


def mc_renyi(lp: np.ndarray, alpha: float) -> list:
    return _power_mean((alpha - 1.0) * lp, alpha)


def is_renyi(lt: np.ndarray, lq: np.ndarray, alpha: float) -> list:
    return _power_mean(alpha * lt - lq, alpha)


def fat(comps) -> list:
    """skewtmix's default importance proposal: dof replaced by max(1, dof/2)."""
    return [(mu, scale, delta, max(1.0, v / 2.0)) for mu, scale, delta, v in comps]
