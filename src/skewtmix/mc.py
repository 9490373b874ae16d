"""Monte Carlo oracles for Shannon and Renyi entropies.

These estimators are the ground truth the formula modules are validated
against. ``estimates`` runs them on a mixture: it takes the law and a list
of orders, refuses the orders it cannot estimate and shares one sample
among the rest. The estimators themselves only need a log density and a
sampler, so they work for any law in the package (and for the closed-form
test laws).

Sampler contract: ``sampler(count, seed, chunk)`` returns the ``count``
rows of chunk ``chunk`` of the seed's sample, where chunk c of an n-row
sample holds rows c * CHUNK_SIZE up to min((c + 1) * CHUNK_SIZE, n); the
package samplers' ``chunk=`` form is one. Their chunk c comes from the
counter-based Philox stream keyed by (seed, c), so chunks can be drawn in
any order on any thread with the same rows.

Determinism: each chunk is one job on a pool of worker threads. A job draws
its chunk, evaluates every log density on it in fixed blocks of BLOCK_SIZE
rows, and writes each block into its own slice of the output; the
reductions run over the whole arrays afterwards. So estimates are
bit-identical for a fixed seed no matter how many worker threads run the
jobs, and no job holds more than one chunk of draws.

Block size: a skew-t log density at d = 2 makes about 60 numpy calls
per block, 33 of them in the t CDF (22 its Horner steps), and the
interpreter lock is held between them, so two workers scale only when
each call is long.
BLOCK_SIZE is half a chunk, 32,768 rows: on 16 chunks of d2_m3 and d3_m3
(2 vCPUs, BLAS on one thread), mixture_logpdf ran 1.55-1.7x faster on two threads than on one, against
1.25-1.5x in 16,384-row blocks, and 65,536-row blocks took longer on
both thread counts.

Samplers and log densities must be pure functions of their arguments.
The last draw-and-evaluate result is kept, keyed on the sampler, n, seed,
threads and the log-density callables, so estimators called in turn with
the same callables (one per order) share one sample and one evaluation.
The kept arrays are read-only; a failed draw or evaluation is not kept.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import (CHUNK_SIZE, MixtureParams, SkewTParams, _check_order, _live, _warn_at_caller,
                            mixture_logpdf, sample_mixture)

__all__ = [
    "Estimate",
    "LowEffectiveSampleSize",
    "estimates",
    "mc_shannon",
    "mc_renyi",
    "is_renyi",
    "fat_proposal",
]

PLAIN_MC = "plain_mc"
IMPORTANCE = "importance"
ESS_RATIO_FLOOR = 0.01  # is_renyi flags an ESS below this share of n
BLOCK_SIZE = 1 << 15  # rows of draws per log-density call; divides CHUNK_SIZE (see "Block size" above)


class LowEffectiveSampleSize(UserWarning):
    pass


@dataclass(frozen=True)
class Estimate:
    """A numerical estimate with its uncertainty and provenance."""

    value: float
    std_error: float
    n: int
    seed: int
    method: str
    ess: float | None = None
    low_ess: bool = False


@functools.lru_cache(maxsize=1)
def _log_densities(sampler, n: int, seed: int, threads: int, *logpdfs) -> tuple:
    """Draw n points once and evaluate each log density on them, all finite.

    Each CHUNK_SIZE-row chunk is one job on a pool of ``threads`` workers:
    it draws the chunk and evaluates every log density on it BLOCK_SIZE rows
    at a time, each block written in place into its slice of the output.
    The first failed job's exception reaches the caller unchanged. The last
    result is kept and returned again, read-only, for equal arguments; the
    callables compare by identity.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    out = [np.empty(n) for _ in logpdfs]

    def work(chunk):
        start = chunk * CHUNK_SIZE
        count = min(CHUNK_SIZE, n - start)
        draws = sampler(count, seed, chunk)
        if len(draws) != count:
            raise ValueError(f"sampler returned {len(draws)} rows for chunk {chunk}, expected {count}")
        for b in range(0, count, BLOCK_SIZE):
            for lp, logpdf in zip(out, logpdfs):
                lp[start + b:start + b + BLOCK_SIZE] = logpdf(draws[b:b + BLOCK_SIZE])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(-(-n // CHUNK_SIZE))))
    for lp in out:
        bad = np.flatnonzero(~np.isfinite(lp))
        if bad.size:
            raise ArithmeticError(f"non-finite log density at draw index {int(bad[0])}")
        lp.setflags(write=False)
    return tuple(out)


def mc_shannon(logpdf, sampler, n: int, seed: int, threads: int = 1) -> Estimate:
    """Plain Monte Carlo Shannon entropy: minus the mean log density."""
    (lp,) = _log_densities(sampler, n, seed, threads, logpdf)
    return Estimate(
        value=float(-np.mean(lp)),
        std_error=float(np.std(lp) / math.sqrt(n)),
        n=n,
        seed=seed,
        method=PLAIN_MC,
    )


def _renyi_estimate(logs: np.ndarray, alpha: float, seed: int, method: str) -> Estimate:
    """Renyi estimate from log weights whose mean exp estimates the power integral.

    The mean is taken with a max shift, and the standard error of its log
    comes from the delta method. Importance sampling also reports the
    effective sample size of the weights and warns when it is low. ``logs``
    must be a fresh array: it is shifted and exponentiated in place.
    """
    n = len(logs)
    shift = float(np.max(logs))
    logs -= shift
    scaled = np.exp(logs, out=logs)
    mean = float(np.mean(scaled))
    if mean <= 0.0:
        raise ArithmeticError("all summands vanished in the power mean")
    rel_se = float(np.std(scaled) / (mean * math.sqrt(n)))
    ess, low = None, False
    if method == IMPORTANCE:
        ess = float(np.sum(scaled) ** 2 / np.sum(scaled * scaled))
        low = ess < ESS_RATIO_FLOOR * n
        if low:
            _warn_at_caller(
                f"effective sample size {ess:.1f} below {ESS_RATIO_FLOOR:.0%} of n = {n}",
                LowEffectiveSampleSize,
            )
    return Estimate(
        value=(shift + math.log(mean)) / (1.0 - alpha),
        std_error=rel_se / abs(1.0 - alpha),
        n=n,
        seed=seed,
        method=method,
        ess=ess,
        low_ess=low,
    )


def mc_renyi(logpdf, sampler, alpha: float, n: int, seed: int, threads: int = 1) -> Estimate:
    """Plain Monte Carlo Renyi entropy of order alpha != 1.

    Averages the (alpha-1) power of the density over its own draws. Its
    variance, and so the reported standard error, is finite only if the
    density's (2 alpha - 1) power is integrable: for tails like |x|^-(v+d)
    in d dimensions, only at alpha > (v + 2d) / (2(v + d)). Below that the
    standard error means nothing; ``estimates`` refuses such orders.
    """
    _check_order(alpha)
    (lp,) = _log_densities(sampler, n, seed, threads, logpdf)
    return _renyi_estimate((alpha - 1.0) * lp, alpha, seed, PLAIN_MC)


def is_renyi(target_logpdf, proposal_logpdf, proposal_sampler, alpha: float, n: int, seed: int,
             threads: int = 1) -> Estimate:
    """Importance-sampling Renyi entropy of order alpha != 1.

    Estimates the alpha-power integral as the proposal average of
    exp(alpha * target - proposal). The proposal must dominate the
    alpha-th power of the target; use fat_proposal for a safe default.
    """
    _check_order(alpha)
    lt, lq = _log_densities(proposal_sampler, n, seed, threads, target_logpdf, proposal_logpdf)
    return _renyi_estimate(alpha * lt - lq, alpha, seed, IMPORTANCE)


def fat_proposal(law):
    """Same-family proposal with heavier tails: dof replaced by max(1, dof/2)."""
    if isinstance(law, SkewTParams):
        return SkewTParams(mu=law.mu, scale=law.scale, delta=law.delta, dof=max(1.0, law.dof / 2.0))
    if isinstance(law, MixtureParams):
        return MixtureParams(components=tuple(fat_proposal(c) for c in law.components), weights=law.weights)
    raise TypeError(f"no default proposal for {type(law).__name__}")


def estimates(mixture: MixtureParams, alphas, n: int, seed: int, threads: int = 1, method: str = "mc"):
    """Monte Carlo estimates of the mixture's Shannon (order "shannon") or Renyi entropies.

    Yields one Estimate per order, in order and only when asked for the next.
    Every order passes the same closures to its estimator, so all of them
    share one sample and one log-density evaluation. Method "mc" samples the
    mixture; "is" samples ``fat_proposal(mixture)`` and applies to Renyi
    orders only. An invalid order, or one whose estimate has infinite
    variance, raises ``ValueError`` when its estimate is asked for.
    """
    if method not in ("mc", "is"):
        raise ValueError(f"method must be 'mc' or 'is', got {method!r}")
    law = fat_proposal(mixture) if method == "is" else mixture
    logpdf = lambda x: mixture_logpdf(mixture, x)  # noqa: E731
    proposal_logpdf = lambda x: mixture_logpdf(law, x)  # noqa: E731
    sampler = lambda count, s, c: sample_mixture(law, count, s, chunk=c)  # noqa: E731

    def estimate(alpha):
        if alpha == "shannon":
            if method == "is":
                raise ValueError("importance sampling applies to Renyi orders; use method 'mc' for shannon")
            return mc_shannon(logpdf, sampler, n, seed, threads)
        alpha = float(alpha)
        _check_order(alpha)
        _refuse_infinite_variance(mixture, alpha, method)
        if method == "is":
            return is_renyi(logpdf, proposal_logpdf, sampler, alpha, n, seed, threads)
        return mc_renyi(logpdf, sampler, alpha, n, seed, threads)

    return (estimate(alpha) for alpha in alphas)


def _refuse_infinite_variance(mixture: MixtureParams, alpha: float, method: str) -> None:
    """Raise ValueError at an order whose Monte Carlo estimate has infinite variance.

    The mixture's density falls like |x|^-(v+d) for the smallest dof v among
    its components of positive weight (one of weight 0 is never sampled or
    evaluated), and the sampled law's like |x|^-(v_q+d): v_q = v for plain
    sampling, and max(1, v/2) for ``fat_proposal``. The alpha-power estimate
    then has finite variance, and a meaningful standard error, only for
    2 alpha (v + d) > v_q + 2d.
    """
    v, d = min(c.dof for _, c in _live(mixture)), mixture.dim
    v_q = max(1.0, v / 2.0) if method == "is" else v
    threshold = (v_q + 2 * d) / (2 * (v + d))
    if alpha <= threshold:
        name = "importance sampling" if method == "is" else "plain Monte Carlo"
        raise ValueError(
            f"{name} cannot estimate the Renyi entropy of order {alpha:g}: with smallest dof {v:g} "
            f"its variance is infinite at orders <= {threshold:.6g}"
        )
