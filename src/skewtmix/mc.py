"""Monte Carlo oracles for Shannon and Renyi entropies.

These estimators are the ground truth the formula modules are validated
against. They only need a log density and a sampler, so they work for
any law in the package (and for the closed-form test laws).

Determinism: samplers in this package derive all randomness from
(seed, chunk) counter streams, and the reductions here are evaluated in
fixed chunk order, so estimates are bit-identical for a fixed seed no
matter how many worker threads evaluate the integrand.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import CHUNK_SIZE, MixtureParams, SkewTParams

__all__ = [
    "Estimate",
    "LowEffectiveSampleSize",
    "mc_shannon",
    "mc_renyi",
    "is_renyi",
    "fat_proposal",
]

PLAIN_MC = "plain_mc"
IMPORTANCE = "importance"
ESS_RATIO_FLOOR = 0.01  # is_renyi flags an ESS below this share of n


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

    def interval(self, k: float = 3.0) -> tuple:
        return (self.value - k * self.std_error, self.value + k * self.std_error)


def _eval_logpdf(logpdf, draws: np.ndarray, threads: int) -> np.ndarray:
    if threads <= 1 or len(draws) <= CHUNK_SIZE:
        return np.asarray(logpdf(draws), dtype=float)
    out = np.empty(len(draws))
    spans = [(s, min(s + CHUNK_SIZE, len(draws))) for s in range(0, len(draws), CHUNK_SIZE)]

    def work(span):
        s, e = span
        out[s:e] = logpdf(draws[s:e])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, spans))
    return out


def _check_finite(lp: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(lp))
    if bad.size:
        raise ArithmeticError(f"non-finite log density at draw index {int(bad[0])}")


def mc_shannon(logpdf, sampler, n: int, seed: int, threads: int = 1) -> Estimate:
    """Plain Monte Carlo Shannon entropy: minus the mean log density."""
    if n < 2:
        raise ValueError("n must be at least 2")
    lp = _eval_logpdf(logpdf, sampler(n, seed), threads)
    _check_finite(lp)
    return Estimate(
        value=float(-np.mean(lp)),
        std_error=float(np.std(lp) / math.sqrt(n)),
        n=n,
        seed=seed,
        method=PLAIN_MC,
    )


def _check_order(alpha: float) -> None:
    if not math.isfinite(alpha) or alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be finite, positive and different from 1")


def _log_mean_exp(logs: np.ndarray) -> tuple:
    """(log mean exp, relative standard error of the mean, exp(logs - max))."""
    shift = float(np.max(logs))
    scaled = np.exp(logs - shift)
    mean = float(np.mean(scaled))
    if mean <= 0.0:
        raise ArithmeticError("all summands vanished in the power mean")
    rel_se = float(np.std(scaled) / (mean * math.sqrt(len(scaled))))
    return shift + math.log(mean), rel_se, scaled


def mc_renyi(logpdf, sampler, alpha: float, n: int, seed: int, threads: int = 1) -> Estimate:
    """Plain Monte Carlo Renyi entropy of order alpha != 1.

    Averages the (alpha-1) power of the density over its own draws with a
    max shift; the standard error of the log comes from the delta method.
    Heavy tails inflate the variance for extreme orders; the reported
    standard error stays honest either way.
    """
    _check_order(alpha)
    if n < 2:
        raise ValueError("n must be at least 2")
    lp = _eval_logpdf(logpdf, sampler(n, seed), threads)
    _check_finite(lp)
    log_mean, rel_se, _ = _log_mean_exp((alpha - 1.0) * lp)
    scale = abs(1.0 - alpha)
    return Estimate(
        value=log_mean / (1.0 - alpha),
        std_error=rel_se / scale,
        n=n,
        seed=seed,
        method=PLAIN_MC,
    )


def is_renyi(
    target_logpdf,
    proposal_logpdf,
    proposal_sampler,
    alpha: float,
    n: int,
    seed: int,
    threads: int = 1,
) -> Estimate:
    """Importance-sampling Renyi entropy of order alpha != 1.

    Estimates the alpha-power integral as the proposal average of
    exp(alpha * target - proposal). The proposal must dominate the
    alpha-th power of the target; use fat_proposal for a safe default.
    """
    _check_order(alpha)
    if n < 2:
        raise ValueError("n must be at least 2")
    draws = proposal_sampler(n, seed)
    lt = _eval_logpdf(target_logpdf, draws, threads)
    lq = _eval_logpdf(proposal_logpdf, draws, threads)
    _check_finite(lt)
    _check_finite(lq)
    log_mean, rel_se, sw = _log_mean_exp(alpha * lt - lq)
    ess = float(np.sum(sw) ** 2 / np.sum(sw * sw))
    low = ess < ESS_RATIO_FLOOR * n
    if low:
        warnings.warn(
            f"effective sample size {ess:.1f} below {ESS_RATIO_FLOOR:.0%} of n = {n}",
            LowEffectiveSampleSize,
            stacklevel=2,
        )
    return Estimate(
        value=log_mean / (1.0 - alpha),
        std_error=rel_se / abs(1.0 - alpha),
        n=n,
        seed=seed,
        method=IMPORTANCE,
        ess=ess,
        low_ess=low,
    )


def fat_proposal(law):
    """Same-family proposal with heavier tails: dof replaced by max(1, dof/2)."""
    if isinstance(law, SkewTParams):
        return SkewTParams(mu=law.mu, scale=law.scale, delta=law.delta, dof=max(1.0, law.dof / 2.0))
    if isinstance(law, MixtureParams):
        return MixtureParams(
            components=tuple(fat_proposal(c) for c in law.components),
            weights=law.weights,
        )
    raise TypeError(f"no default proposal for {type(law).__name__}")
