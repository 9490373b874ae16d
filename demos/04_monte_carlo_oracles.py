"""Monte Carlo and importance-sampling entropy oracles.

Shows the plain estimator against closed forms, the importance-sampling
estimator with the fat-tailed default proposal, the effective sample
size diagnostic, and the determinism contract.

Run:  python demos/04_monte_carlo_oracles.py
"""

import math
import warnings

import numpy as np

from skewtmix import (
    SkewTParams,
    SpdMatrix,
    fat_proposal,
    is_renyi,
    mc_renyi,
    mc_shannon,
    mt_renyi,
    sample_skewt,
    skewt_logpdf,
)

N = 400_000
target = SkewTParams(mu=[0.0], scale=SpdMatrix([[1.5]]), delta=[0.0], dof=3.0)
logpdf = lambda x: skewt_logpdf(target, x)  # noqa: E731
sampler = lambda count, s, c: sample_skewt(target, count, s, chunk=c)  # noqa: E731

print("== plain Monte Carlo vs closed forms (symmetric t) ==")
est = mc_renyi(logpdf, sampler, 2.0, N, seed=1)
print(f"mc_renyi(2): {est.value:.4f} +- {est.std_error:.4f}   closed form {mt_renyi(target, 2.0):.4f}")

print("\n== importance sampling with the default fat-tailed proposal ==")
proposal = fat_proposal(target)
print(f"proposal dof: {proposal.dof} (target {target.dof})")
imp = is_renyi(
    logpdf,
    lambda x: skewt_logpdf(proposal, x),
    lambda count, s, c: sample_skewt(proposal, count, s, chunk=c),
    5.0, N, seed=2,
)
print(f"is_renyi(5): {imp.value:.4f} +- {imp.std_error:.4f}   closed form {mt_renyi(target, 5.0):.4f}")
print(f"effective sample size: {imp.ess:,.0f} of {imp.n:,} draws")

print("\n== a bad proposal trips the effective-sample-size diagnostic ==")
wide = SkewTParams(mu=[0.0], scale=SpdMatrix([[400.0]]), delta=[0.0], dof=3.0)
narrow = SkewTParams(mu=[0.0], scale=SpdMatrix([[0.01]]), delta=[0.0], dof=50.0)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    bad = is_renyi(
        lambda x: skewt_logpdf(wide, x),
        lambda x: skewt_logpdf(narrow, x),
        lambda count, s, c: sample_skewt(narrow, count, s, chunk=c),
        2.0, 50_000, seed=3,
    )
print(f"low_ess flag: {bad.low_ess}; ess = {bad.ess:.1f}; warning: {caught[0].message}")

print("\n== determinism: same seed, same estimate, any thread count ==")
a = mc_shannon(logpdf, sampler, N, seed=4, threads=1)
b = mc_shannon(logpdf, sampler, N, seed=4, threads=4)
print(f"serial   : {a.value!r}")
print(f"threaded : {b.value!r}")
print(f"bit-identical: {a == b}")

print("\n== standard error shrinks like 1/sqrt(n) ==")
for n in (100_000, 200_000, 400_000, 800_000):
    e = mc_shannon(logpdf, sampler, n, seed=5)
    print(f"n={n:>7,}: H = {e.value:.5f} +- {e.std_error:.5f}")
