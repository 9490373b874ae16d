"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test records a single PASS/FAIL summary line (shown in the terminal
summary) before asserting, so the per-criterion outcome is visible even
when a criterion fails. Tolerances are asserted exactly as stated; where
the bundled reference values are themselves inconsistent, the failing
cells are listed in the assertion message rather than loosened away.

The formula-reading resolution gate runs first: the frozen readings of
the entropy formulas must beat the rejected printed alternatives against
the Monte Carlo oracle before the value-reproduction criteria count.

Each criterion selects the bound convention its claim is about. The
oracle sandwich (criterion 5) uses the valid ``"exact"`` Shannon and Renyi
bounds. The Renyi reference rows (criterion 4) are scored under
``"listed"``, the reading of the table: telescoping in the listed
component order, the smaller of that value and the Holder value as the
lower. The Shannon reference rows (criterion 3) use the default
``"paper"`` convention against the reference with its duplicated m = 5
upper cell corrected (see ``tables.REFERENCE_TABLE2_D1``).

Cells that stay failing at their stated tolerances, because nothing in
the repo settles whether the program or the printed cell is wrong:

* criterion 3: the m = 5 lower (the program's reading of the lower sits
  0.007-0.019 below the table for m = 2-4 but 0.047 above it at m = 5)
  and the approx derived from it;
* criterion 4: the half-widths at (m, alpha) = (2, 2), (3, 3), (4, 2) and
  (4, 5), and lower, upper and approx at (3, 30), (4, 15), (4, 20) and
  (4, 30). The component Renyi entropies agree with direct quadrature to
  1e-5, yet at alpha >= 15 no set of component entropies fits the m = 2,
  3 and 4 rows jointly to better than 0.009.
"""

import math

import numpy as np
import pytest

from skewtmix import tables
from skewtmix.bounds import (
    enumerate_compositions,
    renyi_bounds,
    renyi_lower,
    renyi_upper,
    shannon_bounds,
)
from skewtmix.distributions import (
    MixtureParams,
    SkewTParams,
    mixture_logpdf,
    sample_mixture,
    sample_skewt,
    skewt_logpdf,
)
from skewtmix.entropy import mt_renyi, mt_shannon, skewt_renyi, skewt_shannon
from skewtmix.linalg import SpdMatrix
from skewtmix.mc import fat_proposal, is_renyi, mc_renyi, mc_shannon

from conftest import record_acceptance

SEED = 20240601
ORACLE_N = 1_000_000
GATE_N = 2_000_000


def component(mu, scale, delta, dof) -> SkewTParams:
    return SkewTParams(
        mu=np.atleast_1d(np.asarray(mu, dtype=float)),
        scale=SpdMatrix(np.atleast_2d(np.asarray(scale, dtype=float))),
        delta=np.atleast_1d(np.asarray(delta, dtype=float)),
        dof=float(dof),
    )


def oracle_estimates(law, n, seed, alphas):
    """Shared-draw MC estimates of H and R_alpha with standard errors."""
    if isinstance(law, MixtureParams):
        logpdf = lambda x: mixture_logpdf(law, x)  # noqa: E731
        sampler = lambda k, s, c: sample_mixture(law, k, s, chunk=c)  # noqa: E731
    else:
        logpdf = lambda x: skewt_logpdf(law, x)  # noqa: E731
        sampler = lambda k, s, c: sample_skewt(law, k, s, chunk=c)  # noqa: E731
    # the same callables for every statistic, so all of them share one draw and evaluation
    ests = {"shannon": mc_shannon(logpdf, sampler, n, seed, threads=2)}
    ests.update((alpha, mc_renyi(logpdf, sampler, alpha, n, seed, threads=2)) for alpha in alphas)
    return {key: (est.value, est.std_error) for key, est in ests.items()}


@pytest.fixture(scope="module")
def single_case_oracles():
    return {
        d: oracle_estimates(tables.single_case(d, 3.0), GATE_N, SEED + d, (2.0,))
        for d in (1, 2, 3)
    }


@pytest.fixture(scope="module")
def mixture_oracles():
    return {
        mid: oracle_estimates(tables.builtin_mixture(mid), ORACLE_N, SEED + 17 * i, (2.0, 3.0, 5.0, 10.0))
        for i, mid in enumerate(tables.MIXTURE_IDS)
    }


def summarize(criterion: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} cell(s))"
    record_acceptance(f"criterion {criterion}: {status}{' - ' + detail if detail else ''}")


# --------------------------------------------------------------------------
# Criterion 7 runs first: the anti-typo gate for the formula readings.


def test_criterion7_formula_reading_gate(single_case_oracles):
    cases = {d: tables.single_case(d, 3.0) for d in (1, 2, 3)}

    def mean_abs_dev(values, key):
        return float(np.mean([abs(values[d] - single_case_oracles[d][key][0]) for d in (1, 2, 3)]))

    # Eq. of the symmetric-entropy digamma arguments: halved vs printed.
    dev_digamma = mean_abs_dev({d: skewt_shannon(cases[d], digamma="halved") for d in cases}, "shannon")
    dev_digamma_rej = mean_abs_dev({d: skewt_shannon(cases[d], digamma="printed") for d in cases}, "shannon")

    # Shannon correction weight factor: frozen vs printed second factor.
    dev_corr = mean_abs_dev({d: skewt_shannon(cases[d], variant="frozen") for d in cases}, "shannon")
    dev_corr_rej = mean_abs_dev({d: skewt_shannon(cases[d], variant="printed") for d in cases}, "shannon")

    # Renyi 1-D reduction dof: frozen vs printed.
    dev_renyi = mean_abs_dev({d: skewt_renyi(cases[d], 2.0, variant="frozen") for d in cases}, 2.0)
    dev_renyi_rej = mean_abs_dev({d: skewt_renyi(cases[d], 2.0, variant="printed") for d in cases}, 2.0)

    failures = []
    for name, frozen, rejected in (
        ("digamma arguments", dev_digamma, dev_digamma_rej),
        ("correction weight factor", dev_corr, dev_corr_rej),
        ("power-expectation dof", dev_renyi, dev_renyi_rej),
    ):
        if not frozen < rejected:
            failures.append(f"{name}: frozen dev {frozen:.5f} !< rejected dev {rejected:.5f}")
    summarize(
        "7 (formula-reading gate)",
        failures,
        f"mean|dev| frozen vs rejected: digamma {dev_digamma:.4f}/{dev_digamma_rej:.4f}, "
        f"weight {dev_corr:.4f}/{dev_corr_rej:.4f}, dof {dev_renyi:.4f}/{dev_renyi_rej:.4f}",
    )
    assert not failures, failures


# --------------------------------------------------------------------------


def test_criterion1_table1_d1_block():
    failures = []
    worst = 0.0
    for v, refs in tables.REFERENCE_TABLE1_D1.items():
        comp = tables.single_case(1, float(v))
        cells = [("shannon", skewt_shannon(comp), refs[0])]
        for alpha, ref in zip(tables.TABLE1_ALPHAS, refs[1:8]):
            cells.append((alpha, skewt_renyi(comp, float(alpha)), ref))
        for label, value, ref in cells:
            diff = abs(value - ref)
            worst = max(worst, diff)
            if diff > 0.02:
                failures.append(f"v={v} alpha={label}: |{value:.4f} - {ref}| = {diff:.4f}")
    summarize("1 (d=1 reference block)", failures, f"56 cells, worst |diff| {worst:.4f}")
    assert not failures, failures


def test_criterion2_large_alpha_limit():
    comp = tables.single_case(1, 3.0)
    values = {a: skewt_renyi(comp, float(a)) for a in (10, 30, 100, 200)}
    failures = []
    gap = abs(values[200] - tables.REFERENCE_LARGE_ALPHA_LIMIT)
    if gap > 0.03:
        failures.append(f"|R_200 - 1.2311| = {gap:.4f} > 0.03")
    seq = [values[a] for a in (10, 30, 100, 200)]
    if not all(x > y for x, y in zip(seq, seq[1:])):
        failures.append(f"not decreasing: {seq}")
    summarize("2 (large-order limit)", failures, f"R_200 = {values[200]:.4f}, gap {gap:.4f}")
    assert not failures, failures


def test_criterion3_table2_d1_rows():
    failures = []
    for m in (2, 3, 4, 5):
        report = shannon_bounds(tables.mixture_d1(m))
        ref_lower, ref_upper, ref_mid, _ = tables.REFERENCE_TABLE2_D1[m]
        assert report.approx == pytest.approx((report.lower + report.upper) / 2, abs=1e-12)
        for name, value, ref in (
            ("lower", report.lower, ref_lower),
            ("upper", report.upper, ref_upper),
            ("approx", report.approx, ref_mid),
        ):
            diff = abs(value - ref)
            if diff > 0.02:
                failures.append(f"m={m} {name}: |{value:.4f} - {ref}| = {diff:.4f}")
    summarize("3 (mixture Shannon reference rows)", failures)
    assert not failures, failures


def test_criterion4_table3_d1_rows():
    failures = []
    for m in (2, 3, 4):
        mix = tables.mixture_d1(m)
        for alpha in tables.TABLE3_ALPHAS:
            report = renyi_bounds(mix, alpha, convention="listed")
            ref_lower, ref_upper, ref_mid, ref_hw = tables.REFERENCE_TABLE3_D1[(m, alpha)]
            for name, value, ref, tol in (
                ("lower", report.lower, ref_lower, 0.02),
                ("upper", report.upper, ref_upper, 0.02),
                ("approx", report.approx, ref_mid, 0.02),
                ("half_width", report.half_width, ref_hw, 0.005),
            ):
                diff = abs(value - ref)
                if diff > tol:
                    failures.append(f"m={m} a={alpha} {name}: |{value:.4f} - {ref}| = {diff:.4f}")
    summarize("4 (mixture Renyi reference rows)", failures)
    assert not failures, failures


def test_criterion5_oracle_sandwich(mixture_oracles):
    failures = []
    for mid in tables.MIXTURE_IDS:
        mix = tables.builtin_mixture(mid)
        oracles = mixture_oracles[mid]
        value, se = oracles["shannon"]
        report = shannon_bounds(mix, convention="exact")
        if not (report.lower - 3 * se <= value <= report.upper + 3 * se):
            failures.append(
                f"{mid} shannon: oracle {value:.4f} (se {se:.4f}) outside "
                f"[{report.lower:.4f}, {report.upper:.4f}]"
            )
        for alpha in (2, 3, 5, 10):
            value, se = oracles[float(alpha)]
            report = renyi_bounds(mix, alpha, convention="exact")
            if not (report.lower - 3 * se <= value <= report.upper + 3 * se):
                failures.append(
                    f"{mid} alpha={alpha}: oracle {value:.4f} (se {se:.4f}) outside "
                    f"[{report.lower:.4f}, {report.upper:.4f}]"
                )
    summarize("5 (oracle sandwich)", failures, f"{len(tables.MIXTURE_IDS)} mixtures x 5 statistics")
    assert not failures, failures


def test_criterion6_reductions_and_limits():
    failures = []
    # zero-shape reduction is exact by construction; assert to 1e-8 as stated
    for d, scale in ((1, [[1.5]]), (2, [[0.7, 0.3], [0.3, 3.0]])):
        p = component([0.0] * d, scale, [0.0] * d, 3.0)
        if abs(skewt_shannon(p) - mt_shannon(p)) > 1e-8:
            failures.append(f"d={d} shannon reduction")
        for alpha in (0.7, 2.0, 5.0):
            if abs(skewt_renyi(p, alpha) - mt_renyi(p, alpha)) > 1e-8:
                failures.append(f"d={d} renyi reduction at alpha={alpha}")

    # alpha -> 1 continuity across a 12-point grid
    grid = [
        component([0.0], [[s]], [de], v)
        for v in (3.0, 5.0, 12.0)
        for s in (1.0, 1.5)
        for de in (0.3, 2.0)
    ]
    for i, p in enumerate(grid):
        if abs(skewt_renyi(p, 1.001) - skewt_shannon(p)) > 5e-3:
            failures.append(f"grid point {i}: alpha->1 continuity")

    # strict monotonicity in the order
    for p in grid[:4]:
        vals = [skewt_renyi(p, a) for a in (1.5, 2.0, 3.0, 5.0, 10.0, 30.0)]
        if not all(x > y for x, y in zip(vals, vals[1:])):
            failures.append("monotonicity violated")

    # location invariance
    base = component([0.3, -1.0], [[0.7, 0.3], [0.3, 3.0]], [0.3, 2.0], 3.0)
    moved = component(np.asarray(base.mu) + 11.5, base.scale.entries, base.delta, base.dof)
    if abs(skewt_shannon(base) - skewt_shannon(moved)) > 1e-12:
        failures.append("shannon location invariance")
    if abs(skewt_renyi(base, 3.0) - skewt_renyi(moved, 3.0)) > 1e-12:
        failures.append("renyi location invariance")

    summarize("6 (reductions, continuity, invariance)", failures)
    assert not failures, failures


def test_criterion8_estimator_self_consistency():
    failures = []
    n = 1_000_000

    def gauss_logpdf(x):
        xx = np.asarray(x)[..., 0]
        return -0.5 * math.log(2 * math.pi) - 0.5 * xx * xx

    def gauss_sampler(count, seed, chunk):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
        return rng.standard_normal(count)[:, None]

    est_h = mc_shannon(gauss_logpdf, gauss_sampler, n, SEED)
    target_h = 0.5 * math.log(2 * math.pi * math.e)
    if abs(est_h.value - target_h) > 3 * est_h.std_error:
        failures.append(f"gaussian shannon off: {est_h.value:.5f} vs {target_h:.5f}")
    est_r = mc_renyi(gauss_logpdf, gauss_sampler, 2.0, n, SEED)
    target_r = 0.5 * math.log(2 * math.pi) + 0.5 * math.log(2.0)
    if abs(est_r.value - target_r) > 3 * est_r.std_error:
        failures.append(f"gaussian renyi off: {est_r.value:.5f} vs {target_r:.5f}")

    laws = {
        "gaussian": (gauss_logpdf, gauss_sampler, None),
        "mt": component([0.0], [[1.5]], [0.0], 3.0),
        "skewt": tables.single_case(1, 3.0),
    }
    for name, law in laws.items():
        if name == "gaussian":
            logpdf, sampler, _ = law
            prop_logpdf, prop_sampler = logpdf, sampler
        else:
            logpdf = lambda x, p=law: skewt_logpdf(p, x)  # noqa: E731
            sampler = lambda k, s, c, p=law: sample_skewt(p, k, s, chunk=c)  # noqa: E731
            prop = fat_proposal(law)
            prop_logpdf = lambda x, p=prop: skewt_logpdf(p, x)  # noqa: E731
            prop_sampler = lambda k, s, c, p=prop: sample_skewt(p, k, s, chunk=c)  # noqa: E731
        plain = mc_renyi(logpdf, sampler, 2.0, n, SEED + 1)
        importance = is_renyi(logpdf, prop_logpdf, prop_sampler, 2.0, n, SEED + 2)
        gap = abs(plain.value - importance.value)
        band = 3 * (plain.std_error + importance.std_error)
        if gap > band:
            failures.append(f"{name}: |mc - is| = {gap:.5f} > {band:.5f}")

    summarize("8 (estimator self-consistency)", failures)
    assert not failures, failures


def test_criterion9_combinatorics():
    failures = []
    for m in (1, 2, 3, 4):
        for alpha in range(1, 13):
            total = sum(c.coefficient for c in enumerate_compositions(m, alpha))
            if total != m**alpha:
                failures.append(f"m={m} alpha={alpha}: {total} != {m**alpha}")

    mix = tables.mixture_d1(3)
    perm = MixtureParams(
        components=(mix.components[2], mix.components[0], mix.components[1]),
        weights=np.array([mix.weights[2], mix.weights[0], mix.weights[1]]),
    )
    for alpha in (2, 5):
        if abs(renyi_lower(mix, alpha) - renyi_lower(perm, alpha)) > 1e-12:
            failures.append(f"renyi_lower permutation alpha={alpha}")
        if abs(renyi_upper(mix, alpha) - renyi_upper(perm, alpha)) > 1e-12:
            failures.append(f"renyi_upper permutation alpha={alpha}")
    a = shannon_bounds(mix)
    b = shannon_bounds(perm)
    if abs(a.lower - b.lower) > 1e-12 or abs(a.upper - b.upper) > 1e-12:
        failures.append("shannon_bounds permutation")

    summarize("9 (combinatorics and permutation invariance)", failures)
    assert not failures, failures
