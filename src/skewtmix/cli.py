"""Command line front end: entropy, bounds, and reproduce subcommands.

Every Monte Carlo value comes from ``mc.estimates``, at the config's
``seed`` and ``samples`` (``entropy``, ``bounds``) or at DEFAULT_SEED and
DEFAULT_SAMPLES (``reproduce``); ``--threads`` and ``--out`` change only
speed and format.

Exit codes: 0 on success; 1 on validation or domain errors, among them
``--threads`` below 1, a config's ``samples`` below 2 or ``seed`` outside
[0, 2**64), and a Monte Carlo Renyi order that is not finite and positive
or at which the estimate has infinite variance, judged by the smallest
dof among the components of positive weight; 2 when a reproduction run's
pass rate over scored cells, at the fixed ``tables.DEFAULT_TOLERANCE``,
drops below the threshold, or on an argparse usage error such as a
``--threads`` that is neither an integer nor 'auto', a ``--table`` other
than 1, 2 or 3, or an unknown option (``--seed``, ``--samples``,
``--rows`` and ``--out-file`` among them). Reports go to stdout; select
rows from ``--out json``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import tables
from .bounds import renyi_bounds, shannon_bounds
from .config import DEFAULT_SAMPLES, DEFAULT_SEED, ConfigError, load_config
from .distributions import _live
from .entropy import skewt_renyi, skewt_shannon
from .mc import estimates
from .reports import ReportRow, rows_to_csv, rows_to_json

PASS_RATE_THRESHOLD = 0.9
# Largest |value - reference| of a passing reproduce cell (a quarter of it for half-widths).
_TOL = tables.DEFAULT_TOLERANCE
# Case label of the rows that the entropy and bounds commands report.
CONFIG_LABEL = "config"


def _threads_arg(raw: str) -> int:
    try:
        return min(4, os.cpu_count() or 1) if raw == "auto" else int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--threads takes a positive integer or 'auto', got {raw!r}") from None


def _threads(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1 or 'auto', got {args.threads}")
    return args.threads


def _emit(rows, fmt: str) -> None:
    sys.stdout.write(rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows))


def _parse_alpha(raw: str):
    if raw == "shannon":
        return "shannon"
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"--alpha must be a real number or 'shannon', got {raw!r}") from exc


def _load_run(args):
    """Config, threads and orders of a config command."""
    cfg = load_config(args.config)
    threads = _threads(args)
    alphas = [_parse_alpha(a) for a in (args.alpha or ["shannon"])]
    return cfg, threads, alphas


def _row(case, components, alpha, **cells) -> ReportRow:
    """A report row whose d, m and dofs describe the given components."""
    return ReportRow(
        case=case, d=components[0].dim, m=len(components),
        dofs=tuple(c.dof for c in components), alpha=alpha, **cells,
    )


def _entropy(comp, alpha):
    """Exact entropy of one component: Shannon for alpha "shannon", else Renyi of order alpha."""
    return skewt_shannon(comp) if alpha == "shannon" else skewt_renyi(comp, alpha)


def _bounds(mixture, alpha, convention):
    if alpha == "shannon":
        return shannon_bounds(mixture, convention=convention)
    return renyi_bounds(mixture, alpha, convention=convention)


def _bounds_row(case, mixture, report, est, **cells) -> ReportRow:
    """A row carrying a bounds report and, when est is given, its Monte Carlo oracle."""
    return _row(
        case, mixture.components, report.alpha, lower=report.lower, upper=report.upper,
        approx=report.approx, half_width=report.half_width,
        oracle=est.value if est else None, oracle_se=est.std_error if est else None, **cells,
    )


def _cmd_entropy(args) -> int:
    cfg, threads, alphas = _load_run(args)
    mixture = cfg.mixture
    if args.method == "exact":
        live = _live(mixture)
        if len(live) != 1:
            raise ValueError("exact entropies are defined per component; use the bounds command for mixtures")
        rows = [_row(CONFIG_LABEL, mixture.components, alpha, approx=_entropy(live[0][1], alpha))
                for alpha in alphas]
    else:
        ests = estimates(mixture, alphas, cfg.samples, cfg.seed, threads, args.method)
        rows = [_row(CONFIG_LABEL, mixture.components, alpha,
                     approx=est.value, oracle=est.value, oracle_se=est.std_error)
                for alpha, est in zip(alphas, ests)]
    _emit(rows, args.out)
    return 0


def _cmd_bounds(args) -> int:
    cfg, threads, alphas = _load_run(args)
    ests = estimates(cfg.mixture, alphas, cfg.samples, cfg.seed, threads)
    rows = []
    for alpha in alphas:
        report = _bounds(cfg.mixture, alpha, args.convention)
        rows.append(_bounds_row(CONFIG_LABEL, cfg.mixture, report, next(ests) if args.oracle else None))
    _emit(rows, args.out)
    return 0


def _scored(case, components, alpha, value, ref, tol) -> ReportRow:
    """A row comparing value with a reference; tol None leaves it unscored."""
    diff = abs(value - ref)
    return _row(case, components, alpha, approx=value, reference=ref, abs_diff=diff,
                passed=None if tol is None else diff <= tol)


def _reproduce_table1():
    rows = []
    reference = {
        1: tables.REFERENCE_TABLE1_D1,
        2: tables.REFERENCE_TABLE1_D2,
        3: tables.REFERENCE_TABLE1_D3,
    }
    labels = ["shannon"] + [float(a) for a in tables.TABLE1_ALPHAS] + ["inf"]
    for d in (1, 2, 3):
        for v in tables.TABLE1_DOFS:
            comp = tables.single_case(d, float(v))
            for label, ref in zip(labels, reference[d][v]):
                value = _entropy(comp, tables.ALPHA_INF_PROXY if label == "inf" else label)
                # d >= 2 reference rows are informational
                rows.append(_scored("t1", (comp,), label, value, ref, _TOL if d == 1 else None))
    return rows


def _reference_rows(case, ms, orders, convention, reference):
    """Scored d = 1 rows: lower, upper, approx and, where referenced, the half-width."""
    rows = []
    for m in ms:
        mixture = tables.mixture_d1(m)
        for alpha in orders:
            report = _bounds(mixture, alpha, convention)
            for quantity, computed, ref, cell_tol in zip(
                ("lower", "upper", "approx", "halfwidth"),
                (report.lower, report.upper, report.approx, report.half_width),
                reference(m, alpha),
                (_TOL, _TOL, _TOL, _TOL / 4.0),
            ):
                rows.append(_scored(f"{case}_{quantity}", mixture.components, report.alpha,
                                    computed, ref, cell_tol))
    return rows


def _property_rows(case, shapes, orders, threads):
    """Rows for d >= 2 mixtures: exact bounds must be ordered and hold the oracle within 3 SE."""
    rows = []
    for d, ms in shapes:
        for m in ms:
            mixture = tables.builtin_mixture(f"d{d}_m{m}")
            ests = estimates(mixture, orders, DEFAULT_SAMPLES, DEFAULT_SEED, threads)
            for alpha in orders:
                report = _bounds(mixture, alpha, "exact")
                est = next(ests)
                inside = (report.lower - 3 * est.std_error <= est.value
                          <= report.upper + 3 * est.std_error)
                ordered = report.lower <= report.upper
                rows.append(_bounds_row(f"{case}_property", mixture, report, est,
                                        passed=bool(inside and ordered)))
    return rows


def _cmd_reproduce(args) -> int:
    threads = _threads(args)
    if args.table == 1:
        rows = _reproduce_table1()
    elif args.table == 2:
        # the fourth reference entry, the half-width, is not scored for table 2
        rows = _reference_rows("t2", (2, 3, 4, 5), ("shannon",), "paper",
                               lambda m, _: tables.REFERENCE_TABLE2_D1[m][:3])
        rows += _property_rows("t2", ((2, (2, 3, 4, 5)), (3, (2, 3))), ("shannon",), threads)
    else:
        rows = _reference_rows("t3", (2, 3, 4), tables.TABLE3_ALPHAS, "listed",
                               lambda m, a: tables.REFERENCE_TABLE3_D1[(m, a)])
        rows += _property_rows("t3", ((2, (2, 3)), (3, (2,))), (2, 5), threads)
    _emit(rows, args.out)
    scored = [r for r in rows if r.passed is not None]
    passed = sum(1 for r in scored if r.passed)
    rate = passed / len(scored) if scored else 1.0
    print(
        f"summary: {passed}/{len(scored)} scored cells passed at tolerance {_TOL:g} "
        f"(pass rate {rate:.1%})",
        file=sys.stderr,
    )
    return 0 if rate >= PASS_RATE_THRESHOLD else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewtmix",
        description="Entropies and entropy bounds of skew-t distributions and their mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config: bool):
        if needs_config:
            p.add_argument("config", help="path to a JSON model config")
        p.add_argument("--threads", default="auto", type=_threads_arg,
                       help="worker threads (results are thread-count invariant)")
        p.add_argument("--out", choices=("csv", "json"), default="csv")

    p_entropy = sub.add_parser("entropy", help="entropy of a configured model")
    common(p_entropy, needs_config=True)
    p_entropy.add_argument("--alpha", action="append",
                           help="a Renyi order or 'shannon'; repeatable (default shannon)")
    p_entropy.add_argument("--method", choices=("exact", "mc", "is"), default="exact")
    p_entropy.set_defaults(func=_cmd_entropy)

    p_bounds = sub.add_parser("bounds", help="entropy bounds of a configured mixture")
    common(p_bounds, needs_config=True)
    p_bounds.add_argument("--alpha", action="append",
                          help="an integer Renyi order or 'shannon'; repeatable (default shannon)")
    p_bounds.add_argument("--oracle", action="store_true", help="also run the Monte Carlo oracle")
    p_bounds.add_argument("--convention", choices=("paper", "exact"), default="paper",
                          help="bound convention: 'paper' reproduces the reference tables, "
                               "'exact' gives valid Shannon and Renyi bounds (see bounds module)")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_rep = sub.add_parser("reproduce", help="compare against the bundled reference tables")
    common(p_rep, needs_config=False)
    p_rep.add_argument("--table", type=int, choices=(1, 2, 3), required=True, help="reference table id")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
