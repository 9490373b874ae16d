"""Command line front end: entropy, bounds, and reproduce subcommands.

Exit codes: 0 on success, 1 on validation or domain errors, 2 when a
reproduction run's pass rate over scored cells drops below the threshold.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import tables
from .bounds import renyi_bounds, shannon_bounds
from .config import DEFAULT_SAMPLES, DEFAULT_SEED, ConfigError, load_config
from .distributions import mixture_logpdf, sample_mixture
from .entropy import mt_renyi, mt_shannon, skewt_renyi, skewt_shannon
from .mc import fat_proposal, is_renyi, mc_renyi, mc_shannon
from .reports import ReportRow, rows_to_csv, rows_to_json

PASS_RATE_THRESHOLD = 0.9


def _auto_threads() -> int:
    return min(4, os.cpu_count() or 1)


def _emit(rows, fmt: str, out_file: str | None) -> None:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    if out_file:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_alpha(raw: str):
    if raw == "shannon":
        return "shannon"
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"--alpha must be a real number or 'shannon', got {raw!r}") from exc


def _load_run(args):
    """Config, mixture, seed, samples, threads, (d, m, dofs) and orders of a config command."""
    cfg = load_config(args.config)
    mixture = cfg.mixture
    seed = args.seed if args.seed is not None else cfg.seed
    samples = args.samples if args.samples is not None else cfg.samples
    threads = args.threads if args.threads != "auto" else _auto_threads()
    meta = mixture.dim, mixture.n_components, tuple(c.dof for c in mixture.components)
    alphas = [_parse_alpha(a) for a in (args.alpha or ["shannon"])]
    return cfg, mixture, seed, samples, threads, meta, alphas


def _cmd_entropy(args) -> int:
    cfg, mixture, seed, samples, threads, (d, m, dofs), alphas = _load_run(args)

    logpdf = lambda x: mixture_logpdf(mixture, x)  # noqa: E731
    sampler = lambda n, s: sample_mixture(mixture, n, s)  # noqa: E731

    rows = []
    for alpha in alphas:
        if args.method == "exact":
            if m != 1:
                raise ValueError(
                    "exact entropies are defined per component; "
                    "use the bounds command for mixtures"
                )
            comp = mixture.components[0]
            value = (
                skewt_shannon(comp, cfg.quadrature)
                if alpha == "shannon"
                else skewt_renyi(comp, alpha, cfg.quadrature)
            )
            rows.append(ReportRow(case=args.label, d=d, m=m, dofs=dofs, alpha=alpha, approx=value))
        elif args.method == "mc":
            est = (
                mc_shannon(logpdf, sampler, samples, seed, threads)
                if alpha == "shannon"
                else mc_renyi(logpdf, sampler, alpha, samples, seed, threads)
            )
            rows.append(
                ReportRow(
                    case=args.label, d=d, m=m, dofs=dofs, alpha=alpha,
                    approx=est.value, oracle=est.value, oracle_se=est.std_error,
                )
            )
        else:  # importance sampling
            if alpha == "shannon":
                raise ValueError("importance sampling applies to Renyi orders; use --method mc for shannon")
            proposal = fat_proposal(mixture)
            est = is_renyi(
                logpdf,
                lambda x: mixture_logpdf(proposal, x),
                lambda n, s: sample_mixture(proposal, n, s),
                alpha,
                samples,
                seed,
                threads,
            )
            rows.append(
                ReportRow(
                    case=args.label, d=d, m=m, dofs=dofs, alpha=alpha,
                    approx=est.value, oracle=est.value, oracle_se=est.std_error,
                )
            )
    _emit(rows, args.out, args.out_file)
    return 0


def _cmd_bounds(args) -> int:
    cfg, mixture, seed, samples, threads, (d, m, dofs), alphas = _load_run(args)

    rows = []
    for alpha in alphas:
        if alpha == "shannon":
            report = shannon_bounds(mixture, cfg.quadrature, convention=args.convention)
        else:
            report = renyi_bounds(mixture, alpha, cfg.quadrature, convention=args.convention)
        oracle = oracle_se = None
        if args.oracle:
            logpdf = lambda x: mixture_logpdf(mixture, x)  # noqa: E731
            sampler = lambda n, s: sample_mixture(mixture, n, s)  # noqa: E731
            est = (
                mc_shannon(logpdf, sampler, samples, seed, threads)
                if alpha == "shannon"
                else mc_renyi(logpdf, sampler, alpha, samples, seed, threads)
            )
            oracle, oracle_se = est.value, est.std_error
        rows.append(
            ReportRow(
                case=args.label, d=d, m=m, dofs=dofs, alpha=report.alpha,
                lower=report.lower, upper=report.upper, approx=report.approx,
                half_width=report.half_width, oracle=oracle, oracle_se=oracle_se,
            )
        )
    _emit(rows, args.out, args.out_file)
    return 0


def _parse_rows_filter(raw: str | None) -> dict:
    out = {}
    if not raw:
        return out
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"--rows filter entries look like d=1 or m=2, got {piece!r}")
        key, value = piece.split("=", 1)
        key = key.strip()
        if key not in ("d", "m", "v"):
            raise ValueError(f"unknown row filter key {key!r} (use d, m, or v)")
        out[key] = int(value)
    return out


def _keep(filters: dict, **attrs) -> bool:
    return all(key not in filters or filters[key] == value for key, value in attrs.items())


def _score(computed: float, reference: float, tol: float):
    diff = abs(computed - reference)
    return diff, diff <= tol


def _reproduce_table1(filters, tol):
    rows = []
    reference = {
        1: tables.REFERENCE_TABLE1_D1,
        2: tables.REFERENCE_TABLE1_D2,
        3: tables.REFERENCE_TABLE1_D3,
    }
    for d in (1, 2, 3):
        if not _keep(filters, d=d):
            continue
        for v in tables.TABLE1_DOFS:
            if not _keep(filters, v=v):
                continue
            comp = tables.single_case(d, float(v))
            refs = reference[d][v]
            scored = d == 1  # d >= 2 reference rows are informational
            labels = ["shannon"] + [float(a) for a in tables.TABLE1_ALPHAS] + ["inf"]
            for label, ref in zip(labels, refs):
                if label == "shannon":
                    value = skewt_shannon(comp)
                elif label == "inf":
                    value = skewt_renyi(comp, tables.ALPHA_INF_PROXY)
                else:
                    value = skewt_renyi(comp, label)
                diff, ok = _score(value, ref, tol)
                rows.append(
                    ReportRow(
                        case="t1", d=d, m=1, dofs=(float(v),), alpha=label,
                        approx=value, reference=ref, abs_diff=diff,
                        passed=ok if scored else None,
                    )
                )
    return rows


def _property_rows(case, mixture, alpha, report, est, d, m):
    inside = (report.lower - 3 * est.std_error <= est.value <= report.upper + 3 * est.std_error)
    ordered = report.lower <= report.upper
    return ReportRow(
        case=f"{case}_property", d=d, m=m, dofs=tuple(c.dof for c in mixture.components),
        alpha=alpha, lower=report.lower, upper=report.upper, approx=report.approx,
        half_width=report.half_width, oracle=est.value, oracle_se=est.std_error,
        passed=bool(inside and ordered),
    )


def _reproduce_table2(filters, tol, seed, samples, threads):
    rows = []
    for m in (2, 3, 4, 5):
        if not _keep(filters, d=1, m=m):
            continue
        mixture = tables.mixture_d1(m)
        report = shannon_bounds(mixture, convention="paper")
        ref_lower, ref_upper, ref_mid, _ = tables.REFERENCE_TABLE2_D1[m]
        for quantity, computed, ref in (
            ("lower", report.lower, ref_lower),
            ("upper", report.upper, ref_upper),
            ("approx", report.approx, ref_mid),
        ):
            diff, ok = _score(computed, ref, tol)
            rows.append(
                ReportRow(
                    case=f"t2_{quantity}", d=1, m=m,
                    dofs=tuple(c.dof for c in mixture.components), alpha="shannon",
                    approx=computed, reference=ref, abs_diff=diff, passed=ok,
                )
            )
    for d, ms in ((2, (2, 3, 4, 5)), (3, (2, 3))):
        for m in ms:
            if not _keep(filters, d=d, m=m):
                continue
            mixture = tables.builtin_mixture(f"d{d}_m{m}")
            report = shannon_bounds(mixture, convention="exact")
            est = mc_shannon(
                lambda x, mx=mixture: mixture_logpdf(mx, x),
                lambda n, s, mx=mixture: sample_mixture(mx, n, s),
                samples, seed, threads,
            )
            rows.append(_property_rows("t2", mixture, "shannon", report, est, d, m))
    return rows


def _reproduce_table3(filters, tol, seed, samples, threads):
    rows = []
    for m in (2, 3, 4):
        if not _keep(filters, d=1, m=m):
            continue
        mixture = tables.mixture_d1(m)
        for alpha in tables.TABLE3_ALPHAS:
            report = renyi_bounds(mixture, alpha, convention="listed")
            ref_lower, ref_upper, ref_mid, ref_hw = tables.REFERENCE_TABLE3_D1[(m, alpha)]
            for quantity, computed, ref, cell_tol in (
                ("lower", report.lower, ref_lower, tol),
                ("upper", report.upper, ref_upper, tol),
                ("approx", report.approx, ref_mid, tol),
                ("halfwidth", report.half_width, ref_hw, tol / 4.0),
            ):
                diff, ok = _score(computed, ref, cell_tol)
                rows.append(
                    ReportRow(
                        case=f"t3_{quantity}", d=1, m=m,
                        dofs=tuple(c.dof for c in mixture.components), alpha=float(alpha),
                        approx=computed, reference=ref, abs_diff=diff, passed=ok,
                    )
                )
    for d, ms in ((2, (2, 3)), (3, (2,))):
        for m in ms:
            if not _keep(filters, d=d, m=m):
                continue
            mixture = tables.builtin_mixture(f"d{d}_m{m}")
            draws_logpdf = lambda x, mx=mixture: mixture_logpdf(mx, x)  # noqa: E731
            sampler = lambda n, s, mx=mixture: sample_mixture(mx, n, s)  # noqa: E731
            for alpha in (2, 5):
                report = renyi_bounds(mixture, alpha, convention="exact")
                est = mc_renyi(draws_logpdf, sampler, float(alpha), samples, seed, threads)
                rows.append(_property_rows("t3", mixture, float(alpha), report, est, d, m))
    return rows


def _cmd_reproduce(args) -> int:
    filters = _parse_rows_filter(args.rows)
    tol = args.tolerance
    threads = args.threads if args.threads != "auto" else _auto_threads()
    if args.table == 1:
        rows = _reproduce_table1(filters, tol)
    elif args.table == 2:
        rows = _reproduce_table2(filters, tol, args.seed, args.samples, threads)
    elif args.table == 3:
        rows = _reproduce_table3(filters, tol, args.seed, args.samples, threads)
    else:
        raise ValueError(f"unknown table id {args.table}; expected 1, 2 or 3")
    if not rows:
        raise ValueError("row filter matched nothing")
    _emit(rows, args.out, args.out_file)
    scored = [r for r in rows if r.passed is not None]
    passed = sum(1 for r in scored if r.passed)
    rate = passed / len(scored) if scored else 1.0
    print(
        f"summary: {passed}/{len(scored)} scored cells passed at tolerance {tol:g} "
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
            p.add_argument("--label", default="config", help="case label used in report rows")
        p.add_argument("--seed", type=int, default=None if needs_config else DEFAULT_SEED)
        p.add_argument("--samples", type=int, default=None if needs_config else DEFAULT_SAMPLES)
        p.add_argument("--threads", default="auto",
                       type=lambda s: s if s == "auto" else int(s),
                       help="worker threads (results are thread-count invariant)")
        p.add_argument("--out", choices=("csv", "json"), default="csv")
        p.add_argument("--out-file", default=None, help="write the report here instead of stdout")

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
    p_bounds.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=False,
                          help="also run the Monte Carlo oracle")
    p_bounds.add_argument("--convention", choices=("paper", "exact"), default="paper",
                          help="bound convention: 'paper' reproduces the reference tables, "
                               "'exact' gives valid Shannon and Renyi bounds (see bounds module)")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_rep = sub.add_parser("reproduce", help="compare against the bundled reference tables")
    common(p_rep, needs_config=False)
    p_rep.add_argument("--table", type=int, required=True, help="reference table id: 1, 2 or 3")
    p_rep.add_argument("--rows", default=None, help="filter like 'd=1' or 'd=1,m=2'")
    p_rep.add_argument("--tolerance", type=float, default=tables.DEFAULT_TOLERANCE)
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
