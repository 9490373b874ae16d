"""Command line front end: entropy, bounds, and reproduce subcommands.

Exit codes: 0 on success; 1 on validation or domain errors, among them
``--threads`` below 1, ``--samples`` below 2 and ``--seed`` outside
[0, 2**64) (the config file's rules), a negative or NaN ``--tolerance``
and a malformed ``--rows`` filter; 2 when a reproduction run's pass rate
over scored cells drops below the threshold, or on an argparse usage
error such as a ``--threads`` that is neither an integer nor 'auto'.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import tables
from .bounds import renyi_bounds, shannon_bounds
from .config import DEFAULT_SAMPLES, DEFAULT_SEED, ConfigError, load_config
from .distributions import mixture_logpdf, sample_mixture
from .entropy import skewt_renyi, skewt_shannon
from .mc import fat_proposal, is_renyi, mc_renyi, mc_shannon
from .reports import ReportRow, rows_to_csv, rows_to_json

PASS_RATE_THRESHOLD = 0.9


def _threads_arg(raw: str) -> int:
    try:
        return min(4, os.cpu_count() or 1) if raw == "auto" else int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--threads takes a positive integer or 'auto', got {raw!r}") from None


def _run_options(args, seed: int, samples: int):
    """Checked seed, samples and threads; --seed and --samples, where given, override the first two."""
    seed = seed if args.seed is None else args.seed
    samples = samples if args.samples is None else args.samples
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"--seed must be an integer in [0, 2**64), got {seed}")
    if samples < 2:
        raise ValueError(f"--samples must be an integer >= 2, got {samples}")
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1 or 'auto', got {args.threads}")
    return seed, samples, args.threads


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
    """Config, seed, samples, threads and orders of a config command."""
    cfg = load_config(args.config)
    seed, samples, threads = _run_options(args, cfg.seed, cfg.samples)
    alphas = [_parse_alpha(a) for a in (args.alpha or ["shannon"])]
    return cfg, seed, samples, threads, alphas


def _row(case, components, alpha, **cells) -> ReportRow:
    """A report row whose d, m and dofs describe the given components."""
    return ReportRow(
        case=case, d=components[0].dim, m=len(components),
        dofs=tuple(c.dof for c in components), alpha=alpha, **cells,
    )


def _oracle(mixture, alpha, samples, seed, threads, method="mc"):
    """Monte Carlo estimate of the mixture's Shannon (alpha "shannon") or Renyi entropy.

    method "is" samples ``fat_proposal(mixture)`` and applies to Renyi orders only.
    """
    logpdf = lambda x: mixture_logpdf(mixture, x)  # noqa: E731
    if method == "is":
        if alpha == "shannon":
            raise ValueError("importance sampling applies to Renyi orders; use --method mc for shannon")
        proposal = fat_proposal(mixture)
        return is_renyi(logpdf, lambda x: mixture_logpdf(proposal, x),
                        lambda n, s: sample_mixture(proposal, n, s), float(alpha), samples, seed, threads)
    sampler = lambda n, s: sample_mixture(mixture, n, s)  # noqa: E731
    if alpha == "shannon":
        return mc_shannon(logpdf, sampler, samples, seed, threads)
    return mc_renyi(logpdf, sampler, float(alpha), samples, seed, threads)


def _bounds(mixture, alpha, quad, convention):
    if alpha == "shannon":
        return shannon_bounds(mixture, quad, convention=convention)
    return renyi_bounds(mixture, alpha, quad, convention=convention)


def _bounds_row(case, mixture, report, est, **cells) -> ReportRow:
    """A row carrying a bounds report and, when est is given, its Monte Carlo oracle."""
    return _row(
        case, mixture.components, report.alpha, lower=report.lower, upper=report.upper,
        approx=report.approx, half_width=report.half_width,
        oracle=est.value if est else None, oracle_se=est.std_error if est else None, **cells,
    )


def _cmd_entropy(args) -> int:
    cfg, seed, samples, threads, alphas = _load_run(args)
    mixture = cfg.mixture
    rows = []
    for alpha in alphas:
        if args.method == "exact":
            if mixture.n_components != 1:
                raise ValueError(
                    "exact entropies are defined per component; "
                    "use the bounds command for mixtures"
                )
            comp = mixture.components[0]
            value = (skewt_shannon(comp, cfg.quadrature) if alpha == "shannon"
                     else skewt_renyi(comp, alpha, cfg.quadrature))
            rows.append(_row(args.label, mixture.components, alpha, approx=value))
            continue
        est = _oracle(mixture, alpha, samples, seed, threads, args.method)
        rows.append(
            _row(args.label, mixture.components, alpha,
                 approx=est.value, oracle=est.value, oracle_se=est.std_error)
        )
    _emit(rows, args.out, args.out_file)
    return 0


def _cmd_bounds(args) -> int:
    cfg, seed, samples, threads, alphas = _load_run(args)
    rows = []
    for alpha in alphas:
        report = _bounds(cfg.mixture, alpha, cfg.quadrature, args.convention)
        est = _oracle(cfg.mixture, alpha, samples, seed, threads) if args.oracle else None
        rows.append(_bounds_row(args.label, cfg.mixture, report, est))
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
        try:
            out[key] = int(value)
        except ValueError:
            raise ValueError(f"row filter {key} takes an integer, got {value!r}") from None
    return out


def _keep(filters: dict, **attrs) -> bool:
    return all(key not in filters or filters[key] == value for key, value in attrs.items())


def _scored(case, components, alpha, value, ref, tol) -> ReportRow:
    """A row comparing value with a reference; tol None leaves it unscored."""
    diff = abs(value - ref)
    return _row(case, components, alpha, approx=value, reference=ref, abs_diff=diff,
                passed=None if tol is None else diff <= tol)


def _reproduce_table1(filters, tol):
    rows = []
    reference = {
        1: tables.REFERENCE_TABLE1_D1,
        2: tables.REFERENCE_TABLE1_D2,
        3: tables.REFERENCE_TABLE1_D3,
    }
    labels = ["shannon"] + [float(a) for a in tables.TABLE1_ALPHAS] + ["inf"]
    for d in (1, 2, 3):
        if not _keep(filters, d=d):
            continue
        for v in tables.TABLE1_DOFS:
            if not _keep(filters, v=v):
                continue
            comp = tables.single_case(d, float(v))
            for label, ref in zip(labels, reference[d][v]):
                if label == "shannon":
                    value = skewt_shannon(comp)
                elif label == "inf":
                    value = skewt_renyi(comp, tables.ALPHA_INF_PROXY)
                else:
                    value = skewt_renyi(comp, label)
                # d >= 2 reference rows are informational
                rows.append(_scored("t1", (comp,), label, value, ref, tol if d == 1 else None))
    return rows


def _reference_rows(case, ms, orders, convention, reference, filters, tol):
    """Scored d = 1 rows: lower, upper, approx and, where referenced, the half-width."""
    rows = []
    for m in ms:
        if not _keep(filters, d=1, m=m):
            continue
        mixture = tables.mixture_d1(m)
        for alpha in orders:
            report = _bounds(mixture, alpha, None, convention)
            for quantity, computed, ref, cell_tol in zip(
                ("lower", "upper", "approx", "halfwidth"),
                (report.lower, report.upper, report.approx, report.half_width),
                reference(m, alpha),
                (tol, tol, tol, tol / 4.0),
            ):
                rows.append(_scored(f"{case}_{quantity}", mixture.components, report.alpha,
                                    computed, ref, cell_tol))
    return rows


def _property_rows(case, shapes, orders, filters, seed, samples, threads):
    """Rows for d >= 2 mixtures: exact bounds must be ordered and hold the oracle within 3 SE."""
    rows = []
    for d, ms in shapes:
        for m in ms:
            if not _keep(filters, d=d, m=m):
                continue
            mixture = tables.builtin_mixture(f"d{d}_m{m}")
            for alpha in orders:
                report = _bounds(mixture, alpha, None, "exact")
                est = _oracle(mixture, alpha, samples, seed, threads)
                inside = (report.lower - 3 * est.std_error <= est.value
                          <= report.upper + 3 * est.std_error)
                ordered = report.lower <= report.upper
                rows.append(_bounds_row(f"{case}_property", mixture, report, est,
                                        passed=bool(inside and ordered)))
    return rows


def _cmd_reproduce(args) -> int:
    filters = _parse_rows_filter(args.rows)
    tol = args.tolerance
    if not tol >= 0.0:
        raise ValueError(f"--tolerance must be a nonnegative number, got {tol}")
    seed, samples, threads = _run_options(args, DEFAULT_SEED, DEFAULT_SAMPLES)
    if args.table == 1:
        rows = _reproduce_table1(filters, tol)
    elif args.table == 2:
        # the fourth reference entry, the half-width, is not scored for table 2
        rows = _reference_rows("t2", (2, 3, 4, 5), ("shannon",), "paper",
                               lambda m, _: tables.REFERENCE_TABLE2_D1[m][:3], filters, tol)
        rows += _property_rows("t2", ((2, (2, 3, 4, 5)), (3, (2, 3))), ("shannon",),
                               filters, seed, samples, threads)
    elif args.table == 3:
        rows = _reference_rows("t3", (2, 3, 4), tables.TABLE3_ALPHAS, "listed",
                               lambda m, a: tables.REFERENCE_TABLE3_D1[(m, a)], filters, tol)
        rows += _property_rows("t3", ((2, (2, 3)), (3, (2,))), (2, 5),
                               filters, seed, samples, threads)
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
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--threads", default="auto", type=_threads_arg,
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
