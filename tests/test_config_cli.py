import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import skewtmix
from skewtmix import cli, mc, tables
from skewtmix.bounds import renyi_bounds, shannon_bounds
from skewtmix.cli import build_parser, main
from skewtmix.config import DEFAULT_SAMPLES, DEFAULT_SEED, ConfigError, load_config, parse_config
from skewtmix.distributions import CHUNK_SIZE, mixture_logpdf, sample_mixture
from skewtmix.entropy import skewt_renyi
from skewtmix.linalg import NotPositiveDefiniteError
from skewtmix.mc import _log_densities, fat_proposal, is_renyi, mc_renyi, mc_shannon
from skewtmix.reports import ReportRow, rows_from_json, rows_to_csv, rows_to_json

CASE1 = {
    "components": [{"mu": [0.3], "scale": [[1.5]], "delta": [0.3], "dof": 3}],
}

MIX_M2 = {
    "components": [
        {"mu": [0.3], "scale": [[1.5]], "delta": [0.3], "dof": 3},
        {"mu": [4.0], "scale": [[5.0]], "delta": [4.0], "dof": 3},
    ],
    "weights": [0.2, 0.8],
}


def write_config(tmp_path, doc, name="model.json", seed=None, samples=None):
    """Path of a JSON config of doc, with its seed and samples set where given."""
    settings = {k: v for k, v in (("seed", seed), ("samples", samples)) if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps({**doc, **settings}))
    return str(path)


def write_long_literal(tmp_path):
    """A config whose mu is a 5,000-digit integer literal, past the default int digit limit."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(CASE1).replace("[0.3]", "[" + "1" * 5000 + "]", 1))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def oracle_calls(mixture):
    return lambda x: mixture_logpdf(mixture, x), lambda k, s, c: sample_mixture(mixture, k, s, chunk=c)


def bounds_row(case, mixture, report, est, passed=None):
    return ReportRow(
        case=case, d=mixture.dim, m=mixture.n_components,
        dofs=tuple(c.dof for c in mixture.components), alpha=report.alpha,
        lower=report.lower, upper=report.upper, approx=report.approx,
        half_width=report.half_width, oracle=est.value, oracle_se=est.std_error, passed=passed,
    )


class TestConfig:
    def test_roundtrip_defaults(self):
        cfg = parse_config(CASE1)
        assert cfg.mixture.n_components == 1
        assert cfg.seed == 20240601 and cfg.samples == 1_000_000

    def test_error_paths_are_named(self):
        with pytest.raises(ConfigError, match=r"components\[0\]\.scale"):
            parse_config({"components": [{"mu": [0], "scale": [[1, 2], [2, 1]],
                                          "delta": [0], "dof": 3}]})
        with pytest.raises(ConfigError, match=r"components\[0\]\.dof"):
            parse_config({"components": [{"mu": [0], "scale": [[1]], "delta": [0]}]})
        # an asymmetric scale is not silently averaged, and a dof past 1e6 is rejected
        with pytest.raises(ConfigError, match=r"^components\[0\]\.scale: matrix is not symmetric"):
            parse_config({"components": [{"mu": [0, 0], "scale": [[1.0, 0.9], [0.0, 1.0]],
                                          "delta": [0, 0], "dof": 3}]})
        with pytest.raises(ConfigError, match=r"^components\[0\]: dof must be in \(0, 1e\+06\], got 2000000\.0"):
            parse_config({"components": [{**CASE1["components"][0], "dof": 2e6}]})
        with pytest.raises(ConfigError, match="weights"):
            parse_config({"components": CASE1["components"] * 2})
        with pytest.raises(ConfigError, match="weights"):
            parse_config({**MIX_M2, "weights": [0.5, 0.6]})

    # 10**400 has 401 digits: a valid JSON integer that no float can hold.
    @pytest.mark.parametrize("doc, path", [
        ({"components": [{**CASE1["components"][0], "mu": [10**400]}]}, "components[0].mu[0]"),
        ({"components": [{**CASE1["components"][0], "dof": -10**400}]}, "components[0].dof"),
        ({**MIX_M2, "weights": [0.5, 10**400]}, "weights[1]"),
    ], ids=["mu", "dof", "weights"])
    def test_integer_too_large_for_a_float_names_its_path(self, doc, path):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == f"{path}: integer too large to convert to float"

    def test_weight_count_mismatch(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**MIX_M2, "weights": [1.0]})
        assert str(info.value) == "weights: 2 components but 1 weights"

    @pytest.mark.parametrize("seed", [-5, -1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"^seed: expected an integer in \[0, 2\*\*64\)"):
            parse_config({**CASE1, "seed": seed})

    def test_seed_bounds_accepted(self):
        assert parse_config({**CASE1, "seed": 0}).seed == 0
        assert parse_config({**CASE1, "seed": 2**64 - 1}).seed == 2**64 - 1

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({**CASE1, "typo": 1})
        # the quadrature tolerances are fixed, so a quadrature section is unknown too
        with pytest.raises(ConfigError) as info:
            parse_config({**CASE1, "quadrature": {"abs_tol": 1e-9, "rel_tol": 1e-9}})
        assert str(info.value) == "$: unknown field(s): ['quadrature']"

    def test_integer_literal_past_the_digit_limit(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^\$: invalid JSON: .*4300") as info:
            load_config(write_long_literal(tmp_path))
        assert info.value.path == "$"


class TestReports:
    def test_json_roundtrip(self):
        rows = [
            ReportRow(case="x", d=1, m=2, dofs=(3.0, 4.0), alpha=2.0,
                      lower=1.0, upper=2.0, approx=1.5, half_width=0.5,
                      oracle=1.4, oracle_se=0.01, reference=1.45,
                      abs_diff=0.05, passed=True),
            ReportRow(case="y", d=2, m=1, dofs=(3.0,), alpha="shannon"),
        ]
        assert rows_from_json(rows_to_json(rows)) == rows

    def test_csv_shape(self):
        rows = [ReportRow(case="x", d=1, m=1, dofs=(3.0,), alpha=2.0, approx=1.23456)]
        text = rows_to_csv(rows)
        parsed = parse_csv(text)
        assert parsed[0]["approx"] == "1.2346"  # four decimals
        assert parsed[0]["alpha"] == "2"
        assert "\r" not in text.splitlines()[0]


class TestEntropyCommand:
    def test_exact_case1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE1)
        code, out, _ = run_cli(capsys, "entropy", cfg, "--alpha", "shannon", "--method", "exact")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["approx"]) - 1.9590) <= 0.005

    def test_mc_deterministic_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE1, seed=42, samples=50000)
        argv = ("entropy", cfg, "--alpha", "2", "--method", "mc")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_not_spd_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "components": [{"mu": [0, 0], "scale": [[1, 2], [2, 1]], "delta": [0, 0], "dof": 3}],
        })
        code, _, err = run_cli(capsys, "entropy", cfg)
        assert code == 1
        assert "not positive definite" in err

    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"components": [{**CASE1["components"][0], "mu": [10**400]}]})
        code, out, err = run_cli(capsys, "entropy", cfg)
        assert (code, out) == (1, "")
        assert err == "error: components[0].mu[0]: integer too large to convert to float\n"

    def test_asymmetric_scale_exits_one(self, tmp_path, capsys):
        doc = {"components": [{"mu": [0, 0], "scale": [[1.0, 0.9], [0.0, 1.0]],
                               "delta": [0.3, 0.3], "dof": 3}]}
        code, out, err = run_cli(capsys, "entropy", write_config(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err.startswith("error: components[0].scale: matrix is not symmetric")

    @pytest.mark.parametrize("delta", [1.0, 0.0])
    def test_underflowing_dof_mc_exits_one(self, tmp_path, capsys, delta):
        cfg = write_config(tmp_path, {"components": [{"mu": [0.0], "scale": [[1.0]], "delta": [delta], "dof": 0.02}]},
                           seed=1, samples=20000)
        code, out, err = run_cli(capsys, "entropy", cfg, "--method", "mc")
        assert (code, out) == (1, "")
        assert err == "error: cannot sample at dof 0.02: a Gamma(v/2, 2/v) mixing draw underflowed to 0\n"

    @pytest.mark.parametrize("component, error, message", [
        ({"mu": [0.0], "scale": [[1.0]], "delta": [1.0], "dof": 0.02}, ArithmeticError,
         "cannot sample at dof 0.02: a Gamma(v/2, 2/v) mixing draw underflowed to 0"),
        ({"mu": [0.0], "scale": [[1.0]], "delta": [1e8], "dof": 3.0}, NotPositiveDefiniteError,
         "cannot sample: U's covariance S - delta_hat delta_hat' is not positive definite in floating point "
         "at delta'S^-1 delta = 1e+16"),
    ], ids=["gamma-underflow", "unfactorable-psi"])
    def test_sampler_failure_in_a_pool_job_reaches_the_caller(self, tmp_path, capsys, component, error, message):
        # each of the four chunks fails in its own pool job; the first failure is raised as it was, and nothing is kept
        n = 4 * CHUNK_SIZE
        _log_densities.cache_clear()
        with pytest.raises(error) as raised:
            mc_shannon(*oracle_calls(parse_config({"components": [component]}).mixture), n, 1, 2)
        assert type(raised.value) is error and str(raised.value) == message
        cfg = write_config(tmp_path, {"components": [component]}, seed=1, samples=n)
        code, out, err = run_cli(capsys, "entropy", cfg, "--method", "mc", "--threads", "2")
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert _log_densities.cache_info().currsize == 0

    def test_exact_rejects_mixture(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_M2)
        code, _, err = run_cli(capsys, "entropy", cfg, "--method", "exact")
        assert code == 1
        assert "bounds" in err

    # an order that is not finite and positive gets the order error, not the variance refusal
    @pytest.mark.parametrize("method", ["mc", "is"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "-2"])
    def test_non_finite_alpha_exits_one(self, tmp_path, capsys, method, alpha):
        cfg = write_config(tmp_path, CASE1, samples=1000)
        code, out, err = run_cli(capsys, "entropy", cfg, f"--alpha={alpha}", "--method", method)
        assert code == 1
        assert out == ""
        assert err == "error: alpha must be finite, positive and different from 1, the Shannon limit\n"

    def test_integer_literal_past_the_digit_limit_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "entropy", write_long_literal(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: $: invalid JSON: ")

    def test_importance_sampling_needs_renyi_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE1, samples=1000)
        code, out, err = run_cli(capsys, "entropy", cfg, "--method", "is")
        assert code == 1
        assert out == ""
        assert "importance sampling applies to Renyi orders" in err

    # Below these orders the estimate's variance is infinite, so its SE means nothing: at order 0.3
    # on this component, plain sampling of 200,000 draws printed 3.2777 +- 0.1933 against an exact 4.0092.
    @pytest.mark.parametrize("method, name, threshold", [
        ("mc", "plain Monte Carlo", 0.625), ("is", "importance sampling", 0.4375),
    ])
    def test_orders_of_infinite_variance_exit_one(self, tmp_path, capsys, method, name, threshold):
        c = tables.single_case(1, 3.0)
        cfg = write_config(tmp_path, {"components": [
            {"mu": c.mu.tolist(), "scale": c.scale.entries.tolist(), "delta": c.delta.tolist(), "dof": c.dof},
        ]}, seed=3, samples=20000)
        for alpha in ("0.3", f"{threshold:g}"):
            code, out, err = run_cli(capsys, "entropy", cfg, "--alpha", alpha, "--method", method)
            assert (code, out) == (1, "")
            assert err == (f"error: {name} cannot estimate the Renyi entropy of order {alpha}: with smallest dof 3 "
                           f"its variance is infinite at orders <= {threshold:g}\n")
        code, out, _ = run_cli(capsys, "entropy", cfg, "--alpha", "0.75", "--method", method)
        assert code == 0
        assert abs(float(parse_csv(out)[0]["approx"]) - skewt_renyi(c, 0.75)) <= 0.05

    def test_the_smallest_dof_sets_the_order_refused(self, tmp_path, capsys):
        doc = {"components": [dict(CASE1["components"][0], dof=10.0), dict(MIX_M2["components"][1], dof=1.0)],
               "weights": [0.5, 0.5]}
        code, _, err = run_cli(capsys, "entropy", write_config(tmp_path, doc, samples=1000), "--alpha", "0.75",
                               "--method", "mc")
        assert code == 1
        assert err.endswith("with smallest dof 1 its variance is infinite at orders <= 0.75\n")

    def test_a_component_of_weight_zero_sets_no_order_refused(self, tmp_path, capsys):
        # a weight-0 component is never sampled or evaluated, so its dof 0.1 refuses nothing, and the
        # exact entropies are those of the one component of positive weight
        one = write_config(tmp_path, CASE1, "one.json", seed=4, samples=20000)
        padded = write_config(tmp_path, {"components": [CASE1["components"][0],
                                                        dict(MIX_M2["components"][1], dof=0.1)],
                                         "weights": [1.0, 0.0]}, "padded.json", seed=4, samples=20000)
        for method, alpha in (("mc", "0.9"), ("is", "1.2"), ("exact", "shannon"), ("exact", "2")):
            opts = ("--alpha", alpha, "--method", method, "--out", "json")
            code, out, err = run_cli(capsys, "entropy", padded, *opts)
            assert code == 0, err
            code, expected, _ = run_cli(capsys, "entropy", one, *opts)
            assert code == 0
            assert [replace(r, m=1, dofs=(3.0,)) for r in rows_from_json(out)] == rows_from_json(expected)
        code, out, err = run_cli(capsys, "entropy", padded, "--alpha", "0.5", "--method", "mc")
        assert (code, out) == (1, "")
        assert err.endswith("with smallest dof 3 its variance is infinite at orders <= 0.625\n")

    def test_importance_sampling_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE1, seed=5, samples=50000)
        code, out, _ = run_cli(capsys, "entropy", cfg, "--alpha", "2", "--method", "is")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["approx"]) - 1.6571) <= 0.05

    def test_importance_sampling_matches_library(self, tmp_path, capsys):
        mixture = parse_config(MIX_M2).mixture
        cfg = write_config(tmp_path, MIX_M2, seed=5, samples=20000)
        code, out, _ = run_cli(capsys, "entropy", cfg, "--alpha", "2", "--method", "is", "--threads", "1",
                               "--out", "json")
        assert code == 0
        proposal = fat_proposal(mixture)
        est = is_renyi(lambda x: mixture_logpdf(mixture, x), *oracle_calls(proposal),
                       2.0, 20000, 5, 1)
        assert rows_from_json(out) == [ReportRow(
            case="config", d=1, m=2, dofs=(3.0, 3.0), alpha=2.0,
            approx=est.value, oracle=est.value, oracle_se=est.std_error,
        )]


class TestBoundsCommand:
    def test_shannon_reference(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_M2)
        code, out, _ = run_cli(capsys, "bounds", cfg, "--alpha", "shannon")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["lower"]) - 2.0984) <= 0.01
        assert abs(float(row["upper"]) - 2.5555) <= 0.01
        assert abs(float(row["approx"]) - 2.3283) <= 0.01

    def test_single_component_degenerate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE1)
        code, out, _ = run_cli(capsys, "bounds", cfg, "--alpha", "2")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["lower"] == row["upper"] == row["approx"]

    def test_non_integer_alpha_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_M2)
        code, _, err = run_cli(capsys, "bounds", cfg, "--alpha", "2.5")
        assert code == 1
        assert "integer alpha required" in err

    def test_oracle_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_M2, samples=50000)
        code, out, _ = run_cli(capsys, "bounds", cfg, "--alpha", "shannon", "--oracle", "--convention", "exact")
        assert code == 0
        row = parse_csv(out)[0]
        oracle = float(row["oracle"])
        assert float(row["lower"]) - 0.05 <= oracle <= float(row["upper"]) + 0.05

    def test_oracle_matches_library(self, tmp_path, capsys):
        mixture = parse_config(MIX_M2).mixture
        cfg = write_config(tmp_path, MIX_M2, seed=3, samples=20000)
        code, out, _ = run_cli(capsys, "bounds", cfg, "--alpha", "shannon", "--alpha", "2",
                               "--oracle", "--convention", "exact", "--threads", "1", "--out", "json")
        assert code == 0
        calls = oracle_calls(mixture)
        expected = [
            bounds_row("config", mixture, shannon_bounds(mixture, convention="exact"),
                       mc_shannon(*calls, 20000, 3, 1)),
            bounds_row("config", mixture, renyi_bounds(mixture, 2, convention="exact"),
                       mc_renyi(*calls, 2.0, 20000, 3, 1)),
        ]
        assert rows_from_json(out) == expected

    def test_orders_share_one_sample(self, tmp_path, capsys, monkeypatch):
        # three orders draw each chunk once, and each row equals the row of its one-order run
        cfg = write_config(tmp_path, MIX_M2, seed=5, samples=20000)
        draws = []
        real = mc.sample_mixture
        monkeypatch.setattr(mc, "sample_mixture",
                            lambda m, n, s, chunk: draws.append((n, chunk)) or real(m, n, s, chunk=chunk))
        argv = ("bounds", cfg, "--oracle", "--out", "json")
        code, out, _ = run_cli(capsys, *argv, "--alpha", "shannon", "--alpha", "2", "--alpha", "5")
        assert code == 0 and sum(n for n, _ in draws) == 20000
        assert sorted(chunk for _, chunk in draws) == list(range(-(-20000 // CHUNK_SIZE)))
        singles = [run_cli(capsys, *argv, "--alpha", alpha)[1] for alpha in ("shannon", "2", "5")]
        assert [json.dumps(row) for row in json.loads(out)] == [json.dumps(json.loads(s)[0]) for s in singles]

    def test_renyi_convention(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_M2)
        _, paper, _ = run_cli(capsys, "bounds", cfg, "--alpha", "2")
        code, exact, _ = run_cli(capsys, "bounds", cfg, "--alpha", "2", "--convention", "exact")
        assert code == 0
        paper, exact = parse_csv(paper)[0], parse_csv(exact)[0]
        assert (paper["lower"], paper["upper"]) == ("1.8895", "1.9384")
        assert (exact["lower"], exact["upper"]) == ("1.8895", "2.3177")

    def test_json_output_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_M2)
        code, out, _ = run_cli(capsys, "bounds", cfg, "--alpha", "3", "--out", "json")
        assert code == 0
        rows = rows_from_json(out)
        assert rows == rows_from_json(rows_to_json(rows))


def reproduce_rows(capsys, table, *argv, **columns):
    """Exit code of a whole reproduce run and its JSON rows whose named columns equal the given values."""
    code, out, _ = run_cli(capsys, "reproduce", "--table", table, *argv, "--out", "json")
    return code, [r for r in rows_from_json(out) if all(getattr(r, k) == v for k, v in columns.items())]


class TestReproduceCommand:
    def test_table1_d1(self, capsys):
        code, rows = reproduce_rows(capsys, "1", d=1)
        assert len(rows) == 7 * 9
        passed = sum(1 for r in rows if r.passed)
        assert passed / len(rows) >= 0.9
        assert code == 0

    def test_table1_d2_informational(self, capsys):
        code, rows = reproduce_rows(capsys, "1", d=2, dofs=(3,))
        assert len(rows) == 9
        assert all(r.passed is None for r in rows)
        assert all(r.reference is not None for r in rows)
        assert code == 0

    def test_table3_m2_approx_within_tolerance(self, capsys):
        code, rows = reproduce_rows(capsys, "3", case="t3_approx", m=2)
        assert len(rows) == 8
        assert all(abs(r.approx - r.reference) <= 0.02 for r in rows)

    def test_table2_d3_property_mode(self, capsys):
        code, rows = reproduce_rows(capsys, "2", d=3, m=2)
        assert len(rows) == 1
        assert all(r.case == "t2_property" for r in rows)
        assert all(r.reference is None for r in rows)
        assert all(r.oracle is not None for r in rows)

    def test_table3_property_rows_match_library(self, capsys):
        # the oracle runs at the fixed default seed and sample count
        code, rows = reproduce_rows(capsys, "3", "--threads", "2")
        mixture = tables.builtin_mixture("d3_m2")
        expected = []
        for alpha in (2, 5):
            report = renyi_bounds(mixture, alpha, convention="exact")
            est = mc_renyi(*oracle_calls(mixture), float(alpha), DEFAULT_SAMPLES, DEFAULT_SEED, 2)
            inside = report.lower - 3 * est.std_error <= est.value <= report.upper + 3 * est.std_error
            passed = bool(inside and report.lower <= report.upper)
            expected.append(bounds_row("t3_property", mixture, report, est, passed=passed))
        assert [r for r in rows if r.d == 3] == expected
        # the d = 3 rows pass; the exit code is the whole table's pass rate
        assert all(r.passed for r in expected)
        scored = [r.passed for r in rows if r.passed is not None]
        assert code == (0 if sum(scored) / len(scored) >= cli.PASS_RATE_THRESHOLD else 2)

    def test_unknown_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--table", "9"])
        assert exc.value.code == 2
        assert "argument --table: invalid choice: 9" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--samples", -5), ("--samples", 0), ("--samples", 1), ("--seed", -1), ("--seed", 2**64),
    ])
    def test_seed_and_samples_are_usage_errors(self, capsys, option, value):
        # reproduce runs at the default seed and sample count: values the flags once rejected
        # with exit 1 now fail to parse at all
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--table", "2", option, str(value)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err

    def test_removed_options_are_usage_errors(self, tmp_path, capsys):
        # rows are selected from --out json, shell redirection writes a file, and the seed and sample
        # count are a config's seed and samples (reproduce's flags are tested above)
        cfg = write_config(tmp_path, MIX_M2)
        target = tmp_path / "report.txt"
        runs = (["entropy", cfg, "--method", "mc"], ["bounds", cfg, "--oracle"])
        for argv in (["reproduce", "--table", "1", "--rows", "d=1"],
                     ["reproduce", "--table", "1", "--out-file", str(target)],
                     ["entropy", cfg, "--out-file", str(target)],
                     ["bounds", cfg, "--out-file", str(target)],
                     *[run + option for run in runs for option in (["--seed", "1"], ["--samples", "10"])]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("bounds", "--oracle", "--alpha", "shannon", "--alpha", "2", "--alpha", "5"),
    ("entropy", "--method", "is", "--alpha", "2"),
], ids=["bounds-oracle", "entropy-is"])
def test_output_thread_count_invariant(tmp_path, capsys, argv):
    # two sampler chunks of draws, so --threads 2 evaluates the log densities in parallel
    cfg = write_config(tmp_path, MIX_M2, seed=9, samples=2 * CHUNK_SIZE)
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run_cli(capsys, argv[0], cfg, *argv[1:], "--threads", threads, "--out", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_output_independent_of_blas_threads(tmp_path):
    # BLAS threads are unpinned by default for CLI users; results must not depend on it
    mix = tables.builtin_mixture("d3_m3")
    cfg = write_config(tmp_path, {
        "components": [{"mu": c.mu.tolist(), "scale": c.scale.entries.tolist(), "delta": c.delta.tolist(),
                        "dof": c.dof} for c in mix.components],
        "weights": mix.weights.tolist(),
    }, samples=140000)
    src = str(Path(skewtmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    argv = [sys.executable, "-c", "import sys; from skewtmix.cli import main; sys.exit(main(sys.argv[1:]))",
            "bounds", cfg, "--oracle", "--alpha", "shannon", "--alpha", "2", "--threads", "2", "--out", "json"]
    outs = []
    for blas in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        proc = subprocess.run(argv, capture_output=True, text=True, env={**env, **blas}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_cli_does_not_import_scipy_linalg(tmp_path):
    # every triangular solve is a numpy substitution, so neither the package nor an oracle run loads scipy.linalg
    src = str(Path(skewtmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys, skewtmix, skewtmix.cli; code = skewtmix.cli.main(sys.argv[1:]); "
              "print('scipy.linalg' in sys.modules, file=sys.stderr); sys.exit(code)")
    argv = [sys.executable, "-c", script, "bounds", write_config(tmp_path, MIX_M2, samples=2 * CHUNK_SIZE),
            "--oracle", "--threads", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["entropy", "bounds", "reproduce"])
def test_threads_below_one_exits_one(tmp_path, capsys, command, threads):
    cfg = write_config(tmp_path, MIX_M2, samples=1000)
    argv = {
        "entropy": ["entropy", cfg, "--method", "mc"],
        "bounds": ["bounds", cfg, "--oracle"],
        "reproduce": ["reproduce", "--table", "2"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--threads", threads)
    assert code == 1
    assert out == ""
    assert "--threads must be at least 1" in err


# reproduce reads no config: its seed and sample count are fixed, and the flags are usage errors
CONFIG_RUNS = {
    "entropy-mc": ["entropy", "--method", "mc"],
    "entropy-is": ["entropy", "--method", "is", "--alpha", "2"],
    "bounds": ["bounds", "--oracle", "--alpha", "2"],
}


@pytest.mark.parametrize("samples", [0, -5, 1])
@pytest.mark.parametrize("command", ["entropy-mc", "entropy-is", "bounds"])
def test_samples_below_two_exits_one(tmp_path, capsys, command, samples):
    cfg = write_config(tmp_path, MIX_M2, samples=samples)
    code, out, err = run_cli(capsys, CONFIG_RUNS[command][0], cfg, *CONFIG_RUNS[command][1:])
    assert (code, out) == (1, "")
    assert err == f"error: samples: expected an integer >= 2, got {samples}\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["entropy-mc", "bounds"])
def test_seed_outside_64_bits_exits_one(tmp_path, capsys, command, seed):
    cfg = write_config(tmp_path, MIX_M2, seed=seed, samples=1000)
    code, out, err = run_cli(capsys, CONFIG_RUNS[command][0], cfg, *CONFIG_RUNS[command][1:])
    assert (code, out) == (1, "")
    assert err == f"error: seed: expected an integer in [0, 2**64), got {seed}\n"


def test_threads_not_an_integer_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--table", "1", "--threads", "abc"])
    assert exc.value.code == 2
    assert "--threads takes a positive integer or 'auto', got 'abc'" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # a README example that still uses a removed or renamed flag fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("skewtmix ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
