import csv
import io
import json

import numpy as np
import pytest

from skewtmix import tables
from skewtmix.bounds import renyi_bounds, shannon_bounds
from skewtmix.cli import main
from skewtmix.config import ConfigError, parse_config
from skewtmix.distributions import CHUNK_SIZE, mixture_logpdf, sample_mixture
from skewtmix.mc import fat_proposal, is_renyi, mc_renyi, mc_shannon
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


def write_config(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def oracle_calls(mixture):
    return lambda x: mixture_logpdf(mixture, x), lambda n, s: sample_mixture(mixture, n, s)


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
        with pytest.raises(ConfigError, match="weights"):
            parse_config({"components": CASE1["components"] * 2})
        with pytest.raises(ConfigError, match="weights"):
            parse_config({**MIX_M2, "weights": [0.5, 0.6]})

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

    def test_quadrature_block(self):
        cfg = parse_config({**CASE1, "quadrature": {"abs_tol": 1e-8, "rel_tol": 1e-8}})
        assert cfg.quadrature.abs_tol == 1e-8

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", ["abs_tol", "rel_tol"])
    def test_non_finite_quadrature_tolerance_rejected(self, key, bad):
        with pytest.raises(ConfigError, match="quadrature"):
            parse_config({**CASE1, "quadrature": {key: bad}})


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
        cfg = write_config(tmp_path, CASE1)
        argv = ("entropy", cfg, "--alpha", "2", "--method", "mc",
                "--seed", "42", "--samples", "50000")
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

    def test_exact_rejects_mixture(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MIX_M2)
        code, _, err = run_cli(capsys, "entropy", cfg, "--method", "exact")
        assert code == 1
        assert "bounds" in err

    @pytest.mark.parametrize("method", ["mc", "is"])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_one(self, tmp_path, capsys, method, alpha):
        cfg = write_config(tmp_path, CASE1)
        code, out, err = run_cli(capsys, "entropy", cfg, "--alpha", alpha, "--method", method,
                                 "--samples", "1000")
        assert code == 1
        assert out == ""
        assert "alpha must be finite" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_quadrature_tolerance_exits_one(self, tmp_path, capsys, bad):
        # json.dumps writes the bare literals NaN and Infinity, which json.load reads back
        cfg = write_config(tmp_path, {**CASE1, "quadrature": {"abs_tol": bad}})
        code, out, err = run_cli(capsys, "entropy", cfg)
        assert code == 1
        assert out == ""
        assert "quadrature" in err

    def test_importance_sampling_needs_renyi_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE1)
        code, out, err = run_cli(capsys, "entropy", cfg, "--method", "is", "--samples", "1000")
        assert code == 1
        assert out == ""
        assert "importance sampling applies to Renyi orders" in err

    def test_importance_sampling_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CASE1)
        code, out, _ = run_cli(capsys, "entropy", cfg, "--alpha", "2", "--method", "is",
                               "--samples", "50000", "--seed", "5")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["approx"]) - 1.6571) <= 0.05

    def test_importance_sampling_matches_library(self, tmp_path, capsys):
        mixture = parse_config(MIX_M2).mixture
        cfg = write_config(tmp_path, MIX_M2)
        code, out, _ = run_cli(capsys, "entropy", cfg, "--alpha", "2", "--method", "is",
                               "--samples", "20000", "--seed", "5", "--threads", "1",
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
        cfg = write_config(tmp_path, MIX_M2)
        code, out, _ = run_cli(capsys, "bounds", cfg, "--alpha", "shannon",
                               "--oracle", "--samples", "50000", "--convention", "exact")
        assert code == 0
        row = parse_csv(out)[0]
        oracle = float(row["oracle"])
        assert float(row["lower"]) - 0.05 <= oracle <= float(row["upper"]) + 0.05

    def test_oracle_matches_library(self, tmp_path, capsys):
        parsed = parse_config(MIX_M2)
        mixture, quad = parsed.mixture, parsed.quadrature
        cfg = write_config(tmp_path, MIX_M2)
        code, out, _ = run_cli(capsys, "bounds", cfg, "--alpha", "shannon", "--alpha", "2",
                               "--oracle", "--convention", "exact", "--samples", "20000",
                               "--seed", "3", "--threads", "1", "--out", "json")
        assert code == 0
        calls = oracle_calls(mixture)
        expected = [
            bounds_row("config", mixture, shannon_bounds(mixture, quad, convention="exact"),
                       mc_shannon(*calls, 20000, 3, 1)),
            bounds_row("config", mixture, renyi_bounds(mixture, 2, quad, convention="exact"),
                       mc_renyi(*calls, 2.0, 20000, 3, 1)),
        ]
        assert rows_from_json(out) == expected

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


class TestReproduceCommand:
    def test_table1_d1(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "--table", "1", "--rows", "d=1")
        rows = parse_csv(out)
        assert len(rows) == 7 * 9
        passed = sum(1 for r in rows if r["passed"] == "pass")
        assert passed / len(rows) >= 0.9
        assert code == 0

    def test_table1_d2_informational(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "1", "--rows", "d=2,v=3")
        rows = parse_csv(out)
        assert all(r["passed"] == "" for r in rows)
        assert all(r["reference"] for r in rows)
        assert code == 0

    def test_table3_m2_approx_within_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "3", "--rows", "d=1,m=2")
        rows = [r for r in parse_csv(out) if r["case"] == "t3_approx"]
        assert len(rows) == 8
        assert all(abs(float(r["approx"]) - float(r["reference"])) <= 0.02 for r in rows)

    def test_table2_d3_property_mode(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "2", "--rows", "d=3,m=2",
                               "--samples", "50000")
        rows = parse_csv(out)
        assert all(r["case"] == "t2_property" for r in rows)
        assert all(r["reference"] == "" for r in rows)
        assert all(r["oracle"] for r in rows)

    def test_table3_property_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--table", "3", "--rows", "d=3",
                               "--samples", "131072", "--seed", "8", "--threads", "2",
                               "--out", "json")
        mixture = tables.builtin_mixture("d3_m2")
        expected = []
        for alpha in (2, 5):
            report = renyi_bounds(mixture, alpha, convention="exact")
            est = mc_renyi(*oracle_calls(mixture), float(alpha), 131072, 8, 2)
            inside = report.lower - 3 * est.std_error <= est.value <= report.upper + 3 * est.std_error
            passed = bool(inside and report.lower <= report.upper)
            expected.append(bounds_row("t3_property", mixture, report, est, passed=passed))
        assert rows_from_json(out) == expected
        assert code == 0

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "--table", "9")
        assert code != 0

    def test_bad_filter(self, capsys):
        for rows in ("q=3", "d=x", "v=4.5"):
            code, out, err = run_cli(capsys, "reproduce", "--table", "1", "--rows", rows)
            assert code == 1
            assert out == ""
            assert "row filter" in err

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_bad_tolerance(self, capsys, tolerance):
        code, out, err = run_cli(capsys, "reproduce", "--table", "1", "--rows", "d=1,v=3",
                                 "--tolerance", tolerance)
        assert code == 1
        assert out == ""
        assert "--tolerance must be a nonnegative number" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--oracle", "--alpha", "shannon", "--alpha", "2", "--alpha", "5"),
    ("entropy", "--method", "is", "--alpha", "2"),
], ids=["bounds-oracle", "entropy-is"])
def test_output_thread_count_invariant(tmp_path, capsys, argv):
    # two sampler chunks of draws, so --threads 2 evaluates the log densities in parallel
    cfg = write_config(tmp_path, MIX_M2)
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run_cli(capsys, argv[0], cfg, *argv[1:], "--samples", str(2 * CHUNK_SIZE),
                               "--seed", "9", "--threads", threads, "--out", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["entropy", "bounds", "reproduce"])
def test_threads_below_one_exits_one(tmp_path, capsys, command, threads):
    cfg = write_config(tmp_path, MIX_M2)
    argv = {
        "entropy": ["entropy", cfg, "--method", "mc"],
        "bounds": ["bounds", cfg, "--oracle"],
        "reproduce": ["reproduce", "--table", "2"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--samples", "1000", "--threads", threads)
    assert code == 1
    assert out == ""
    assert "--threads must be at least 1" in err


@pytest.mark.parametrize("samples", ["0", "-5", "1"])
@pytest.mark.parametrize("command", ["entropy-mc", "entropy-is", "bounds", "reproduce"])
def test_samples_below_two_exits_one(tmp_path, capsys, command, samples):
    cfg = write_config(tmp_path, MIX_M2)
    argv = {
        "entropy-mc": ["entropy", cfg, "--method", "mc"],
        "entropy-is": ["entropy", cfg, "--method", "is", "--alpha", "2"],
        "bounds": ["bounds", cfg, "--oracle", "--alpha", "2"],
        "reproduce": ["reproduce", "--table", "2"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--samples", samples)
    assert code == 1
    assert out == ""
    assert f"--samples must be an integer >= 2, got {samples}" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["entropy-mc", "bounds", "reproduce"])
def test_seed_outside_64_bits_exits_one(tmp_path, capsys, command, seed):
    cfg = write_config(tmp_path, MIX_M2)
    argv = {
        "entropy-mc": ["entropy", cfg, "--method", "mc"],
        "bounds": ["bounds", cfg, "--oracle"],
        "reproduce": ["reproduce", "--table", "2"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--samples", "1000", "--seed", seed)
    assert code == 1
    assert out == ""
    assert f"--seed must be an integer in [0, 2**64), got {seed}" in err


def test_threads_not_an_integer_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--table", "1", "--threads", "abc"])
    assert exc.value.code == 2
    assert "--threads takes a positive integer or 'auto', got 'abc'" in capsys.readouterr().err
