import json
import os

import pytest

from bfpsearch.cli import (
    DEFAULT_SWEEP_ALPHAS,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    main,
    run,
    sweep_alpha,
)


def base_args(tiny4_path, out_dir, *extra):
    return ["--model", tiny4_path, "--qb", "8", "--alpha", "0.2", "--mc", "65536",
            "--se", "2,3,4", "--bs", "2,8", "--out", out_dir, *extra]


def test_happy_path_writes_reports(tiny4_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(base_args(tiny4_path, out, "--csv"))
    assert rc == EXIT_OK
    assert sorted(os.listdir(out)) == ["candidates.csv", "plan.json", "report.json", "summary.txt"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    plan = report["plan"]
    assert plan["objective"] == plan["acc_loss"] + report["config"]["alpha"] * plan["perf_loss"]
    assert len(plan["layers"]) == 4
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "objective" in summary and "layer" in summary


def test_missing_model_is_io_error(tmp_path, capsys):
    rc = main(["--model", str(tmp_path / "missing.model"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO
    assert "missing.model" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--scope", "layer"], ["--sweep"]])
def test_model_without_conv_layers_is_io_error(tmp_path, capsys, extra):
    path = tmp_path / "pool.model"
    path.write_text("format_version 1\nlayer 1\n  type pool\n  c_in 1\n  c_out 1\n  input 4 4\n  kernel 2 2\n")
    rc = main(["--model", str(path), "--out", str(tmp_path / "o"), *extra])
    assert rc == EXIT_IO
    assert "no conv layers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_usage_error_on_bad_flags(tiny4_path, tmp_path, capsys):
    assert main(["--model", tiny4_path, "--qb", "9"]) == EXIT_USAGE
    assert main(["--model", tiny4_path, "--alpha", "-2"]) == EXIT_USAGE
    assert main(["--model", tiny4_path, "--mc", "0"]) == EXIT_USAGE
    assert main(["--model", tiny4_path, "--loss-source", "table"]) == EXIT_USAGE


@pytest.mark.parametrize("extra", [
    ["--alpha", "nan"], ["--alpha", "inf"], ["--mc", "nan"], ["--mc", "inf"], ["--sweep-alpha", "0.1,nan"],
    ["--e-sram", "0"], ["--e-dram", "-5"], ["--e-sram", "nan"], ["--e-dram", "inf"],
], ids="=".join)
def test_non_finite_or_nonpositive_values_are_usage_errors(tiny4_path, tmp_path, capsys, extra):
    rc = main(base_args(tiny4_path, str(tmp_path / "o"), *extra))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["abc", "2.5", ""])
def test_non_integer_jobs_env_is_usage_error(tiny4_path, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("BFPSEARCH_JOBS", value)
    rc = main(base_args(tiny4_path, str(tmp_path / "o")))
    assert rc == EXIT_USAGE
    assert "BFPSEARCH_JOBS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infeasible_exit_code(tiny4_path, tmp_path):
    # 16 bits cannot hold even a unit tile set at the smallest bitwidths.
    rc = main(["--model", tiny4_path, "--mc", "16", "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE


def test_pareto_mode_reports_frontier(tiny4_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(base_args(tiny4_path, out, "--mode", "pareto"))
    assert rc == EXIT_OK
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert plan["pareto"]
    for row in plan["pareto"]:
        assert "acc_loss" in row and "perf_loss" in row


def test_reproducible_reports_byte_identical(tiny4_path, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(base_args(tiny4_path, out_a, "--seed", "7")) == EXIT_OK
    assert main(base_args(tiny4_path, out_b, "--seed", "7")) == EXIT_OK
    for name in ("plan.json", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_default_seven_rows(tiny4_path, tmp_path):
    config = RunConfig(model_path=tiny4_path, mc_bits=65536.0,
                       se_set=(2, 3, 4), bs_set=(2, 8), out_dir=str(tmp_path / "s"))
    rc, outputs, rows = sweep_alpha(config)
    assert rc == EXIT_OK
    assert len(rows) == len(DEFAULT_SWEEP_ALPHAS) == 7
    csv_text = (tmp_path / "s" / "sweep.csv").read_text()
    assert csv_text.count("\n") == 8  # header + 7 rows


def test_sweep_single_zero_alpha(tiny4_path, tmp_path):
    config = RunConfig(model_path=tiny4_path, mc_bits=65536.0,
                       se_set=(2, 3, 4), bs_set=(2, 8), out_dir=str(tmp_path / "s"))
    rc, outputs, rows = sweep_alpha(config, alphas=(0.0,))
    assert rc == EXIT_OK and len(rows) == 1
    # alpha=0 row carries the min-acc plan
    assert rows[0]["alpha"] == 0.0


def test_sweep_monotone_losses(tiny4_path, tmp_path):
    config = RunConfig(model_path=tiny4_path, mc_bits=65536.0,
                       se_set=(2, 3, 4, 5), bs_set=(2, 8), out_dir=str(tmp_path / "s"))
    _, _, rows = sweep_alpha(config)
    perfs = [r["perf_loss"] for r in rows]
    accs = [r["acc_loss"] for r in rows]
    assert all(a >= b for a, b in zip(perfs, perfs[1:]))
    assert all(a <= b for a, b in zip(accs, accs[1:]))


def test_cli_sweep_flag(tiny4_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(base_args(tiny4_path, out, "--sweep"))
    assert rc == EXIT_OK
    assert sorted(os.listdir(out)) == ["sweep.csv", "sweep.json"]


@pytest.mark.parametrize("sweep", [["--sweep"], ["--sweep-alpha", "0.2"]], ids="=".join)
def test_sweep_with_layer_scope_is_usage_error(tiny4_path, tmp_path, capsys, sweep):
    # A sweep row has one (se, bs) column pair, which a per-layer plan does not.
    rc = main(base_args(tiny4_path, str(tmp_path / "o"), "--scope", "layer", *sweep))
    assert rc == EXIT_USAGE
    assert "--scope model" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    config = RunConfig(model_path=tiny4_path, mc_bits=65536.0, se_set=(2, 3, 4), bs_set=(2, 8),
                       scope="layer", out_dir=str(tmp_path / "s"))
    with pytest.raises(UsageError, match="--scope model"):
        sweep_alpha(config, alphas=(0.2,))
    assert not (tmp_path / "s").exists()


def test_cli_empty_sweep_alpha_uses_default_values(tiny4_path, tmp_path):
    rc = main(base_args(tiny4_path, str(tmp_path / "out"), "--sweep-alpha", ""))
    assert rc == EXIT_OK
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == list(DEFAULT_SWEEP_ALPHAS)


def test_env_overrides(tiny4_path, tmp_path, monkeypatch):
    out = str(tmp_path / "env_out")
    monkeypatch.setenv("BFPSEARCH_OUT_DIR", out)
    monkeypatch.setenv("BFPSEARCH_JOBS", "1")
    rc = main(["--model", tiny4_path, "--se", "2,3", "--bs", "2,8", "--mc", "65536"])
    assert rc == EXIT_OK
    assert os.path.isdir(out)


def test_scope_layer_flag(tiny4_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(base_args(tiny4_path, out, "--scope", "layer"))
    assert rc == EXIT_OK
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert plan["scope"] == "layer"


def test_acc_table_path(tiny4_path, tmp_path):
    table = tmp_path / "acc.table"
    rows = ["format_version 1"]
    for se in (2, 3, 4):
        for bs in (2, 8):
            rows.append(f"model {se} {bs} 8 {0.01 * se}")
    table.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "out")
    rc = main(base_args(tiny4_path, out, "--loss-source", "table", "--acc-table", str(table)))
    assert rc == EXIT_OK


def test_failed_write_rolls_back_outputs(tiny4_path, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    import bfpsearch.cli as cli

    real = cli._summary_text

    def boom(config, plan):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_summary_text", boom)
    config = RunConfig(model_path=tiny4_path, mc_bits=65536.0,
                       se_set=(2, 3), bs_set=(2, 8), out_dir=out)
    with pytest.raises(OSError):
        run(config)
    assert not os.path.exists(out) or os.listdir(out) == []
    monkeypatch.setattr(cli, "_summary_text", real)


def test_sample_files_resolve_relative_to_model(tmp_path):
    import numpy as np

    model_text = """format_version 1
model sampled
layer 1
  c_in 1
  c_out 1
  input 6 6
  kernel 3 3
  input_sample act.f32
  weight_sample w.f32
"""
    (tmp_path / "m.model").write_text(model_text)
    (tmp_path / "act.f32").write_bytes(np.linspace(-1, 1, 36).astype("<f4").tobytes())
    (tmp_path / "w.f32").write_bytes(np.linspace(-0.5, 0.5, 9).astype("<f4").tobytes())
    out = str(tmp_path / "out")
    rc = main(["--model", str(tmp_path / "m.model"), "--se", "2,3", "--bs", "2,8",
               "--mc", "65536", "--out", out])
    assert rc == EXIT_OK


def test_literal_reuse_flag(tiny4_path, tmp_path):
    # Capacity small enough to force tiled mappings, so the literal
    # accounting still produces nonzero traffic to normalize by.
    out = str(tmp_path / "out")
    rc = main(["--model", tiny4_path, "--qb", "8", "--mc", "4096",
               "--se", "2,3,4", "--bs", "2,8", "--out", out, "--no-first-load"])
    assert rc == EXIT_OK


def test_literal_reuse_with_ample_capacity_is_degenerate(tiny4_path, tmp_path):
    # With whole-layer residency the literal accounting moves zero bits for
    # every candidate, and the normalization is rejected as unusable.
    out = str(tmp_path / "out")
    rc = main(base_args(tiny4_path, out, "--no-first-load"))
    assert rc == EXIT_USAGE
