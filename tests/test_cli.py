import inspect
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from bfpsearch import accuracy, cli
from bfpsearch.cli import (
    DEFAULT_SWEEP_ALPHAS,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_OOM,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    build_parser,
    config_from_args,
    main,
    run,
    sweep_alpha,
)
from bfpsearch.model import load_model
from bfpsearch.search import CandidateSpace, SearchError, accuracy_rows, build_mapping_tables, search
from bfpsearch.tiling import LayerMappingTable


def base_args(tiny4_path, out_dir, *extra):
    return ["--model", tiny4_path, "--qb", "8", "--alpha", "0.2", "--mc", "65536",
            "--se", "2,3,4", "--bs", "2,8", "--out", out_dir, *extra]


def config_fields(argv) -> dict:
    """The RunConfig fields of ``argv``, parsed but not checked, with
    ``--sweep`` expanded as ``config_from_args`` expands it and no ``--jobs``
    falling back to the default."""
    values = vars(build_parser().parse_args(argv))
    if values.pop("sweep"):
        values["sweep_alphas"] = DEFAULT_SWEEP_ALPHAS
    return {**values, "jobs": RunConfig.jobs if values["jobs"] is None else values["jobs"]}


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
    ["--e-sram", "0"], ["--e-dram", "-5"], ["--e-sram", "nan"], ["--e-dram", "inf"], ["--jobs", "0"],
], ids="=".join)
def test_non_finite_or_nonpositive_values_are_usage_errors(tiny4_path, tmp_path, capsys, extra):
    rc = main(base_args(tiny4_path, str(tmp_path / "o"), *extra))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", [
    ["--seed", "-1"], ["--se", ""], ["--bs", ""], ["--se", "7", "--qb", "8"], ["--se", "-1"], ["--bs", "0"],
    ["--se", "3,3", "--bs", "8"], ["--bs", "2,8,2"],
], ids="=".join)
def test_negative_seed_or_empty_candidate_set_is_usage_error(tiny4_path, tmp_path, capsys, monkeypatch, extra):
    def no_tables(*args, **kwargs):
        raise AssertionError("mapping tables built for an invalid run")

    monkeypatch.setattr(cli, "build_mapping_tables", no_tables)
    for sweep in ([], ["--sweep"]):
        rc = main(base_args(tiny4_path, str(tmp_path / "o"), *extra, *sweep))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, code", [
    (["--acc-table", "model_rows.table"], EXIT_USAGE),
    (["--loss-source", "table"], EXIT_USAGE),
    (["--loss-source", "table", "--acc-table", ""], EXIT_USAGE),
    (["--scope", "layer", "--mode", "no_qat"], EXIT_USAGE),
    (["--scope", "layer", "--loss-source", "table", "--acc-table", "model_rows.table"], EXIT_IO),
    (["--loss-source", "table", "--acc-table", "empty.table"], EXIT_IO),
    (["--alpha", "nan", "--sweep"], EXIT_USAGE),
    # candidates.csv holds one model-scope run's candidates: a sweep would
    # drop it, and a layer-scope run would write only its header.
    (["--csv", "--sweep"], EXIT_USAGE),
    (["--csv", "--sweep-alpha", "0.2"], EXIT_USAGE),
    (["--csv", "--scope", "layer"], EXIT_USAGE),
    (["--jobs", "0"], EXIT_USAGE),
], ids=lambda v: "=".join(v) if isinstance(v, list) else str(v))
def test_invalid_run_fails_before_the_model_is_read(tiny4_path, tmp_path, capsys, monkeypatch, extra, code):
    (tmp_path / "model_rows.table").write_text("format_version 1\nmodel 3 8 8 0.1\n")
    (tmp_path / "empty.table").write_text("format_version 1\n")

    def unreachable(*args, **kwargs):
        raise AssertionError("model read or mapping tables built for an invalid run")

    monkeypatch.setattr(cli, "load_model", unreachable)
    monkeypatch.setattr(cli, "build_mapping_tables", unreachable)
    extra = [str(tmp_path / v) if v.endswith(".table") else v for v in extra]
    rc = main(base_args(tiny4_path, str(tmp_path / "o"), *extra))
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("usage error:" if code == EXIT_USAGE else "i/o error:")
    assert not (tmp_path / "o").exists()
    if code == EXIT_USAGE:  # a library caller's RunConfig fails the same way
        with pytest.raises((UsageError, SearchError)) as info:
            RunConfig(**config_fields(base_args(tiny4_path, str(tmp_path / "o"), *extra)))
        assert err == f"usage error: {info.value}\n"


@pytest.mark.parametrize("flag, kind", [("--se", "integer"), ("--bs", "integer"), ("--sweep-alpha", "float")])
def test_malformed_list_flag_prints_its_own_message(tiny4_path, tmp_path, capsys, flag, kind):
    rc = main(base_args(tiny4_path, str(tmp_path / "o"), flag, "x"))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: argument {flag}: expected a comma-separated {kind} list, got 'x'\n"
    assert not (tmp_path / "o").exists()


def test_repeated_accuracy_table_row_is_io_error(tiny4_path, tmp_path, capsys):
    table = tmp_path / "acc.table"
    table.write_text("format_version 1\nmodel 3 8 8 0.01\nmodel 3 8 8 0.90\n")
    rc = main(base_args(tiny4_path, str(tmp_path / "o"), "--loss-source", "table", "--acc-table", str(table)))
    assert rc == EXIT_IO
    assert "line 3: repeats the model row of line 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_repeated_format_version_is_io_error(tiny4_path, tmp_path, capsys):
    path = tmp_path / "twice.model"
    with open(tiny4_path, encoding="utf-8") as fh:
        path.write_text("format_version 1\n" + fh.read())
    rc = main(["--model", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO
    assert "format_version repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_defaults_come_from_run_config(tiny4_path, monkeypatch):
    monkeypatch.delenv("BFPSEARCH_OUT_DIR", raising=False)
    monkeypatch.delenv("BFPSEARCH_JOBS", raising=False)
    assert config_from_args(build_parser().parse_args(["--model", tiny4_path])) == RunConfig(model_path=tiny4_path)


def test_run_config_defaults_are_the_library_defaults(tiny4_path):
    config = RunConfig(model_path=tiny4_path)
    params, rows_params = inspect.signature(search).parameters, inspect.signature(accuracy_rows).parameters
    for name in ("alpha", "mode"):
        assert getattr(config, name) == params[name].default, name
    assert config.seed == rows_params["seed"].default
    # accuracy_rows scores the proxy unless it is given an accuracy table.
    assert (config.loss_source, rows_params["acc_table"].default) == ("proxy", None)
    space, energy = CandidateSpace(), params["energy_params"].default
    assert (config.total_bits, config.scope) == (space.total_bits, space.scope)
    assert (config.sram_pj_per_bit, config.dram_pj_per_bit) == (energy.sram_pj_per_bit, energy.dram_pj_per_bit)


@pytest.mark.parametrize("argv, field, value", [
    (["--qb", "16"], "total_bits", 16),
    (["--mc", "4096"], "mc_bits", 4096.0),
    (["--no-first-load"], "count_first_load", False),
    (["--csv"], "write_csv", True),
    (["--e-sram", "0.5"], "sram_pj_per_bit", 0.5),
    (["--sweep-alpha", "0.1,0.7"], "sweep_alphas", (0.1, 0.7)),
], ids=lambda v: "=".join(v) if isinstance(v, list) else None)
def test_each_flag_lands_in_its_field(tiny4_path, monkeypatch, argv, field, value):
    monkeypatch.delenv("BFPSEARCH_OUT_DIR", raising=False)
    monkeypatch.delenv("BFPSEARCH_JOBS", raising=False)
    config = config_from_args(build_parser().parse_args(["--model", tiny4_path, *argv]))
    assert config == RunConfig(model_path=tiny4_path, **{field: value})


def test_report_config_record_keys(tiny4_path, tmp_path):
    assert main(base_args(tiny4_path, str(tmp_path / "out"), "--jobs", "1", "--csv")) == EXIT_OK
    record = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert sorted(record) == [
        "acc_table_path", "alpha", "bs_set", "count_first_load", "dram_pj_per_bit", "loss_source", "mc_bits",
        "mode", "model_path", "qb", "scope", "se_set", "seed", "sram_pj_per_bit",
    ]
    assert (record["qb"], record["se_set"], record["bs_set"]) == (8, [2, 3, 4], [2, 8])


@pytest.mark.parametrize("value", ["abc", "2.5", "", "0", "-3"])
def test_non_integer_jobs_env_is_usage_error(tiny4_path, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("BFPSEARCH_JOBS", value)
    rc = main(base_args(tiny4_path, str(tmp_path / "o")))
    assert rc == EXIT_USAGE
    assert "BFPSEARCH_JOBS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_library_run_config_rejects_nonpositive_jobs(tiny4_path, tmp_path):
    with pytest.raises(UsageError, match=r"^--jobs \(or BFPSEARCH_JOBS\) must be >= 1, got -3$"):
        run(RunConfig(model_path=tiny4_path, out_dir=str(tmp_path / "o"), jobs=-3))
    assert not (tmp_path / "o").exists()


def test_infeasible_exit_code(tiny4_path, tmp_path):
    # 16 bits cannot hold even a unit tile set at the smallest bitwidths.
    rc = main(["--model", tiny4_path, "--mc", "16", "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE


def _fail(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize("target, name, exc", [
    # At build time, in the mapping table's lattice arrays.
    ("bfpsearch.tiling", "LayerMappingTable._build", MemoryError("Unable to allocate 6.95 GiB for an array")),
    # At proxy time, in a sample's block scan.
    ("bfpsearch.search", "scan_blocks", MemoryError("Unable to allocate 18.0 MiB for an array")),
    # A --jobs worker killed for its memory.
    ("bfpsearch.cli", "build_mapping_tables", BrokenProcessPool("a process in the pool was terminated abruptly")),
])
def test_out_of_memory_exit_code(tiny4_path, tmp_path, capsys, monkeypatch, target, name, exc):
    owner = sys.modules[target]
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, attr, _fail(exc))
    rc = main(base_args(tiny4_path, str(tmp_path / "o")))
    assert rc == EXIT_OOM
    err = capsys.readouterr().err
    assert err.startswith("out of memory:") and str(exc) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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
    argv = base_args(tiny4_path, str(tmp_path / "o"), "--scope", "layer", *sweep)
    rc = main(argv)
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--scope model" in err
    assert not (tmp_path / "o").exists()
    with pytest.raises(UsageError) as info:
        RunConfig(**config_fields(argv))
    assert err == f"usage error: {info.value}\n"
    config = RunConfig(model_path=tiny4_path, mc_bits=65536.0, se_set=(2, 3, 4), bs_set=(2, 8),
                       scope="layer", out_dir=str(tmp_path / "s"))
    with pytest.raises(UsageError, match="--scope model"):
        sweep_alpha(config, alphas=(0.2,))
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("fields, message", [
    ({"loss_source": "table"}, "--loss-source table needs an accuracy table"),
    ({"write_csv": True, "scope": "layer"}, "--csv writes the model-scope candidates"),
    ({"loss_source": "tabel"}, "--loss-source must be one of"),
], ids=["table-source-without-table", "csv-in-layer-scope", "misspelled-loss-source"])
def test_library_run_is_checked_like_the_command_line(tiny4_path, tmp_path, fields, message):
    with pytest.raises(UsageError, match=message):
        run(RunConfig(model_path=tiny4_path, out_dir=str(tmp_path / "o"), **fields))
    assert not (tmp_path / "o").exists()


def test_library_sweep_reads_the_configs_alphas(tiny4_path, tmp_path):
    config = RunConfig(model_path=tiny4_path, mc_bits=65536.0, se_set=(2, 3, 4), bs_set=(2, 8),
                       out_dir=str(tmp_path / "s"), sweep_alphas=(0.1,))
    _, _, rows = sweep_alpha(config)
    assert [row["alpha"] for row in rows] == [0.1]
    assert (tmp_path / "s" / "sweep.csv").read_text().count("\n") == 2  # header + 1 row


def test_cli_empty_sweep_alpha_uses_default_values(tiny4_path, tmp_path):
    rc = main(base_args(tiny4_path, str(tmp_path / "out"), "--sweep-alpha", ""))
    assert rc == EXIT_OK
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == list(DEFAULT_SWEEP_ALPHAS)


def test_sweep_alpha_with_no_values_is_usage_error(tiny4_path, tmp_path):
    # The CLI turns an empty --sweep-alpha into the defaults; a direct caller's empty list is an error.
    config = RunConfig(model_path=tiny4_path, out_dir=str(tmp_path / "s"))
    with pytest.raises(UsageError, match="at least one value"):
        sweep_alpha(config, ())
    assert not (tmp_path / "s").exists()


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


@pytest.mark.parametrize("extra, blocked, written", [
    ([], "summary.txt", ["plan.json", "report.json"]),
    (["--sweep"], "sweep.json", ["sweep.csv"]),
], ids=["run", "sweep"])
def test_failed_mid_write_removes_files_already_written(tiny4_path, tmp_path, capsys, extra, blocked, written):
    # A directory in the way of one output makes its open fail after the
    # outputs before it were written; those must not be left behind.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    rc = main(base_args(tiny4_path, str(out), *extra))
    assert rc == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error:")
    assert os.listdir(out) == [blocked]
    assert not any((out / name).exists() for name in written)


ONE_LAYER = "format_version 1\nmodel one\nlayer 1\n  c_in 3\n  c_out 8\n  input 8 8\n  kernel 3 3\n"


def test_dropped_model_input_warns_with_file_and_line(tmp_path, capsys):
    clean, typo = tmp_path / "one.model", tmp_path / "typo.model"
    clean.write_text(ONE_LAYER)
    typo.write_text(ONE_LAYER + "  strdie 2 2\nlayer 2\n  type pool\n")
    assert main(["--model", str(clean), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert capsys.readouterr().err == ""  # a derived output size is not a warning
    assert main(["--model", str(typo), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {typo}:8: ignoring unknown field 'strdie'",
        f"warning: {typo}:9: skipping non-conv layer 2",
    ]
    # The warnings reach stderr only: the reports are those of the clean model.
    assert (tmp_path / "a" / "plan.json").read_bytes() == (tmp_path / "b" / "plan.json").read_bytes()
    reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in "ab"]
    for report in reports:
        report["config"].pop("model_path")
    assert reports[0] == reports[1]


def test_renumbered_layers_stay_silent(tmp_path, capsys):
    path = tmp_path / "gap.model"
    path.write_text(ONE_LAYER + "layer 3\n  c_in 8\n  c_out 8\n  input 6 6\n  kernel 1 1\n")
    assert main(["--model", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mc, warned", [(607, True), (608, False)])
def test_capacity_without_a_32_bit_baseline_warns(tmp_path, capsys, mc, warned):
    # One layer's unit tiles hold 9 + 1 + 9 elements: 608 bits at 32 bits
    # each, and at most 19 * (8 + 6) bits for every 8-bit candidate.
    path = tmp_path / "one.model"
    path.write_text(ONE_LAYER)
    assert main(["--model", str(path), "--mc", str(mc), "--out", str(tmp_path / "o")]) == EXIT_OK
    err = capsys.readouterr().err
    summary = (tmp_path / "o" / "summary.txt").read_text()
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    if warned:
        assert err.splitlines() == [f"warning: layer 1: the 32-bit baseline has no mapping within {mc} bits; "
                                    "the report has no baseline or normalized energy"]
        assert "baseline_energy" not in report["plan"] and "32-bit" not in summary
    else:
        assert err == ""
        assert "baseline_energy" in report["plan"] and "32-bit" in summary


@pytest.mark.parametrize("extra", [[], ["--scope", "layer"], ["--sweep"]], ids="=".join)
def test_proxy_samples_come_before_the_first_table(tiny4_path, tmp_path, monkeypatch, extra):
    events = []
    module = sys.modules["bfpsearch.search"]
    samples, init = module.layer_samples, LayerMappingTable.__init__

    def building(self, *args, **kwargs):
        events.append("build")
        init(self, *args, **kwargs)

    monkeypatch.setattr(module, "layer_samples", lambda layer, **kw: events.append("samples") or samples(layer, **kw))
    monkeypatch.setattr(LayerMappingTable, "__init__", building)
    assert main(base_args(tiny4_path, str(tmp_path / "o"), *extra)) == EXIT_OK
    assert events == ["samples"] * 4 + ["build"] * 4  # tiny4's four layers have four shapes


def test_proxy_sweep_scores_each_cell_once(tmp_path, monkeypatch):
    path = tmp_path / "two.model"
    path.write_text(ONE_LAYER + "layer 2\n  c_in 8\n  c_out 16\n  input 8 8\n  kernel 1 1\n")
    calls = []
    qdq = accuracy.quantize_dequantize
    monkeypatch.setattr(accuracy, "quantize_dequantize", lambda *args, **kw: calls.append(args[1]) or qdq(*args, **kw))
    argv = ["--model", str(path), "--se", "2,3,4", "--bs", "2,8"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == EXIT_OK
    one_run = len(calls)
    calls.clear()
    assert main(argv + ["--sweep", "--out", str(tmp_path / "sweep")]) == EXIT_OK
    assert len(calls) == one_run == 2 * 2 * 6  # roles x layers x configs, for all seven alphas


def test_sweep_queries_receive_the_spaces_own_triples(tiny4_path, tmp_path, monkeypatch):
    spaces, received = [], []
    searching, query = cli.search, LayerMappingTable.query
    monkeypatch.setattr(cli, "search", lambda rows, *a, **kw: spaces.append(rows.space) or searching(rows, *a, **kw))
    monkeypatch.setattr(LayerMappingTable, "query", lambda self, specs, mc: received.append(specs) or query(self, specs, mc))
    assert main(base_args(tiny4_path, str(tmp_path / "o"), "--sweep")) == EXIT_OK
    assert len(spaces) == len(DEFAULT_SWEEP_ALPHAS) and all(space is spaces[0] for space in spaces)
    triples = [specs for specs in received if specs != (32.0, 32.0, 32.0)]  # the baseline's bits
    want = [specs for _ in DEFAULT_SWEEP_ALPHAS for _layer in range(4) for specs in spaces[0].specs]
    assert list(map(id, triples)) == list(map(id, want))


@pytest.mark.parametrize("which", ["model", "table"])
def test_input_that_is_not_utf8_is_io_error(tiny4_path, tmp_path, capsys, which):
    path = tmp_path / "elf.bin"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    inputs = {"model": ["--model", str(path)],
              "table": ["--model", tiny4_path, "--loss-source", "table", "--acc-table", str(path)]}
    assert main(inputs[which] + ["--out", str(tmp_path / "o")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: cannot read ") and str(path) in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", [
    ["--e-sram", "1e308", "--e-dram", "1e308"],  # the energy
    ["--e-sram", "1e308", "--e-dram", "1e308", "--sweep"],
    ["--alpha", "1e308", "--loss-source", "table"],  # the objective
    ["--e-sram", "1e-320", "--e-dram", "1e-320"],  # every energy rounds to 0 J
    ["--e-sram", "1e-320", "--e-dram", "1e-320", "--sweep"],
    ["--e-sram", "1e-320", "--e-dram", "1e-320", "--mc", "400"],  # the plan's, with no baseline
    ["--e-sram", "1e-320", "--e-dram", "1e-320", "--mc", "400", "--sweep"],
], ids=" ".join)
def test_results_that_overflow_float64_are_usage_errors(tiny4_path, tmp_path, capsys, extra):
    model = tiny4_path
    if "table" in extra:
        table = tmp_path / "acc.table"
        table.write_text("format_version 1\n" + "".join(f"model {se} {bs} 8 1e308\n" for se in (2, 3, 4) for bs in (2, 8)))
        extra = extra + ["--acc-table", str(table)]
    if "400" in extra:  # one layer, whose 32-bit baseline needs 608 bits and its 8-bit plans fewer than 400
        model = tmp_path / "one.model"
        model.write_text(ONE_LAYER)
    assert main(base_args(str(model), str(tmp_path / "o"), *extra)) == EXIT_USAGE
    if "--e-sram" in extra:
        says = f"--e-sram/--e-dram: the energy of layer 1 is {'0.0' if '1e-320' in extra else 'inf'} J"
    else:
        says = "the results overflow float64"
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {says}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_clamped_table_loss_warns_with_file_and_line(tiny4_path, tmp_path, capsys):
    table = tmp_path / "acc.table"
    rows = ["format_version 1"] + [f"model {se} {bs} 8 {0.01 * se}" for se in (2, 3, 4) for bs in (2, 8)]
    rows[3] = "model 3 2 8 -0.5"
    table.write_text("\n".join(rows) + "\n")
    rc = main(base_args(tiny4_path, str(tmp_path / "o"), "--loss-source", "table", "--acc-table", str(table)))
    assert rc == EXIT_OK
    assert capsys.readouterr().err == f"warning: {table}:4: negative loss -0.5 clamped to 0\n"


@pytest.mark.parametrize("scope", ["model", "layer"])
def test_table_rows_no_run_can_read_warn_with_file_and_line(tmp_path, capsys, scope):
    # Layer 2 is a skipped pool block, so the second conv keeps index 3 in
    # the table.  A row outside the run's grid (qb 16) stays silent.
    model = tmp_path / "m.model"
    model.write_text(ONE_LAYER + "layer 2\n  type pool\nlayer 3\n  c_in 8\n  c_out 8\n  input 8 8\n  kernel 1 1\n")
    table = tmp_path / "acc.table"
    table.write_text("format_version 1\nlayer:1 3 8 8 0.1\nlayer:2 3 8 8 0.2\nlayer:3 3 8 8 0.3\n"
                     "layer:1 3 8 16 0.4\nmodel 3 8 8 0.5\nlayer:7 3 8 8 0.6\n")
    argv = ["--model", str(model), "--loss-source", "table", "--acc-table", str(table),
            "--se", "3", "--bs", "8", "--scope", scope, "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK
    # In model scope the model row (line 6) shadows the layer rows of its
    # config (lines 2 and 4); line 7 keeps only its "names no layer" warning.
    shadowed = "row ignored: a model row gives this config's loss under --scope model"
    unread = {"model": [(2, f"layer:1 {shadowed}"), (4, f"layer:3 {shadowed}")],
              "layer": [(6, "model row ignored under --scope layer")]}[scope]
    unread += [(3, "layer:2 names no layer of the model; row ignored"),
               (7, "layer:7 names no layer of the model; row ignored")]
    assert capsys.readouterr().err.splitlines() == [f"warning: {model}:8: skipping non-conv layer 2",
                                                    *(f"warning: {table}:{n}: {text}" for n, text in sorted(unread))]


def test_import_leaves_the_process_pool_unimported():
    # The pool is imported only for --jobs > 1, so every other run skips its import cost.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys; sys.path.insert(0, sys.argv[1]); import bfpsearch.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def write_sampled_model(tmp_path, act, weight):
    """A one-layer model whose input and weight samples are files next to it."""
    (tmp_path / "m.model").write_text("""format_version 1
model sampled
layer 1
  c_in 1
  c_out 1
  input 6 6
  kernel 3 3
  input_sample act.f32
  weight_sample w.f32
""")
    (tmp_path / "act.f32").write_bytes(np.asarray(act, dtype="<f4").tobytes())
    (tmp_path / "w.f32").write_bytes(np.asarray(weight, dtype="<f4").tobytes())
    return ["--model", str(tmp_path / "m.model"), "--se", "2,3", "--bs", "2,8",
            "--mc", "65536", "--out", str(tmp_path / "out")]


def test_sample_files_resolve_relative_to_model(tmp_path):
    argv = write_sampled_model(tmp_path, np.linspace(-1, 1, 36), np.linspace(-0.5, 0.5, 9))
    assert main(argv) == EXIT_OK


def test_library_reads_the_sample_files_the_command_line_reads(tmp_path, monkeypatch):
    # Decoys of the right sizes in the working directory must not be read in their place.
    argv = write_sampled_model(tmp_path, np.linspace(-1, 1, 36), np.linspace(-0.5, 0.5, 9))
    assert main(argv) == EXIT_OK
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    write_sampled_model(cwd, np.linspace(-1, 1, 36) ** 3, np.linspace(0, 1, 9))
    monkeypatch.chdir(cwd)
    model = load_model(tmp_path / "m.model")
    rows = accuracy_rows(model, CandidateSpace(se_set=(2, 3), bs_set=(2, 8)), 65536.0)
    plan = search(rows, build_mapping_tables(model))
    assert cli._json_dumps(plan.to_record()) == (tmp_path / "out" / "plan.json").read_text()


@pytest.mark.parametrize("act, fault", [
    (np.r_[np.linspace(-1, 1, 35), np.nan], "NaN or inf"),
    (np.r_[np.linspace(-1, 1, 35), -np.inf], "NaN or inf"),
    (np.linspace(-1, 1, 35), "expected 36 float32 values"),
], ids=["nan", "inf", "short"])
def test_bad_sample_file_is_io_error_naming_layer_and_path(tmp_path, capsys, act, fault):
    argv = write_sampled_model(tmp_path, act, np.linspace(-0.5, 0.5, 9))
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert "layer 1 input sample" in err and "act.f32" in err and fault in err
    assert not (tmp_path / "out").exists()


def test_infeasible_run_reads_no_sample_file(tmp_path, capsys):
    argv = write_sampled_model(tmp_path, np.linspace(-1, 1, 36), np.linspace(-0.5, 0.5, 9))
    os.remove(tmp_path / "act.f32")
    argv[argv.index("--mc") + 1] = "8"
    assert main(argv) == EXIT_INFEASIBLE


def test_literal_reuse_flag(tiny4_path, tmp_path):
    # Capacity small enough to force tiled mappings, so the literal
    # accounting still produces nonzero traffic to normalize by.
    out = str(tmp_path / "out")
    rc = main(["--model", tiny4_path, "--qb", "8", "--mc", "4096",
               "--se", "2,3,4", "--bs", "2,8", "--out", out, "--no-first-load"])
    assert rc == EXIT_OK


def test_literal_reuse_with_ample_capacity_is_degenerate(tiny4_path, tmp_path, capsys):
    # With whole-layer residency the literal accounting moves zero bits for
    # every candidate, and the normalization is rejected as unusable; the
    # message names both ways out.
    out = str(tmp_path / "out")
    rc = main(base_args(tiny4_path, out, "--no-first-load"))
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "every candidate moves zero bits" in err
    assert "use a smaller memory capacity (--mc) or count first loads (drop --no-first-load)" in err
