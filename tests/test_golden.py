"""Golden guard: the benchmark's seed-0 outputs reproduce byte for byte.

All three workloads run: model-scope stack20 with the proxy, the stack20
alpha sweep over an accuracy table, and the layer-scope ResNet-50-shaped net,
whose 23 distinct shapes make it the largest set of mapping tables.  The
inputs come from ``perfbench/workloads.py`` and the expected SHA-256 digests
from ``perfbench/golden.json``; both are only read.  The sweep also guards
the mapping tables' memo: every pinned ``query`` call still happens, but the
survivors are weighed once per distinct (spec triple, capacity) and a
breakdown computed once per distinct (mapping, spec triple).
Every name the benchmark's tracer (``perfbench/spans.py``, also only read)
wraps must still resolve.
"""

import csv
import hashlib
import io
import json
import os
import sys

import pytest

from bfpsearch import cli, dm, tiling

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, PERFBENCH)
from spans import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def golden_digests() -> dict:
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_seed0(tmp_path, workload) -> dict:
    """One CLI operation of the workload on its seed-0 inputs; its output paths.

    The outputs no digest covers must agree with the digested one: the
    report's plan with ``plan.json``, and ``sweep.json``'s rows with
    ``sweep.csv``.
    """
    argv = workload.write_inputs(str(tmp_path), 0) + workload.flags() + ["--out", str(tmp_path / "out")]
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    if workload.sweep:
        code, outputs, _rows = cli.sweep_alpha(config, config.sweep_alphas)
        with open(outputs["sweep_csv"], encoding="utf-8", newline="") as fh:
            sweep_csv = fh.read()
        rendered = io.StringIO()
        writer = csv.DictWriter(rendered, sweep_csv.splitlines()[0].split(","), lineterminator="\n")
        writer.writeheader()
        writer.writerows(read_json(outputs["sweep"])["rows"])
        assert rendered.getvalue() == sweep_csv
    else:
        code, outputs = cli.run(config)
        assert read_json(outputs["report"])["plan"] == read_json(outputs["plan"])
    assert code == cli.EXIT_OK
    return outputs


@pytest.mark.parametrize("name", ["stack20-proxy", "stack20-sweep-table", "resnet50-layer-proxy"])
def test_seed0_output_matches_golden_digest(tmp_path, name):
    workload = WORKLOADS[name]
    outputs = run_seed0(tmp_path, workload)
    digested = outputs["sweep_csv" if workload.sweep else "plan"]
    with open(digested, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == golden_digests()[name]["0"]


def test_sweep_weighs_each_distinct_query_once(tmp_path, monkeypatch):
    # The sweep queries its 820-cell grid (20 layers x 40 configs + 20
    # baselines) once per alpha: 5,740 calls, the count perfbench pins.  Only
    # 246 are distinct (6 shapes x 41 spec triples).  Each weighs its table's
    # head twice (footprint, traffic), and the one whose head cannot prove
    # its winner weighs every survivor twice more; 24 winners are distinct.
    # The feasibility test weighs a shape's three least footprints once per
    # config before any table exists (6 x 40) and once per distinct query.
    calls = {"query": 0, "weigh": 0, "dm_layer": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(tiling.LayerMappingTable, "query", counting("query", tiling.LayerMappingTable.query))
    monkeypatch.setattr(tiling, "weigh", counting("weigh", tiling.weigh))
    monkeypatch.setattr(dm, "dm_layer", counting("dm_layer", dm.dm_layer))
    workload = WORKLOADS["stack20-sweep-table"]
    run_seed0(tmp_path, workload)
    assert workload.query_calls == 5740
    assert calls == {"query": 5740, "weigh": 2 * 246 + 2 * 1 + 6 * 40 + 246, "dm_layer": 24}


def test_benchmark_tracer_finds_every_name_it_wraps():
    # The tracer looks up each name it wraps with getattr, so a rename or a
    # deletion fails here, not only in a traced benchmark run.
    before = (cli.search, tiling.LayerMappingTable.query)
    undo = install(Tracer())
    try:
        assert cli.search is not before[0]
        assert tiling.LayerMappingTable.query is not before[1]
    finally:
        undo()
    assert (cli.search, tiling.LayerMappingTable.query) == before
