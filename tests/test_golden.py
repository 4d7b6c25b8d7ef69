"""Golden guard: the benchmark's seed-0 stack20 outputs reproduce byte for byte.

The inputs come from ``perfbench/workloads.py`` and the expected SHA-256
digests from ``perfbench/golden.json``; both are only read.  The ResNet-50
workload is left to the benchmark, as it takes too long for this suite.
"""

import hashlib
import json
import os
import sys

import pytest

from bfpsearch import cli

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
sys.path.insert(0, PERFBENCH)
from workloads import WORKLOADS  # noqa: E402


def golden_digests() -> dict:
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["stack20-proxy", "stack20-sweep-table"])
def test_seed0_output_matches_golden_digest(tmp_path, name):
    workload = WORKLOADS[name]
    argv = workload.write_inputs(str(tmp_path), 0) + workload.flags() + ["--out", str(tmp_path / "out")]
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    if workload.sweep:
        code, outputs, _rows = cli.sweep_alpha(config, config.sweep_alphas)
        digested = outputs["sweep_csv"]
    else:
        code, outputs = cli.run(config)
        digested = outputs["plan"]
    assert code == cli.EXIT_OK
    with open(digested, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == golden_digests()[name]["0"]
