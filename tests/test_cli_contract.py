"""The command line's exit-code contract, end to end.

One seeded property test drives ``cli.main`` in-process over random small
models, accuracy tables, sample files and flags, extremes and malformed
input included.  A failed run exits with a documented code, prints exactly
one non-warning stderr line carrying that code's prefix and leaves no output
directory.  A run that exits 0 prints only warnings on stderr and writes
JSON in the canonical form, no infinity or NaN in any file, and finite
positive energies.  No run starts a process: ``--jobs`` is at most 1.

Hypothesis draws one seed per run and a ``random.Random`` on that seed draws
the run, so every example is an independent draw: the rare conjunctions the
contract's past defects needed (a table of huge losses on a run that is
otherwise fine, say) come up at their own rate rather than at the rate of
whole examples Hypothesis repeats.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import tempfile
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bfpsearch.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_OOM, EXIT_USAGE, main
from bfpsearch.search import DEFAULT_BS_SET, default_se_set

PREFIXES = {
    EXIT_USAGE: "usage error: ",
    EXIT_INFEASIBLE: "infeasible: ",
    EXIT_IO: "i/o error: ",
    EXIT_OOM: "out of memory: ",
}
NOT_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)
# Each flag's usual values, extremes among them, then its odd (invalid)
# ones, drawn one time in sixteen.
FLAGS = [
    ("--qb", ["8", "16"], []),
    ("--se", ["2,3", "3", "4,6", "2,3,4"], ["7", "9", "-1", "3,3", ""]),
    ("--bs", ["2,8", "1", "4", "1,48"], ["0", "-2", "2,8,2", ""]),
    ("--mc", ["16", "64", "400", "4096", "65536"], ["1e308", "0", "nan"]),
    ("--alpha", ["0", "0.2", "3", "1e308"], ["-1", "inf"]),
    ("--mode", ["full", "no_qat", "no_dm", "pareto"], []),
    ("--scope", ["model", "layer"], []),
    ("--seed", ["0", "7"], ["-1"]),
    ("--jobs", ["1"], ["0"]),
]
ENERGIES = [("0.16", "20"), ("1e-3", "0.5"), ("1e-320", "1e-320"), ("1e308", "1e308")]
ODD_ENERGIES = [("1e-30", "1e-320"), ("0", "20"), ("0.16", "-5"), ("nan", "20")]


def usual_or_odd(rng, usual, odd):
    return rng.choice(odd if odd and rng.random() < 1 / 16 else usual)


def sample_file(rng, volume):
    """(whether the file is left missing, its float32 bytes): the right
    size or one element off, ReLU-like zeros, a NaN."""
    fault = usual_or_odd(rng, ["none"], ["short", "long", "nan", "missing"])
    data = np.random.default_rng(rng.getrandbits(32)).standard_normal(volume + {"short": -1, "long": 1}.get(fault, 0))
    if rng.random() < 0.5:
        data = np.maximum(data, 0.0)
    if fault == "nan" and data.size:
        data[rng.randrange(data.size)] = np.nan
    return fault == "missing", data.astype("<f4").tobytes()


def model_file(rng):
    """(model bytes, {sample file name: bytes}, block count) of 1-3 small
    blocks: strides beyond the kernel, 1x1 maps, pool/fc blocks, group counts
    that need not divide, sample files, and sometimes one malformed line,
    an unknown field or bytes that are not UTF-8."""
    lines = ["format_version 1", "model fuzz"]
    samples = {}
    blocks = rng.randint(1, 3)
    for index in range(1, blocks + 1):
        c_in, c_out = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 4, 6])
        i_h, i_w = rng.randint(1, 6), rng.randint(1, 6)
        stride, pad = rng.randint(1, 4), rng.randint(0, 1)
        k = usual_or_odd(rng, [min(k, i_h + 2 * pad, i_w + 2 * pad) for k in (1, 2, 3)], [3])
        groups = usual_or_odd(rng, [1, 1, math.gcd(c_in, c_out)], [2, 3])
        lines += [f"layer {index}", f"  c_in {c_in}", f"  c_out {c_out}", f"  input {i_h} {i_w}",
                  f"  kernel {k}", f"  stride {stride}", f"  pad {pad}"]
        if groups > 1:
            lines.append(f"  groups {groups}")
        if rng.random() < 1 / 6:
            lines.append(f"  type {rng.choice(['pool', 'fc'])}")
        volumes = {"input": c_in * i_h * i_w}
        if c_in % groups == 0:
            volumes["weight"] = c_out * (c_in // groups) * k * k
        for role, volume in volumes.items():
            if rng.random() < 1 / 4:
                name = f"l{index}_{role}.f32"
                missing, data = sample_file(rng, volume)
                if not missing:
                    samples[name] = data
                lines.append(f"  {role}_sample {name}")
    fault = rng.choice(["none"] * 15 + ["extra", "unknown", "repeat", "version", "bytes"])
    if fault == "extra":
        lines[rng.randrange(2, len(lines))] += " junk"
    elif fault == "unknown":
        lines.append("  strdie 2 2")
    elif fault == "repeat":
        lines.append(lines[-1])
    elif fault == "version":
        lines.insert(0, "format_version 1")
    text = ("\n".join(lines) + "\n").encode()
    return b"\377\376" + text if fault == "bytes" else text, samples, blocks


def flag_value(flags, name, default):
    return flags[flags.index(name) + 1] if name in flags else default


def grid_of(flags) -> list:
    """The (se, bs, qb) configs that ``flags`` select, as far as they parse."""
    qb = int(flag_value(flags, "--qb", "8"))
    se = flag_value(flags, "--se", ",".join(map(str, default_se_set(qb))))
    bs = flag_value(flags, "--bs", ",".join(map(str, DEFAULT_BS_SET)))
    return [(s, b, qb) for s in se.split(",") if s for b in bs.split(",") if b]


def table_file(rng, blocks, grid):
    """Accuracy-table bytes for the configs of ``grid``: one row per layer,
    model rows or both, every loss 1e308 in a third of the tables;
    sometimes a hole, a repeated row, a NaN or extra loss, or bytes that
    are not UTF-8."""
    layer_rows = [f"layer:{i}" for i in range(1, blocks + 1)]
    scopes = rng.choice([layer_rows, layer_rows, ["model", *layer_rows], ["model"]])
    huge = rng.random() < 1 / 3
    rows = ["format_version 1"]
    for se, bs, qb in grid:
        loss = "1e308" if huge else rng.choice(["0.01", "0.5", "0", "1e-300", "-0.1"])
        rows += [f"{scope} {se} {bs} {qb} {loss}" for scope in scopes]
    fault = usual_or_odd(rng, ["none"], ["hole", "repeat", "nan", "extra", "bytes"])
    if fault in ("hole", "repeat", "nan", "extra") and len(rows) > 1:
        i = rng.randrange(1, len(rows))
        if fault == "hole":
            del rows[i]
        elif fault == "repeat":
            rows.append(rows[i])
        else:
            rows[i] = rows[i].rsplit(" ", 1)[0] + " nan" if fault == "nan" else rows[i] + " 0.3"
    text = ("\n".join(rows) + "\n").encode()
    return b"\377" + text if fault == "bytes" else text


def draw_run(rng):
    """(model bytes, samples, table bytes or None, flags after --model)."""
    model, samples, blocks = model_file(rng)
    flags = []
    for flag, usual, odd in FLAGS:
        if rng.random() < 1 / 3:
            flags += [flag, usual_or_odd(rng, usual, odd)]
    if rng.random() < 1 / 3:  # both per-bit energies, so that extremes meet
        sram, dram = usual_or_odd(rng, ENERGIES, ODD_ENERGIES)
        flags += ["--e-sram", sram, "--e-dram", dram]
    for flag in ("--no-first-load", "--csv", "--sweep"):
        if rng.random() < 1 / 8:
            flags.append(flag)
    if rng.random() < 1 / 8:
        flags += ["--sweep-alpha", usual_or_odd(rng, ["0.1,3", ""], ["0.2,1e308", "0.1,nan"])]
    table = None
    if rng.random() < 1 / 2:
        table = table_file(rng, blocks, grid_of(flags))
        flags += ["--acc-table", "acc.table"] + usual_or_odd(rng, [["--loss-source", "table"]], [[]])
    return model, samples, table, flags


def check_energy(record):
    joules = [record["joules"], *(row["joules"] for row in record["per_layer"])]
    assert all(math.isfinite(j) and j > 0 for j in joules), joules


@settings(settings.get_profile("seeded"), max_examples=250)
@given(st.integers(0, 2**32 - 1))
def test_every_run_keeps_the_exit_code_contract(seed):
    model, samples, table, flags = draw_run(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        for name in ("BFPSEARCH_OUT_DIR", "BFPSEARCH_JOBS"):
            os.environ.pop(name, None)
        for name, data in [("fuzz.model", model), ("acc.table", table), *samples.items()]:
            if data is not None:
                with open(os.path.join(tmp, name), "wb") as fh:
                    fh.write(data)
        out = os.path.join(tmp, "out")
        argv = ["--model", os.path.join(tmp, "fuzz.model"), "--out", out,
                *(os.path.join(tmp, f) if f == "acc.table" else f for f in flags)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        event(f"exit {code}")
        errors = [line for line in stderr.getvalue().splitlines() if not line.startswith("warning: ")]
        if code != EXIT_OK:
            assert code in PREFIXES, (code, argv)
            assert len(errors) == 1 and errors[0].startswith(PREFIXES[code]), (errors, argv)
            assert not os.path.exists(out), argv
            return
        assert errors == [], (errors, argv)
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                text = fh.read()
            assert not NOT_FINITE.search(text), (name, argv)
            if name.endswith(".json"):
                record = json.loads(text)
                assert text == json.dumps(record, sort_keys=True, indent=2) + "\n", (name, argv)
                if name == "plan.json":
                    check_energy(record["energy"])
                elif name == "report.json":
                    check_energy(record["plan"]["energy"])
                elif name == "sweep.json":
                    assert all(math.isfinite(row["energy_joules"]) and row["energy_joules"] > 0
                               for row in record["rows"]), argv
