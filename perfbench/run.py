"""bfpsearch benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload stack20-proxy --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One operation is one CLI invocation in-process (argument parsing,
mapping tables, search, energy, report files) with ``--jobs 1``.  Operations
repeat while the next one is expected to end within ``--seconds``.  Each one
is checked after its clock stops: exit code, golden digest of ``plan.json`` / ``sweep.csv`` (for the
seeds in ``golden.json``), and every chosen mapping's traffic against the
brute-force oracle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and prints per-layer self times and counts
per operation (see ``spans.py``), plus the tracing overhead.  The last line
of standard output is one JSON object; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build")

sys.path.insert(0, HERE)
from spans import Tracer, install, layer_metrics  # noqa: E402
from workloads import SWEEP_ALPHAS, WORKLOADS, acc_table, output_volume  # noqa: E402

SETUP_REPEATS = 5
MAX_OPERATIONS = 200
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bfpsearch.cli; print(time.perf_counter() - t)"
)


class CheckError(AssertionError):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def import_program():
    """Import bfpsearch from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "bfpsearch")):
        raise SystemExit(f"perfbench: no bfpsearch sources under {SRC}")
    sys.path.insert(0, SRC)
    import bfpsearch.cli

    if not os.path.abspath(bfpsearch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported bfpsearch from {bfpsearch.__file__}, not {SRC}")
    return bfpsearch.cli


def setup_once(workload, seed, directory) -> tuple:
    """Time a fresh interpreter's ``import bfpsearch`` plus writing the inputs."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    os.makedirs(directory)
    start = time.perf_counter()
    input_args = workload.write_inputs(directory, seed)
    return float(probe.stdout) + time.perf_counter() - start, input_args


def operation(cli, argv) -> dict:
    """One CLI invocation; returns its output paths or raises."""
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    if config.sweep_alphas is not None:
        code, outputs, _rows = cli.sweep_alpha(config, config.sweep_alphas)
    else:
        code, outputs = cli.run(config)
    if code != 0:
        raise CheckError(f"exit code {code}")
    return outputs


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digested_output(workload, outputs) -> str:
    return outputs["sweep_csv" if workload.sweep else "plan"]


def check_plan(workload, record):
    """Layer records are well formed and their traffic matches the oracle."""
    from bfpsearch.codec import BfpSpec
    from bfpsearch.dm import OPERANDS, Mapping
    from bfpsearch.model import ConvLayer
    from bfpsearch.oracle import simulate

    layers = record["layers"]
    if [row["layer"] for row in layers] != list(range(1, len(workload.shapes) + 1)):
        raise CheckError(f"plan covers layers {[row['layer'] for row in layers]}")
    configs = {(row["se"], row["bs"], row["qb"]) for row in layers}
    if not configs <= set(workload.configs):
        raise CheckError(f"configs {sorted(configs)} outside the candidate grid")
    if workload.scope == "model" and len(configs) != 1:
        raise CheckError(f"model scope chose {len(configs)} configs")
    for row, (c_in, c_out, size, k, stride, pad) in zip(layers, workload.shapes):
        layer = ConvLayer(row["layer"], c_in, c_out, size, size, k, k, stride, stride, pad, pad)
        mapping = Mapping(tuple(row["permutation"]), tuple(row["tiles"]))
        specs = tuple(BfpSpec(row["qb"], row["se"], row["bs"], role) for role in OPERANDS)
        sim = simulate(layer, mapping, specs, mc_bits=workload.mc_bits)  # CapacityError if it does not fit
        if sim.total_bits != row["dm_bits"]:
            raise CheckError(f"layer {row['layer']}: dm_bits {row['dm_bits']} != oracle {sim.total_bits}")
    dm_sum = sum(row["dm_bits"] for row in layers)
    if not math.isclose(dm_sum, record["dm_sum_bits"], rel_tol=1e-9):
        raise CheckError(f"dm_sum_bits {record['dm_sum_bits']} != sum of layers {dm_sum}")


def check_sweep(workload, outputs, plans, seed):
    """Sweep rows agree with their plans and with the generated accuracy table."""
    with open(outputs["sweep_csv"], encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    if len(rows) != len(SWEEP_ALPHAS) or len(plans) != len(SWEEP_ALPHAS):
        raise CheckError(f"{len(rows)} sweep rows, {len(plans)} plans for {len(SWEEP_ALPHAS)} alphas")
    table = acc_table(workload.shapes, workload.configs, seed)
    weights = [output_volume(s) for s in workload.shapes]
    for alpha, row, plan in zip(SWEEP_ALPHAS, rows, plans):
        se, bs, qb = plan["layers"][0]["se"], plan["layers"][0]["bs"], plan["layers"][0]["qb"]
        if float(row[0]) != alpha or plan["alpha"] != alpha or (int(row[5]), int(row[6])) != (se, bs):
            raise CheckError(f"sweep row {row} does not match its plan")
        acc = sum(w * table[(i, se, bs, qb)] for i, w in enumerate(weights, start=1)) / sum(weights)
        if not math.isclose(float(row[1]), acc, rel_tol=1e-12):
            raise CheckError(f"alpha {alpha}: acc_loss {row[1]} != table composition {acc}")
        if not math.isclose(float(row[3]), float(row[1]) + alpha * float(row[2]), rel_tol=1e-12):
            raise CheckError(f"alpha {alpha}: objective {row[3]} != acc + alpha * perf")


def check_outputs(workload, seed, outputs, plans, golden):
    expected = golden.get(workload.name, {}).get(str(seed))
    if expected is not None:
        digest = file_digest(digested_output(workload, outputs))
        if digest != expected:
            raise CheckError(f"digest {digest} != golden {expected}")
    if workload.sweep:
        plans = [plan.to_record() for plan in plans]
        check_sweep(workload, outputs, plans, seed)
    else:
        with open(outputs["plan"], encoding="utf-8") as fh:
            plans = [json.load(fh)]
    for record in plans:
        check_plan(workload, record)


def check_counts(workload, metrics, earlier) -> dict:
    """Traced counts equal the seed commit's and repeat exactly between
    operations, so a wrapper that misses a call site fails loudly."""
    got = (metrics["tiling.query_calls"], metrics["codec.qdq_calls"])
    want = (workload.query_calls, workload.qdq_calls)
    if got != want:
        raise CheckError(f"traced (query, qdq) calls {got} != expected {want}")
    for name, value in metrics.items():
        if earlier and not name.endswith("_s") and value != earlier[0][name]:
            raise CheckError(f"{name} = {value} differs from the first traced operation's {earlier[0][name]}")
    return metrics


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def capture_plans(cli, plans):
    """Keep every plan ``cli`` gets from ``search``, for the sweep's oracle check."""
    search = cli.search

    def capturing(*args, **kwargs):
        plan = search(*args, **kwargs)
        plans.append(plan)
        return plan

    cli.search = capturing


def measure(cli, workload, seed, seconds, traced, work):
    golden = load_golden()
    setups = []
    for i in range(SETUP_REPEATS):
        seconds_i, input_args = setup_once(workload, seed, os.path.join(work, f"inputs{i}"))
        setups.append(seconds_i)
    base_argv = input_args + workload.flags()

    plans = []
    capture_plans(cli, plans)
    tracer = Tracer()
    times = {False: [], True: []}
    per_op_layers = []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < MAX_OPERATIONS:
        use_trace = traced and attempted % 2 == 1  # untraced and traced operations alternate
        out_dir = os.path.join(work, f"out{attempted}")
        attempted += 1
        plans.clear()
        undo = install(tracer) if use_trace else None
        op = tracer.wrap("cli", operation) if use_trace else operation
        t0 = time.perf_counter()
        try:
            try:
                outputs = op(cli, base_argv + ["--out", out_dir])
            finally:
                elapsed = time.perf_counter() - t0
                times[use_trace].append(elapsed)
                if undo is not None:
                    undo()
            check_outputs(workload, seed, outputs, plans, golden)
            if use_trace:
                per_op_layers.append(check_counts(workload, layer_metrics(tracer), per_op_layers))
            log(f"op {attempted}: {elapsed:.3f} s{' (traced)' if use_trace else ''} ok")
        except Exception:
            failed += 1
            log(f"op {attempted}: FAILED\n{traceback.format_exc()}")
        finally:
            if use_trace:
                tracer.spans.clear()
            shutil.rmtree(out_dir, ignore_errors=True)
        # Stop before an operation that would end past the measuring window.
        next_end = time.perf_counter() - start + elapsed
        if next_end > seconds and (not traced or times[True]):
            break

    all_times = times[False] + times[True]
    if traced:
        metrics = {name: statistics.median(m[name] for m in per_op_layers)
                   for name in (per_op_layers[0] if per_op_layers else ())}
        if times[True] and times[False]:
            metrics["trace.overhead_s"] = statistics.median(times[True]) - statistics.median(times[False])
    else:
        run_s = statistics.median(all_times)
        metrics = {
            "run_s": run_s,
            "evals_per_s": workload.evals / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
    has_golden = str(seed) in golden.get(workload.name, {})
    log(f"{workload.name} seed {seed}: {attempted} operations, {failed} failed, "
        f"times {[round(t, 3) for t in all_times]}, setup {[round(s, 4) for s in setups]}, "
        f"{'golden digest checked' if has_golden else 'no golden digest for this seed'}")
    return attempted, failed, metrics


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"))  # first match wins


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=WORK_DIR)
    try:
        attempted, failed, metrics = measure(cli, workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
