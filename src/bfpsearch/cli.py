"""Command-line entry point: load a model, search, emit reports.

Outputs per run: a plan file and a machine-readable report (both JSON with
sorted keys, so identical configs reproduce byte-identical files), a
human-readable summary, and optional CSVs for plotting candidate scatters and
alpha sweeps.

Exit codes: 0 success, 1 usage error, 2 infeasible search, 3 I/O error.
Environment overrides: BFPSEARCH_OUT_DIR, BFPSEARCH_JOBS.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from .accuracy import SYNTHETIC_SEED, AccuracyError, load_table
from .codec import CodecError
from .dm import MappingError
from .energy import EnergyError, EnergyParams
from .model import ModelFormatError, load_model
from .search import (
    DEFAULT_ALPHA,
    CandidateSpace,
    SearchError,
    build_mapping_tables,
    search,
)
from .tiling import InfeasibleError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

DEFAULT_MC_BITS = 2_097_152  # 256 KiB on-chip buffer
DEFAULT_SWEEP_ALPHAS = (0.015, 0.05, 0.15, 0.2, 0.25, 1.5, 3.0)


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    model_path: str
    total_bits: int = 8
    alpha: float = DEFAULT_ALPHA
    mc_bits: float = DEFAULT_MC_BITS
    mode: str = "full"
    loss_source: str = "proxy"
    acc_table_path: str | None = None
    se_set: tuple | None = None
    bs_set: tuple | None = None
    scope: str = "model"
    out_dir: str = "bfpsearch_out"
    seed: int = SYNTHETIC_SEED
    jobs: int = 1
    count_first_load: bool = True
    write_csv: bool = False
    sweep_alphas: tuple | None = None
    sram_pj_per_bit: float = 0.16
    dram_pj_per_bit: float = 20.0

    def to_record(self) -> dict:
        return {
            "model_path": self.model_path,
            "qb": self.total_bits,
            "alpha": self.alpha,
            "mc_bits": self.mc_bits,
            "mode": self.mode,
            "loss_source": self.loss_source,
            "acc_table_path": self.acc_table_path,
            "se_set": list(self.se_set) if self.se_set else None,
            "bs_set": list(self.bs_set) if self.bs_set else None,
            "scope": self.scope,
            "seed": self.seed,
            "count_first_load": self.count_first_load,
            "sram_pj_per_bit": self.sram_pj_per_bit,
            "dram_pj_per_bit": self.dram_pj_per_bit,
        }


def _json_dumps(record) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


class _Writer:
    """Collects output files and removes everything already written on failure."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.written = []

    def write(self, name: str, text: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.written.append(path)
        return path

    def rollback(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass
        self.written.clear()


def _candidate_space(config: RunConfig) -> CandidateSpace:
    kwargs = {"total_bits": config.total_bits, "scope": config.scope}
    if config.se_set:
        kwargs["se_set"] = config.se_set
    if config.bs_set:
        kwargs["bs_set"] = config.bs_set
    return CandidateSpace(**kwargs)


def _search_once(model, config: RunConfig, alpha: float, tables, samples_cache, acc_table):
    plan = search(
        model,
        _candidate_space(config),
        alpha=alpha,
        mc_bits=config.mc_bits,
        loss_source=config.loss_source,
        mode=config.mode,
        acc_table=acc_table,
        samples=samples_cache,
        tables=tables,
        energy_params=EnergyParams(config.sram_pj_per_bit, config.dram_pj_per_bit),
        count_first_load=config.count_first_load,
        jobs=config.jobs,
        seed=config.seed,
        sample_dir=os.path.dirname(os.path.abspath(config.model_path)),
    )
    return plan


def _summary_text(config: RunConfig, plan) -> str:
    out = io.StringIO()
    p = lambda *a: print(*a, file=out)
    p(f"model: {plan.model_name}   mode: {plan.mode}   scope: {plan.scope}")
    p(f"alpha: {plan.alpha}   qb: {config.total_bits}   capacity: {config.mc_bits:.0f} bits")
    p("")
    p(f"acc_loss:  {plan.acc_loss:.6f}")
    p(f"perf_loss: {plan.perf_loss:.6f}   (dm_sum {plan.dm_sum_bits:.1f} / dm_max {plan.dm_max_bits:.1f} bits)")
    p(f"objective: {plan.objective:.6f}")
    if plan.energy_report is not None:
        e = plan.energy_report
        p(f"energy:    {e.joules:.6e} J   (sram {e.sram_bits:.3e} bits, dram {e.dram_bits:.3e} bits)")
        if e.normalized is not None:
            p(f"           {e.normalized:.4f}x of the 32-bit '{e.baseline_name}' baseline")
    p("")
    p("layer  se  bs  qb  order          tiles(oc,ic,oh,ow,kh,kw)      dm_bits")
    for a in plan.assignments:
        order = ">".join(a.mapping.permutation[:4])
        tiles = ",".join(str(t) for t in a.mapping.tiles)
        p(f"{a.layer_index:>5}  {a.config[0]:>2}  {a.config[1]:>2}  {a.config[2]:>2}  {order:<13}  {tiles:<28}  {a.breakdown.dm_total_bits:.1f}")
    if plan.pareto:
        p("")
        p("pareto frontier (acc_loss, perf_loss):")
        for row in plan.pareto:
            p(f"  se={row['se']:>2} bs={row['bs']:>2}  acc={row['acc_loss']:.6f}  perf={row['perf_loss']:.6f}")
    return out.getvalue()


def _candidates_csv(plan) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["se", "bs", "qb", "feasible", "acc_loss", "perf_loss", "objective", "dm_sum_bits"])
    for row in plan.candidates:
        w.writerow([
            row["se"], row["bs"], row["qb"], int(row["feasible"]),
            row["acc_loss"], row["perf_loss"], row["objective"], row["dm_sum_bits"],
        ])
    return out.getvalue()


def run(config: RunConfig) -> tuple:
    """Execute load -> search -> energy and write the report files.

    Returns (exit_code, {output name -> path}).  Any failure removes files
    already written for this run.
    """
    model = load_model(config.model_path)
    acc_table = load_table(config.acc_table_path) if config.acc_table_path else None
    if config.loss_source == "table" and acc_table is None:
        raise UsageError("--loss-source table needs --acc-table")

    tables = build_mapping_tables(model, count_first_load=config.count_first_load, jobs=config.jobs)
    plan = _search_once(model, config, config.alpha, tables, None, acc_table)

    writer = _Writer(config.out_dir)
    try:
        outputs = {}
        outputs["plan"] = writer.write("plan.json", _json_dumps(plan.to_record()))
        report = {"config": config.to_record(), "plan": plan.to_record()}
        outputs["report"] = writer.write("report.json", _json_dumps(report))
        outputs["summary"] = writer.write("summary.txt", _summary_text(config, plan))
        if config.write_csv:
            outputs["candidates_csv"] = writer.write("candidates.csv", _candidates_csv(plan))
    except OSError:
        writer.rollback()
        raise
    return EXIT_OK, outputs


def sweep_alpha(config: RunConfig, alphas=None) -> tuple:
    """One search per trade-off factor; emits a CSV suited for plotting.

    Each row holds one (se, bs) pair, so the sweep needs model scope.
    """
    if config.scope != "model":
        raise UsageError("an alpha sweep writes one (se, bs) per alpha and needs --scope model")
    alphas = tuple(alphas if alphas is not None else DEFAULT_SWEEP_ALPHAS)
    if not alphas:
        raise UsageError("alpha sweep needs at least one value")
    model = load_model(config.model_path)
    acc_table = load_table(config.acc_table_path) if config.acc_table_path else None
    if config.loss_source == "table" and acc_table is None:
        raise UsageError("--loss-source table needs --acc-table")

    tables = build_mapping_tables(model, count_first_load=config.count_first_load, jobs=config.jobs)
    rows = []
    plans = []
    for alpha in alphas:
        plan = _search_once(model, config, alpha, tables, None, acc_table)
        plans.append(plan)
        first = plan.assignments[0]
        rows.append({
            "alpha": alpha,
            "acc_loss": plan.acc_loss,
            "perf_loss": plan.perf_loss,
            "objective": plan.objective,
            "energy_joules": plan.energy_report.joules if plan.energy_report else None,
            "se": first.config[0],
            "bs": first.config[1],
        })

    writer = _Writer(config.out_dir)
    try:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["alpha", "acc_loss", "perf_loss", "objective", "energy_joules", "se", "bs"])
        for r in rows:
            w.writerow([r["alpha"], r["acc_loss"], r["perf_loss"], r["objective"],
                        r["energy_joules"], r["se"], r["bs"]])
        outputs = {"sweep_csv": writer.write("sweep.csv", out.getvalue())}
        outputs["sweep"] = writer.write(
            "sweep.json", _json_dumps({"config": config.to_record(), "rows": rows})
        )
    except OSError:
        writer.rollback()
        raise
    return EXIT_OK, outputs, rows


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"expected a comma-separated float list, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bfpsearch", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--model", required=True, help="model description file")
    p.add_argument("--qb", type=int, default=8, choices=(8, 16), help="total bits per element")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="trade-off factor (default 0.2)")
    p.add_argument("--mc", type=float, default=DEFAULT_MC_BITS, help="on-chip capacity in bits")
    p.add_argument("--mode", default="full", choices=("full", "no_qat", "no_dm", "pareto"))
    p.add_argument("--loss-source", default="proxy", choices=("proxy", "table"))
    p.add_argument("--acc-table", default=None, help="measured accuracy table file")
    p.add_argument("--se", type=_int_list, default=None, help="shared-exponent candidates, e.g. 2,3,4")
    p.add_argument("--bs", type=_int_list, default=None, help="block-size candidates, e.g. 1,2,4,8")
    p.add_argument("--scope", default="model", choices=("model", "layer"))
    p.add_argument("--out", default=None, help="output directory (env BFPSEARCH_OUT_DIR)")
    p.add_argument("--seed", type=int, default=SYNTHETIC_SEED, help="seed for synthetic proxy samples")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers (env BFPSEARCH_JOBS)")
    p.add_argument("--csv", action="store_true", help="also write candidates.csv")
    p.add_argument("--no-first-load", action="store_true",
                   help="drop cold first loads of fully reused operands (literal reuse accounting)")
    p.add_argument("--sweep-alpha", type=_float_list, default=None, metavar="LIST",
                   help="run one search per alpha; empty string uses the default seven values")
    p.add_argument("--sweep", action="store_true", help="alpha sweep with the default seven values")
    p.add_argument("--e-sram", type=float, default=0.16, help="SRAM pJ/bit")
    p.add_argument("--e-dram", type=float, default=20.0, help="DRAM pJ/bit")
    return p


def config_from_args(args) -> RunConfig:
    out_dir = args.out or os.environ.get("BFPSEARCH_OUT_DIR") or "bfpsearch_out"
    try:
        jobs = args.jobs if args.jobs is not None else int(os.environ.get("BFPSEARCH_JOBS", "1"))
    except ValueError:
        raise UsageError(f"BFPSEARCH_JOBS must be an integer, got {os.environ['BFPSEARCH_JOBS']!r}")
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    if not (math.isfinite(args.mc) and args.mc > 0):
        raise UsageError(f"--mc must be finite and positive, got {args.mc}")
    if args.sweep_alpha is not None:
        sweep_alphas = args.sweep_alpha or DEFAULT_SWEEP_ALPHAS
    else:
        sweep_alphas = DEFAULT_SWEEP_ALPHAS if args.sweep else None
    for alpha in (args.alpha,) + (sweep_alphas or ()):
        if not (math.isfinite(alpha) and alpha >= 0):
            raise UsageError(f"alpha must be finite and >= 0, got {alpha}")
    try:
        EnergyParams(args.e_sram, args.e_dram)
    except EnergyError as exc:
        raise UsageError(f"--e-sram/--e-dram: {exc}")
    return RunConfig(
        model_path=args.model,
        total_bits=args.qb,
        alpha=args.alpha,
        mc_bits=args.mc,
        mode=args.mode,
        loss_source=args.loss_source,
        acc_table_path=args.acc_table,
        se_set=args.se,
        bs_set=args.bs,
        scope=args.scope,
        out_dir=out_dir,
        seed=args.seed,
        jobs=jobs,
        count_first_load=not args.no_first_load,
        write_csv=args.csv,
        sweep_alphas=sweep_alphas,
        sram_pj_per_bit=args.e_sram,
        dram_pj_per_bit=args.e_dram,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        if config.sweep_alphas is not None:
            code, outputs, rows = sweep_alpha(config, config.sweep_alphas)
            print(f"wrote {len(rows)} sweep rows:")
        else:
            code, outputs = run(config)
        for name, path in sorted(outputs.items()):
            print(f"  {name}: {path}")
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SearchError, MappingError, CodecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ModelFormatError, AccuracyError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
