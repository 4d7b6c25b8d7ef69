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
import os
import sys
from dataclasses import dataclass

from .accuracy import SYNTHETIC_SEED, AccuracyError, load_table
from .codec import VALID_TOTAL_BITS, CodecError
from .dm import MappingError
from .energy import EnergyError, EnergyParams
from .model import ModelFormatError, load_model
from .search import (
    DEFAULT_ALPHA,
    LOSS_SOURCES,
    MODES,
    SCOPES,
    CandidateSpace,
    SearchError,
    build_mapping_tables,
    check_search_args,
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
    sram_pj_per_bit: float = EnergyParams.sram_pj_per_bit
    dram_pj_per_bit: float = EnergyParams.dram_pj_per_bit

    def to_record(self) -> dict:
        return {
            "model_path": self.model_path,
            "qb": self.total_bits,
            "alpha": self.alpha,
            "mc_bits": self.mc_bits,
            "mode": self.mode,
            "loss_source": self.loss_source,
            "acc_table_path": self.acc_table_path,
            "se_set": list(self.se_set) if self.se_set is not None else None,
            "bs_set": list(self.bs_set) if self.bs_set is not None else None,
            "scope": self.scope,
            "seed": self.seed,
            "count_first_load": self.count_first_load,
            "sram_pj_per_bit": self.sram_pj_per_bit,
            "dram_pj_per_bit": self.dram_pj_per_bit,
        }


def _json_dumps(record) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _write(out_dir: str, files: dict) -> dict:
    """Write ``files`` ({output name: (file name, text)}), all rendered
    beforehand, into ``out_dir``; return {output name: path}.  On an OSError
    the files already written are removed before it propagates."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    try:
        for key, (name, text) in files.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                paths[key] = path
                fh.write(text)
    except OSError:
        for path in paths.values():
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return paths


def _plans(config: RunConfig, alphas) -> list:
    """Load and check the inputs, build the mapping tables once and search
    once per alpha; return the plans in the order of ``alphas``.  Every
    argument check, and a format the codec cannot hold, fails before the
    model is read."""
    space = CandidateSpace(config.total_bits, config.se_set, config.bs_set, config.scope)
    acc_table = load_table(config.acc_table_path) if config.acc_table_path else None
    for alpha in (config.alpha, *alphas):  # a sweep's config record holds --alpha too
        check_search_args(space, alpha, config.mc_bits, config.loss_source, config.mode, acc_table, config.seed)
    model = load_model(config.model_path)
    tables = build_mapping_tables(model, count_first_load=config.count_first_load, jobs=config.jobs)
    return [
        search(
            model,
            space,
            alpha=alpha,
            mc_bits=config.mc_bits,
            loss_source=config.loss_source,
            mode=config.mode,
            acc_table=acc_table,
            tables=tables,
            energy_params=EnergyParams(config.sram_pj_per_bit, config.dram_pj_per_bit),
            seed=config.seed,
            sample_dir=os.path.dirname(os.path.abspath(config.model_path)),
        )
        for alpha in alphas
    ]


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

    Returns (exit_code, {output name -> path}).  A failed write leaves no
    output file of this run behind.
    """
    (plan,) = _plans(config, (config.alpha,))
    record = plan.to_record()
    files = {
        "plan": ("plan.json", _json_dumps(record)),
        "report": ("report.json", _json_dumps({"config": config.to_record(), "plan": record})),
        "summary": ("summary.txt", _summary_text(config, plan)),
    }
    if config.write_csv:
        files["candidates_csv"] = ("candidates.csv", _candidates_csv(plan))
    return EXIT_OK, _write(config.out_dir, files)


def sweep_alpha(config: RunConfig, alphas=None) -> tuple:
    """One search per trade-off factor; emits a CSV suited for plotting.

    Each row holds one (se, bs) pair, so the sweep needs model scope.
    """
    if config.scope != "model":
        raise UsageError("an alpha sweep writes one (se, bs) per alpha and needs --scope model")
    alphas = tuple(alphas if alphas is not None else DEFAULT_SWEEP_ALPHAS)
    if not alphas:
        raise UsageError("alpha sweep needs at least one value")
    rows = [
        {
            "alpha": alpha,
            "acc_loss": plan.acc_loss,
            "perf_loss": plan.perf_loss,
            "objective": plan.objective,
            "energy_joules": plan.energy_report.joules if plan.energy_report else None,
            "se": plan.assignments[0].config[0],
            "bs": plan.assignments[0].config[1],
        }
        for alpha, plan in zip(alphas, _plans(config, alphas))
    ]
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    outputs = _write(config.out_dir, {
        "sweep_csv": ("sweep.csv", out.getvalue()),
        "sweep": ("sweep.json", _json_dumps({"config": config.to_record(), "rows": rows})),
    })
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
    p.add_argument("--qb", type=int, default=8, choices=VALID_TOTAL_BITS, help="total bits per element")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="trade-off factor (default 0.2)")
    p.add_argument("--mc", type=float, default=DEFAULT_MC_BITS, help="on-chip capacity in bits")
    p.add_argument("--mode", default="full", choices=MODES)
    p.add_argument("--loss-source", default="proxy", choices=LOSS_SOURCES)
    p.add_argument("--acc-table", default=None, help="measured accuracy table file")
    p.add_argument("--se", type=_int_list, default=None, help="shared-exponent candidates, e.g. 2,3,4")
    p.add_argument("--bs", type=_int_list, default=None, help="block-size candidates, e.g. 1,2,4,8")
    p.add_argument("--scope", default="model", choices=SCOPES)
    p.add_argument("--out", default=None, help="output directory (env BFPSEARCH_OUT_DIR)")
    p.add_argument("--seed", type=int, default=SYNTHETIC_SEED, help="seed for synthetic proxy samples")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers (env BFPSEARCH_JOBS)")
    p.add_argument("--csv", action="store_true", help="also write candidates.csv")
    p.add_argument("--no-first-load", action="store_true",
                   help="drop cold first loads of fully reused operands (literal reuse accounting)")
    p.add_argument("--sweep-alpha", type=_float_list, default=None, metavar="LIST",
                   help="run one search per alpha; empty string uses the default seven values")
    p.add_argument("--sweep", action="store_true", help="alpha sweep with the default seven values")
    p.add_argument("--e-sram", type=float, default=EnergyParams.sram_pj_per_bit, help="SRAM pJ/bit")
    p.add_argument("--e-dram", type=float, default=EnergyParams.dram_pj_per_bit, help="DRAM pJ/bit")
    return p


def config_from_args(args) -> RunConfig:
    out_dir = args.out or os.environ.get("BFPSEARCH_OUT_DIR") or "bfpsearch_out"
    try:
        jobs = args.jobs if args.jobs is not None else int(os.environ.get("BFPSEARCH_JOBS", "1"))
    except ValueError:
        raise UsageError(f"BFPSEARCH_JOBS must be an integer, got {os.environ['BFPSEARCH_JOBS']!r}")
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    if args.acc_table is not None and args.loss_source != "table":
        raise UsageError("--acc-table is read only with --loss-source table")
    if args.sweep_alpha is not None:
        sweep_alphas = args.sweep_alpha or DEFAULT_SWEEP_ALPHAS
    else:
        sweep_alphas = DEFAULT_SWEEP_ALPHAS if args.sweep else None
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
    except (UsageError, SearchError, MappingError, CodecError) as exc:
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
