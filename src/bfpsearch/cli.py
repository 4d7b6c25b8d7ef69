"""Command-line entry point: load a model, search, emit reports.

Outputs per run: a plan file and a machine-readable report (both JSON with
sorted keys, so identical configs reproduce byte-identical files), a
human-readable summary, and optional CSVs for plotting candidate scatters and
alpha sweeps.

Every setting is declared once, as a field of ``RunConfig`` with its default,
and checked once, in ``RunConfig``; each option stores into its field, and
the report's config record is built from the fields.

Exit codes: 0 success, 1 usage error (also results that overflow float64,
and per-bit energies under which an energy rounds to 0 J or overflows),
2 infeasible search, 3 I/O error (also an input file that is not UTF-8),
4 out of memory (an allocation failed, or a --jobs worker died).
Environment overrides: BFPSEARCH_OUT_DIR, BFPSEARCH_JOBS.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace

from .accuracy import SYNTHETIC_SEED, AccuracyError, load_table
from .codec import VALID_TOTAL_BITS, CodecError
from .dm import MappingError
from .energy import EnergyError, EnergyParams
from .model import ModelFormatError, load_model
from .search import (
    DEFAULT_ALPHA,
    DEFAULT_MODE,
    MODES,
    SCOPES,
    CandidateSpace,
    SearchError,
    accuracy_rows,
    build_mapping_tables,
    check_search_args,
    search,
)
from .tiling import InfeasibleError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_OOM = 4

DEFAULT_SWEEP_ALPHAS = (0.015, 0.05, 0.15, 0.2, 0.25, 1.5, 3.0)
DEFAULT_LOSS_SOURCE = "proxy"  # search without an accuracy table
LOSS_SOURCES = ("proxy", "table")
# Settings that say where and how to run, not what the answer is: the report leaves them out.
_WHERE_AND_HOW = ("out_dir", "jobs", "write_csv", "sweep_alphas")


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model_path: str
    total_bits: int = CandidateSpace.total_bits
    alpha: float = DEFAULT_ALPHA
    mc_bits: float = 2_097_152  # 256 KiB on-chip buffer
    mode: str = DEFAULT_MODE
    loss_source: str = DEFAULT_LOSS_SOURCE
    acc_table_path: str | None = None
    se_set: tuple | None = None
    bs_set: tuple | None = None
    scope: str = CandidateSpace.scope
    out_dir: str = "bfpsearch_out"
    seed: int = SYNTHETIC_SEED
    jobs: int = 1
    count_first_load: bool = True
    write_csv: bool = False
    sweep_alphas: tuple | None = None
    sram_pj_per_bit: float = EnergyParams.sram_pj_per_bit
    dram_pj_per_bit: float = EnergyParams.dram_pj_per_bit

    def __post_init__(self):
        """Every settings check that reads no file; keeps the built ``space`` and ``energy_params``."""
        if self.jobs < 1:
            raise UsageError(f"--jobs (or BFPSEARCH_JOBS) must be >= 1, got {self.jobs}")
        if self.loss_source not in LOSS_SOURCES:
            raise UsageError(f"--loss-source must be one of {LOSS_SOURCES}, got {self.loss_source!r}")
        if self.acc_table_path is not None and self.loss_source != "table":
            raise UsageError("--acc-table is read only with --loss-source table")
        if self.loss_source == "table" and not self.acc_table_path:
            raise UsageError("--loss-source table needs an accuracy table (--acc-table)")
        if self.write_csv and self.sweep_alphas is not None:
            raise UsageError("--csv writes one run's candidates.csv; a sweep writes sweep.csv, so drop --csv")
        if self.write_csv and self.scope != "model":
            raise UsageError("--csv writes the model-scope candidates and needs --scope model")
        object.__setattr__(self, "energy_params", EnergyParams(self.sram_pj_per_bit, self.dram_pj_per_bit))
        if self.sweep_alphas is not None and self.scope != "model":
            raise UsageError("an alpha sweep writes one (se, bs) per alpha and needs --scope model")
        if self.sweep_alphas is not None and not self.sweep_alphas:
            raise UsageError("alpha sweep needs at least one value")
        object.__setattr__(self, "space", CandidateSpace(self.total_bits, self.se_set, self.bs_set, self.scope))
        for alpha in (self.alpha, *(self.sweep_alphas or ())):  # a sweep's config record holds --alpha too
            check_search_args(self.space, self.mc_bits, None, self.seed, alpha, self.mode)

    def to_record(self) -> dict:
        """The settings that decide the answer; ``total_bits`` is written as ``qb``."""
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _WHERE_AND_HOW}
        record["qb"] = record.pop("total_bits")
        return record


def _json_dumps(record) -> str:
    try:
        return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:  # an infinity or NaN, which JSON cannot hold
        raise UsageError("the results overflow float64; use a smaller --alpha or smaller table losses")


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


def _warn(path: str, notes):
    """One stderr line per (line, message) note of the input file at ``path``."""
    for lineno, message in notes:
        print(f"warning: {path}:{lineno}: {message}", file=sys.stderr)


def _plans(config: RunConfig, alphas) -> list:
    """Load the inputs, score accuracy once, then build the mapping tables
    once and search once per alpha; return the plans in the order of
    ``alphas``.  A table the search cannot use fails before the model is
    read; the proxy's samples are freed before the first table is built."""
    acc_table = load_table(config.acc_table_path) if config.loss_source == "table" else None
    if acc_table is not None:
        _warn(config.acc_table_path, acc_table.diagnostics)
    check_search_args(config.space, config.mc_bits, acc_table, config.seed, config.alpha, config.mode)
    model = load_model(config.model_path)
    _warn(config.model_path, model.warnings)
    if acc_table is not None:
        _warn(config.acc_table_path, acc_table.unread_rows({layer.source_index for layer in model.layers}, config.scope))
    rows = accuracy_rows(model, config.space, config.mc_bits, acc_table, config.seed)
    tables = build_mapping_tables(model, count_first_load=config.count_first_load, jobs=config.jobs)
    return [search(rows, tables, alpha, config.mode, config.energy_params) for alpha in alphas]


def _summary_text(config: RunConfig, plan) -> str:
    out = io.StringIO()
    p = lambda *a: print(*a, file=out)
    p(f"model: {plan.model_name}   mode: {plan.mode}   scope: {plan.scope}")
    p(f"alpha: {plan.alpha}   qb: {config.total_bits}   capacity: {config.mc_bits:.0f} bits")
    p("")
    p(f"acc_loss:  {plan.acc_loss:.6f}")
    p(f"perf_loss: {plan.perf_loss:.6f}   (dm_sum {plan.dm_sum_bits:.1f} / dm_max {plan.dm_max_bits:.1f} bits)")
    p(f"objective: {plan.objective:.6f}")
    e = plan.energy_report
    p(f"energy:    {e.joules:.6e} J   (sram {e.sram_bits:.3e} bits, dram {e.dram_bits:.3e} bits)")
    if e.normalized is not None:
        p(f"           {e.normalized:.4f}x of the 32-bit 'original' baseline")
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
    if plan.baseline_infeasible_layer is not None:
        print(f"warning: layer {plan.baseline_infeasible_layer}: the 32-bit baseline has no mapping within "
              f"{config.mc_bits:.0f} bits; the report has no baseline or normalized energy", file=sys.stderr)
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
    """One search per alpha of ``alphas``, else of ``config.sweep_alphas``,
    else the default seven; emits a CSV suited for plotting.  Each row holds
    one (se, bs) pair, so the sweep needs model scope."""
    if alphas is None:
        alphas = DEFAULT_SWEEP_ALPHAS if config.sweep_alphas is None else config.sweep_alphas
    config = replace(config, sweep_alphas=tuple(alphas))
    rows = [
        {
            "alpha": alpha,
            "acc_loss": plan.acc_loss,
            "perf_loss": plan.perf_loss,
            "objective": plan.objective,
            "energy_joules": plan.energy_report.joules,
            "se": plan.assignments[0].config[0],
            "bs": plan.assignments[0].config[1],
        }
        for alpha, plan in zip(config.sweep_alphas, _plans(config, config.sweep_alphas))
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


def _list_of(cast, kind: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(cast(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated {kind} list, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    """Each option stores into its :class:`RunConfig` field and takes that field's
    default; ``--out`` and ``--jobs`` default to None, so the environment decides."""
    p = _Parser(prog="bfpsearch", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--model", dest="model_path", required=True, help="model description file")
    p.add_argument("--qb", dest="total_bits", type=int, choices=VALID_TOTAL_BITS, help="total bits per element")
    p.add_argument("--alpha", type=float, help="trade-off factor (default %(default)s)")
    p.add_argument("--mc", dest="mc_bits", type=float, help="on-chip capacity in bits")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--loss-source", choices=LOSS_SOURCES)
    p.add_argument("--acc-table", dest="acc_table_path", help="measured accuracy table file")
    p.add_argument("--se", dest="se_set", type=_list_of(int, "integer"), help="shared-exponent candidates, e.g. 2,3,4")
    p.add_argument("--bs", dest="bs_set", type=_list_of(int, "integer"), help="block-size candidates, e.g. 1,2,4,8")
    p.add_argument("--scope", choices=SCOPES)
    p.add_argument("--out", dest="out_dir", help="output directory (env BFPSEARCH_OUT_DIR)")
    p.add_argument("--seed", type=int, help="seed for synthetic proxy samples")
    p.add_argument("--jobs", type=int, help="parallel workers (env BFPSEARCH_JOBS)")
    p.add_argument("--csv", dest="write_csv", action="store_true", help="also write candidates.csv")
    p.add_argument("--no-first-load", dest="count_first_load", action="store_false",
                   help="drop cold first loads of fully reused operands (literal reuse accounting)")
    p.add_argument("--sweep-alpha", dest="sweep_alphas", type=_list_of(float, "float"), metavar="LIST",
                   help="run one search per alpha; empty string uses the default seven values")
    p.add_argument("--sweep", action="store_true", help="alpha sweep with the default seven values")
    p.add_argument("--e-sram", dest="sram_pj_per_bit", type=float, help="SRAM pJ/bit")
    p.add_argument("--e-dram", dest="dram_pj_per_bit", type=float, help="DRAM pJ/bit")
    defaults = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
    p.set_defaults(**{**defaults, "out_dir": None, "jobs": None})
    return p


def config_from_args(args) -> RunConfig:
    """The :class:`RunConfig` of parsed arguments, with ``--sweep`` expanded
    and the environment's fallbacks for ``--out`` and ``--jobs``."""
    values = vars(args).copy()
    sweep = values.pop("sweep")
    values["out_dir"] = values["out_dir"] or os.environ.get("BFPSEARCH_OUT_DIR") or RunConfig.out_dir
    if values["jobs"] is None:
        try:
            values["jobs"] = int(os.environ.get("BFPSEARCH_JOBS", RunConfig.jobs))
        except ValueError:
            raise UsageError(f"BFPSEARCH_JOBS must be an integer, got {os.environ['BFPSEARCH_JOBS']!r}")
    if values["sweep_alphas"] == () or (sweep and values["sweep_alphas"] is None):
        values["sweep_alphas"] = DEFAULT_SWEEP_ALPHAS
    return RunConfig(**values)


def _pool_errors() -> tuple:
    """``BrokenProcessPool`` if the process pool was imported: the pool is
    imported only for ``--jobs`` > 1, so a run without it cannot raise this,
    and evaluating ``main``'s except clause imports nothing."""
    process = sys.modules.get("concurrent.futures.process")
    return (process.BrokenProcessPool,) if process is not None else ()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        if config.sweep_alphas is not None:
            code, outputs, rows = sweep_alpha(config)
            print(f"wrote {len(rows)} sweep rows:")
        else:
            code, outputs = run(config)
        for name, path in sorted(outputs.items()):
            print(f"  {name}: {path}")
        return code
    except (UsageError, SearchError, MappingError, CodecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnergyError as exc:  # the per-bit energies: out of range, or an energy rounds to 0 J or overflows
        print(f"usage error: --e-sram/--e-dram: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ModelFormatError, AccuracyError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MemoryError, *_pool_errors()) as exc:
        # A worker the kernel kills for its memory breaks the pool.
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_OOM


if __name__ == "__main__":
    sys.exit(main())
