"""Trade-off search over block-floating-point configuration candidates.

Enumerates (shared-exponent width, block size) candidates, obtains each
candidate's accuracy loss (proxy or measured table) and its traffic-derived
performance loss (tiling-optimized per layer, normalized by the candidate-set
maximum), and returns the plan minimizing

    objective = acc_loss + alpha * perf_loss

:func:`search` evaluates every (layer, config) cell once, then selects one
(SE, BS) pair for the whole model or, with scope ``layer`` (``--scope layer``
on the command line), one pair per layer under the full objective.

Modes ablate single factors: ``full`` optimizes the weighted objective,
``no_qat`` ignores accuracy and minimizes traffic (for setups with no trained
accuracy numbers), ``no_dm`` minimizes accuracy loss alone, ``pareto`` treats
the two losses independently and picks the frontier's knee.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

from .accuracy import (
    SYNTHETIC_SEED,
    AccuracyError,
    AccuracyTable,
    layer_samples,
    proxy_layer_loss,
    signal_power,
)
from .codec import BfpSpec, scan_blocks
from .dm import OPERANDS
from .energy import EnergyParams, energy, normalized_energy
from .model import ModelDesc, layer_volumes
from .tiling import InfeasibleError, LayerMappingTable

DEFAULT_BS_SET = (1, 2, 4, 8, 16, 24, 32, 48)
DEFAULT_ALPHA = 0.2
DEFAULT_MODE = "full"
DEFAULT_LOSS_SOURCE = "proxy"

MODES = ("full", "no_qat", "no_dm", "pareto")
LOSS_SOURCES = ("proxy", "table")
SCOPES = ("model", "layer")

ORIGINAL_BITS = 32.0  # unquantized reference representation


class SearchError(ValueError):
    pass


def default_se_set(total_bits: int) -> tuple:
    if total_bits == 16:
        return (2, 3, 4, 5, 6, 7)
    if total_bits == 8:
        return (2, 3, 4, 5, 6)
    raise SearchError(f"no default shared-exponent set for total_bits={total_bits}")


@dataclass(frozen=True)
class CandidateSpace:
    """The (SE, BS) grid the search enumerates, per total bitwidth."""

    total_bits: int = 8
    se_set: tuple = None
    bs_set: tuple = None
    scope: str = "model"

    def __post_init__(self):
        se_set = default_se_set(self.total_bits) if self.se_set is None else self.se_set
        bs_set = DEFAULT_BS_SET if self.bs_set is None else self.bs_set
        if not se_set or not bs_set:
            raise SearchError("candidate space must have nonempty SE and BS sets")
        for name, values in (("SE", se_set), ("BS", bs_set)):
            if len(set(values)) != len(values):
                raise SearchError(f"{name} candidates repeat a value: {tuple(values)}")
        if self.scope not in SCOPES:
            raise SearchError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        object.__setattr__(self, "se_set", tuple(sorted(se_set)))
        object.__setattr__(self, "bs_set", tuple(sorted(bs_set)))
        for config in self.configs():
            specs_for_config(config)  # a format the codec cannot hold fails here

    def configs(self):
        for se in self.se_set:
            for bs in self.bs_set:
                yield (se, bs, self.total_bits)


def specs_for_config(config) -> tuple:
    se, bs, qb = config
    return tuple(BfpSpec(qb, se, bs, role) for role in OPERANDS)


@dataclass
class CandidateEval:
    config: tuple  # (se, bs, qb)
    feasible: bool
    dm_sum_bits: float = math.inf
    raw_acc: float = math.inf
    acc_loss: float = math.inf
    perf_loss: float = math.inf
    objective: float = math.inf

    def row(self) -> dict:
        se, bs, qb = self.config
        return {
            "se": se,
            "bs": bs,
            "qb": qb,
            "feasible": self.feasible,
            "dm_sum_bits": self.dm_sum_bits if self.feasible else None,
            "acc_loss": self.acc_loss if self.feasible else None,
            "perf_loss": self.perf_loss if self.feasible else None,
            "objective": self.objective if self.feasible else None,
        }


@dataclass
class LayerAssignment:
    layer_index: int
    config: tuple
    specs: tuple
    mapping: object
    breakdown: object


@dataclass
class QuantPlan:
    """Search output: per-layer formats and mappings plus the loss summary."""

    model_name: str
    mode: str
    alpha: float
    scope: str
    assignments: list
    acc_loss: float
    perf_loss: float
    objective: float
    dm_sum_bits: float
    dm_max_bits: float
    candidates: list = field(default_factory=list)
    pareto: list = field(default_factory=list)
    energy_report: object = None
    baseline_energy_report: object = None

    def to_record(self) -> dict:
        rec = {
            "format_version": 1,
            "model": self.model_name,
            "mode": self.mode,
            "alpha": self.alpha,
            "scope": self.scope,
            "acc_loss": self.acc_loss,
            "perf_loss": self.perf_loss,
            "objective": self.objective,
            "dm_sum_bits": self.dm_sum_bits,
            "dm_max_bits": self.dm_max_bits,
            "layers": [
                {
                    "layer": a.layer_index,
                    "se": a.config[0],
                    "bs": a.config[1],
                    "qb": a.config[2],
                    "permutation": list(a.mapping.permutation),
                    "tiles": list(a.mapping.tiles),
                    "dm_bits": a.breakdown.dm_total_bits,
                    "dm_breakdown": a.breakdown.to_record(),
                }
                for a in self.assignments
            ],
            "candidates": list(self.candidates),
        }
        if self.pareto:
            rec["pareto"] = list(self.pareto)
        if self.energy_report is not None:
            rec["energy"] = self.energy_report.to_record()
        if self.baseline_energy_report is not None:
            rec["baseline_energy"] = self.baseline_energy_report.to_record()
        return rec


# ---------------------------------------------------------------------------
# Candidate selection (pure, for direct property testing)
# ---------------------------------------------------------------------------


def selection_key(cand: CandidateEval, mode: str):
    """Deterministic ranking: mode objective, then smaller traffic, larger
    block size, smaller shared-exponent width."""
    se, bs, _ = cand.config
    if mode == "no_qat":
        primary = cand.dm_sum_bits
    elif mode == "no_dm":
        primary = cand.acc_loss
    else:
        primary = cand.objective
    return (primary, cand.dm_sum_bits, -bs, se)


def select_candidate(cands, mode: str) -> CandidateEval:
    feasible = [c for c in cands if c.feasible]
    if not feasible:
        raise InfeasibleError("every candidate is infeasible under the memory capacity")
    if mode == "pareto":
        frontier = pareto_frontier(feasible)
        return knee_point(frontier)
    return min(feasible, key=lambda c: selection_key(c, mode))


def pareto_frontier(cands) -> list:
    """Non-dominated candidates in (acc_loss, perf_loss), sorted by acc_loss."""
    ordered = sorted(cands, key=lambda c: (c.acc_loss, c.perf_loss, selection_key(c, "full")))
    frontier = []
    best_perf = math.inf
    for c in ordered:
        if c.perf_loss < best_perf:
            frontier.append(c)
            best_perf = c.perf_loss
    return frontier


def knee_point(frontier) -> CandidateEval:
    """Frontier point farthest (perpendicular) from the endpoint chord;
    degenerate frontiers fall back to the weighted-objective minimum."""
    if not frontier:
        raise InfeasibleError("empty Pareto frontier")
    if len(frontier) <= 2:
        return min(frontier, key=lambda c: selection_key(c, "full"))
    a = frontier[0]
    b = frontier[-1]
    ax, ay = a.acc_loss, a.perf_loss
    bx, by = b.acc_loss, b.perf_loss
    chord = math.hypot(bx - ax, by - ay)
    if chord == 0.0:
        return min(frontier, key=lambda c: selection_key(c, "full"))
    best = None
    for c in frontier:
        dist = abs((bx - ax) * (ay - c.perf_loss) - (ax - c.acc_loss) * (by - ay)) / chord
        key = (-dist,) + selection_key(c, "full")
        if best is None or key < best[0]:
            best = (key, c)
    return best[1]


# ---------------------------------------------------------------------------
# Search driver
# ---------------------------------------------------------------------------


def _shape_key(layer):
    """The layer with everything its mapping table does not depend on normalized away."""
    return replace(layer, index=0, source_index=0, input_sample=None, weight_sample=None)


def build_mapping_tables(model: ModelDesc, count_first_load: bool = True, jobs: int = 1) -> dict:
    """Mapping tables by layer index, one table shared by all layers of one
    shape; distinct shapes build in parallel.  The tables fix the search's
    first-load accounting: its traffic is theirs."""
    first_of_shape = {}
    for layer in model.layers:
        first_of_shape.setdefault(_shape_key(layer), layer)
    build = partial(LayerMappingTable, count_first_load=count_first_load)
    if jobs > 1 and len(first_of_shape) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            tables = list(pool.map(build, first_of_shape.values()))
    else:
        tables = [build(layer) for layer in first_of_shape.values()]
    by_shape = dict(zip(first_of_shape, tables))
    return {layer.index: by_shape[_shape_key(layer)] for layer in model.layers}


def _candidate(config, hits) -> CandidateEval:
    """Traffic side of one candidate over the layers whose query results are ``hits``."""
    if any(hit is None for hit in hits):
        return CandidateEval(config=config, feasible=False)
    return CandidateEval(config=config, feasible=True, dm_sum_bits=sum(hit[1] for hit in hits))


def _proxy_row(layer, configs, specs, scored, sample_dir, seed) -> dict:
    """Proxy terms of one layer's ``scored`` cells, by config index: the
    normalized MSE over the layer's samples, whose signal powers are computed
    once.  Cells are scored block-size-major: each sample is scanned once per
    block size, every shared-exponent width rounds from that scan, and one
    block size's scans are dropped before the next block size's are made."""
    samples = layer_samples(layer, model_dir=sample_dir, seed=seed)
    powers = {role: signal_power(tensor) for role, tensor in samples.items()}
    by_bs = {}
    for j in scored:
        by_bs.setdefault(configs[j][1], []).append(j)
    row = {}
    for bs, cells in by_bs.items():
        scans = {role: scan_blocks(tensor, bs) for role, tensor in samples.items()}
        for j in cells:
            row[j] = proxy_layer_loss(layer, specs[j], scans, powers)
        del scans  # before the next block size's are made
    return row


def _table_term(layer, config, acc_table) -> float:
    """The table's per-layer entry for one (layer, config) cell, keyed by the
    model file's layer index."""
    key = (layer.source_index,) + tuple(config)
    if key not in acc_table.layer_entries:
        raise AccuracyError(
            f"accuracy table has no per-layer entry for layer {layer.source_index}, config {config}"
        )
    return acc_table.layer_entries[key]


def check_search_args(space: CandidateSpace, alpha: float, mc_bits: float, loss_source: str, mode: str,
                      acc_table: AccuracyTable | None, seed: int):
    """Raise on arguments :func:`search` cannot run with.  It reads no model,
    so a caller can check a run before it builds the mapping tables."""
    if mode not in MODES:
        raise SearchError(f"mode must be one of {MODES}, got {mode!r}")
    if loss_source not in LOSS_SOURCES:
        raise SearchError(f"loss_source must be one of {LOSS_SOURCES}, got {loss_source!r}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise SearchError(f"alpha must be finite and >= 0, got {alpha}")
    if mc_bits is None or not (math.isfinite(mc_bits) and mc_bits > 0):
        raise SearchError(f"memory capacity (bits) must be finite and positive, got {mc_bits}")
    if loss_source == "table" and acc_table is None:
        raise SearchError("loss_source='table' needs an accuracy table")
    if loss_source == "table" and acc_table.is_empty():
        raise AccuracyError("accuracy table is empty")
    if seed < 0:
        raise SearchError(f"seed must be >= 0, got {seed}")
    if space.scope == "layer":
        if mode != "full":
            raise SearchError("per-layer scope supports only the full trade-off mode")
        if loss_source == "table" and not acc_table.layer_entries:
            raise AccuracyError(
                "per-layer search needs per-layer accuracy entries; "
                "this table only has whole-model rows -- use scope='model'"
            )


def search(
    model: ModelDesc,
    space: CandidateSpace,
    alpha: float = DEFAULT_ALPHA,
    mc_bits: float = None,
    loss_source: str = DEFAULT_LOSS_SOURCE,
    mode: str = DEFAULT_MODE,
    acc_table: AccuracyTable | None = None,
    tables: dict | None = None,
    energy_params: EnergyParams = EnergyParams(),
    seed: int = SYNTHETIC_SEED,
    sample_dir: str | None = None,
) -> QuantPlan:
    """Search the (layer, config) grid for the plan minimizing the trade-off objective.

    ``space.scope == 'model'`` applies one (SE, BS) pair to the whole model;
    ``'layer'`` takes each layer's argmin, which IS the joint optimum because
    both loss terms are additive over layers and either term's joint maximum
    separates into per-layer maxima.  ``tables`` is
    :func:`build_mapping_tables` output, which fixes the first-load
    accounting; without it, tables that count first loads are built.  Layer
    sample references resolve against ``sample_dir`` (usually the model
    file's directory); layers without samples fall back to fixed-seed
    synthetic ones.  Samples are built after every cell has been queried,
    one layer at a time, and each layer's are freed before the next layer's
    are built.  Within a layer, each sample is scanned once per block size
    that has a cell to score; only one block size's scans are alive at a
    time.
    """
    check_search_args(space, alpha, mc_bits, loss_source, mode, acc_table, seed)
    if tables is None:
        tables = build_mapping_tables(model)

    configs = list(space.configs())
    specs = [specs_for_config(config) for config in configs]
    # cells[i][j]: layer i's best (mapping, dm_bits, footprint_bits) under configs[j], or None.
    cells = [[tables[layer.index].query(s, mc_bits) for s in specs] for layer in model.layers]
    weights = [float(layer_volumes(layer)[1]) for layer in model.layers]
    wsum = sum(weights)

    # Selection runs over groups of candidates: for model scope one group
    # whose candidates sum a grid column over all layers, for layer scope one
    # group per layer holding that layer's row.
    if space.scope == "model":
        groups = [[_candidate(config, [row[j] for row in cells]) for j, config in enumerate(configs)]]
    else:
        groups = [[_candidate(config, [hit]) for config, hit in zip(configs, row)] for row in cells]
    for i, group in enumerate(groups):
        if not any(c.feasible for c in group):
            raise InfeasibleError(
                f"layer {model.layers[i].index}: every candidate is infeasible" if space.scope == "layer"
                else "every candidate is infeasible under the memory capacity"
            )

    # Raw accuracy terms acc[i][j] of the cells the selection can pick, one
    # layer at a time: a layer's proxy samples live only while its row is
    # scored.  In model scope a table's whole-model row stands for its column.
    model_rows = acc_table.model_entries if loss_source == "table" and space.scope == "model" else {}
    acc = []
    for i, layer in enumerate(model.layers):
        row = groups[i] if space.scope == "layer" else groups[0]
        scored = [j for j, c in enumerate(row) if c.feasible and configs[j] not in model_rows]
        if loss_source == "proxy":
            acc.append(_proxy_row(layer, configs, specs, scored, sample_dir, seed))
        else:
            acc.append({j: _table_term(layer, configs[j], acc_table) for j in scored})
    for i, group in enumerate(groups):
        for j, c in enumerate(group):
            if not c.feasible:
                continue
            if space.scope == "layer":
                c.raw_acc = weights[i] / wsum * acc[i][j]
            elif configs[j] in model_rows:
                c.raw_acc = model_rows[configs[j]]
            else:
                c.raw_acc = sum(w * acc[k][j] for k, w in enumerate(weights)) / wsum

    # Both normalizers separate into per-group maxima.
    feasible = [[c for c in group if c.feasible] for group in groups]
    dm_max = sum(max(c.dm_sum_bits for c in f) for f in feasible)
    if dm_max <= 0:
        raise SearchError(
            "every candidate moves zero bits (literal reuse accounting with whole-layer "
            "residency); performance loss cannot be normalized: use a smaller memory "
            "capacity (--mc) or count first loads (drop --no-first-load)"
        )
    acc_norm = sum(max(c.raw_acc for c in f) for f in feasible) if loss_source == "proxy" else 1.0
    for f in feasible:
        for c in f:
            c.perf_loss = c.dm_sum_bits / dm_max
            c.acc_loss = c.raw_acc / acc_norm if acc_norm > 0 else 0.0
            c.objective = c.acc_loss + alpha * c.perf_loss

    winners = [select_candidate(group, mode) for group in groups]
    dm_sum = sum(c.dm_sum_bits for c in winners)
    acc_loss = sum(c.raw_acc for c in winners) / acc_norm if acc_norm > 0 else 0.0
    perf_loss = dm_sum / dm_max
    if space.scope == "model":
        winners *= len(model.layers)

    assignments = []
    for layer, row, c in zip(model.layers, cells, winners):
        j = configs.index(c.config)
        assignments.append(LayerAssignment(
            layer_index=layer.index,
            config=c.config,
            specs=specs[j],
            mapping=row[j][0],
            breakdown=tables[layer.index].breakdown(row[j][0], specs[j]),
        ))
    plan = QuantPlan(
        model_name=model.name,
        mode=mode,
        alpha=alpha,
        scope=space.scope,
        assignments=assignments,
        acc_loss=acc_loss,
        perf_loss=perf_loss,
        objective=acc_loss + alpha * perf_loss,
        dm_sum_bits=dm_sum,
        dm_max_bits=dm_max,
    )
    if space.scope == "model":
        plan.candidates = [c.row() for c in groups[0]]
        if mode == "pareto":
            plan.pareto = [c.row() for c in pareto_frontier(feasible[0])]
    _attach_energy(plan, model, tables, mc_bits, energy_params)
    return plan


def _attach_energy(plan: QuantPlan, model, tables, mc_bits, energy_params):
    """Energy for the plan plus the unquantized 32-bit baseline under the
    same mapping optimizer."""
    plan.energy_report = energy(
        model, [(a.breakdown, a.specs) for a in plan.assignments], energy_params
    )
    baseline_rows = []
    for layer in model.layers:
        bits32 = (ORIGINAL_BITS, ORIGINAL_BITS, ORIGINAL_BITS)
        hit = tables[layer.index].query(bits32, mc_bits)
        if hit is None:
            plan.baseline_energy_report = None
            return
        baseline_rows.append((tables[layer.index].breakdown(hit[0], bits32), bits32))
    plan.baseline_energy_report = energy(model, baseline_rows, energy_params)
    normalized_energy(plan.energy_report, plan.baseline_energy_report)
