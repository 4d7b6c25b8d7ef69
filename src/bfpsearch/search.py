"""Trade-off search over block-floating-point configuration candidates.

Enumerates (shared-exponent width, block size) candidates, obtains each
candidate's accuracy loss (proxy or measured table) and its traffic-derived
performance loss (tiling-optimized per layer, normalized by the candidate-set
maximum), and returns the plan minimizing

    objective = acc_loss + alpha * perf_loss

:func:`accuracy_rows` scores each candidate's accuracy once, and
:func:`build_mapping_tables` builds each shape's mapping table once; from
both, :func:`search` evaluates every (layer, config) cell once, then selects
one (SE, BS) pair for the whole model or, with scope ``layer``
(``--scope layer`` on the command line), one pair per layer under the full
objective.

Modes ablate single factors: ``full`` optimizes the weighted objective,
``no_qat`` ignores accuracy and minimizes traffic (for setups with no trained
accuracy numbers), ``no_dm`` minimizes accuracy loss alone, ``pareto`` treats
the two losses independently and picks the frontier's knee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

from .accuracy import (
    SYNTHETIC_SEED,
    AccuracyError,
    AccuracyTable,
    layer_samples,
    proxy_layer_loss,
    signal_power,
)
from .codec import BfpSpec, scan_blocks
from .dm import OPERANDS, role_bits
from .energy import EnergyParams, energy
from .model import ModelDesc, layer_volumes
from .tiling import InfeasibleError, LayerMappingTable, has_feasible_mapping, least_footprint_elems, shape_key

DEFAULT_BS_SET = (1, 2, 4, 8, 16, 24, 32, 48)
DEFAULT_ALPHA = 0.2
DEFAULT_MODE = "full"

MODES = ("full", "no_qat", "no_dm", "pareto")
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
        self.specs  # a format the codec cannot hold fails here

    def configs(self):
        for se in self.se_set:
            for bs in self.bs_set:
                yield (se, bs, self.total_bits)

    @cached_property
    def specs(self) -> tuple:
        """The (input, output, weight) spec triple of each config, aligned
        with :meth:`configs` and built once per space: a mapping table's memo
        then matches a repeated triple by identity, and no alpha of a sweep
        builds it again."""
        return tuple(tuple(BfpSpec(qb, se, bs, role) for role in OPERANDS) for se, bs, qb in self.configs())


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


@dataclass(frozen=True)
class AccuracyRows:
    """:func:`accuracy_rows` output: its ``groups`` and the arguments they were made for."""

    groups: list
    model: ModelDesc
    space: CandidateSpace
    mc_bits: float
    acc_table: AccuracyTable | None  # None for proxy terms


@dataclass
class LayerAssignment:
    layer_index: int
    config: tuple
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
    # The first layer whose 32-bit baseline has no feasible mapping, when
    # that drops the baseline; not part of the record.
    baseline_infeasible_layer: int | None = None

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
    """Frontier point farthest (perpendicular) from the endpoint chord, ties to
    the weighted-objective ranking (an endpoint lies exactly 0.0 from the chord)."""
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


def build_mapping_tables(model: ModelDesc, count_first_load: bool = True, jobs: int = 1) -> dict:
    """Mapping tables by :func:`~bfpsearch.tiling.shape_key`, one per distinct
    shape (a layer's is ``tables[shape_key(layer)]``), built in parallel.  The
    tables fix the search's first-load accounting: its traffic is theirs."""
    first_of_shape = {}
    for layer in model.layers:
        first_of_shape.setdefault(shape_key(layer), layer)
    build = partial(LayerMappingTable, count_first_load=count_first_load)
    if jobs > 1 and len(first_of_shape) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: its import costs every run

        with ProcessPoolExecutor(max_workers=min(jobs, len(first_of_shape))) as pool:
            tables = list(pool.map(build, first_of_shape.values()))
    else:
        tables = [build(layer) for layer in first_of_shape.values()]
    return dict(zip(first_of_shape, tables))


def _proxy_row(layer, configs, specs, scored, seed) -> dict:
    """Proxy terms of one layer's ``scored`` cells, by config index: the
    normalized MSE over the layer's samples, whose signal powers are computed
    once.  Cells are scored block-size-major: each sample is scanned once per
    block size, every shared-exponent width rounds from that scan, and one
    block size's scans are dropped before the next block size's are made."""
    samples = layer_samples(layer, seed=seed)
    powers = {role: signal_power(tensor) for role, tensor in samples.items()}
    by_bs = {}
    for j in scored:
        by_bs.setdefault(configs[j][1], []).append(j)
    row = {}
    for bs, cells in by_bs.items():
        scans = {role: scan_blocks(tensor, bs) for role, tensor in samples.items()}
        for j in cells:
            row[j] = proxy_layer_loss(specs[j], scans, powers)
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


def accuracy_rows(model: ModelDesc, space: CandidateSpace, mc_bits: float,
                  acc_table: AccuracyTable | None = None, seed: int = SYNTHETIC_SEED) -> AccuracyRows:
    """Raw accuracy terms of the candidates :func:`search` can select,
    computed without any mapping table: one dict per candidate group (one
    for model scope, one per layer for layer scope) that maps the index of
    a config in ``space.configs()`` to its candidate's term, as the
    ``groups`` of an :class:`AccuracyRows`.  A config
    missing from a group cannot be selected.  Terms come from ``acc_table``
    when it is given, else from the proxy; the arguments are checked as
    :func:`check_search_args` checks them.

    A cell can be selected when it has a feasible mapping
    (:func:`~bfpsearch.tiling.has_feasible_mapping`), in model scope only
    when every cell of its column has one.  With each layer weighed by its
    output volume ``w``, a layer-scope term is ``w / wsum * term``; a
    model-scope term is the table's whole-model row for its config, whose
    column then gets no per-layer terms, else ``sum(w * term) / wsum`` over
    the column.  Raises :class:`InfeasibleError` when no candidate can be
    selected (in layer scope, for the first layer without one).

    Proxy terms are the normalized MSE over each layer's samples, read from
    the paths the layer holds; layers without samples fall back to
    fixed-seed synthetic ones.  Samples are built one layer at a time and
    freed before the next layer's are built.  Within a layer, each sample is
    scanned once per block size that has a cell to score; only one block
    size's scans are alive at a time.
    """
    check_search_args(space, mc_bits, acc_table, seed)
    configs = list(space.configs())
    fits_of_shape = {}  # a shape's least footprint is found once and weighed once per config
    fits = []
    for layer in model.layers:
        key = shape_key(layer)
        if key not in fits_of_shape:
            least = least_footprint_elems(layer)
            fits_of_shape[key] = [has_feasible_mapping(least, role_bits(layer, s), mc_bits) for s in space.specs]
        fits.append(fits_of_shape[key])
    if space.scope == "model":
        column = [all(col) for col in zip(*fits)]
        if not any(column):
            raise InfeasibleError("every candidate is infeasible under the memory capacity")
        fits = [column] * len(fits)
    for layer, row in zip(model.layers, fits):
        if not any(row):
            raise InfeasibleError(f"layer {layer.index}: every candidate is infeasible")
    model_rows = acc_table.model_entries if acc_table is not None and space.scope == "model" else {}
    rows = []
    for layer, row in zip(model.layers, fits):
        scored = [j for j, fit in enumerate(row) if fit and configs[j] not in model_rows]
        if acc_table is None:
            rows.append(_proxy_row(layer, configs, space.specs, scored, seed))
        else:
            rows.append({j: _table_term(layer, configs[j], acc_table) for j in scored})
    weights = [float(layer_volumes(layer)[1]) for layer in model.layers]
    wsum = sum(weights)
    if space.scope == "layer":
        groups = [{j: w / wsum * term for j, term in row.items()} for w, row in zip(weights, rows)]
    else:
        groups = [{j: model_rows[configs[j]] if configs[j] in model_rows
                   else sum(w * rows[k][j] for k, w in enumerate(weights)) / wsum
                   for j, fit in enumerate(fits[0]) if fit}]
    return AccuracyRows(groups, model, space, mc_bits, acc_table)


def check_search_args(space: CandidateSpace, mc_bits: float, acc_table: AccuracyTable | None = None,
                      seed: int = SYNTHETIC_SEED, alpha: float = DEFAULT_ALPHA, mode: str = DEFAULT_MODE):
    """Raise on arguments :func:`accuracy_rows` and :func:`search` cannot run
    with.  It reads no model, so a caller can check a run before it scores
    accuracy or builds the mapping tables."""
    if mode not in MODES:
        raise SearchError(f"mode must be one of {MODES}, got {mode!r}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise SearchError(f"alpha must be finite and >= 0, got {alpha}")
    if mc_bits is None or not (math.isfinite(mc_bits) and mc_bits > 0):
        raise SearchError(f"memory capacity (bits) must be finite and positive, got {mc_bits}")
    if acc_table is not None and acc_table.is_empty():
        raise AccuracyError("accuracy table is empty")
    if seed < 0:
        raise SearchError(f"seed must be >= 0, got {seed}")
    if space.scope == "layer":
        if mode != "full":
            raise SearchError("per-layer scope supports only the full trade-off mode")
        if acc_table is not None and not acc_table.layer_entries:
            raise AccuracyError(
                "per-layer search needs per-layer accuracy entries; "
                "this table only has whole-model rows -- use scope='model'"
            )


def search(rows: AccuracyRows, tables: dict, alpha: float = DEFAULT_ALPHA, mode: str = DEFAULT_MODE,
           energy_params: EnergyParams = EnergyParams()) -> QuantPlan:
    """Select the plan minimizing the trade-off objective from ``rows``, the
    :func:`accuracy_rows` output that fixes the model, candidate space,
    capacity and accuracy source, and ``tables``, the per-shape
    :func:`build_mapping_tables` output (of any model with these shapes) that
    fixes the first-load accounting; :class:`SearchError` names the first
    layer whose shape has no table.  A caller that searches many alphas makes
    the rows and the tables once.

    ``rows.space.scope == 'model'`` applies one (SE, BS) pair to the whole model;
    ``'layer'`` takes each layer's argmin, which IS the joint optimum because
    both loss terms are additive over layers and either term's joint maximum
    separates into per-layer maxima.  An accuracy table's losses are used as
    given, else the proxy's, normalized.
    """
    model, space, mc_bits = rows.model, rows.space, rows.mc_bits
    check_search_args(space, mc_bits, alpha=alpha, mode=mode)

    layer_tables = [tables.get(shape_key(layer)) for layer in model.layers]
    if None in layer_tables:
        raise SearchError(f"no mapping table for the shape of layer {model.layers[layer_tables.index(None)].index}")
    configs = list(space.configs())
    # cells[i][j]: layer i's best (mapping, dm_bits, footprint_bits) under configs[j], or None.
    cells = [[table.query(s, mc_bits) for s in space.specs] for table in layer_tables]

    # Selection runs over the groups of ``rows``: for model scope one
    # group whose candidates sum a grid column over all layers, for layer
    # scope one group per layer holding that layer's row.
    group_cells = [cells] if space.scope == "model" else [[row] for row in cells]
    groups = [
        [CandidateEval(config, True, dm_sum_bits=sum(row[j][1] for row in cell_rows), raw_acc=terms[j])
         if j in terms else CandidateEval(config, False) for j, config in enumerate(configs)]
        for terms, cell_rows in zip(rows.groups, group_cells)
    ]

    # Both normalizers separate into per-group maxima.
    feasible = [[c for c in group if c.feasible] for group in groups]
    dm_max = sum(max(c.dm_sum_bits for c in f) for f in feasible)
    if dm_max <= 0:
        raise SearchError(
            "every candidate moves zero bits (literal reuse accounting with whole-layer "
            "residency); performance loss cannot be normalized: use a smaller memory "
            "capacity (--mc) or count first loads (drop --no-first-load)"
        )
    acc_norm = sum(max(c.raw_acc for c in f) for f in feasible) if rows.acc_table is None else 1.0
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
    for layer, table, row, c in zip(model.layers, layer_tables, cells, winners):
        j = configs.index(c.config)
        assignments.append(LayerAssignment(
            layer_index=layer.index,
            config=c.config,
            mapping=row[j][0],
            breakdown=table.breakdown(row[j][0], space.specs[j]),
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
    _attach_energy(plan, model, layer_tables, mc_bits, energy_params)
    return plan


def _attach_energy(plan: QuantPlan, model, layer_tables, mc_bits, energy_params):
    """Energy for the plan plus the unquantized 32-bit baseline under the
    same mapping optimizer, from the layers' tables; the baseline is dropped,
    and the layer that drops it noted, when some layer has no 32-bit mapping."""
    plan.energy_report = energy(model, [a.breakdown for a in plan.assignments], energy_params)
    baseline_breakdowns = []
    for layer, table in zip(model.layers, layer_tables):
        bits32 = (ORIGINAL_BITS, ORIGINAL_BITS, ORIGINAL_BITS)
        hit = table.query(bits32, mc_bits)
        if hit is None:
            plan.baseline_infeasible_layer = layer.index
            return
        baseline_breakdowns.append(table.breakdown(hit[0], bits32))
    plan.baseline_energy_report = energy(model, baseline_breakdowns, energy_params)
    plan.energy_report.normalized = plan.energy_report.joules / plan.baseline_energy_report.joules
