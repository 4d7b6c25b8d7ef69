"""Tile-size and loop-order optimization under a buffer capacity constraint.

For a fixed layer, loop order and per-role bitwidths, finds the tiling with
the least off-chip traffic whose three tile footprints fit the on-chip
capacity.  Tile candidates are divisors of each extent plus ceil(extent/k)
for small k; kernel loops stay untiled and innermost (the loop order over the
remaining four loops is searched, 24 orders by default).

The whole candidate lattice is evaluated once per layer with vectorized
per-dimension tables that reproduce :func:`bfpsearch.dm.dm_layer` exactly
(integer element counts, one bit-weighting per operand).  Points that an
earlier permutation at the same tiling dominates in all three traffic counts
can never win, so they are pruned at build time; the survivors are stored in
tie-break order, and a query is one masked ``np.argmin`` over them that
returns the true optimum of the candidate set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dm import (
    LOOP_DIMS,
    OPERANDS,
    Mapping,
    MappingError,
    _ConvDim,
    _PartDim,
    dm_layer,
    loop_extents,
    make_mapping,
    role_bits,
)
from .model import ConvLayer

MOVING_DIMS = ("oc", "ic", "oh", "ow")

DEFAULT_CEIL_K = 8


class InfeasibleError(Exception):
    """No tiling in the candidate set satisfies the capacity constraint."""


@dataclass(frozen=True)
class TilingProblem:
    layer: ConvLayer
    permutation: tuple
    specs: tuple
    mc_bits: float

    def __post_init__(self):
        if not self.mc_bits > 0:
            raise MappingError(f"memory capacity must be positive, got {self.mc_bits}")


@dataclass
class TilingChoice:
    mapping: Mapping
    breakdown: object
    footprint_bits: float
    dm_bits: float


def tile_candidates(extent: int, ceil_k: int = DEFAULT_CEIL_K) -> tuple:
    """Divisors of the extent plus ceil(extent/k) for k <= ceil_k, sorted."""
    cands = {extent}
    for d in range(1, extent + 1):
        if extent % d == 0:
            cands.add(d)
    for k in range(1, ceil_k + 1):
        cands.add(-(-extent // k))
    return tuple(sorted(cands))


def default_permutations():
    """All orders of the four tiled loops, kernel loops innermost untiled."""
    return tuple(itertools.permutations(MOVING_DIMS))


# ---------------------------------------------------------------------------
# Per-dimension tables
# ---------------------------------------------------------------------------
#
# For one loop dimension with a list of tile-size candidates, precompute the
# exact per-position sums the level-by-level traffic formula needs, for all
# three relations a loop can have to the advancing level: enumerated outside
# it, advancing itself, or wrapping back to the start inside it.


@dataclass
class _DimTable:
    candidates: tuple
    iters: np.ndarray       # ceil(extent / T)
    len_first: np.ndarray   # footprint length at position 0
    sum_all: np.ndarray     # sum of lengths over all positions
    sum_adv_new: np.ndarray  # sum of lengths over positions 1..It-1
    sum_adv_ovl: np.ndarray  # sum of consecutive-position overlaps
    wrap_ovl: np.ndarray    # overlap of the last position with position 0


def _build_table(dim_for, candidates) -> _DimTable:
    n = len(candidates)
    out = {k: np.zeros(n, dtype=np.float64) for k in
           ("iters", "len_first", "sum_all", "sum_adv_new", "sum_adv_ovl", "wrap_ovl")}
    for ci, tile in enumerate(candidates):
        dim, it = dim_for(tile)
        ivs = [dim.interval((p, 0)[: len(dim.drivers)]) for p in range(it)]
        lens = [max(0, b - a) for a, b in ivs]
        out["iters"][ci] = it
        out["len_first"][ci] = lens[0]
        out["sum_all"][ci] = sum(lens)
        out["sum_adv_new"][ci] = sum(lens[1:])
        out["sum_adv_ovl"][ci] = sum(
            max(0, min(ivs[p - 1][1], ivs[p][1]) - max(ivs[p - 1][0], ivs[p][0]))
            for p in range(1, it)
        )
        out["wrap_ovl"][ci] = max(0, min(ivs[-1][1], ivs[0][1]) - max(ivs[-1][0], ivs[0][0]))
    return _DimTable(candidates=tuple(candidates), **out)


def _axis_shape(axis: int, n: int):
    shape = [1, 1, 1, 1]
    shape[axis] = n
    return tuple(shape)


def _weigh(elems: dict, bits: dict):
    """Per-role element counts weighted by bits, summed in the order ``dm_layer`` uses."""
    return (elems["input"] * bits["input"] + elems["output"] * bits["output"]) + elems["weight"] * bits["weight"]


class LayerMappingTable:
    """Exact traffic of the (permutation, tiling) candidates for one layer.

    Element counts are bitwidth-independent, so one table serves every
    quantization candidate.  The build keeps only the points that survive
    dominance pruning: a permutation is dropped at a tiling when an earlier
    permutation there has no larger traffic count for any operand.  The
    survivors are sorted once into the deterministic tie-break order (larger
    tile volume, earlier permutation, lexicographically larger tile vector;
    the last relies on each dimension's candidates ascending, which
    :func:`tile_candidates` guarantees).  A query weights the survivors'
    counts by the three effective bitwidths, applies the capacity constraint
    and takes the first ``np.argmin``, which is the smallest traffic with
    that tie-break.
    """

    def __init__(self, layer: ConvLayer, permutations=None, ceil_k: int = DEFAULT_CEIL_K,
                 count_first_load: bool = True):
        self.layer = layer
        self.permutations = tuple(tuple(p) for p in (permutations or default_permutations()))
        for perm in self.permutations:
            if tuple(sorted(perm)) != tuple(sorted(MOVING_DIMS)):
                raise MappingError(f"permutation {perm} must order {MOVING_DIMS}")
        self.count_first_load = count_first_load
        ext = loop_extents(layer)
        self.extents = ext
        self.candidates = {d: tile_candidates(ext[d], ceil_k) for d in MOVING_DIMS}
        self.mesh_shape = tuple(len(self.candidates[d]) for d in MOVING_DIMS)
        self.n_tilings = int(np.prod(self.mesh_shape))
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        layer = self.layer
        ext = self.extents
        axis = {d: i for i, d in enumerate(MOVING_DIMS)}

        def part(dim_name, extent):
            return _build_table(
                lambda t: (_PartDim(dim_name, t, extent), -(-extent // t)),
                self.candidates[dim_name],
            )

        tables = {
            ("part", "oc"): part("oc", ext["oc"]),
            ("part", "ic"): part("ic", ext["ic"]),
            ("part", "oh"): part("oh", ext["oh"]),
            ("part", "ow"): part("ow", ext["ow"]),
            ("conv", "oh"): _build_table(
                lambda t: (
                    _ConvDim("oh", "kh", t, ext["oh"], ext["kh"], ext["kh"],
                             layer.stride_h, layer.pad_h, layer.i_h),
                    -(-ext["oh"] // t),
                ),
                self.candidates["oh"],
            ),
            ("conv", "ow"): _build_table(
                lambda t: (
                    _ConvDim("ow", "kw", t, ext["ow"], ext["kw"], ext["kw"],
                             layer.stride_w, layer.pad_w, layer.i_w),
                    -(-ext["ow"] // t),
                ),
                self.candidates["ow"],
            ),
        }

        def arr(table_key, field_name, driver):
            table = tables[table_key]
            return getattr(table, field_name).reshape(_axis_shape(axis[driver], len(table.candidates)))

        iters = {d: arr(("part", d), "iters", d) for d in MOVING_DIMS}

        # Operand geometry: driver loop -> (table key, static multiplier).
        operand_dims = {
            "input": ({"ic": ("part", "ic"), "oh": ("conv", "oh"), "ow": ("conv", "ow")}, 1.0),
            "output": ({"oc": ("part", "oc"), "oh": ("part", "oh"), "ow": ("part", "ow")}, 1.0),
            "weight": ({"oc": ("part", "oc"), "ic": ("part", "ic")}, float(ext["kh"] * ext["kw"])),
        }

        # counts[r, p, t]: elements of operand OPERANDS[r] moved under
        # permutation p at flat (C-order) tiling t.
        counts = np.zeros((len(OPERANDS), len(self.permutations), self.n_tilings))
        for pi, perm in enumerate(self.permutations):
            pos = {d: i for i, d in enumerate(perm)}
            for r, role in enumerate(OPERANDS):
                drivers, static = operand_dims[role]
                total = np.zeros(self.mesh_shape)
                for lvl in perm:
                    j = pos[lvl]
                    inner_driver = any(pos[d] > j for d in drivers)
                    if lvl not in drivers and not inner_driver:
                        continue
                    vol_new = np.full(self.mesh_shape, static)
                    vol_ovl = np.full(self.mesh_shape, static)
                    for d, key in drivers.items():
                        if pos[d] < j:
                            vol_new = vol_new * arr(key, "sum_all", d)
                            vol_ovl = vol_ovl * arr(key, "sum_all", d)
                        elif pos[d] == j:
                            vol_new = vol_new * arr(key, "sum_adv_new", d)
                            vol_ovl = vol_ovl * arr(key, "sum_adv_ovl", d)
                        else:
                            vol_new = vol_new * arr(key, "len_first", d)
                            vol_ovl = vol_ovl * arr(key, "wrap_ovl", d)
                    mult = np.ones(self.mesh_shape)
                    for nd in MOVING_DIMS:
                        if nd in drivers:
                            continue
                        if pos[nd] < j:
                            mult = mult * iters[nd]
                        elif pos[nd] == j:
                            mult = mult * (iters[nd] - 1.0)
                    total = total + mult * (vol_new - vol_ovl)
                first = np.full(self.mesh_shape, static)
                for d, key in drivers.items():
                    first = first * arr(key, "len_first", d)
                if self.count_first_load:
                    total = total + first
                else:
                    moves = np.zeros(self.mesh_shape, dtype=bool)
                    for d in drivers:
                        moves |= np.broadcast_to(iters[d] > 1, self.mesh_shape)
                    total = total + first * moves
                counts[r, pi] = (total * self.layer.groups).ravel()

        # Nominal tile footprints in elements (capacity constraint side).
        t_oc = np.asarray(self.candidates["oc"], dtype=np.float64).reshape(_axis_shape(0, self.mesh_shape[0]))
        t_ic = np.asarray(self.candidates["ic"], dtype=np.float64).reshape(_axis_shape(1, self.mesh_shape[1]))
        t_oh = np.asarray(self.candidates["oh"], dtype=np.float64).reshape(_axis_shape(2, self.mesh_shape[2]))
        t_ow = np.asarray(self.candidates["ow"], dtype=np.float64).reshape(_axis_shape(3, self.mesh_shape[3]))
        in_rows = (t_oh - 1.0) * layer.stride_h + ext["kh"]
        in_cols = (t_ow - 1.0) * layer.stride_w + ext["kw"]
        self.footprint_elems = {
            "input": np.broadcast_to(t_ic * in_rows * in_cols, self.mesh_shape),
            "output": np.broadcast_to(t_oc * t_oh * t_ow, self.mesh_shape),
            "weight": np.broadcast_to(t_oc * t_ic * float(ext["kh"] * ext["kw"]), self.mesh_shape),
        }
        tile_volume = (t_oc * t_ic * t_oh * t_ow).ravel()

        # Dominance pruning: at one tiling every permutation has the same
        # footprint, and bits are positive, so a permutation whose three
        # counts are all >= those of an earlier one never beats it (rounded
        # products and sums are monotone) and loses an exact tie to it.  A
        # later permutation never prunes: rounding can turn its smaller
        # counts into an exact tie, which the earlier one must win.
        # Permutation 0 always survives, so no tiling loses feasibility.
        keep = np.ones(counts.shape[1:], dtype=bool)
        for p in range(1, len(self.permutations)):
            keep[p] = ~(counts[:, :p] <= counts[:, p:p + 1]).all(axis=0).any(axis=0)
        perm, flat = np.nonzero(keep)
        # Survivors in tie-break order (larger tile volume, earlier
        # permutation, larger flat tiling index = lexicographically larger
        # tile vector, as candidates ascend per dimension), so the first
        # minimum of a query is its winner.
        order = np.lexsort((-flat, perm, -tile_volume[flat]))
        self._perm, self._flat = perm[order], flat[order]
        tile_idx = np.unravel_index(self._flat, self.mesh_shape)
        self._traffic = {role: counts[r][self._perm, self._flat] for r, role in enumerate(OPERANDS)}
        self._footprint = {role: self.footprint_elems[role][tile_idx] for role in OPERANDS}

    # -- queries -------------------------------------------------------------

    def footprint_bits(self, bits: dict) -> np.ndarray:
        """Full-mesh tile footprint in bits for one bits-per-role triple."""
        return _weigh(self.footprint_elems, bits)

    def tiles_at(self, tile_idx: tuple) -> dict:
        return {d: self.candidates[d][tile_idx[i]] for i, d in enumerate(MOVING_DIMS)}

    def mapping_at(self, perm_idx: int, tile_idx: tuple) -> Mapping:
        return make_mapping(self.layer, self.tiles_at(tile_idx), order=self.permutations[perm_idx])

    def query(self, specs, mc_bits: float):
        """Best feasible (mapping, dm_bits, footprint_bits) or None if infeasible."""
        bits = role_bits(self.layer, specs)
        foot = _weigh(self._footprint, bits)
        dm = np.where(foot <= mc_bits, _weigh(self._traffic, bits), np.inf)
        best = int(np.argmin(dm))
        if dm[best] == np.inf:
            return None
        tile_idx = np.unravel_index(self._flat[best], self.mesh_shape)
        return self.mapping_at(int(self._perm[best]), tile_idx), float(dm[best]), float(foot[best])


# ---------------------------------------------------------------------------
# Public optimizers
# ---------------------------------------------------------------------------


def _moving_order(permutation) -> tuple:
    order = tuple(d for d in permutation if d in MOVING_DIMS)
    if tuple(sorted(order)) != tuple(sorted(MOVING_DIMS)):
        raise MappingError(f"permutation {permutation} must include {MOVING_DIMS}")
    kernel = tuple(d for d in permutation if d in ("kh", "kw"))
    if kernel and set(permutation) - set(MOVING_DIMS) - {"kh", "kw"}:
        raise MappingError(f"unknown loop dims in {permutation}")
    return order


def optimize_tiling(
    problem: TilingProblem,
    ceil_k: int = DEFAULT_CEIL_K,
    count_first_load: bool = True,
) -> TilingChoice:
    """Minimize one layer's traffic over tile sizes for a fixed loop order:
    the exhaustive candidate-set optimum over the divisor/ceil lattice."""
    return optimize_layer(
        problem.layer, problem.specs, problem.mc_bits, permutations=[_moving_order(problem.permutation)],
        ceil_k=ceil_k, count_first_load=count_first_load,
    )


def optimize_layer(
    layer: ConvLayer,
    specs,
    mc_bits: float,
    permutations=None,
    ceil_k: int = DEFAULT_CEIL_K,
    count_first_load: bool = True,
) -> TilingChoice:
    """Minimize one layer's traffic over loop orders and tile sizes jointly."""
    table = LayerMappingTable(
        layer, permutations=permutations, ceil_k=ceil_k, count_first_load=count_first_load
    )
    hit = table.query(specs, mc_bits)
    if hit is None:
        raise InfeasibleError(f"no candidate mapping fits {mc_bits} bits for layer {layer.index}")
    mapping, dm_bits_val, foot = hit
    breakdown = dm_layer(layer, mapping, specs, count_first_load=count_first_load)
    return TilingChoice(mapping=mapping, breakdown=breakdown, footprint_bits=foot, dm_bits=breakdown.dm_total_bits)
