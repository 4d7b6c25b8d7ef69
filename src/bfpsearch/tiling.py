"""Tile-size and loop-order optimization under a buffer capacity constraint.

For a fixed layer, loop order and per-role bitwidths, finds the tiling with
the least off-chip traffic whose three tile footprints fit the on-chip
capacity.  Tile candidates are divisors of each extent plus ceil(extent/k)
for small k; kernel loops stay untiled and innermost (the loop order over the
remaining four loops is searched, 24 orders by default).

The whole candidate lattice is evaluated once per layer by the same
level formula that :func:`bfpsearch.dm.dm_layer` uses for one mapping,
:func:`bfpsearch.dm.level_traffic`, run over per-candidate arrays that
broadcast along each loop's axis of the tiling mesh (integer element counts,
exact in float64, one bit-weighting per operand).  Points that an
earlier permutation at the same tiling dominates in all three traffic counts
can never win, so they are pruned at build time; the survivors are stored in
tie-break order, and a query is one masked ``np.argmin`` over them that
returns the true optimum of the candidate set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dm import (
    INSIDE,
    LOOP_DIMS,
    OPERAND_DIMS,
    OPERANDS,
    Mapping,
    MappingError,
    _dim_sums,
    _footprint_elems,
    _tensor_dim,
    dm_layer,
    level_traffic,
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
        layer, ext = self.layer, self.extents
        # The kernel loops stay untiled and innermost: one candidate and one
        # iteration each, so their values broadcast along no mesh axis.
        cands = {**self.candidates, "kh": (ext["kh"],), "kw": (ext["kw"],)}

        def along(d, values):
            """Per-candidate values of loop d, shaped to broadcast along d's mesh axis."""
            return np.asarray(values, dtype=np.float64).reshape(
                [len(cands[d]) if e == d else 1 for e in MOVING_DIMS])

        iters = {d: along(d, [-(-ext[d] // t) for t in cands[d]]) for d in MOVING_DIMS}
        iters.update(kh=1, kw=1)
        memo = {}

        def sums(drivers, rels):
            # Each (tensor dim, rels) sum is computed once per build, per
            # candidate of the dim's leading driver (its other driver is a
            # kernel loop at full extent), and shared by every role and order.
            if (drivers, rels) not in memo:
                lead = drivers[0]
                per_cand = []
                for t in cands[lead]:
                    tiles = {**ext, lead: t}
                    dim = _tensor_dim(layer, ext, drivers, tiles)
                    per_cand.append(_dim_sums(dim, rels, {d: -(-ext[d] // tiles[d]) for d in drivers}))
                memo[drivers, rels] = tuple(along(lead, col) for col in zip(*per_cand))
            return memo[drivers, rels]

        # counts[r, p, t]: elements of operand OPERANDS[r] moved under
        # permutation p at flat (C-order) tiling t.
        counts = np.zeros((len(OPERANDS), len(self.permutations), self.n_tilings))
        for r, role in enumerate(OPERANDS):
            dims = OPERAND_DIMS[role]
            first = math.prod(sums(dim, (INSIDE,) * len(dim))[0] for dim in dims)
            if not self.count_first_load:
                # A first load counts only if some loop moves the operand.
                first = first * (math.prod(iters[d] for dim in dims for d in dim) > 1)
            for pi, perm in enumerate(self.permutations):
                levels = level_traffic(perm + ("kh", "kw"), dims, iters, lambda k, rels: sums(dims[k], rels))
                counts[r, pi].reshape(self.mesh_shape)[...] = (sum(levels) + first) * layer.groups

        # Nominal tile footprints in elements (capacity constraint side).
        tiles = {d: along(d, cands[d]) for d in LOOP_DIMS}
        self.footprint_elems = {
            role: np.broadcast_to(elems, self.mesh_shape) for role, elems in _footprint_elems(layer, tiles).items()
        }
        tile_volume = math.prod(tiles[d] for d in MOVING_DIMS).ravel()

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
