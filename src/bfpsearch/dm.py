"""Analytical data-movement model for tiled convolution loop nests.

The loop nest has six tile-level loops -- output channel, input channel,
output row, output column, kernel row, kernel column -- in a caller-chosen
order, with one tile size per loop.  One tile per operand is resident at a
time; advancing a loop slides or replaces the footprints of the operands that
depend on it, and only the non-overlapping part of the new footprint is
counted as off-chip traffic.  Loops an operand does not depend on cost it
nothing while the operand's own loops sit inside them; when they wrap an
operand's inner loops back to the start, the reload is counted.

All footprints are exact integer element counts (clipped against padding and
ragged final tiles); bit-weighting by the per-role effective bitwidth happens
once per operand at the end, which keeps totals bit-identical to the
brute-force schedule simulator in :mod:`bfpsearch.oracle`.

One level formula, :func:`level_traffic`, serves both a single mapping
(ints, here) and the whole tiling lattice of :mod:`bfpsearch.tiling`
(NumPy arrays that broadcast); each operand's tensor dims and their driver
loops are listed once, in ``OPERAND_DIMS``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import product

from .codec import BfpSpec, effective_bitwidth
from .model import ConvLayer

LOOP_DIMS = ("oc", "ic", "oh", "ow", "kh", "kw")
OPERANDS = ("input", "output", "weight")


class MappingError(ValueError):
    pass


class ReuseClass(enum.Enum):
    NO_REUSE = "no_reuse"
    PARTIAL_REUSE = "partial_reuse"
    FULL_REUSE = "full_reuse"


@dataclass(frozen=True)
class Mapping:
    """Loop order (outer to inner) plus one tile size per loop dimension."""

    permutation: tuple
    tiles: tuple  # aligned with LOOP_DIMS

    def __post_init__(self):
        if tuple(sorted(self.permutation)) != tuple(sorted(LOOP_DIMS)):
            raise MappingError(f"permutation must order {LOOP_DIMS} exactly once each, got {self.permutation}")
        if len(self.tiles) != len(LOOP_DIMS):
            raise MappingError(f"need {len(LOOP_DIMS)} tile sizes, got {len(self.tiles)}")
        for dim, t in zip(LOOP_DIMS, self.tiles):
            if t < 1:
                raise MappingError(f"tile size for {dim} must be >= 1, got {t}")

    def tile(self, dim: str) -> int:
        return self.tiles[LOOP_DIMS.index(dim)]


def loop_extents(layer: ConvLayer) -> dict:
    """Loop trip extents.  Grouped layers are modeled per group (see dm_layer)."""
    return {
        "oc": layer.c_out // layer.groups,
        "ic": layer.c_in // layer.groups,
        "oh": layer.o_h,
        "ow": layer.o_w,
        "kh": layer.k_h,
        "kw": layer.k_w,
    }


def make_mapping(layer: ConvLayer, tiles=None, order=None) -> Mapping:
    """Build a validated mapping; unspecified tiles default to the full extent.

    ``order`` may list only the channel/spatial loops; kernel loops are then
    appended innermost (the conventional untiled placement).
    """
    extents = loop_extents(layer)
    tiles = dict(tiles or {})
    full = [tiles.get(d, extents[d]) for d in LOOP_DIMS]
    if order is None:
        order = ("oc", "ic", "oh", "ow")
    order = tuple(order)
    missing = tuple(d for d in LOOP_DIMS if d not in order)
    mapping = Mapping(permutation=order + missing, tiles=tuple(full))
    validate_mapping(layer, mapping)
    return mapping


def validate_mapping(layer: ConvLayer, mapping: Mapping):
    extents = loop_extents(layer)
    for dim in LOOP_DIMS:
        t = mapping.tile(dim)
        if t > extents[dim]:
            raise MappingError(f"tile {t} for {dim} exceeds extent {extents[dim]}")


def iteration_counts(layer: ConvLayer, mapping: Mapping) -> dict:
    extents = loop_extents(layer)
    return {d: -(-extents[d] // mapping.tile(d)) for d in LOOP_DIMS}


def role_bits(layer: ConvLayer, specs) -> dict:
    """Per-role bits per element from a (input, output, weight) spec triple.

    Each entry may be a BfpSpec (amortized exponent accounting) or a plain
    number of bits (used for the unquantized 32-bit baseline).
    """
    dims = {
        "input": (layer.i_h, layer.i_w),
        "output": (layer.o_h, layer.o_w),
        "weight": (layer.k_h, layer.k_w),
    }
    out = {}
    for role, spec in zip(OPERANDS, specs):
        if isinstance(spec, BfpSpec):
            if spec.role != role:
                raise MappingError(f"spec for {role} slot has role={spec.role!r}")
            out[role] = effective_bitwidth(spec, dims[role])
        else:
            bits = float(spec)
            if bits <= 0:
                raise MappingError(f"bits for {role} must be positive, got {bits}")
            out[role] = bits
    return out


# ---------------------------------------------------------------------------
# Footprint geometry
# ---------------------------------------------------------------------------
#
# Every operand footprint is a box: a product of integer intervals, one per
# tensor dimension.  Each tensor dimension is driven by one loop (partition
# dims) or by an output loop plus a kernel loop (input rows/cols, which slide
# by the stride and carry the kernel halo).


@dataclass(frozen=True)
class _PartDim:
    """Tensor dim partitioned by one loop: position p covers [p*T, min((p+1)*T, E))."""

    driver: str
    tile: int
    extent: int

    @property
    def drivers(self):
        return (self.driver,)

    def interval(self, pos):
        a = pos[0] * self.tile
        return a, min(a + self.tile, self.extent)


@dataclass(frozen=True)
class _ConvDim:
    """Input spatial dim driven by an output loop and a kernel loop.

    The interval is the input support of the tile's output positions crossed
    with its kernel taps, shifted by padding and clipped to the real extent.
    """

    out_driver: str
    k_driver: str
    out_tile: int
    out_extent: int
    k_tile: int
    k_extent: int
    stride: int
    pad: int
    extent: int

    @property
    def drivers(self):
        return (self.out_driver, self.k_driver)

    def interval(self, pos):
        po, pk = pos
        o_lo = po * self.out_tile
        o_len = min(self.out_tile, self.out_extent - o_lo)
        k_lo = pk * self.k_tile
        k_len = min(self.k_tile, self.k_extent - k_lo)
        a = o_lo * self.stride + k_lo - self.pad
        b = a + (o_len - 1) * self.stride + k_len
        return max(a, 0), min(b, self.extent)


def _iv_len(iv):
    return max(0, iv[1] - iv[0])


def _iv_overlap(iv_a, iv_b):
    return max(0, min(iv_a[1], iv_b[1]) - max(iv_a[0], iv_b[0]))


# Each operand's tensor dims, named by the loops that drive them: one loop
# partitions a dim; an input row (column) follows the output-row (column)
# loop and the kernel-row (column) loop.
OPERAND_DIMS = {
    "input": (("ic",), ("oh", "kh"), ("ow", "kw")),
    "output": (("oc",), ("oh",), ("ow",)),
    "weight": (("oc",), ("ic",), ("kh",), ("kw",)),
}


def _tensor_dim(layer: ConvLayer, ext: dict, drivers: tuple, tiles: dict):
    """The footprint geometry of the tensor dim that ``drivers`` drive, given
    the layer's loop extents and per-loop tile sizes."""
    if len(drivers) == 1:
        return _PartDim(drivers[0], tiles[drivers[0]], ext[drivers[0]])
    out, k = drivers
    axis = out[1]  # "h" or "w"
    return _ConvDim(
        out_driver=out, k_driver=k,
        out_tile=tiles[out], out_extent=ext[out],
        k_tile=tiles[k], k_extent=ext[k],
        stride=getattr(layer, "stride_" + axis), pad=getattr(layer, "pad_" + axis),
        extent=getattr(layer, "i_" + axis),
    )


# ---------------------------------------------------------------------------
# Reuse classification
# ---------------------------------------------------------------------------


def classify_reuse(operand: str, loop_dim: str, layer: ConvLayer, tiling: Mapping) -> ReuseClass:
    """Reuse between consecutive iterations of one loop for one operand.

    Full reuse: the footprint does not depend on the loop (or the loop has a
    single iteration).  Partial reuse: consecutive footprints overlap, which
    only input activations exhibit, through the stride/kernel halo.  No
    reuse: consecutive footprints are disjoint.
    """
    if operand not in OPERANDS:
        raise MappingError(f"unknown operand {operand!r}")
    if loop_dim not in LOOP_DIMS:
        raise MappingError(f"unknown loop dim {loop_dim!r}")
    extents = loop_extents(layer)
    if tiling.tile(loop_dim) >= extents[loop_dim]:
        return ReuseClass.FULL_REUSE
    if not any(loop_dim in drivers for drivers in OPERAND_DIMS[operand]):
        return ReuseClass.FULL_REUSE
    if operand == "input":
        if loop_dim == "oh":
            return ReuseClass.PARTIAL_REUSE if layer.stride_h < tiling.tile("kh") else ReuseClass.NO_REUSE
        if loop_dim == "ow":
            return ReuseClass.PARTIAL_REUSE if layer.stride_w < tiling.tile("kw") else ReuseClass.NO_REUSE
        if loop_dim == "kh":
            return ReuseClass.PARTIAL_REUSE if tiling.tile("oh") > 1 else ReuseClass.NO_REUSE
        if loop_dim == "kw":
            return ReuseClass.PARTIAL_REUSE if tiling.tile("ow") > 1 else ReuseClass.NO_REUSE
        return ReuseClass.NO_REUSE  # input channels partition
    return ReuseClass.NO_REUSE  # output/weight tiles partition their dims


# ---------------------------------------------------------------------------
# Tile footprints and slide volumes
# ---------------------------------------------------------------------------


def tile_footprint_elems(layer: ConvLayer, tiling: Mapping) -> dict:
    """Nominal per-operand elements of one tile (halo included, unclipped)."""
    validate_mapping(layer, tiling)
    return _footprint_elems(layer, dict(zip(LOOP_DIMS, tiling.tiles)))


def _footprint_elems(layer: ConvLayer, t: dict) -> dict:
    """Nominal per-operand tile elements from per-loop tile sizes, which may
    be ints or NumPy arrays that broadcast (a lattice of tilings)."""
    in_rows = (t["oh"] - 1) * layer.stride_h + t["kh"]
    in_cols = (t["ow"] - 1) * layer.stride_w + t["kw"]
    return {
        "input": t["ic"] * in_rows * in_cols,
        "output": t["oc"] * t["oh"] * t["ow"],
        "weight": t["oc"] * t["ic"] * t["kh"] * t["kw"],
    }


def tile_footprint(layer: ConvLayer, tiling: Mapping, spec_i, spec_o, spec_w) -> dict:
    """Per-operand tile footprint in bits (elements weighted by effective bitwidth)."""
    bits = role_bits(layer, (spec_i, spec_o, spec_w))
    elems = tile_footprint_elems(layer, tiling)
    return {role: elems[role] * bits[role] for role in OPERANDS}


def new_data_per_iteration(operand: str, loop_dim: str, layer: ConvLayer, tiling: Mapping) -> int:
    """Elements newly required when one partially-reused loop advances a tile.

    Only defined for partial reuse; the window slides by tile*stride along the
    advancing dimension while the orthogonal tile extents stay fixed.
    """
    cls = classify_reuse(operand, loop_dim, layer, tiling)
    if cls is not ReuseClass.PARTIAL_REUSE:
        raise MappingError(f"new_data_per_iteration needs partial reuse, got {cls.value} for ({operand}, {loop_dim})")
    t = {d: tiling.tile(d) for d in LOOP_DIMS}
    in_rows = (t["oh"] - 1) * layer.stride_h + t["kh"]
    in_cols = (t["ow"] - 1) * layer.stride_w + t["kw"]
    if loop_dim == "oh":
        return t["ic"] * (t["oh"] * layer.stride_h) * in_cols
    if loop_dim == "ow":
        return t["ic"] * in_rows * (t["ow"] * layer.stride_w)
    if loop_dim == "kh":
        return t["ic"] * t["kh"] * in_cols
    return t["ic"] * in_rows * t["kw"]


def dm_level_volume(reuse: ReuseClass, iterations: int, tile_volume, new_volume=None):
    """The three-way per-level cost: no reuse streams the tile every
    iteration, partial reuse streams it once plus the slide delta, full reuse
    is free."""
    if iterations < 1:
        raise MappingError(f"iterations must be >= 1, got {iterations}")
    if reuse is ReuseClass.NO_REUSE:
        return iterations * tile_volume
    if reuse is ReuseClass.PARTIAL_REUSE:
        if new_volume is None:
            raise MappingError("partial reuse needs the per-iteration new-data volume")
        return tile_volume + (iterations - 1) * new_volume
    return 0 * tile_volume


# ---------------------------------------------------------------------------
# Exact per-layer traffic
# ---------------------------------------------------------------------------


@dataclass
class DmBreakdown:
    """Per-operand, per-loop-level traffic for one layer under one mapping.

    ``level_elems[role][i]`` counts elements moved by transitions whose
    deepest advancing loop is permutation position ``i`` (the operand's cold
    first load is folded into its innermost moving loop).  ``cold_elems``
    holds first loads of operands no loop re-moves; the ``count_first_load``
    option controls whether they are included in the totals.
    """

    permutation: tuple
    iters: dict
    bits: dict
    tile_elems: dict
    tile_bits: dict
    reuse: dict
    level_elems: dict
    cold_elems: dict
    group_multiplier: int
    count_first_load: bool
    total_elems: dict = field(default_factory=dict)
    total_bits: dict = field(default_factory=dict)
    dm_total_bits: float = 0.0

    def finalize(self):
        for role in OPERANDS:
            elems = sum(self.level_elems[role]) + (self.cold_elems[role] if self.count_first_load else 0)
            elems *= self.group_multiplier
            self.total_elems[role] = elems
            self.total_bits[role] = elems * self.bits[role]
        # Fixed input+output+weight addition order: keeps totals bit-identical
        # across the scalar model, the vectorized search tables and the oracle.
        self.dm_total_bits = (
            self.total_bits["input"] + self.total_bits["output"]
        ) + self.total_bits["weight"]
        return self

    def to_record(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "iterations": {d: self.iters[d] for d in LOOP_DIMS},
            "bits_per_element": {r: self.bits[r] for r in OPERANDS},
            "tile_elems": {r: self.tile_elems[r] for r in OPERANDS},
            "tile_bits": {r: self.tile_bits[r] for r in OPERANDS},
            "reuse": {r: {d: self.reuse[r][d].value for d in LOOP_DIMS} for r in OPERANDS},
            "level_elems": {r: list(self.level_elems[r]) for r in OPERANDS},
            "cold_elems": {r: self.cold_elems[r] for r in OPERANDS},
            "total_elems": {r: self.total_elems[r] for r in OPERANDS},
            "total_bits": {r: self.total_bits[r] for r in OPERANDS},
            "dm_total_bits": self.dm_total_bits,
            "group_multiplier": self.group_multiplier,
            "count_first_load": self.count_first_load,
        }


# A driver loop's place relative to the advancing level of a transition.
OUTSIDE, ADVANCING, INSIDE = -1, 0, 1


def _dim_sums(dim, rels, iters):
    """Summed new-footprint length and old/new overlap of one tensor dim over
    the transitions of one level.

    ``rels`` places each of the dim's drivers: outside the level it keeps its
    position (all values), the advancing level steps p-1 -> p, and inside it
    wraps from its last position to 0.
    """
    per_driver = []
    for drv, rel in zip(dim.drivers, rels):
        n = iters[drv]
        if rel == OUTSIDE:
            per_driver.append([(p, p) for p in range(n)])
        elif rel == ADVANCING:
            per_driver.append([(p - 1, p) for p in range(1, n)])
        else:
            per_driver.append([(n - 1, 0)])
    new_len = overlap = 0
    for combo in product(*per_driver):
        old, new = zip(*combo)
        iv_new = dim.interval(new)
        new_len += _iv_len(iv_new)
        overlap += _iv_overlap(iv_new, dim.interval(old))
    return new_len, overlap


def level_traffic(perm, drivers, iters, sums) -> list:
    """Elements one operand moves at each level of the loop order ``perm``
    (first load excluded).

    ``drivers`` lists the operand's tensor dims as driver-loop tuples (see
    ``OPERAND_DIMS``), and ``sums(k, rels)`` returns dim k's summed (new
    length, overlap) over a level's transitions, with ``rels`` placing each
    driver as in :func:`_dim_sums`.  ``iters`` and the sums are ints for one
    mapping or NumPy arrays that broadcast over a lattice of tilings; every
    count is an integer far below 2^53, so float64 holds it exactly in any
    product order.  A level that iterates once, or at or inside which no
    driver iterates more than once, leaves the footprint unchanged: it moves
    0 and is skipped.  An array of counts is taken to iterate; where it
    holds 1 its levels come out 0.
    """
    pos = {d: i for i, d in enumerate(perm)}
    movers = {d for dim in drivers for d in dim}
    iterating = {d for d in perm if not isinstance(iters[d], int) or iters[d] > 1}
    levels = [0] * len(perm)
    for j, lvl in enumerate(perm):
        if lvl not in iterating or all(pos[d] < j for d in movers & iterating):
            continue
        mult = 1
        for other in perm[:j]:
            if other not in movers:
                mult = mult * iters[other]
        if lvl not in movers:
            mult = mult * (iters[lvl] - 1)
        vol_new = vol_ovl = 1
        for k, dim in enumerate(drivers):
            rels = tuple((pos[d] > j) - (pos[d] < j) for d in dim)  # OUTSIDE, ADVANCING or INSIDE
            new_len, overlap = sums(k, rels)
            vol_new = vol_new * new_len
            vol_ovl = vol_ovl * overlap
        levels[j] = mult * (vol_new - vol_ovl)
    return levels


def operand_traffic_elems(layer: ConvLayer, mapping: Mapping, operand: str):
    """Exact per-level moved elements for one operand; returns
    (per-level list, cold first-load elements).  The first load is counted at
    the operand's innermost moving loop, or is cold if no loop moves it."""
    iters = iteration_counts(layer, mapping)
    perm = mapping.permutation
    ext, tiles = loop_extents(layer), dict(zip(LOOP_DIMS, mapping.tiles))
    dims = [_tensor_dim(layer, ext, drivers, tiles) for drivers in OPERAND_DIMS[operand]]
    level_elems = level_traffic(perm, OPERAND_DIMS[operand], iters, lambda k, rels: _dim_sums(dims[k], rels, iters))
    first = math.prod(_iv_len(dim.interval((0,) * len(dim.drivers))) for dim in dims)
    moving_levels = [j for j, d in enumerate(perm) if iters[d] > 1 and any(d in dim.drivers for dim in dims)]
    if not moving_levels:
        return level_elems, first
    level_elems[moving_levels[-1]] += first
    return level_elems, 0


def dm_layer(layer: ConvLayer, mapping: Mapping, specs, count_first_load: bool = True) -> DmBreakdown:
    """Exact off-chip traffic of one layer under one mapping, in bits.

    ``specs`` is the (input, output, weight) triple of BfpSpec or plain
    bit counts.  Grouped convolutions are modeled as one group's sub-nest
    multiplied by the group count.
    """
    validate_mapping(layer, mapping)
    bits = role_bits(layer, specs)
    iters = iteration_counts(layer, mapping)
    tile_elems = tile_footprint_elems(layer, mapping)
    reuse = {
        role: {d: classify_reuse(role, d, layer, mapping) for d in LOOP_DIMS}
        for role in OPERANDS
    }
    level_elems = {}
    cold_elems = {}
    for role in OPERANDS:
        level_elems[role], cold_elems[role] = operand_traffic_elems(layer, mapping, role)

    return DmBreakdown(
        permutation=mapping.permutation,
        iters=iters,
        bits=bits,
        tile_elems=tile_elems,
        tile_bits={r: tile_elems[r] * bits[r] for r in OPERANDS},
        reuse=reuse,
        level_elems=level_elems,
        cold_elems=cold_elems,
        group_multiplier=layer.groups,
        count_first_load=count_first_load,
    ).finalize()


def dm_sum(model, per_layer, count_first_load: bool = True) -> float:
    """Total traffic over all layers; ``per_layer`` pairs each layer with its
    (mapping, specs)."""
    if len(per_layer) != len(model.layers):
        raise MappingError(f"plan covers {len(per_layer)} layers, model has {len(model.layers)}")
    total = 0.0
    for layer, (mapping, specs) in zip(model.layers, per_layer):
        total += dm_layer(layer, mapping, specs, count_first_load=count_first_load).dm_total_bits
    return total


def perf_loss(dm_sum_bits: float, dm_max_bits: float) -> float:
    """Traffic normalized by the candidate-set maximum; 1.0 marks the worst candidate."""
    if dm_max_bits <= 0:
        raise MappingError(f"dm_max must be positive, got {dm_max_bits}")
    return dm_sum_bits / dm_max_bits
