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

Each operand is described once, in ``OPERAND_DIMS`` (its tensor dims and
their driver loops): footprints, reuse classes, first loads and per-level
traffic all read it.  Every tensor dim has one interval formula (a channel
dim is the one-tap, stride-1, unpadded case of an input row) and one overlap
rule.  They and the level formula, :func:`level_traffic`, serve a single
mapping (ints) and the tiling lattice of :mod:`bfpsearch.tiling` (NumPy
arrays that broadcast).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import product

from .codec import ROLES as OPERANDS, BfpSpec, effective_bitwidth
from .model import ConvLayer

LOOP_DIMS = ("oc", "ic", "oh", "ow", "kh", "kw")


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
    number of bits (used for the unquantized 32-bit baseline), which must be
    positive and finite: a NaN or infinite bitwidth would weigh every mapping
    to NaN or inf, which a query reads as infeasible.
    """
    dims = {
        "input": (layer.i_h, layer.i_w),
        "output": (layer.o_h, layer.o_w),
        "weight": (layer.k_h, layer.k_w),
    }
    if len(specs) != len(OPERANDS):
        raise MappingError(f"expected one spec per operand {OPERANDS}, got {len(specs)}")
    out = {}
    for role, spec in zip(OPERANDS, specs):
        if isinstance(spec, BfpSpec):
            if spec.role != role:
                raise MappingError(f"spec for {role} slot has role={spec.role!r}")
            out[role] = effective_bitwidth(spec, dims[role])
        else:
            bits = float(spec)
            if not 0 < bits < math.inf:
                raise MappingError(f"bits for {role} must be positive and finite, got {bits}")
            out[role] = bits
    return out


# ---------------------------------------------------------------------------
# Footprint geometry
# ---------------------------------------------------------------------------
#
# Every operand footprint is a box: a product of integer intervals, one per
# tensor dim.  One ``_Dim`` describes every dim, and one rule, ``_overlap``,
# measures its intervals.  ``interval`` and ``_overlap`` take the builtin
# ``max`` and ``min`` (one mapping), or ``np.maximum`` and ``np.minimum``
# with arrays of positions and tiles (every tile candidate of a mapping
# table at once): one formula serves both.


@dataclass(frozen=True)
class _Dim:
    """Tensor dim driven by one loop (tile ``tile`` over ``out_extent``) and,
    for input rows/cols, a kernel loop (tile ``k_tile`` over ``k_extent``).

    An interval is the support of the tile's output positions crossed with its
    kernel taps, shifted by padding and clipped to ``extent``.  A dim with one
    driver is the one-tap, stride-1, unpadded case: [p*T, min((p+1)*T, E)).
    """

    drivers: tuple
    tile: int
    out_extent: int
    extent: int
    k_tile: int = 1
    k_extent: int = 1
    stride: int = 1
    pad: int = 0

    @property
    def span(self):  # nominal tile length: the output tile's support plus the halo, unclipped
        return (self.tile - 1) * self.stride + self.k_tile

    def interval(self, pos, maximum=max, minimum=min):
        """Interval at ``pos``, the drivers' positions; a missing kernel position is 0."""
        po, pk = (pos[0], 0) if len(pos) == 1 else pos
        o_lo = po * self.tile
        o_len = minimum(self.tile, self.out_extent - o_lo)
        k_lo = pk * self.k_tile
        k_len = minimum(self.k_tile, self.k_extent - k_lo)
        a = o_lo * self.stride + k_lo - self.pad
        b = a + (o_len - 1) * self.stride + k_len
        return maximum(a, 0), minimum(b, self.extent)


def _overlap(iv_a, iv_b, maximum=max, minimum=min):
    """Length of the intersection of two intervals, ints or arrays (with ``np.maximum``
    and ``np.minimum``); an interval's length is its overlap with itself."""
    return maximum(minimum(iv_a[1], iv_b[1]) - maximum(iv_a[0], iv_b[0]), 0)


# Each operand's tensor dims, named by the loops that drive them: one loop
# partitions a dim; an input row (column) follows the output-row (column)
# loop and the kernel-row (column) loop.
OPERAND_DIMS = {
    "input": (("ic",), ("oh", "kh"), ("ow", "kw")),
    "output": (("oc",), ("oh",), ("ow",)),
    "weight": (("oc",), ("ic",), ("kh",), ("kw",)),
}


def _tensor_dim(layer: ConvLayer, ext: dict, drivers: tuple, tiles: dict) -> _Dim:
    """The footprint geometry of the tensor dim that ``drivers`` drive, given
    the layer's loop extents and per-loop tile sizes."""
    out = drivers[0]
    if len(drivers) == 1:
        return _Dim(drivers=drivers, tile=tiles[out], out_extent=ext[out], extent=ext[out])
    k = drivers[1]
    axis = out[1]  # "h" or "w"
    return _Dim(
        drivers=drivers, tile=tiles[out], out_extent=ext[out], extent=getattr(layer, "i_" + axis),
        k_tile=tiles[k], k_extent=ext[k],
        stride=getattr(layer, "stride_" + axis), pad=getattr(layer, "pad_" + axis),
    )


def _operand_dims(layer: ConvLayer, tiles: dict) -> dict:
    """Each operand's tensor dims (``OPERAND_DIMS``) under per-loop tile sizes,
    ints or NumPy arrays that broadcast (a lattice of tilings)."""
    ext = loop_extents(layer)
    return {role: [_tensor_dim(layer, ext, drivers, tiles) for drivers in dims] for role, dims in OPERAND_DIMS.items()}


def _footprint_elems(dims: dict) -> dict:
    """Nominal elements of each operand's tile (halo included, unclipped)."""
    return {role: math.prod(dim.span for dim in role_dims) for role, role_dims in dims.items()}


def tile_footprint_elems(layer: ConvLayer, tiling: Mapping) -> dict:
    """Nominal per-operand elements of one tile (halo included, unclipped)."""
    validate_mapping(layer, tiling)
    return _footprint_elems(_operand_dims(layer, dict(zip(LOOP_DIMS, tiling.tiles))))


# ---------------------------------------------------------------------------
# Reuse classification
# ---------------------------------------------------------------------------


def _reuse(dims, loop: str, iters: dict) -> ReuseClass:
    """Reuse between consecutive iterations of ``loop`` for an operand with
    tensor dims ``dims``: full if no dim depends on the loop or it iterates
    once; partial if a two-driver dim (an input row or column) overlaps
    itself, as when its lead loop advances by less than the halo (stride <
    kernel tile, never with one tap) or its kernel loop does under a lead
    tile > 1; none if consecutive footprints are disjoint."""
    dim = next((dim for dim in dims if loop in dim.drivers), None)
    if dim is None or iters[loop] == 1:
        return ReuseClass.FULL_REUSE
    if (dim.stride < dim.k_tile) if loop == dim.drivers[0] else (dim.tile > 1):
        return ReuseClass.PARTIAL_REUSE
    return ReuseClass.NO_REUSE


# ---------------------------------------------------------------------------
# Exact per-layer traffic
# ---------------------------------------------------------------------------


def weigh(elems: dict, bits: dict):
    """Per-role element counts weighted by bits, summed as (input + output) +
    weight.  ``elems`` are ints for one mapping or NumPy arrays over a mapping
    table; the oracle sums its transfers in the same order on its own, as the
    reference, so the totals of all three stay bit-identical."""
    return (elems["input"] * bits["input"] + elems["output"] * bits["output"]) + elems["weight"] * bits["weight"]


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
        self.dm_total_bits = weigh(self.total_elems, self.bits)
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
        new_len += _overlap(iv_new, iv_new)
        overlap += _overlap(iv_new, dim.interval(old))
    return new_len, overlap


def level_traffic(perm, drivers, iters, sums, terms: dict) -> list:
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

    A level's term depends only on the set of loops outside it and on its
    own loop: they fix the outer non-movers' iterations, each driver's place
    and the skip rule.  ``terms`` holds the terms computed so far, keyed by
    (that set, the level loop): one order passes an empty dict, and a caller
    that runs many orders of one operand over the same ``iters`` and
    ``sums`` (a mapping table) passes one dict for them all, so each
    distinct term is computed once; exact integer products make the term
    independent of the order the outer loops come in.
    """
    movers = {d for dim in drivers for d in dim}
    iterating = {d for d in perm if not isinstance(iters[d], int) or iters[d] > 1}
    levels = [0] * len(perm)
    for j, lvl in enumerate(perm):
        outer = frozenset(perm[:j])
        if lvl not in iterating or movers & iterating <= outer:
            continue
        if (outer, lvl) in terms:
            levels[j] = terms[outer, lvl]
            continue
        mult = 1
        for other in perm[:j]:
            if other not in movers:
                mult = mult * iters[other]
        if lvl not in movers:
            mult = mult * (iters[lvl] - 1)
        vol_new = vol_ovl = 1
        for k, dim in enumerate(drivers):
            rels = tuple(OUTSIDE if d in outer else ADVANCING if d == lvl else INSIDE for d in dim)
            new_len, overlap = sums(k, rels)
            vol_new = vol_new * new_len
            vol_ovl = vol_ovl * overlap
        levels[j] = terms[outer, lvl] = mult * (vol_new - vol_ovl)
    return levels


def dm_layer(layer: ConvLayer, mapping: Mapping, specs, count_first_load: bool = True) -> DmBreakdown:
    """Exact off-chip traffic of one layer under one mapping, in bits.

    ``specs`` is the (input, output, weight) triple of BfpSpec or plain
    bit counts.  Grouped convolutions are modeled as one group's sub-nest
    multiplied by the group count.  Each operand's first load is counted at
    its innermost moving loop, or is cold if no loop moves it.
    """
    validate_mapping(layer, mapping)
    bits = role_bits(layer, specs)
    iters = iteration_counts(layer, mapping)
    dims = _operand_dims(layer, dict(zip(LOOP_DIMS, mapping.tiles)))
    perm = mapping.permutation
    tile_elems = _footprint_elems(dims)
    reuse, level_elems, cold_elems = {}, {}, {}
    for role, role_dims in dims.items():
        reuse[role] = {d: _reuse(role_dims, d, iters) for d in LOOP_DIMS}
        levels = level_traffic(perm, OPERAND_DIMS[role], iters,
                               lambda k, rels: _dim_sums(role_dims[k], rels, iters), {})
        first = math.prod(_dim_sums(dim, (INSIDE,) * len(dim.drivers), iters)[0] for dim in role_dims)
        moving = [j for j, d in enumerate(perm) if reuse[role][d] is not ReuseClass.FULL_REUSE]
        if moving:
            levels[moving[-1]] += first
            first = 0
        level_elems[role], cold_elems[role] = levels, first
    return DmBreakdown(
        permutation=perm, iters=iters, bits=bits,
        tile_elems=tile_elems, tile_bits={r: tile_elems[r] * bits[r] for r in OPERANDS}, reuse=reuse,
        level_elems=level_elems, cold_elems=cold_elems,
        group_multiplier=layer.groups, count_first_load=count_first_load,
    ).finalize()
