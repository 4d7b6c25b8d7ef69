"""Tile-size and loop-order optimization under a buffer capacity constraint.

For a layer and its per-role bitwidths, finds the loop order and tiling
with the least off-chip traffic whose three tile footprints fit the on-chip
capacity.  Tile candidates are divisors of each extent plus ceil(extent/k)
for small k; kernel loops stay untiled and innermost (the loop order over the
remaining four loops is searched, 24 orders by default).

The whole candidate lattice is evaluated once per layer by the same
level formula that :func:`bfpsearch.dm.dm_layer` uses for one mapping,
:func:`bfpsearch.dm.level_traffic`, run over per-candidate arrays that
broadcast along each loop's axis of the tiling mesh (integer element counts,
exact in float64, one bit-weighting per operand).  Dominated points are
pruned at build time, and a query is a masked ``np.argmin`` over the
survivors that returns the true optimum of the candidate set;
:class:`LayerMappingTable` says how the build stays exact and small.

A query first weighs only the table's *head*: the ``HEAD_SIZE`` survivors
that move the fewest elements in total.  Bits per element are positive, so
a survivor moves at least the smallest bitwidth times its element count in
bits, up to rounding.  When the head's winner moves fewer bits than that
bound allows any survivor outside the head, it is the answer; otherwise,
and when no head survivor fits the capacity, the query weighs every
survivor.  :meth:`LayerMappingTable._weigh_survivors` proves the bound
through float64 rounding.

A table memoizes for its lifetime (one CLI run, or one alpha sweep over all
its alphas): one query answer per distinct (spec triple, capacity) and one
traffic breakdown per distinct (mapping, spec triple).  Every caller gets
the same objects, so they are read-only: a query answer is a tuple of a
frozen ``Mapping`` and two floats, and nothing changes a ``DmBreakdown``
after ``finalize``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from . import dm
from .dm import (
    ADVANCING,
    INSIDE,
    LOOP_DIMS,
    OPERAND_DIMS,
    OPERANDS,
    OUTSIDE,
    Mapping,
    MappingError,
    _footprint_elems,
    _operand_dims,
    _overlap,
    _tensor_dim,
    level_traffic,
    loop_extents,
    make_mapping,
    role_bits,
    weigh,
)
from .model import ConvLayer

MOVING_DIMS = ("oc", "ic", "oh", "ow")

DEFAULT_CEIL_K = 8

# Survivors a query weighs before it may need the rest.  On the benchmark's
# tables the winner lies among the fewest-element 0.3% of the survivors
# (median; 3.8% at most), so 512 of their 7-33K survivors almost always hold it.
HEAD_SIZE = 512
# The head bound's safety factor: below 1 by far more than the relative
# rounding of its float64 chain, about 7 * 2^-53 (``_weigh_survivors``).
HEAD_MARGIN = 1 - 2**-40


class InfeasibleError(Exception):
    """No tiling in the candidate set satisfies the capacity constraint."""


def tile_candidates(extent: int) -> tuple:
    """Divisors of the extent plus ceil(extent/k) for k <= DEFAULT_CEIL_K, sorted."""
    cands = {extent}
    for d in range(1, extent + 1):
        if extent % d == 0:
            cands.add(d)
    for k in range(1, DEFAULT_CEIL_K + 1):
        cands.add(-(-extent // k))
    return tuple(sorted(cands))


def default_permutations():
    """All orders of the four tiled loops, kernel loops innermost untiled."""
    return tuple(itertools.permutations(MOVING_DIMS))


def _commuting_class(role: str, perm: tuple) -> tuple:
    """``perm`` with each run of adjacent loops that commute for ``role``'s
    counts sorted: two orders have the same class iff adjacent swaps of
    commuting loops turn one into the other, and then the same counts
    (:class:`LayerMappingTable` says why).  Loops that drive none of the
    operand's dims commute, and so do loops that each drive a one-driver dim
    of it; a loop that drives a two-driver dim commutes with none."""

    def kind(loop):
        driven = [dim for dim in OPERAND_DIMS[role] if loop in dim]
        return "none" if not driven else "one" if driven == [(loop,)] else loop

    return tuple(tuple(sorted(run)) for _, run in itertools.groupby(perm, kind))


@functools.lru_cache(maxsize=None)
def _row_plan(permutations: tuple, symmetric: bool) -> dict:
    """How the build fills each (role, order) count row: ``None`` to compute
    it, ``(q, False)`` to copy row q of an earlier order of its commuting
    class, ``(q, True)`` to mirror row q, the earlier order with ``oh`` and
    ``ow`` swapped, on a row/column-symmetric layer."""
    first = {}
    for pi, perm in enumerate(permutations):
        first.setdefault(perm, pi)
    plan = {}
    for role in OPERANDS:
        seen, rows = {}, []
        for pi, perm in enumerate(permutations):
            cls = _commuting_class(role, perm)
            mirror = first.get(tuple({"oh": "ow", "ow": "oh"}.get(d, d) for d in perm), pi)
            if cls in seen:
                rows.append((seen[cls], False))
            elif symmetric and mirror < pi:
                rows.append((mirror, True))
            else:
                rows.append(None)
            seen.setdefault(cls, pi)
        plan[role] = tuple(rows)
    return plan


def _candidate_dim_sums(layer: ConvLayer, ext: dict, drivers: tuple, lead_cands) -> dict:
    """Summed (new length, overlap) of the tensor dim that ``drivers`` drive,
    for every candidate tile of its lead driver at once, by the lead's rel.

    Equal, candidate by candidate, to :func:`bfpsearch.dm._dim_sums` with
    the lead at that tile and a second (kernel) driver untiled and INSIDE:
    its one position is 0.  The (candidate, position) pairs are laid out
    flat, every interval is computed once, and one pass of the same
    :func:`bfpsearch.dm._overlap` over arrays gives all three rels: OUTSIDE
    sums every position with itself, ADVANCING steps p-1 -> p for p >= 1,
    and INSIDE wraps from the last position to 0.
    """
    lead = drivers[0]
    tile = np.asarray(lead_cands, dtype=np.int64)
    n = -(-ext[lead] // tile)
    start = np.cumsum(n) - n
    cand = np.repeat(np.arange(len(tile)), n)
    pos = np.arange(len(cand)) - start[cand]
    dim = _tensor_dim(layer, ext, drivers, {**ext, lead: tile[cand]})
    lo, hi = dim.interval((pos,), np.maximum, np.minimum)
    length = _overlap((lo, hi), (lo, hi), np.maximum, np.minimum)
    step = np.zeros_like(length)
    step[1:] = _overlap((lo[1:], hi[1:]), (lo[:-1], hi[:-1]), np.maximum, np.minimum)
    step[start] = 0  # a candidate's first position is stepped into from nowhere
    total = np.add.reduceat(length, start)
    last = start + n - 1
    return {
        OUTSIDE: (total, total),
        ADVANCING: (total - length[start], np.add.reduceat(step, start)),
        INSIDE: (length[start], _overlap((lo[start], hi[start]), (lo[last], hi[last]), np.maximum, np.minimum)),
    }


# Every ConvLayer field a mapping table depends on: all but the indices and sample paths.
shape_key = operator.attrgetter("c_in", "c_out", "i_h", "i_w", "k_h", "k_w",
                                "stride_h", "stride_w", "pad_h", "pad_w", "groups")


def least_footprint_elems(layer: ConvLayer) -> dict:
    """Per-role footprint elements of the all-ones tiling (kernel loops
    untiled): under any bits, the least weighed footprint of every tiling
    (see :func:`has_feasible_mapping`)."""
    ext = loop_extents(layer)
    return _footprint_elems(_operand_dims(layer, {**dict.fromkeys(MOVING_DIMS, 1), "kh": ext["kh"], "kw": ext["kw"]}))


def has_feasible_mapping(least_elems: dict, bits: dict, mc_bits: float) -> bool:
    """Whether a :class:`LayerMappingTable` holds a mapping that fits
    ``mc_bits`` under ``bits`` (:func:`~bfpsearch.dm.role_bits`), from the
    :func:`least_footprint_elems` of its layer and without the table: the
    one definition of infeasible that scoring and
    :meth:`LayerMappingTable.query` share.

    Every footprint grows with each moving tile, tile 1 is a candidate of
    every loop (:func:`tile_candidates`), weighing rounds monotonically and
    permutation 0 survives at every tiling, so the all-ones tiling is a
    survivor with the least weighed footprint of all.  Its footprint is the
    same integer element counts weighed in the same order as the table's,
    so the comparison is bit-identical to the query's.
    """
    return weigh(least_elems, bits) <= mc_bits


def _first_min(foot, traffic: dict, bits: dict, mc_bits: float):
    """(index, dm_bits, footprint_bits) of the first point with the least
    weighed ``traffic`` among those whose footprint bits ``foot`` fit
    ``mc_bits``, or None if none fits."""
    dm = np.where(foot <= mc_bits, weigh(traffic, bits), np.inf)
    best = int(np.argmin(dm))
    return None if dm[best] == np.inf else (best, float(dm[best]), float(foot[best]))


class LayerMappingTable:
    """Exact traffic of the (permutation, tiling) candidates for one layer.

    Element counts are bitwidth-independent, so one table serves every
    quantization candidate.  The build keeps only the points that survive
    dominance pruning: a permutation is dropped at a tiling when an earlier
    permutation there has no larger traffic count for any operand.  The
    survivors are sorted once into the deterministic tie-break order (larger
    tile volume, earlier permutation, lexicographically larger tile vector;
    the last relies on each dimension's candidates ascending, which
    :func:`tile_candidates` guarantees) and hold only what a query reads:
    their permutation index (``_perm``) and flat tiling index (``_flat``) in
    the narrowest unsigned types and their per-role traffic counts
    (``_traffic``) as uint32 (float64 in a table whose largest count reaches
    2^32), 15 bytes below 65,536 tilings.  Tile footprints depend only on
    the tiling, so a query weighs every tiling's footprint
    (:meth:`footprint_bits`) once and gathers it at ``_flat``, weights the
    survivors' counts by the three effective bitwidths, applies the capacity
    constraint and takes the first ``np.argmin``, which is the smallest
    traffic with that tie-break.

    The table also keeps a head: the indices (``_head``, ascending, so in
    tie-break order) of the ``HEAD_SIZE`` survivors with the smallest total
    element count C = input + output + weight, their traffic counts in the
    survivor types (``_head_traffic``) and their per-role footprint elements
    (``_head_footprint``), about 20 KB.  ``_head_limit`` is L * HEAD_MARGIN,
    where L is the smallest C outside the head (infinite when the head holds
    every survivor).  A query weighs the head first and weighs every survivor
    only when the head's winner cannot be proven to beat the rest
    (:meth:`_weigh_survivors`).  The head is selected after the build's
    count lattice is freed, so it does not raise the build's peak memory.

    How the build does each piece of arithmetic once and stays exact:

    * A tensor dim's summed interval lengths and overlaps are computed for
      every tile candidate of its driving loop in one flat pass over the
      (candidate, position) pairs, for all three places of the loop relative
      to a level (outside, advancing, inside).
    * Level terms are keyed per operand by (set of loops outside the level,
      level loop), at most 32 keys against 24 orders x 4 levels.  That key
      fixes the outer non-movers' iterations, each driver's place and the
      skip rule, and integer products are exact in float64 in any order, so
      the term is the same for every order that has the key.  Each order's
      counts still add its levels in level order.
    * A count row is computed only if no earlier order already fixes it
      (:func:`_row_plan`, worked out once per order list).  Commuting loops:
      for one operand, swapping two adjacent loops that both drive none of
      its dims, or that both drive a one-driver dim of it (no halo), leaves
      its counts unchanged.  Both levels keep the same outer set, and their
      terms sum to M*V*(n_a*n_b - 1), or to M*prod(S)*prod(f)*(S_a*S_b -
      f_a*f_b) (S a dim's summed length, f its first tile's), symmetric in a
      and b; a level that iterates once adds 0 either way.  Such orders
      share one row (8 for the output and 14 for the weight of the 24; the
      input's row and column dims have halos, so it keeps 24).  Mirror: on a
      layer with equal row and column input, kernel, stride and padding,
      the order with ``oh`` and ``ow`` swapped moves at tiling (oc, ic, a,
      b) what the order moves at (oc, ic, b, a), so an order listed after
      its mirror (in the default list, each order with ``ow`` before
      ``oh``) takes the mirror's row with the last two mesh axes swapped.
      Of the 72 default rows, 46 are computed, and 27 on a symmetric layer.
      Integer counts far below 2^53 sum exactly in any order, so the copies
      are bit-identical to computed rows.
    * Only live permutations (those that keep some tiling) prune.  If an
      earlier q dominates p at tiling t but is itself pruned at t, some
      earlier q' dominates q there, and by transitivity of <= also p;
      following that chain ends at a permutation that keeps t, which is
      live.  Permutation 0 keeps every tiling.
    * The tie-break order is one ascending sort of the key
      (dense rank of -volume, permutation, T-1-flat), packed into one int64
      as ``(rank * P + perm) * T + (T - 1 - flat)``: unique, and below
      P*T^2, so it fits for any table that fits in memory.  The survivors
      are gathered with ``take`` from flat arrays.

    No build-time memo outlives the build: a table holds only its arrays, its
    layer's :func:`least_footprint_elems` and its two memos, and pickles for
    parallel builds.
    """

    def __init__(self, layer: ConvLayer, permutations=None, count_first_load: bool = True):
        self.layer = layer
        self.permutations = tuple(tuple(p) for p in (default_permutations() if permutations is None else permutations))
        if not self.permutations:
            raise MappingError("a mapping table needs at least one loop order")
        for perm in self.permutations:
            if tuple(sorted(perm)) != tuple(sorted(MOVING_DIMS)):
                raise MappingError(f"permutation {perm} must order {MOVING_DIMS}")
        self.count_first_load = count_first_load
        ext = loop_extents(layer)
        self.extents = ext
        self.candidates = {d: tile_candidates(ext[d]) for d in MOVING_DIMS}
        self.mesh_shape = tuple(len(self.candidates[d]) for d in MOVING_DIMS)
        self.n_tilings = int(np.prod(self.mesh_shape))
        self._least_elems = least_footprint_elems(layer)
        self._build()
        self._answers = {}  # (spec triple, mc_bits) -> query's answer
        self._breakdowns = {}  # (mapping, spec triple) -> DmBreakdown

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
        dim_sums = {}

        def sums(drivers, rels):
            # Each tensor dim's sums are computed once per build, for every
            # candidate of its lead driver and all three of the lead's rels,
            # and shared by every role and order.  A second driver is a
            # kernel loop, which sits inside every level that moves anything.
            if drivers not in dim_sums:
                by_rel = _candidate_dim_sums(layer, ext, drivers, cands[drivers[0]])
                dim_sums[drivers] = {rel: tuple(along(drivers[0], col) for col in cols)
                                     for rel, cols in by_rel.items()}
            return dim_sums[drivers][rels[0]]

        # counts[r, p, t]: elements of operand OPERANDS[r] moved under
        # permutation p at flat (C-order) tiling t.
        n_perms, n_tilings = len(self.permutations), self.n_tilings
        counts = np.zeros((len(OPERANDS), n_perms, n_tilings))
        mesh = counts.reshape(len(OPERANDS), n_perms, *self.mesh_shape)
        symmetric = all(getattr(layer, f + "_h") == getattr(layer, f + "_w") for f in ("i", "k", "stride", "pad"))
        plan = _row_plan(self.permutations, symmetric)
        for r, role in enumerate(OPERANDS):
            dims = OPERAND_DIMS[role]
            first = math.prod(sums(dim, (INSIDE,) * len(dim))[0] for dim in dims)
            if not self.count_first_load:
                # A first load counts only if some loop moves the operand.
                first = first * (math.prod(iters[d] for dim in dims for d in dim) > 1)
            terms = {}  # this role's level terms by (loops outside the level, level loop)
            for pi, perm in enumerate(self.permutations):
                out = mesh[r, pi]
                if plan[role][pi] is not None:
                    q, mirror = plan[role][pi]
                    out[...] = mesh[r, q].swapaxes(2, 3) if mirror else mesh[r, q]
                    continue
                levels = level_traffic(perm + ("kh", "kw"), dims, iters, lambda k, rels: sums(dims[k], rels), terms)
                # (sum(levels) + first) * groups, accumulated in place in level order.
                for level in levels:
                    if isinstance(level, np.ndarray):  # skipped levels are 0
                        out += level
                out += first
                out *= layer.groups
            del terms  # freed per role, before the pruning buffers

        # Nominal tile footprints in elements (capacity constraint side).
        tiles = {d: along(d, cands[d]) for d in LOOP_DIMS}
        self.footprint_elems = {
            role: np.broadcast_to(elems, self.mesh_shape)
            for role, elems in _footprint_elems(_operand_dims(layer, tiles)).items()
        }

        # Dominance pruning: at one tiling every permutation has the same
        # footprint, and bits are positive, so a permutation whose three
        # counts are all >= those of an earlier one never beats it (rounded
        # products and sums are monotone) and loses an exact tie to it.  A
        # later permutation never prunes: rounding can turn its smaller
        # counts into an exact tie, which the earlier one must win.
        # Permutation 0 always survives, so no tiling loses feasibility.
        # Only live permutations (those that keep some tiling) prune; see
        # the class docstring for why that is exact.
        keep = np.zeros((n_perms, n_tilings), dtype=bool)
        keep[0] = True
        live = [0]
        le = np.empty((len(OPERANDS), n_tilings), dtype=bool)
        dominated, by_q = np.empty(n_tilings, dtype=bool), np.empty(n_tilings, dtype=bool)
        for p in range(1, n_perms):
            dominated[...] = False
            for q in live:
                np.less_equal(counts[:, q], counts[:, p], out=le)
                dominated |= np.logical_and.reduce(le, axis=0, out=by_q)
            np.logical_not(dominated, out=keep[p])
            if keep[p].any():
                live.append(p)
        perm, flat = np.nonzero(keep)
        # Survivors in tie-break order (larger tile volume, earlier
        # permutation, larger flat tiling index = lexicographically larger
        # tile vector, as candidates ascend per dimension), so the first
        # minimum of a query is its winner: one sort of the packed key.
        tile_volume = math.prod(tiles[d] for d in MOVING_DIMS).ravel()
        rank = np.unique(-tile_volume, return_inverse=True)[1]
        key = (rank[flat] * n_perms + perm) * n_tilings + (n_tilings - 1 - flat)
        del keep, perm, flat, rank  # the build's memory peaks from here on
        key.sort()
        perm = key // n_tilings % n_perms
        flat = n_tilings - 1 - key % n_tilings
        at = perm * n_tilings + flat
        traffic = {role: counts[r].reshape(-1).take(at) for r, role in enumerate(OPERANDS)}
        del counts, mesh, out, key, at  # mesh and out are views of counts
        # Narrow survivor types (class docstring); integer counts convert back exactly.
        count_type = np.uint32 if max(t.max() for t in traffic.values()) < 2**32 else np.float64
        self._traffic = {role: t.astype(count_type) for role, t in traffic.items()}
        self._perm = perm.astype(np.min_scalar_type(n_perms - 1))
        self._flat = flat.astype(np.min_scalar_type(n_tilings - 1))

        # The head: the HEAD_SIZE smallest totals, in storage order.  An
        # appended inf stands for "no survivor outside the head", so the
        # (k+1)-th smallest is L, or inf when the head holds every survivor.
        total = np.append((traffic["input"] + traffic["output"]) + traffic["weight"], np.inf)
        k = min(HEAD_SIZE, len(flat))
        part = np.argpartition(total, k)
        head = np.sort(part[:k])
        self._head = head.astype(np.min_scalar_type(len(flat) - 1))
        self._head_limit = float(total[part[k]]) * HEAD_MARGIN
        self._head_traffic = {role: t.take(head) for role, t in self._traffic.items()}
        self._head_footprint = {role: e.take(flat.take(head)) for role, e in self.footprint_elems.items()}

    # -- queries -------------------------------------------------------------

    def footprint_bits(self, bits: dict) -> np.ndarray:
        """Full-mesh tile footprint in bits for one bits-per-role triple."""
        return weigh(self.footprint_elems, bits)

    def mapping_at(self, perm_idx: int, tile_idx: tuple) -> Mapping:
        tiles = {d: self.candidates[d][tile_idx[i]] for i, d in enumerate(MOVING_DIMS)}
        return make_mapping(self.layer, tiles, order=self.permutations[perm_idx])

    def query(self, specs, mc_bits: float):
        """Best feasible (mapping, dm_bits, footprint_bits), or None where
        :func:`has_feasible_mapping` finds no mapping that fits.

        Answers are memoized by ``(tuple(specs), mc_bits)``: a spec triple
        equal to one seen before with that capacity (built separately or
        not) is answered by one dict lookup, before the arguments are
        validated again or the bits computed.
        """
        key = (tuple(specs), mc_bits)
        try:
            return self._answers[key]
        except KeyError:
            pass
        if not mc_bits > 0:
            raise MappingError(f"memory capacity must be positive, got {mc_bits}")
        bits = role_bits(self.layer, specs)
        feasible = has_feasible_mapping(self._least_elems, bits, mc_bits)
        self._answers[key] = self._weigh_survivors(bits, mc_bits) if feasible else None
        return self._answers[key]

    def _weigh_survivors(self, bits: dict, mc_bits: float):
        """The query's answer for validated bits: the head's winner when the
        bound proves it, else the first minimum over every survivor.

        Why the bound is exact.  Let u = 2^-53, b the smallest of the three
        bitwidths (positive and finite) and c_in, c_out, c_w a survivor's
        counts: integers, held exactly in uint32 or float64.  Rounding to
        nearest, each product c * b and each sum of two such nonnegative
        values is at least (1 - u) times its exact value: the result is
        either normal, or a subnormal multiple of 2^-1074 and exact, and an
        overflow to inf only raises it.  So the weighed total of every
        survivor, ``weigh``'s (in + out) + w, is at least
        (1 - u)^3 * b * (c_in + c_out + c_w).  The build's C is the float64
        sum (c_in + c_out) + c_w: exact below 2^53, as in every uint32
        table, and at most (1 + u)^2 times the exact sum in a float64-count
        table whose sums round.  So every survivor outside the head moves
        at least (1 - u)^3 / (1 + u)^2 * b * L bits.  The head's winner D
        passes when fl(D / b) < ``_head_limit`` = fl(L * HEAD_MARGIN); then
        D <= fl(D / b) * b / (1 - u) < (1 + u) / (1 - u) * HEAD_MARGIN * b * L,
        which is below that least total, since HEAD_MARGIN <=
        (1 - u)^4 / (1 + u)^3 (about 1 - 7u).  (D / b does not underflow:
        D is 0 or at least (1 - u)^3 * b; an overflow to inf fails the test.)
        Then every minimum of the full weighing lies in the head, whose
        order is the survivors' order, so the head's first minimum is the
        full weighing's.  Its footprint is the same elementwise weighing of
        the same element counts, so the answer is bit-identical.
        """
        hit = _first_min(weigh(self._head_footprint, bits), self._head_traffic, bits, mc_bits)
        if hit is not None and hit[1] / min(bits.values()) < self._head_limit:
            at = int(self._head[hit[0]])
        else:
            # Footprints depend only on the tiling: weighed once per tiling.
            hit = _first_min(self.footprint_bits(bits).take(self._flat), self._traffic, bits, mc_bits)
            if hit is None:
                return None
            at = hit[0]
        tile_idx = np.unravel_index(self._flat[at], self.mesh_shape)
        return self.mapping_at(int(self._perm[at]), tile_idx), hit[1], hit[2]

    def breakdown(self, mapping: Mapping, specs):
        """``dm.dm_layer`` of the table's layer under ``mapping`` and the table's
        first-load accounting, computed once per distinct (mapping, spec triple);
        looked up on the module, so a wrapper there (perfbench's tracer) sees it."""
        key = (mapping, tuple(specs))
        if key not in self._breakdowns:
            self._breakdowns[key] = dm.dm_layer(self.layer, mapping, specs, count_first_load=self.count_first_load)
        return self._breakdowns[key]
