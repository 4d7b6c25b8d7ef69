"""Loop-version reference for ``LayerMappingTable``'s build, the oracle of
the table property tests.

Every tensor dim's sums are taken one tile candidate at a time with the
scalar ``_dim_sums``; every (role, permutation) runs ``level_traffic`` with
a term memo of its own; every permutation is compared against all earlier
ones; and the survivors are put in tie-break order with a three-key
``lexsort`` and gathered by 2-D and 4-D fancy indexing.  The table must reproduce its arrays
bit for bit.
"""

import math

import numpy as np

from bfpsearch.dm import (
    INSIDE,
    LOOP_DIMS,
    OPERAND_DIMS,
    OPERANDS,
    _dim_sums,
    _footprint_elems,
    _operand_dims,
    _tensor_dim,
    level_traffic,
    loop_extents,
)
from bfpsearch.tiling import MOVING_DIMS, default_permutations, tile_candidates


def reference_table_arrays(layer, permutations=None, count_first_load=True) -> dict:
    """The table's survivor arrays: ``perm``, ``flat``, ``traffic`` and
    ``footprint`` (the last two by role) plus the full-mesh ``footprint_elems``,
    the unpruned ``lattice`` of counts (role, permutation, flat tiling) and
    the moving loops' tile ``candidates``."""
    permutations = tuple(tuple(p) for p in (permutations or default_permutations()))
    ext = loop_extents(layer)
    cands = {d: tile_candidates(ext[d]) for d in MOVING_DIMS}
    mesh_shape = tuple(len(cands[d]) for d in MOVING_DIMS)
    n_tilings = math.prod(mesh_shape)
    cands.update(kh=(ext["kh"],), kw=(ext["kw"],))

    def along(d, values):
        return np.asarray(values, dtype=np.float64).reshape([len(cands[d]) if e == d else 1 for e in MOVING_DIMS])

    iters = {d: along(d, [-(-ext[d] // t) for t in cands[d]]) for d in MOVING_DIMS}
    iters.update(kh=1, kw=1)
    memo = {}

    def sums(drivers, rels):
        if (drivers, rels) not in memo:
            lead = drivers[0]
            per_cand = []
            for t in cands[lead]:
                tiles = {**ext, lead: t}
                dim = _tensor_dim(layer, ext, drivers, tiles)
                per_cand.append(_dim_sums(dim, rels, {d: -(-ext[d] // tiles[d]) for d in drivers}))
            memo[drivers, rels] = tuple(along(lead, col) for col in zip(*per_cand))
        return memo[drivers, rels]

    counts = np.zeros((len(OPERANDS), len(permutations), n_tilings))
    for r, role in enumerate(OPERANDS):
        dims = OPERAND_DIMS[role]
        first = math.prod(sums(dim, (INSIDE,) * len(dim))[0] for dim in dims)
        if not count_first_load:
            first = first * (math.prod(iters[d] for dim in dims for d in dim) > 1)
        for pi, perm in enumerate(permutations):
            levels = level_traffic(perm + ("kh", "kw"), dims, iters, lambda k, rels: sums(dims[k], rels), {})
            counts[r, pi].reshape(mesh_shape)[...] = (sum(levels) + first) * layer.groups

    tiles = {d: along(d, cands[d]) for d in LOOP_DIMS}
    footprint_elems = {
        role: np.broadcast_to(elems, mesh_shape)
        for role, elems in _footprint_elems(_operand_dims(layer, tiles)).items()
    }
    tile_volume = math.prod(tiles[d] for d in MOVING_DIMS).ravel()
    keep = np.ones(counts.shape[1:], dtype=bool)
    for p in range(1, len(permutations)):
        keep[p] = ~(counts[:, :p] <= counts[:, p:p + 1]).all(axis=0).any(axis=0)
    perm, flat = np.nonzero(keep)
    order = np.lexsort((-flat, perm, -tile_volume[flat]))
    perm, flat = perm[order], flat[order]
    tile_idx = np.unravel_index(flat, mesh_shape)
    return {
        "perm": perm,
        "flat": flat,
        "traffic": {role: counts[r][perm, flat] for r, role in enumerate(OPERANDS)},
        "footprint": {role: footprint_elems[role][tile_idx] for role in OPERANDS},
        "footprint_elems": footprint_elems,
        "lattice": counts,
        "candidates": {d: cands[d] for d in MOVING_DIMS},
    }
