import itertools

import pytest

from bfpsearch.dm import dm_layer, loop_extents, make_mapping, role_bits, tile_footprint_elems
from bfpsearch.model import ConvLayer, layer_volumes
from bfpsearch.tiling import (
    MOVING_DIMS,
    InfeasibleError,
    LayerMappingTable,
    TilingProblem,
    optimize_layer,
    optimize_tiling,
    tile_candidates,
)

from conftest import small_layer, spec_triple

ORDER = ("oc", "ic", "oh", "ow")


def brute_force_best(layer, order, specs, mc_bits, count_first_load=True):
    """Exhaustive reference over the same candidate lattice and tie-break."""
    bits = role_bits(layer, specs)
    ext = loop_extents(layer)
    cands = {d: tile_candidates(ext[d]) for d in MOVING_DIMS}
    best = None
    for combo in itertools.product(*(cands[d] for d in MOVING_DIMS)):
        tiles = dict(zip(MOVING_DIMS, combo))
        mapping = make_mapping(layer, tiles, order=order)
        fe = tile_footprint_elems(layer, mapping)
        foot = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
        if foot > mc_bits:
            continue
        bd = dm_layer(layer, mapping, specs, count_first_load=count_first_load)
        volume = 1
        for d in MOVING_DIMS:
            volume *= tiles[d]
        key = (bd.dm_total_bits, -volume, tuple(-tiles[d] for d in MOVING_DIMS))
        if best is None or key < best[0]:
            best = (key, mapping, foot)
    return best


def test_tile_candidates_divisors_and_ceils():
    cands = tile_candidates(12)
    assert set(cands) >= {1, 2, 3, 4, 6, 12}
    assert cands == tuple(sorted(set(cands)))
    assert tile_candidates(1) == (1,)


def test_unconstrained_returns_whole_layer_tile():
    layer = small_layer(c_in=2, c_out=2)
    specs = spec_triple()
    choice = optimize_tiling(TilingProblem(layer, ORDER, specs, 1e12))
    ext = loop_extents(layer)
    assert all(choice.mapping.tile(d) == ext[d] for d in MOVING_DIMS)
    vin, vout, vw = layer_volumes(layer)
    assert choice.breakdown.total_elems == {"input": vin, "output": vout, "weight": vw}


def test_capacity_constrained_matches_exhaustive_minimum():
    layer = small_layer(c_in=2, c_out=2)
    specs = spec_triple()
    # Capacity near one output-row tile's footprint.
    row_tile = make_mapping(layer, {"oh": 1, "ic": 1, "oc": 1})
    fe = tile_footprint_elems(layer, row_tile)
    bits = role_bits(layer, specs)
    mc = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
    choice = optimize_tiling(TilingProblem(layer, ORDER, specs, mc))
    ref = brute_force_best(layer, ORDER, specs, mc)
    assert choice.mapping == ref[1]
    assert choice.dm_bits == ref[0][0]
    assert choice.footprint_bits <= mc


@pytest.mark.parametrize("mc", [300.0, 800.0, 5e3, 1e12])
def test_optimality_across_capacities(mc):
    layer = ConvLayer(1, 2, 3, 8, 8, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    ref = brute_force_best(layer, ORDER, specs, mc)
    if ref is None:
        with pytest.raises(InfeasibleError):
            optimize_tiling(TilingProblem(layer, ORDER, specs, mc))
        return
    choice = optimize_tiling(TilingProblem(layer, ORDER, specs, mc))
    assert choice.mapping == ref[1]
    assert choice.dm_bits == ref[0][0]


def test_infeasible_below_minimal_tile():
    layer = small_layer()
    with pytest.raises(InfeasibleError):
        optimize_tiling(TilingProblem(layer, ORDER, spec_triple(), 10.0))


def test_monotone_in_capacity():
    layer = ConvLayer(1, 2, 2, 12, 12, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    prev = None
    for mc in (500.0, 1000.0, 4000.0, 1e5, 1e9):
        try:
            choice = optimize_layer(layer, specs, mc)
        except InfeasibleError:
            continue
        if prev is not None:
            assert choice.dm_bits <= prev
        prev = choice.dm_bits


def test_determinism_repeated_runs():
    layer = ConvLayer(1, 2, 3, 8, 8, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    a = optimize_layer(layer, specs, 2000.0)
    b = optimize_layer(layer, specs, 2000.0)
    assert a.mapping == b.mapping
    assert a.dm_bits == b.dm_bits


def test_weight_dominant_layer_keeps_weights_resident():
    # Weights dominate: the winner should stream them exactly once, which
    # needs the weight-invariant spatial loops innermost of the movers.
    layer = ConvLayer(1, 8, 8, 6, 6, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    bits = role_bits(layer, specs)
    _, _, vw = layer_volumes(layer)
    # Tight enough that whole-layer tiles do not fit and tiling is forced.
    choice = optimize_layer(layer, specs, 2500.0)
    assert choice.breakdown.total_elems["weight"] == vw
    assert choice.breakdown.total_bits["weight"] == vw * bits["weight"]


def test_pointwise_symmetric_tie_is_deterministic():
    layer = ConvLayer(1, 4, 4, 8, 8, 1, 1)
    specs = spec_triple()
    a = optimize_layer(layer, specs, 1e9)
    b = optimize_layer(layer, specs, 1e9)
    assert a.mapping == b.mapping


def test_single_permutation_reduces_to_optimize_tiling():
    layer = ConvLayer(1, 2, 3, 8, 8, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    mc = 2000.0
    via_layer = optimize_layer(layer, specs, mc, permutations=[ORDER])
    via_tiling = optimize_tiling(TilingProblem(layer, ORDER, specs, mc))
    assert via_layer.mapping == via_tiling.mapping
    assert via_layer.dm_bits == via_tiling.dm_bits


def test_feasibility_rechecked_post_hoc():
    layer = ConvLayer(1, 2, 3, 12, 12, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    mc = 1500.0
    choice = optimize_layer(layer, specs, mc)
    fe = tile_footprint_elems(layer, choice.mapping)
    bits = role_bits(layer, specs)
    foot = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
    assert foot <= mc
    assert foot == choice.footprint_bits


def test_32bit_baseline_specs_supported():
    layer = small_layer(c_in=2, c_out=2)
    choice = optimize_layer(layer, (32.0, 32.0, 32.0), 1e9)
    vin, vout, vw = layer_volumes(layer)
    assert choice.dm_bits == (vin + vout + vw) * 32.0


def test_table_query_matches_scalar_breakdowns():
    layer = ConvLayer(1, 3, 4, 9, 7, 3, 3, stride_h=2, stride_w=2, pad_h=1, pad_w=0)
    specs = spec_triple(qb=16, se=4, bs=8)
    table = LayerMappingTable(layer)
    hit = table.query(specs, 1e9)
    assert hit is not None
    mapping, dm_bits, foot = hit
    assert dm_layer(layer, mapping, specs).dm_total_bits == dm_bits
