import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfpsearch.dm import dm_layer, loop_extents, make_mapping, role_bits, tile_footprint_elems
from bfpsearch.model import ConvLayer, layer_volumes
from bfpsearch.tiling import (
    MOVING_DIMS,
    InfeasibleError,
    LayerMappingTable,
    TilingProblem,
    default_permutations,
    optimize_layer,
    optimize_tiling,
    tile_candidates,
)

from conftest import small_layer, spec_triple

ORDER = ("oc", "ic", "oh", "ow")


def reference_query(layer, specs, mc_bits, permutations=None, count_first_load=True):
    """Brute force over the full (permutation x tiling) lattice, scored one
    point at a time with the scalar model: smaller traffic, then larger tile
    volume, then earlier permutation, then lexicographically larger tiles.
    Returns (mapping, dm_bits, footprint_bits) like ``query``, or None."""
    bits = role_bits(layer, specs)
    ext = loop_extents(layer)
    cands = [tile_candidates(ext[d]) for d in MOVING_DIMS]
    best = None
    for perm_idx, perm in enumerate(permutations or default_permutations()):
        for combo in itertools.product(*cands):
            mapping = make_mapping(layer, dict(zip(MOVING_DIMS, combo)), order=perm)
            fe = tile_footprint_elems(layer, mapping)
            foot = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
            if foot > mc_bits:
                continue
            dm_bits = dm_layer(layer, mapping, specs, count_first_load=count_first_load).dm_total_bits
            volume = combo[0] * combo[1] * combo[2] * combo[3]
            key = (dm_bits, -volume, perm_idx, tuple(-t for t in combo))
            if best is None or key < best[0]:
                best = (key, mapping, foot)
    return None if best is None else (best[1], best[0][0], best[2])


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
    ref = reference_query(layer, specs, mc, permutations=[ORDER])
    assert choice.mapping == ref[0]
    assert choice.dm_bits == ref[1]
    assert choice.footprint_bits <= mc


@pytest.mark.parametrize("mc", [300.0, 800.0, 5e3, 1e12])
def test_optimality_across_capacities(mc):
    layer = ConvLayer(1, 2, 3, 8, 8, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    ref = reference_query(layer, specs, mc, permutations=[ORDER])
    if ref is None:
        with pytest.raises(InfeasibleError):
            optimize_tiling(TilingProblem(layer, ORDER, specs, mc))
        return
    choice = optimize_tiling(TilingProblem(layer, ORDER, specs, mc))
    assert choice.mapping == ref[0]
    assert choice.dm_bits == ref[1]


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


@st.composite
def query_cases(draw):
    groups = draw(st.sampled_from((1, 1, 2)))
    k = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    pad = draw(st.integers(0, (k - 1) // 2))
    layer = ConvLayer(
        1,
        c_in=groups * draw(st.integers(1, 4)),
        c_out=groups * draw(st.integers(1, 4)),
        i_h=draw(st.integers(k, 6)),
        i_w=draw(st.integers(k, 6)),
        k_h=k,
        k_w=draw(st.integers(1, k)),
        stride_h=stride,
        stride_w=draw(st.integers(1, 2)),
        pad_h=pad,
        pad_w=pad,
        groups=groups,
    )
    if draw(st.booleans()):
        qb = draw(st.sampled_from((8, 16)))
        se = draw(st.integers(2, 5))
        specs = spec_triple(qb=qb, se=se, bs=draw(st.sampled_from((1, 2, 4, 8, 16))))
    else:
        specs = tuple(float(draw(st.sampled_from((4, 8, 16, 32)))) for _ in range(3))
    # A random subset of the loop orders in a random order, so that which
    # permutation is "earlier" in the tie-break and the pruning varies.
    perms = draw(st.permutations(default_permutations()))
    perms = perms[: draw(st.integers(1, len(perms)))]
    # Capacity between half the smallest tile footprint (infeasible) and
    # twice the whole-layer footprint (loose), on a log scale.
    table = LayerMappingTable(layer)
    foot = table.footprint_bits(role_bits(layer, specs))
    lo, hi = math.log(foot.min() / 2), math.log(foot.max() * 2)
    mc_bits = math.exp(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    return layer, specs, mc_bits, draw(st.booleans()), perms


@settings(settings.get_profile("seeded"), max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(query_cases())
def test_query_matches_lattice_brute_force(case):
    layer, specs, mc_bits, count_first_load, perms = case
    table = LayerMappingTable(layer, permutations=perms, count_first_load=count_first_load)
    # Pruning keeps at least one permutation at every tiling.
    assert np.array_equal(np.unique(table._flat), np.arange(table.n_tilings))
    expected = reference_query(layer, specs, mc_bits, permutations=perms, count_first_load=count_first_load)
    assert table.query(specs, mc_bits) == expected


def test_pruning_survivor_count_on_stack20_shape():
    # The 16 -> 16 channel, 32 x 32, 3 x 3 convolution of the 20-layer stack.
    table = LayerMappingTable(ConvLayer(1, 16, 16, 32, 32, 3, 3, pad_h=1, pad_w=1))
    assert len(table.permutations) * table.n_tilings == 117_600
    assert len(table._perm) == 16_643
