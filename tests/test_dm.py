import pytest

from bfpsearch.codec import effective_bitwidth
from bfpsearch.dm import (
    LOOP_DIMS,
    Mapping,
    MappingError,
    ReuseClass,
    dm_layer,
    make_mapping,
    role_bits,
    tile_footprint_elems,
)
from bfpsearch.model import ConvLayer, ModelDesc, layer_volumes
from bfpsearch.oracle import simulate
from bfpsearch.search import CandidateSpace, SearchError, build_mapping_tables
from bfpsearch.tiling import LayerMappingTable

from conftest import plan_for, small_layer, spec_triple


def test_mapping_validation():
    layer = small_layer()
    with pytest.raises(MappingError):
        Mapping(permutation=("oc", "ic", "oh", "ow", "kh"), tiles=(1,) * 6)
    with pytest.raises(MappingError):
        Mapping(permutation=("oc", "oc", "oh", "ow", "kh", "kw"), tiles=(1,) * 6)
    with pytest.raises(MappingError):
        make_mapping(layer, {"oh": 99})
    m = make_mapping(layer, {"oh": 2})
    assert m.tile("oh") == 2
    assert m.permutation[-2:] == ("kh", "kw")


SPEC_CALLS = {
    "query": lambda layer, specs: LayerMappingTable(layer).query(specs, 1e9),
    "dm_layer": lambda layer, specs: dm_layer(layer, make_mapping(layer, {}), specs),
    "simulate": lambda layer, specs: simulate(layer, make_mapping(layer, {}), specs),
}


@pytest.mark.parametrize("specs", [(8.0, 8.0), (8.0, 8.0, 8.0, 8.0)], ids=["two", "four"])
@pytest.mark.parametrize("call", sorted(SPEC_CALLS))
def test_a_spec_sequence_needs_one_entry_per_operand(call, specs):
    with pytest.raises(MappingError, match="one spec per operand"):
        SPEC_CALLS[call](small_layer(), specs)


# -- reuse classification (the three scenarios) ------------------------------


def reuse_of(layer, m):
    """{operand: {loop: ReuseClass}}, as dm_layer records it."""
    return dm_layer(layer, m, spec_triple()).reuse


def test_weights_full_reuse_across_spatial_loops():
    layer = small_layer(c_in=2, c_out=2)
    weight = reuse_of(layer, make_mapping(layer, {"oh": 1, "ow": 1, "oc": 1, "ic": 1}))["weight"]
    assert weight["oh"] is ReuseClass.FULL_REUSE
    assert weight["ow"] is ReuseClass.FULL_REUSE


def test_input_partial_reuse_stride_below_kernel():
    layer = small_layer()  # K=3, stride 1
    m = make_mapping(layer, {"oh": 1, "ow": 1})
    assert reuse_of(layer, m)["input"]["ow"] is ReuseClass.PARTIAL_REUSE


def test_input_no_reuse_stride_at_kernel():
    layer = ConvLayer(1, 1, 1, 9, 9, 3, 3, stride_h=3, stride_w=3)
    m = make_mapping(layer, {"oh": 1, "ow": 1})
    assert reuse_of(layer, m)["input"]["ow"] is ReuseClass.NO_REUSE


def test_more_reuse_classes():
    layer = small_layer(c_in=4, c_out=4)
    reuse = reuse_of(layer, make_mapping(layer, {"oc": 1, "ic": 1, "oh": 1, "ow": 1}))
    assert reuse["input"]["oc"] is ReuseClass.FULL_REUSE
    assert reuse["input"]["ic"] is ReuseClass.NO_REUSE
    assert reuse["output"]["ic"] is ReuseClass.FULL_REUSE
    assert reuse["output"]["oh"] is ReuseClass.NO_REUSE
    assert reuse["weight"]["oc"] is ReuseClass.NO_REUSE
    # single-iteration loops are trivially invariant
    whole = reuse_of(layer, make_mapping(layer))
    for op in ("input", "output", "weight"):
        for dim in LOOP_DIMS:
            assert whole[op][dim] is ReuseClass.FULL_REUSE


# -- tile footprints ----------------------------------------------------------


def test_whole_layer_input_footprint_is_volume_times_bits():
    layer = small_layer()
    m = make_mapping(layer)
    specs = spec_triple()
    q_i = effective_bitwidth(specs[0], (6, 6))
    assert tile_footprint_elems(layer, m)["input"] * role_bits(layer, specs)["input"] == 36 * q_i


def test_output_tile_halo():
    layer = small_layer()
    m = make_mapping(layer, {"oh": 2, "ow": 2})
    elems = tile_footprint_elems(layer, m)
    assert elems["input"] == 16  # 4x4 input patch for a 2x2 output tile
    assert elems["output"] == 4
    assert elems["weight"] == 9


def test_pointwise_kernel_no_halo():
    layer = small_layer(k_h=1, k_w=1)
    m = make_mapping(layer, {"oh": 3, "ow": 2})
    elems = tile_footprint_elems(layer, m)
    assert elems["input"] == 6  # equals the output tile extent


# -- the three per-level cases, on the exact level counts --------------------


@pytest.mark.parametrize("layer, tiles, level, moved, cold_weight", [
    # 6x6 input, 3x3 kernel, unit output tiles: 4 rows x 3 new output tiles
    # plus the first; 4 x 3 input slides of 3 plus the first 9-element tile.
    (ConvLayer(1, 1, 1, 6, 6, 3, 3), {"oh": 1, "ow": 1}, "ow", (4 * 3 + 1, 4 * 3 * 3 + 9, 0), 9),
    # A 6x1 column under a 3x1 kernel: 3 slides of 1 after a 3-element tile.
    (ConvLayer(1, 1, 1, 6, 1, 3, 1), {"oh": 1}, "oh", (4, 3 + 3 * 1, 0), 3),
    # Stride 2 slides the 3x3 window by 3 x 2 new elements: 3 rows x 2 slides.
    (ConvLayer(1, 1, 1, 7, 7, 3, 3, stride_h=2, stride_w=2), {"oh": 1, "ow": 1}, "ow",
     (3 * 2 + 1, 3 * 2 * 6 + 9, 0), 9),
], ids=["6x6-unit-tiles", "6x1-column", "stride-2"])
def test_level_elems_no_partial_full_reuse(layer, tiles, level, moved, cold_weight):
    # No reuse: each new output tile moves whole.  Partial reuse: the input
    # window moves its new elements only.  Full reuse: the weights stay put
    # and are only their cold first load.
    m = make_mapping(layer, tiles)
    bd = dm_layer(layer, m, spec_triple())
    j = m.permutation.index(level)
    assert bd.reuse["output"][level] is ReuseClass.NO_REUSE
    assert bd.reuse["input"][level] is ReuseClass.PARTIAL_REUSE
    assert bd.reuse["weight"][level] is ReuseClass.FULL_REUSE
    assert tuple(bd.level_elems[r][j] for r in ("output", "input", "weight")) == moved
    assert bd.cold_elems["weight"] == cold_weight


# -- per-layer traffic --------------------------------------------------------


def test_whole_layer_tile_moves_each_operand_once():
    layer = small_layer(c_in=2, c_out=3)
    specs = spec_triple()
    bd = dm_layer(layer, make_mapping(layer), specs)
    vin, vout, vw = layer_volumes(layer)
    assert bd.total_elems == {"input": vin, "output": vout, "weight": vw}


def test_sliding_window_hand_case():
    # 6x6 input, 3x3 kernel, unit output tiles, rows outer: 72 elements.
    layer = small_layer()
    bd = dm_layer(layer, make_mapping(layer, {"oh": 1, "ow": 1}), spec_triple())
    assert bd.total_elems["input"] == 72


def test_count_first_load_off_zeroes_static_operands():
    layer = small_layer(c_in=2, c_out=3)
    bd = dm_layer(layer, make_mapping(layer), spec_triple(), count_first_load=False)
    assert bd.total_elems == {"input": 0, "output": 0, "weight": 0}


def test_traffic_monotone_in_total_bits():
    layer = small_layer(c_in=2, c_out=3)
    m = make_mapping(layer, {"oh": 2, "ow": 2, "ic": 1})
    dm8 = dm_layer(layer, m, spec_triple(qb=8)).dm_total_bits
    dm16 = dm_layer(layer, m, spec_triple(qb=16)).dm_total_bits
    assert dm8 < dm16


def test_whole_layer_is_minimum_when_it_fits():
    layer = small_layer(c_in=2, c_out=2)
    specs = spec_triple()
    whole = dm_layer(layer, make_mapping(layer), specs).dm_total_bits
    for tiles in ({"oh": 1, "ow": 1}, {"ic": 1}, {"oc": 1, "ow": 2}, {"oh": 3, "ic": 1}):
        assert dm_layer(layer, make_mapping(layer, tiles), specs).dm_total_bits >= whole


def test_breakdown_components_nonnegative_and_additive():
    layer = small_layer(c_in=3, c_out=4, i_h=8, i_w=8)
    m = make_mapping(layer, {"oc": 2, "ic": 1, "oh": 2, "ow": 3}, order=("oh", "oc", "ow", "ic"))
    bd = dm_layer(layer, m, spec_triple())
    for role in ("input", "output", "weight"):
        assert all(v >= 0 for v in bd.level_elems[role])
        assert bd.cold_elems[role] >= 0
        total = (sum(bd.level_elems[role]) + bd.cold_elems[role]) * bd.group_multiplier
        assert total == bd.total_elems[role]
    assert bd.dm_total_bits == (
        bd.total_bits["input"] + bd.total_bits["output"]
    ) + bd.total_bits["weight"]


def test_grouped_layer_traffic_scales_subgroups():
    grouped = ConvLayer(1, 4, 4, 8, 8, 3, 3, pad_h=1, pad_w=1, groups=2)
    single = ConvLayer(1, 2, 2, 8, 8, 3, 3, pad_h=1, pad_w=1)
    mg = make_mapping(grouped, {"oh": 2, "ow": 2})
    ms = make_mapping(single, {"oh": 2, "ow": 2})
    specs = spec_triple()
    bg = dm_layer(grouped, mg, specs)
    bs = dm_layer(single, ms, specs)
    for role in ("input", "output", "weight"):
        assert bg.total_elems[role] == 2 * bs.total_elems[role]


# -- model-level sums ---------------------------------------------------------


def test_dm_sum_single_layer(tiny4):
    # A plan's traffic is its winners' breakdowns summed.
    layer = tiny4.layers[0]
    sub = ModelDesc(name="one", layers=[layer])
    plan = plan_for(sub, CandidateSpace(total_bits=8, se_set=(3,), bs_set=(8,)), mc_bits=65536.0)
    (a,) = plan.assignments
    assert a.config == (3, 8, 8)
    assert plan.dm_sum_bits == a.breakdown.dm_total_bits == dm_layer(layer, a.mapping, spec_triple(8, 3, 8)).dm_total_bits


def test_perf_loss_ratio(tiny4):
    # Traffic over the candidate-set maximum: 1.0 marks the worst candidate.
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8))
    plan = plan_for(tiny4, space, mc_bits=65536.0)
    rows = [r for r in plan.candidates if r["feasible"]]
    assert plan.dm_max_bits == max(r["dm_sum_bits"] for r in rows)
    assert plan.perf_loss == plan.dm_sum_bits / plan.dm_max_bits
    assert all(r["perf_loss"] == r["dm_sum_bits"] / plan.dm_max_bits for r in rows)
    assert max(r["perf_loss"] for r in rows) == 1.0
    # Literal accounting with whole-layer residency moves zero bits everywhere.
    with pytest.raises(SearchError, match="zero bits"):
        plan_for(tiny4, space, mc_bits=65536.0, tables=build_mapping_tables(tiny4, count_first_load=False))
