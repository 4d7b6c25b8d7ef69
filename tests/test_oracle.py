"""The simulator is the model's ground truth, so its own micro-behavior is
pinned here against a per-element set-based reference simulator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfpsearch.dm import LOOP_DIMS, OPERANDS, Mapping, dm_layer, iteration_counts, loop_extents, make_mapping, role_bits
from bfpsearch.model import ConvLayer, layer_volumes
from bfpsearch.oracle import CapacityError, simulate
from bfpsearch.tiling import LayerMappingTable, default_permutations

from conftest import small_layer, spec_triple


def elementwise_reference(layer, mapping):
    """Per-element transfer counts: enumerates concrete tensor indices with
    Python sets, one resident footprint per operand."""
    iters = iteration_counts(layer, mapping)
    perm = mapping.permutation
    t = {d: mapping.tile(d) for d in LOOP_DIMS}
    ext = {
        "oc": layer.c_out // layer.groups,
        "ic": layer.c_in // layer.groups,
        "oh": layer.o_h,
        "ow": layer.o_w,
        "kh": layer.k_h,
        "kw": layer.k_w,
    }

    def rng(dim, p):
        lo = p * t[dim]
        return range(lo, min(lo + t[dim], ext[dim]))

    def footprints(pos):
        in_set = set()
        for ic, oh, ow, kh, kw in itertools.product(
            rng("ic", pos["ic"]), rng("oh", pos["oh"]), rng("ow", pos["ow"]),
            rng("kh", pos["kh"]), rng("kw", pos["kw"]),
        ):
            r = oh * layer.stride_h + kh - layer.pad_h
            c = ow * layer.stride_w + kw - layer.pad_w
            if 0 <= r < layer.i_h and 0 <= c < layer.i_w:
                in_set.add((ic, r, c))
        out_set = set(itertools.product(rng("oc", pos["oc"]), rng("oh", pos["oh"]), rng("ow", pos["ow"])))
        w_set = set(itertools.product(
            rng("oc", pos["oc"]), rng("ic", pos["ic"]), rng("kh", pos["kh"]), rng("kw", pos["kw"]),
        ))
        return {"input": in_set, "output": out_set, "weight": w_set}

    resident = {}
    moved = {"input": 0, "output": 0, "weight": 0}
    for idx in itertools.product(*[range(iters[d]) for d in perm]):
        pos = dict(zip(perm, idx))
        foot = footprints(pos)
        for role in moved:
            prev = resident.get(role, set())
            moved[role] += len(foot[role] - prev)
            resident[role] = foot[role]
    return {role: moved[role] * layer.groups for role in moved}


MICRO_CASES = [
    (small_layer(), {"oh": 1, "ow": 1}, ("oc", "ic", "oh", "ow")),
    (small_layer(), {"oh": 2, "ow": 2}, ("oc", "ic", "ow", "oh")),
    (small_layer(c_in=2, c_out=2, pad_h=1, pad_w=1), {"ic": 1, "oh": 2, "ow": 3}, ("oh", "ic", "oc", "ow")),
    (ConvLayer(1, 2, 2, 7, 7, 3, 3, stride_h=2, stride_w=2), {"oh": 1, "ow": 2, "oc": 1}, ("ow", "oc", "oh", "ic")),
    (ConvLayer(1, 1, 2, 9, 9, 3, 3, stride_h=3, stride_w=3), {"oh": 1, "ow": 1}, ("oc", "ic", "oh", "ow")),
]


@pytest.mark.parametrize("layer,tiles,order", MICRO_CASES)
def test_oracle_matches_per_element_reference(layer, tiles, order):
    mapping = make_mapping(layer, tiles, order=order)
    sim = simulate(layer, mapping, spec_triple())
    assert sim.transfer_elems == elementwise_reference(layer, mapping)


def test_kernel_tiled_mapping_matches_reference():
    layer = small_layer(i_h=8, i_w=8)
    tiles = dict(zip(LOOP_DIMS, (1, 1, 2, 2, 1, 3)))
    mapping = Mapping(permutation=("oh", "kh", "ow", "oc", "ic", "kw"), tiles=tuple(tiles[d] for d in LOOP_DIMS))
    sim = simulate(layer, mapping, spec_triple())
    assert sim.transfer_elems == elementwise_reference(layer, mapping)


def test_whole_layer_tile_single_load():
    layer = small_layer(c_in=2, c_out=3)
    specs = spec_triple()
    bits = role_bits(layer, specs)
    sim = simulate(layer, make_mapping(layer), specs)
    vin, vout, vw = layer_volumes(layer)
    assert sim.transfer_elems == {"input": vin, "output": vout, "weight": vw}
    assert sim.transfer_bits["input"] == vin * bits["input"]


def test_sliding_window_discount():
    layer = small_layer()
    sim = simulate(layer, make_mapping(layer, {"oh": 1, "ow": 1}), spec_triple())
    # 16 unit tiles of 9 input elements would be 144 without reuse.
    assert sim.transfer_elems["input"] == 72


def test_disjoint_windows_pay_full_footprint():
    layer = ConvLayer(1, 1, 1, 9, 9, 3, 3, stride_h=3, stride_w=3)
    mapping = make_mapping(layer, {"oh": 1, "ow": 1})
    sim = simulate(layer, mapping, spec_triple())
    iters = iteration_counts(layer, mapping)
    n_tiles = iters["oh"] * iters["ow"]
    assert sim.transfer_elems["input"] == n_tiles * 9


def test_determinism():
    layer = small_layer(c_in=2, c_out=2)
    mapping = make_mapping(layer, {"oh": 2, "ow": 1, "ic": 1}, order=("ow", "ic", "oh", "oc"))
    a = simulate(layer, mapping, spec_triple())
    b = simulate(layer, mapping, spec_triple())
    assert a.transfer_elems == b.transfer_elems
    assert a.total_bits == b.total_bits


def test_capacity_rejection_and_peak():
    layer = small_layer()
    mapping = make_mapping(layer)
    specs = spec_triple()
    with pytest.raises(CapacityError):
        simulate(layer, mapping, specs, mc_bits=10.0)
    sim = simulate(layer, mapping, specs, mc_bits=1e9)
    from bfpsearch.dm import tile_footprint

    limit = sum(tile_footprint(layer, mapping, *specs).values())
    assert sim.peak_occupancy_bits <= limit


def test_conservation_every_needed_element_moved():
    layer = small_layer(c_in=2, c_out=2, pad_h=1, pad_w=1)
    mapping = make_mapping(layer, {"oh": 2, "ow": 2, "ic": 1})
    sim = simulate(layer, mapping, spec_triple())
    vin, vout, vw = layer_volumes(layer)
    assert sim.transfer_elems["input"] >= vin
    assert sim.transfer_elems["output"] >= vout
    assert sim.transfer_elems["weight"] >= vw


def test_unsupported_retention_policy_rejected():
    layer = small_layer()
    with pytest.raises(ValueError):
        simulate(layer, make_mapping(layer), spec_triple(), retention_policy="lru")


def test_trace_emission():
    layer = small_layer()
    mapping = make_mapping(layer, {"oh": 3, "ow": 3})
    sim = simulate(layer, mapping, spec_triple(), collect_trace=True)
    assert sim.trace is not None and len(sim.trace) == sim.steps
    assert sim.trace[0].startswith("step=1")


def test_oracle_equals_model_on_mixed_grid():
    # The module-level slice of the acceptance-grid equivalence.
    specs = spec_triple()
    layers = [
        small_layer(),
        small_layer(c_in=2, c_out=2, pad_h=1, pad_w=1),
        ConvLayer(1, 2, 3, 12, 12, 5, 5, stride_h=2, stride_w=2, pad_h=2, pad_w=2),
    ]
    orders = [("oc", "ic", "oh", "ow"), ("ow", "oh", "ic", "oc"), ("ic", "oh", "oc", "ow")]
    pairs = 0
    for layer in layers:
        for order in orders:
            for tiles in ({"oh": 1, "ow": 1}, {"ic": 1, "ow": 2}, {"oc": 1, "oh": 2}, {}):
                mapping = make_mapping(layer, tiles, order=order)
                bd = dm_layer(layer, mapping, specs)
                sim = simulate(layer, mapping, specs)
                assert bd.total_elems == sim.transfer_elems
                assert bd.dm_total_bits == sim.total_bits
                pairs += 1
    assert pairs == 36


@st.composite
def small_layers(draw):
    """Small layers with groups, strides up to above the kernel, padding up to
    the kernel halo and extents that leave ragged final tiles."""
    groups = draw(st.sampled_from((1, 1, 2)))
    k_h, k_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return ConvLayer(
        1,
        c_in=groups * draw(st.integers(1, 3)),
        c_out=groups * draw(st.integers(1, 3)),
        i_h=draw(st.integers(k_h, 7)),
        i_w=draw(st.integers(k_w, 7)),
        k_h=k_h,
        k_w=k_w,
        stride_h=draw(st.integers(1, 4)),
        stride_w=draw(st.integers(1, 4)),
        pad_h=draw(st.integers(0, k_h - 1)),
        pad_w=draw(st.integers(0, k_w - 1)),
        groups=groups,
    )


BITS = (8.0, 8.0, 8.0)


@settings(settings.get_profile("seeded"), max_examples=80)
@given(small_layers(), st.data())
def test_table_survivor_counts_match_simulator(layer, data):
    # Independent of the level formula: every sampled survivor's per-role
    # counts must equal the schedule simulator's transfers for its mapping.
    perms = data.draw(st.permutations(default_permutations()))
    perms = perms[: data.draw(st.integers(1, len(perms)))]
    count_first_load = data.draw(st.booleans())
    table = LayerMappingTable(layer, permutations=perms, count_first_load=count_first_load)
    n = len(table._perm)
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=25, unique=True)):
        tile_idx = np.unravel_index(table._flat[i], table.mesh_shape)
        mapping = table.mapping_at(int(table._perm[i]), tile_idx)
        sim = simulate(layer, mapping, BITS, count_first_load=count_first_load)
        assert {role: table._traffic[role][i] for role in OPERANDS} == sim.transfer_elems


@settings(settings.get_profile("seeded"), max_examples=80)
@given(small_layers(), st.data())
def test_dm_layer_matches_simulator_on_six_loop_orders(layer, data):
    # Any order of all six loops, kernel loops tiled too.
    ext = loop_extents(layer)
    order = tuple(data.draw(st.permutations(LOOP_DIMS)))
    tiles = tuple(data.draw(st.integers(1, ext[d])) for d in LOOP_DIMS)
    count_first_load = data.draw(st.booleans())
    mapping = Mapping(permutation=order, tiles=tiles)
    bd = dm_layer(layer, mapping, BITS, count_first_load=count_first_load)
    sim = simulate(layer, mapping, BITS, count_first_load=count_first_load)
    assert bd.total_elems == sim.transfer_elems
    assert bd.dm_total_bits == sim.total_bits
