import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bfpsearch.dm import (
    ADVANCING,
    INSIDE,
    OPERAND_DIMS,
    OPERANDS,
    OUTSIDE,
    MappingError,
    _dim_sums,
    _tensor_dim,
    dm_layer,
    loop_extents,
    make_mapping,
    role_bits,
    tile_footprint_elems,
    weigh,
)
import bfpsearch.dm as dm
import bfpsearch.tiling as tiling
from bfpsearch.model import ConvLayer, layer_volumes
from bfpsearch.tiling import (
    MOVING_DIMS,
    LayerMappingTable,
    _candidate_dim_sums,
    default_permutations,
    has_feasible_mapping,
    least_footprint_elems,
    tile_candidates,
)

from conftest import small_convs, small_layer, spec_triple
from reference_tiling import reference_table_arrays

ORDER = ("oc", "ic", "oh", "ow")


def reference_points(layer, specs, permutations=None, count_first_load=True, mc_bits=math.inf) -> list:
    """The points of the full (permutation x tiling) lattice that fit
    ``mc_bits``, scored one at a time with the scalar model, as (tie-break
    key, mapping, footprint_bits).  The key orders by smaller traffic, then
    larger tile volume, then earlier permutation, then lexicographically
    larger tiles."""
    bits = role_bits(layer, specs)
    ext = loop_extents(layer)
    cands = [tile_candidates(ext[d]) for d in MOVING_DIMS]
    points = []
    for perm_idx, perm in enumerate(permutations or default_permutations()):
        for combo in itertools.product(*cands):
            mapping = make_mapping(layer, dict(zip(MOVING_DIMS, combo)), order=perm)
            fe = tile_footprint_elems(layer, mapping)
            foot = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
            if foot > mc_bits:
                continue
            dm_bits = dm_layer(layer, mapping, specs, count_first_load=count_first_load).dm_total_bits
            volume = combo[0] * combo[1] * combo[2] * combo[3]
            points.append(((dm_bits, -volume, perm_idx, tuple(-t for t in combo)), mapping, foot))
    return points


def reference_query(layer, specs, mc_bits, permutations=None, count_first_load=True, points=None):
    """Brute force over the lattice (``points``, if given, are its
    :func:`reference_points`): the least key among the points that fit.
    Returns (mapping, dm_bits, footprint_bits) like ``query``, or None."""
    if points is None:
        points = reference_points(layer, specs, permutations, count_first_load, mc_bits)
    best = min((p for p in points if p[2] <= mc_bits), key=lambda p: p[0], default=None)
    return None if best is None else (best[1], best[0][0], best[2])


def test_tile_candidates_divisors_and_ceils():
    cands = tile_candidates(12)
    assert set(cands) >= {1, 2, 3, 4, 6, 12}
    assert cands == tuple(sorted(set(cands)))
    assert tile_candidates(1) == (1,)


def best_mapping(layer, specs, mc_bits, permutations=None):
    """The winner ``search`` takes for one layer: the table's query answer
    (mapping, dm_bits, footprint_bits) plus its breakdown, or None."""
    table = LayerMappingTable(layer, permutations=permutations)
    hit = table.query(specs, mc_bits)
    return None if hit is None else (*hit, table.breakdown(hit[0], specs))


def test_unconstrained_returns_whole_layer_tile():
    layer = small_layer(c_in=2, c_out=2)
    specs = spec_triple()
    mapping, _, _, breakdown = best_mapping(layer, specs, 1e12, permutations=[ORDER])
    ext = loop_extents(layer)
    assert all(mapping.tile(d) == ext[d] for d in MOVING_DIMS)
    vin, vout, vw = layer_volumes(layer)
    assert breakdown.total_elems == {"input": vin, "output": vout, "weight": vw}


def test_table_rejects_an_empty_loop_order_list():
    layer = small_layer(c_in=2, c_out=2)
    assert len(LayerMappingTable(layer).permutations) == 24
    for none in ([], ()):
        with pytest.raises(MappingError):
            LayerMappingTable(layer, permutations=none)


def test_capacity_constrained_matches_exhaustive_minimum():
    layer = small_layer(c_in=2, c_out=2)
    specs = spec_triple()
    # Capacity near one output-row tile's footprint.
    row_tile = make_mapping(layer, {"oh": 1, "ic": 1, "oc": 1})
    fe = tile_footprint_elems(layer, row_tile)
    bits = role_bits(layer, specs)
    mc = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
    mapping, dm_bits, foot, breakdown = best_mapping(layer, specs, mc, permutations=[ORDER])
    ref = reference_query(layer, specs, mc, permutations=[ORDER])
    assert mapping == ref[0]
    assert dm_bits == breakdown.dm_total_bits == ref[1]
    assert foot <= mc


@pytest.mark.parametrize("mc", [300.0, 800.0, 5e3, 1e12])
def test_optimality_across_capacities(mc):
    layer = ConvLayer(1, 2, 3, 8, 8, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    ref = reference_query(layer, specs, mc, permutations=[ORDER])
    choice = best_mapping(layer, specs, mc, permutations=[ORDER])
    if ref is None:
        assert choice is None
        return
    assert choice[0] == ref[0]
    assert choice[3].dm_total_bits == ref[1]


def test_infeasible_below_minimal_tile():
    layer = small_layer()
    assert best_mapping(layer, spec_triple(), 10.0, permutations=[ORDER]) is None


def test_monotone_in_capacity():
    layer = ConvLayer(1, 2, 2, 12, 12, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    prev = None
    for mc in (500.0, 1000.0, 4000.0, 1e5, 1e9):
        choice = best_mapping(layer, specs, mc)
        if choice is None:
            continue
        if prev is not None:
            assert choice[1] <= prev
        prev = choice[1]


def test_determinism_repeated_runs():
    layer = ConvLayer(1, 2, 3, 8, 8, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    a = best_mapping(layer, specs, 2000.0)
    b = best_mapping(layer, specs, 2000.0)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_weight_dominant_layer_keeps_weights_resident():
    # Weights dominate: the winner should stream them exactly once, which
    # needs the weight-invariant spatial loops innermost of the movers.
    layer = ConvLayer(1, 8, 8, 6, 6, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    bits = role_bits(layer, specs)
    _, _, vw = layer_volumes(layer)
    # Tight enough that whole-layer tiles do not fit and tiling is forced.
    breakdown = best_mapping(layer, specs, 2500.0)[3]
    assert breakdown.total_elems["weight"] == vw
    assert breakdown.total_bits["weight"] == vw * bits["weight"]


def test_pointwise_symmetric_tie_is_deterministic():
    layer = ConvLayer(1, 4, 4, 8, 8, 1, 1)
    specs = spec_triple()
    a = best_mapping(layer, specs, 1e9)
    b = best_mapping(layer, specs, 1e9)
    assert a[0] == b[0]


def test_feasibility_rechecked_post_hoc():
    layer = ConvLayer(1, 2, 3, 12, 12, 3, 3, pad_h=1, pad_w=1)
    specs = spec_triple()
    mc = 1500.0
    mapping, _, footprint_bits, _ = best_mapping(layer, specs, mc)
    fe = tile_footprint_elems(layer, mapping)
    bits = role_bits(layer, specs)
    foot = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
    assert foot <= mc
    assert foot == footprint_bits


def test_32bit_baseline_specs_supported():
    layer = small_layer(c_in=2, c_out=2)
    _, dm_bits, _, breakdown = best_mapping(layer, (32.0, 32.0, 32.0), 1e9)
    vin, vout, vw = layer_volumes(layer)
    assert dm_bits == breakdown.dm_total_bits == (vin + vout + vw) * 32.0


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
    layer = draw(small_convs())
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


@st.composite
def head_cases(draw):
    """A small layer, a head of 1, 2 or 8 survivors, a random subset of the
    loop orders, and effective, plain or equal bits (equal bits weigh every
    survivor's element total alike, so totals tie inside and across the head)."""
    layer = draw(small_convs())
    kind = draw(st.sampled_from(("bfp", "plain", "equal")))
    if kind == "bfp":
        se, bs = draw(st.integers(2, 5)), draw(st.sampled_from((1, 2, 4, 8, 16)))
        specs = spec_triple(qb=draw(st.sampled_from((8, 16))), se=se, bs=bs)
    elif kind == "plain":
        specs = tuple(float(draw(st.sampled_from((4, 8, 16, 32)))) for _ in range(3))
    else:
        specs = (8.0, 8.0, 8.0)
    perms = draw(st.permutations(default_permutations()))
    perms = perms[: draw(st.integers(1, len(perms)))]
    return layer, specs, draw(st.sampled_from((1, 2, 8))), perms, draw(st.booleans())


@settings(settings.get_profile("seeded"), max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(head_cases())
def test_small_heads_answer_like_brute_force(case):
    """With heads far smaller than the table, queries take both the head's
    answer and the fallback to every survivor.  Each equals the lattice brute
    force (winner, dm bits and footprint bits) at capacities from infeasible
    (half the smallest footprint) through the footprints to loose."""
    layer, specs, head_size, perms, count_first_load = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiling, "HEAD_SIZE", head_size)
        table = LayerMappingTable(layer, permutations=perms, count_first_load=count_first_load)
    assert len(table._head) == min(head_size, len(table._flat))
    points = reference_points(layer, specs, perms, count_first_load)
    feet = sorted({p[2] for p in points})
    for mc_bits in (feet[0] / 2, *feet[:: max(1, len(feet) // 10)], feet[-1], 2 * feet[-1]):
        assert table.query(specs, mc_bits) == reference_query(layer, specs, mc_bits, points=points)


# The 7 survivors of this layer that move the fewest elements tie at 140;
# the next one moves 156.
TIED_LAYER = ConvLayer(1, 2, 2, 6, 6, 3, 3)


def weighings_of_queries(monkeypatch, head_size):
    """A table of ``TIED_LAYER`` with a head of ``head_size`` and a list that
    gets one entry per weighing: a query makes one when the head's answer is
    proven and two when it falls back to every survivor."""
    monkeypatch.setattr(tiling, "HEAD_SIZE", head_size)
    table = LayerMappingTable(TIED_LAYER)
    totals = np.sort(sum(t.astype(np.float64) for t in table._traffic.values()))
    assert totals[:8].tolist() == [140.0] * 7 + [156.0]
    assert table._head_limit == totals[head_size] * tiling.HEAD_MARGIN  # L: the least total outside the head
    calls, first_min = [], tiling._first_min
    monkeypatch.setattr(tiling, "_first_min", lambda *args: calls.append(args) or first_min(*args))
    return table, calls


def test_head_answers_ties_inside_the_head(monkeypatch):
    # Equal bits weigh the 7 tied minima alike; a head of 8 holds them all,
    # so its first minimum is the table's winner, without the fallback.
    table, calls = weighings_of_queries(monkeypatch, 8)
    assert table.query((8.0, 8.0, 8.0), 1e9) == reference_query(TIED_LAYER, (8.0, 8.0, 8.0), 1e9)
    assert len(calls) == 1


@pytest.mark.parametrize("margin", [tiling.HEAD_MARGIN, 1.0])
def test_head_winner_at_the_bound_falls_back(monkeypatch, margin):
    # A head of 2 holds 2 of the 7 tied minima, so L = 140 and the head's
    # winner moves 8 * L bits: a tied survivor outside the head may come
    # first in tie-break order, so the query weighs every survivor.  With
    # the margin at 1 the winner's bits are exactly at the bound.
    monkeypatch.setattr(tiling, "HEAD_MARGIN", margin)
    table, calls = weighings_of_queries(monkeypatch, 2)
    assert table.query((8.0, 8.0, 8.0), 1e9) == reference_query(TIED_LAYER, (8.0, 8.0, 8.0), 1e9)
    assert len(calls) == 2


def test_head_with_no_feasible_survivor_falls_back(monkeypatch):
    table, calls = weighings_of_queries(monkeypatch, 1)
    specs = spec_triple()
    bits = role_bits(TIED_LAYER, specs)
    mc_bits = float(table.footprint_bits(bits).min())
    assert weigh(table._head_footprint, bits).min() > mc_bits
    hit = table.query(specs, mc_bits)
    assert hit is not None and hit == reference_query(TIED_LAYER, specs, mc_bits)
    assert len(calls) == 2


@pytest.mark.parametrize("bits", [math.nan, math.inf, -math.inf, 0.0, -8.0])
def test_non_finite_or_nonpositive_bits_are_rejected(bits):
    layer = ConvLayer(1, 3, 4, 9, 7, 3, 3)
    with pytest.raises(MappingError):
        LayerMappingTable(layer).query((bits, 8.0, 8.0), 1e9)
    with pytest.raises(MappingError):
        dm_layer(layer, make_mapping(layer, {}), (8.0, 8.0, bits))


def test_pruning_survivor_count_on_stack20_shape():
    # The 16 -> 16 channel, 32 x 32, 3 x 3 convolution of the 20-layer stack.
    table = LayerMappingTable(ConvLayer(1, 16, 16, 32, 32, 3, 3, pad_h=1, pad_w=1))
    assert len(table.permutations) * table.n_tilings == 117_600
    assert len(table._perm) == 16_643
    # A survivor holds a uint8 order, a uint16 tiling and three uint32 counts.
    survivor_bytes = table._perm.itemsize + table._flat.itemsize + sum(t.itemsize for t in table._traffic.values())
    assert survivor_bytes <= 16


def test_count_lattice_is_freed_before_the_head_is_selected(monkeypatch):
    # No view of the (role, order, tiling) counts outlives the survivors'
    # gather, copied rows included, so the head adds nothing to the build's peak.
    layer = ConvLayer(1, 16, 16, 32, 32, 3, 3, pad_h=1, pad_w=1)
    lattice_bytes = len(OPERANDS) * 117_600 * 8
    held, argpartition = [], np.argpartition

    def spy(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return argpartition(*args, **kwargs)

    monkeypatch.setattr(np, "argpartition", spy)
    tracemalloc.start()
    try:
        LayerMappingTable(layer)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < lattice_bytes, held[0] / lattice_bytes


@pytest.mark.parametrize("mc", [math.nan, 0.0, -1.0])
def test_query_rejects_nan_or_nonpositive_capacity(mc):
    table = LayerMappingTable(small_layer())
    with pytest.raises(MappingError):
        table.query(spec_triple(), mc)


@st.composite
def feasibility_cases(draw):
    """A small layer, a BFP triple or the plain 32-bit one, and where the
    capacity lies against the least footprint: at it, one ulp below it, or
    far below or above it."""
    layer = draw(small_convs())
    if draw(st.booleans()):
        specs = spec_triple(qb=draw(st.sampled_from((8, 16))), se=draw(st.integers(2, 5)),
                            bs=draw(st.sampled_from((1, 2, 3, 8, 16, 48))))
    else:
        specs = (32.0, 32.0, 32.0)
    where = draw(st.sampled_from(("at", "ulp below", "far below", "far above")))
    return layer, specs, where, draw(st.integers(4, 40))


@settings(settings.get_profile("seeded"), max_examples=80, suppress_health_check=[HealthCheck.too_slow])
@given(feasibility_cases())
def test_feasibility_predicate_matches_the_query(case):
    layer, specs, where, k = case
    table = LayerMappingTable(layer)
    bits = role_bits(layer, specs)
    feet = table.footprint_bits(bits)
    least = float(feet.min())
    mc_bits = {"at": least, "ulp below": math.nextafter(least, 0.0),
               "far below": least / 2**k, "far above": least * 2**k}[where]
    fits = has_feasible_mapping(least_footprint_elems(layer), bits, mc_bits)
    assert fits == (where in ("at", "far above"))
    # The query, and the weighing of every survivor without the predicate, agree.
    assert fits == (table.query(specs, mc_bits) is not None)
    assert fits == (table._weigh_survivors(bits, mc_bits) is not None)
    assert fits == bool((feet.take(table._flat) <= mc_bits).any())


@st.composite
def query_sequences(draw):
    """One layer, a few spec triples and capacities, and a random sequence of
    (triple, capacity) picks with repeats and interleaving.  Each BFP triple
    comes with a plain-float triple of its effective bits: a different memo
    key, an equal answer."""
    layer = draw(small_convs())
    triples = []
    for se, bs in draw(st.lists(st.tuples(st.integers(2, 5), st.sampled_from((1, 2, 4, 8))),
                                min_size=1, max_size=3)):
        bfp = spec_triple(qb=8, se=se, bs=bs)
        bits = role_bits(layer, bfp)
        triples += [bfp, tuple(bits[r] for r in OPERANDS)]
    triples.append((32.0, 32.0, 32.0))
    foot = LayerMappingTable(layer).footprint_bits(role_bits(layer, triples[0]))
    lo, hi = math.log(foot.min() / 2), math.log(foot.max() * 2)
    capacities = [math.exp(lo + f * (hi - lo)) for f in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))]
    picks = draw(st.lists(st.tuples(st.sampled_from(triples), st.sampled_from(capacities)), min_size=1, max_size=10))
    return layer, picks, draw(st.booleans())


@settings(settings.get_profile("seeded"), max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(query_sequences())
def test_memoized_answers_match_fresh_tables(case):
    layer, picks, count_first_load = case
    table = LayerMappingTable(layer, count_first_load=count_first_load)
    for specs, mc_bits in picks:
        hit = table.query(specs, mc_bits)
        assert hit == LayerMappingTable(layer, count_first_load=count_first_load).query(specs, mc_bits)
        if hit is not None:
            direct = dm_layer(layer, hit[0], specs, count_first_load=count_first_load)
            assert table.breakdown(hit[0], specs).to_record() == direct.to_record()
    # One weighing per distinct (spec triple, capacity).
    assert len(table._answers) == len({(tuple(specs), mc_bits) for specs, mc_bits in picks})


def test_repeated_spec_triple_is_one_lookup(monkeypatch):
    layer = small_layer(c_in=4, c_out=4)
    table = LayerMappingTable(layer)
    mc = 4096.0
    first = table.query(spec_triple(qb=8, se=3, bs=4), mc)
    assert first is not None
    calls = []
    monkeypatch.setattr(tiling, "role_bits", lambda *args: calls.append(args) or role_bits(*args))
    again = spec_triple(qb=8, se=3, bs=4)  # equal, built separately
    assert table.query(again, mc) is first
    assert table.query(list(again), mc) is first
    assert calls == []
    # A new capacity or triple computes its bits; a bad capacity still raises.
    table.query(again, 2 * mc)
    table.query(spec_triple(qb=8, se=4, bs=4), mc)
    assert len(calls) == 2
    with pytest.raises(MappingError):
        table.query(again, -mc)


def test_repeated_breakdown_is_one_lookup(monkeypatch):
    layer = small_layer(c_in=4, c_out=4)
    table = LayerMappingTable(layer)
    mapping = table.query(spec_triple(qb=8, se=3, bs=4), 4096.0)[0]
    first = table.breakdown(mapping, spec_triple(qb=8, se=3, bs=4))
    calls = []
    for module in (tiling, dm):
        monkeypatch.setattr(module, "role_bits", lambda *args: calls.append(args) or role_bits(*args))
    again = spec_triple(qb=8, se=3, bs=4)  # equal, built separately
    assert table.breakdown(mapping, again) is first
    assert table.breakdown(mapping, list(again)) is first
    assert calls == []
    # A new triple computes its breakdown, and its bits once.
    assert table.breakdown(mapping, spec_triple(qb=8, se=4, bs=4)) is not first
    assert len(calls) == 1


@st.composite
def dim_cases(draw):
    """A layer with padding and a stride up to two past its kernel, one of
    its tensor dims, and tile candidates for the dim's lead driver, in any
    order, with ragged last tiles and the whole extent (one position)."""
    k_h, k_w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pad_h, pad_w = draw(st.integers(0, k_h)), draw(st.integers(0, k_w))
    layer = ConvLayer(
        1, c_in=draw(st.integers(1, 12)), c_out=draw(st.integers(1, 12)),
        i_h=draw(st.integers(max(1, k_h - 2 * pad_h), 30)), i_w=draw(st.integers(max(1, k_w - 2 * pad_w), 30)),
        k_h=k_h, k_w=k_w, stride_h=draw(st.integers(1, k_h + 2)), stride_w=draw(st.integers(1, k_w + 2)),
        pad_h=pad_h, pad_w=pad_w,
    )
    drivers = draw(st.sampled_from(sorted({dim for dims in OPERAND_DIMS.values() for dim in dims})))
    extent = loop_extents(layer)[drivers[0]]
    tiles = draw(st.lists(st.integers(1, extent), min_size=1, max_size=8, unique=True))
    return layer, drivers, tuple(tiles)


@settings(settings.get_profile("seeded"), max_examples=150)
@given(dim_cases())
@example((ConvLayer(1, 2, 2, 11, 11, 1, 1, stride_h=3, stride_w=3), ("oh", "kh"), (4, 2, 1)))
@example((ConvLayer(1, 2, 2, 9, 7, 3, 2, stride_h=4, stride_w=1, pad_h=2, pad_w=1), ("oh", "kh"), (3, 1)))
def test_candidate_dim_sums_match_scalar_dim_sums(case):
    """All candidates at once equal ``_dim_sums`` one candidate at a time,
    for every rel of the lead driver, with a kernel driver INSIDE."""
    layer, drivers, tiles = case
    ext = loop_extents(layer)
    got = _candidate_dim_sums(layer, ext, drivers, tiles)
    for rel in (OUTSIDE, ADVANCING, INSIDE):
        assert all(arr.dtype.kind == "i" for arr in got[rel])
    for c, t in enumerate(tiles):
        dim = _tensor_dim(layer, ext, drivers, {**ext, drivers[0]: t})
        iters = {d: -(-ext[d] // (t if d == drivers[0] else ext[d])) for d in drivers}
        for rel in (OUTSIDE, ADVANCING, INSIDE):
            want = _dim_sums(dim, (rel,) + (INSIDE,) * (len(drivers) - 1), iters)
            assert (int(got[rel][0][c]), int(got[rel][1][c])) == want


def row_column_symmetric(layer):
    """The layer with its column input, kernel, stride and padding set to its row's."""
    return replace(layer, i_w=layer.i_h, k_w=layer.k_h, stride_w=layer.stride_h, pad_w=layer.pad_h)


@st.composite
def symmetric_or_not_convs(draw):
    """A :func:`small_convs` layer, made row/column-symmetric two times in three."""
    layer = draw(small_convs())
    return row_column_symmetric(layer) if draw(st.sampled_from((True, True, False))) else layer


@st.composite
def table_cases(draw):
    layer = draw(symmetric_or_not_convs())
    perms = draw(st.permutations(default_permutations()))
    return layer, perms[: draw(st.integers(1, len(perms)))], draw(st.booleans())


# Pairs of loops that commute when adjacent in an order, by operand: both
# drive none of its dims, or both drive a one-driver dim of it.
COMMUTING = {
    "input": set(),
    "output": {frozenset(p) for p in (("oc", "oh"), ("oc", "ow"), ("oh", "ow"))},
    "weight": {frozenset(("oc", "ic")), frozenset(("oh", "ow"))},
}


def commuting_classes(role):
    """The default orders grouped by adjacent swaps of ``COMMUTING[role]`` pairs."""
    classes, seen = [], set()
    for start in default_permutations():
        if start in seen:
            continue
        members, todo = {start}, [start]
        while todo:
            perm = todo.pop()
            for j in range(len(perm) - 1):
                if frozenset(perm[j:j + 2]) in COMMUTING[role]:
                    swapped = perm[:j] + (perm[j + 1], perm[j]) + perm[j + 2:]
                    if swapped not in members:
                        members.add(swapped)
                        todo.append(swapped)
        seen |= members
        classes.append(sorted(members))
    return classes


@settings(settings.get_profile("seeded"), max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_or_not_convs(), st.booleans())
@example(ConvLayer(1, 4, 6, 11, 11, 3, 3, stride_h=2, stride_w=2, pad_h=1, pad_w=1), True)
@example(ConvLayer(1, 4, 6, 11, 7, 3, 2, stride_h=2, stride_w=1, pad_h=1, pad_w=0, groups=2), False)
def test_reference_lattice_rows_obey_the_commuting_and_mirror_identities(layer, count_first_load):
    """The loop reference's count rows, not the build's: per operand, orders
    of one commuting class move the same counts at every tiling, and on a
    row/column-symmetric layer an order moves at tiling (oc, ic, a, b) what
    the order with oh and ow swapped moves at (oc, ic, b, a)."""
    want = reference_table_arrays(layer, count_first_load=count_first_load)
    lattice, mesh_shape = want["lattice"], tuple(len(c) for c in want["candidates"].values())
    index = {perm: i for i, perm in enumerate(default_permutations())}
    symmetric = layer == row_column_symmetric(layer)
    for r, role in enumerate(OPERANDS):
        classes = commuting_classes(role)
        assert len(classes) == {"input": 24, "output": 8, "weight": 14}[role]
        for members in classes:
            for perm in members[1:]:
                assert np.array_equal(lattice[r, index[perm]], lattice[r, index[members[0]]])
        if symmetric:
            for perm, p in index.items():
                mirror = index[tuple({"oh": "ow", "ow": "oh"}.get(d, d) for d in perm)]
                row = lattice[r, p].reshape(mesh_shape)
                assert np.array_equal(row, lattice[r, mirror].reshape(mesh_shape).swapaxes(2, 3))


def test_default_build_computes_46_of_72_rows_or_27_when_symmetric():
    for symmetric, computed in ((False, 46), (True, 27)):
        plan = tiling._row_plan(default_permutations(), symmetric)
        assert sum(how is None for rows in plan.values() for how in rows) == computed


def assert_table_matches_reference(table, want, count_type):
    """The table's survivors, their order, counts and gathered footprints
    equal the loop reference's values, held in the narrow survivor types."""
    assert table._perm.dtype == np.min_scalar_type(len(table.permutations) - 1)
    assert table._flat.dtype == np.min_scalar_type(table.n_tilings - 1)
    assert np.array_equal(table._perm, want["perm"]) and np.array_equal(table._flat, want["flat"])
    for role in OPERANDS:
        assert table._traffic[role].dtype == count_type
        assert np.array_equal(table._traffic[role], want["traffic"][role])
        assert table.footprint_elems[role].dtype == want["footprint_elems"][role].dtype
        assert np.array_equal(table.footprint_elems[role], want["footprint_elems"][role])
    bits = {"input": 5.25, "output": 9.0, "weight": 3.125}
    got = table.footprint_bits(bits).take(table._flat)
    assert np.array_equal(got.view(np.int64), weigh(want["footprint"], bits).view(np.int64))


@settings(settings.get_profile("seeded"), max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(table_cases())
def test_table_arrays_match_loop_reference_build(case):
    """The build's survivors, their order and their counts equal the loop
    version's bit for bit, for random orders, subsets and accountings."""
    layer, perms, count_first_load = case
    table = LayerMappingTable(layer, permutations=perms, count_first_load=count_first_load)
    want = reference_table_arrays(layer, permutations=perms, count_first_load=count_first_load)
    assert_table_matches_reference(table, want, np.uint32)


def test_counts_past_uint32_stay_float64():
    # 2048 -> 2048 channels at 64 x 64 with a 3 x 3 kernel moves up to
    # 36 x 2^32 elements of one operand under some mapping.
    layer = ConvLayer(1, 2048, 2048, 64, 64, 3, 3, pad_h=1, pad_w=1)
    table = LayerMappingTable(layer)
    assert max(t.max() for t in table._traffic.values()) >= 2**32
    assert_table_matches_reference(table, reference_table_arrays(layer), np.float64)


def test_grouped_counts_past_uint32_answer_like_brute_force():
    # 2^22 groups of 2 -> 2 channels: a lattice small enough to brute-force,
    # counts past 2^32 through the group multiplier.
    groups = 1 << 22
    layer = ConvLayer(1, 2 * groups, 2 * groups, 8, 8, 3, 3, pad_h=1, pad_w=1, groups=groups)
    table = LayerMappingTable(layer)
    assert table._traffic["input"].dtype == np.float64
    assert max(t.max() for t in table._traffic.values()) >= 2**32
    specs = spec_triple()
    foot = table.footprint_bits(role_bits(layer, specs))
    capacities = (float(foot.min()), float(np.median(foot)), float(foot.max()))
    answers = [reference_query(layer, specs, mc_bits) for mc_bits in capacities]
    for mc_bits, want in zip(capacities, answers):
        assert table.query(specs, mc_bits) == want
    # The same answers through a head of 2 survivors with float64 counts.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiling, "HEAD_SIZE", 2)
        small_head = LayerMappingTable(layer)
    assert len(small_head._head) == 2
    for mc_bits, want in zip(capacities, answers):
        assert small_head.query(specs, mc_bits) == want
