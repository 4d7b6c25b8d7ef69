"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from bfpsearch.codec import BfpSpec, decode_tensor, effective_bitwidth, encode_tensor
from bfpsearch.dm import (
    LOOP_DIMS,
    Mapping,
    ReuseClass,
    dm_layer,
    loop_extents,
    make_mapping,
    role_bits,
    tile_footprint_elems,
)
from bfpsearch.energy import energy, energy_from_bits
from bfpsearch.model import ConvLayer, loads_model
from bfpsearch.oracle import simulate
from bfpsearch.search import (
    CandidateEval,
    CandidateSpace,
    build_mapping_tables,
    select_candidate,
)
from bfpsearch.tiling import MOVING_DIMS, LayerMappingTable, shape_key, tile_candidates

from conftest import TINY4_TEXT, plan_for, spec_triple


def _report(criterion, detail):
    print(f"[criterion {criterion:>2}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Codec correctness property suite
# ---------------------------------------------------------------------------


def test_c01_codec_roundtrip_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    combos = [(8, se, bs) for se in (2, 3, 4, 5, 6) for bs in (1, 2, 4, 8, 16, 24, 32, 48)]
    combos += [(16, se, bs) for se in (2, 3, 4, 5, 6, 7) for bs in (1, 2, 4, 8, 16, 24, 32, 48)]
    blocks_per_combo = -(-100_000 // len(combos)) + 1
    total_blocks = 0
    for qb, se, bs in combos:
        spec = BfpSpec(qb, se, bs, "input")
        data = rng.uniform(-1.9, 1.9, size=blocks_per_combo * bs)
        data[rng.random(data.size) < 0.05] = 0.0
        enc = encode_tensor(data, spec)
        dec = decode_tensor(enc)
        grid = data.reshape(blocks_per_combo, bs)
        errs = np.abs(grid - dec.reshape(blocks_per_combo, bs))
        shared = np.array([b.shared_exponent for b in enc.blocks])
        bounds = np.ldexp(1.0, shared - (qb - se - 1))
        assert (errs.max(axis=1) <= bounds).all(), f"round-trip bound violated at {(qb, se, bs)}"
        _, exps = np.frexp(grid)
        exps = np.where(grid != 0.0, exps - 1, np.iinfo(np.int64).min)
        assert (exps.max(axis=1) <= shared).all(), f"shared exponent not maximal at {(qb, se, bs)}"
        total_blocks += blocks_per_combo
    elapsed = time.monotonic() - start
    assert total_blocks >= 100_000
    assert elapsed < 30.0
    _report(1, f"{total_blocks} blocks over {len(combos)} (SE,BS,qb) combos in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Effective-bitwidth exactness
# ---------------------------------------------------------------------------

BITWIDTH_TABLE = [
    # (role, qb, SE, BS, d1, d2, expected) -- expected computed by hand with
    # exact rational arithmetic and frozen.
    ("input", 8, 3, 2, 1, 1, 6.5),
    ("input", 8, 2, 1, 4, 4, 6.125),
    ("input", 8, 6, 48, 224, 224, 2.0000024912308674),
    ("input", 8, 4, 8, 14, 14, 4.002551020408164),
    ("input", 16, 7, 16, 7, 7, 9.008928571428571),
    ("input", 16, 2, 2, 32, 32, 14.0009765625),
    ("input", 8, 5, 24, 6, 6, 3.005787037037037),
    ("output", 8, 3, 2, 4, 4, 5.09375),
    ("output", 8, 5, 4, 2, 2, 3.3125),
    ("output", 16, 6, 8, 16, 16, 10.0029296875),
    ("output", 16, 3, 1, 1, 1, 16.0),
    ("output", 8, 2, 32, 112, 112, 6.000004982461735),
    ("output", 16, 4, 48, 28, 28, 12.000106292517007),
    ("weight", 16, 4, 4, 3, 3, 12.11111111111111),
    ("weight", 8, 3, 1, 3, 3, 5.333333333333333),
    ("weight", 8, 6, 2, 1, 1, 5.0),
    ("weight", 16, 7, 8, 5, 5, 9.035),
    ("weight", 8, 4, 16, 7, 7, 4.005102040816326),
    ("weight", 16, 2, 24, 3, 3, 14.00925925925926),
    ("weight", 8, 5, 48, 11, 11, 3.0008608815426996),
]


def test_c02_effective_bitwidth_twenty_cases():
    assert len(BITWIDTH_TABLE) == 20
    worst = 0.0
    for role, qb, se, bs, d1, d2, expected in BITWIDTH_TABLE:
        got = effective_bitwidth(BfpSpec(qb, se, bs, role), (d1, d2))
        rel = abs(got - expected) / expected
        worst = max(worst, rel)
        assert rel <= 1e-12, (role, qb, se, bs, d1, d2, got, expected)
    _report(2, f"20 cases, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Model/oracle equivalence on the small-shape grid
# ---------------------------------------------------------------------------

GRID_LAYERS = [
    # (c_in, c_out, i_h, i_w, k, stride_h, stride_w, pad_h, pad_w)
    (1, 1, 6, 6, 3, 1, 1, 0, 0),
    (2, 3, 8, 8, 3, 1, 1, 1, 1),
    (3, 4, 9, 7, 3, 2, 2, 1, 0),
    (2, 2, 12, 12, 5, 1, 1, 2, 2),
    (4, 4, 7, 7, 1, 1, 1, 0, 0),
    (2, 4, 10, 10, 3, 3, 3, 0, 0),
    (3, 3, 12, 12, 5, 2, 2, 2, 2),
    (1, 2, 12, 9, 5, 3, 1, 0, 1),
    (4, 1, 6, 6, 1, 2, 2, 0, 0),
    (2, 2, 11, 11, 3, 2, 2, 1, 1),
]


GRID_ORDERS = [
    ("oc", "ic", "oh", "ow"),
    ("ow", "oh", "ic", "oc"),
    ("oh", "ow", "oc", "ic"),
    ("ic", "oh", "ow", "oc"),
]


def _grid_mappings(layer):
    """The documented mapping grid: {whole-layer, unit, row, mixed-divisor,
    ragged} tilings crossed with four loop orders, plus kernel-tiled nests."""
    ext = loop_extents(layer)
    half = {d: max(1, ext[d] // 2) for d in MOVING_DIMS}
    ragged_oh = min(ext["oh"], max(1, (2 * ext["oh"]) // 3))  # rarely divides
    tilings = [
        {},
        {d: 1 for d in MOVING_DIMS},
        {"oh": 1, "ow": 1},
        {"ic": 1, "ow": half["ow"]},
        {"oc": 1, "oh": half["oh"]},
        {"oh": ragged_oh, "ow": half["ow"], "ic": 1},
        {d: half[d] for d in MOVING_DIMS},
    ]
    mappings = [
        make_mapping(layer, tiles, order=order)
        for tiles in tilings
        for order in GRID_ORDERS
    ]
    mappings.append(make_mapping(layer, {"oh": 2, "ow": 3} if ext["oh"] >= 2 and ext["ow"] >= 3 else {},
                                 order=("ow", "ic", "oc", "oh")))
    if ext["kh"] >= 3:
        tiles = {d: 1 for d in MOVING_DIMS}
        tiles.update({"kh": 1, "kw": ext["kw"]})
        mappings.append(Mapping(
            permutation=("oh", "kh", "ow", "oc", "ic", "kw"),
            tiles=tuple(tiles.get(d, ext[d]) for d in LOOP_DIMS),
        ))
        tiles2 = {"oh": 2, "ow": 2, "kh": max(1, ext["kh"] // 2), "kw": ext["kw"]}
        mappings.append(Mapping(
            permutation=("kh", "oh", "ow", "kw", "oc", "ic"),
            tiles=tuple(min(tiles2.get(d, ext[d]), ext[d]) for d in LOOP_DIMS),
        ))
    return mappings


def test_c03_model_matches_oracle_on_grid():
    start = time.monotonic()
    pairs = 0
    for i, (cin, cout, ih, iw, k, sh, sw, ph, pw) in enumerate(GRID_LAYERS, start=1):
        layer = ConvLayer(1, cin, cout, ih, iw, k, k, stride_h=sh, stride_w=sw, pad_h=ph, pad_w=pw)
        specs = spec_triple(qb=8 if i % 2 else 16, se=3, bs=4)
        for mapping in _grid_mappings(layer):
            bd = dm_layer(layer, mapping, specs)
            sim = simulate(layer, mapping, specs)
            assert bd.total_elems == sim.transfer_elems, (layer, mapping)
            assert bd.dm_total_bits == sim.total_bits, (layer, mapping)
            for role in ("input", "output", "weight"):
                assert bd.total_bits[role] == sim.transfer_bits[role]
            pairs += 1
    elapsed = time.monotonic() - start
    assert pairs >= 200
    assert elapsed < 120.0
    _report(3, f"{pairs} (layer, mapping) pairs bit-exact in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. The three per-level reuse cases
# ---------------------------------------------------------------------------


def test_c04_per_level_case_coverage():
    # dm_layer's exact per-level counts, with hand values, for one level's
    # three cases: no reuse loads each new output tile whole, partial reuse
    # moves the input window's first tile and then each slide's new
    # elements, full reuse leaves the weights to their cold first load.
    # 6x6 input, 3x3 kernel, unit output tiles, rows outer: at the ow level
    # the output moves 4 rows x 3 new 1-element tiles plus the first, the
    # input 4 x 3 slides of 3 plus the first 9-element tile.
    # A 6x1 column under a 3x1 kernel: at the oh level the output moves 4,
    # the input 3 + 3 x 1, and the weights 0 with 3 cold.
    cases = [
        (ConvLayer(1, 1, 1, 6, 6, 3, 3), {"oh": 1, "ow": 1}, "ow", (13, 45, 0), 9),
        (ConvLayer(1, 1, 1, 6, 1, 3, 1), {"oh": 1}, "oh", (4, 6, 0), 3),
    ]
    for layer, tiles, level, moved, cold_weight in cases:
        m = make_mapping(layer, tiles)
        bd = dm_layer(layer, m, spec_triple())
        j = m.permutation.index(level)
        assert bd.reuse["output"][level] is ReuseClass.NO_REUSE
        assert bd.reuse["input"][level] is ReuseClass.PARTIAL_REUSE
        assert bd.reuse["weight"][level] is ReuseClass.FULL_REUSE
        assert tuple(bd.level_elems[r][j] for r in ("output", "input", "weight")) == moved
        assert bd.cold_elems["weight"] == cold_weight
    strided = ConvLayer(1, 1, 1, 9, 9, 3, 3, stride_h=3, stride_w=3)
    ms = make_mapping(strided, {"oh": 1, "ow": 1})
    assert dm_layer(strided, ms, spec_triple()).reuse["input"]["ow"] is ReuseClass.NO_REUSE
    _report(4, "no/partial/full branches hit with exact level values 13/45/0 and 4/6/0")


# ---------------------------------------------------------------------------
# 5. Tiling optimality on the small grid
# ---------------------------------------------------------------------------


def _brute_force(layer, order, specs, mc_bits):
    bits = role_bits(layer, specs)
    ext = loop_extents(layer)
    cands = {d: tile_candidates(ext[d]) for d in MOVING_DIMS}
    best = None
    count = 0
    for combo in itertools.product(*(cands[d] for d in MOVING_DIMS)):
        count += 1
        tiles = dict(zip(MOVING_DIMS, combo))
        mapping = make_mapping(layer, tiles, order=order)
        fe = tile_footprint_elems(layer, mapping)
        foot = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
        if foot > mc_bits:
            continue
        bd = dm_layer(layer, mapping, specs)
        volume = 1
        for d in MOVING_DIMS:
            volume *= tiles[d]
        key = (bd.dm_total_bits, -volume, tuple(-tiles[d] for d in MOVING_DIMS))
        if best is None or key < best[0]:
            best = (key, mapping, foot)
    return best, count


def test_c05_tiling_optimality_small_grid():
    start = time.monotonic()
    order = ("oc", "ic", "oh", "ow")
    problems = 0
    for cin, cout, ih, iw, k, sh, sw, ph, pw in GRID_LAYERS[:6]:
        layer = ConvLayer(1, cin, cout, ih, iw, k, k, stride_h=sh, stride_w=sw, pad_h=ph, pad_w=pw)
        specs = spec_triple()
        ext = loop_extents(layer)
        lattice = 1
        for d in MOVING_DIMS:
            lattice *= len(tile_candidates(ext[d]))
        assert lattice <= 5000, f"lattice {lattice} exceeds the documented bound"
        min_tiles = make_mapping(layer, {d: 1 for d in MOVING_DIMS})
        fe = tile_footprint_elems(layer, min_tiles)
        bits = role_bits(layer, specs)
        min_foot = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
        # The mapper search runs: one table query per capacity, then the
        # winner's breakdown.
        table = LayerMappingTable(layer, permutations=[order])
        for mc in (min_foot * 1.2, min_foot * 6.0, 1e12):
            ref, count = _brute_force(layer, order, specs, mc)
            assert ref is not None
            mapping, dm_bits, _ = table.query(specs, mc)
            assert dm_bits == table.breakdown(mapping, specs).dm_total_bits == ref[0][0], (layer, mc)
            assert mapping == ref[1], (layer, mc)
            # capacity re-checked independently of the optimizer's own numbers
            fe = tile_footprint_elems(layer, mapping)
            recheck = (fe["input"] * bits["input"] + fe["output"] * bits["output"]) + fe["weight"] * bits["weight"]
            assert recheck <= mc
            problems += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(5, f"{problems} problems match the exhaustive minimum in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Objective degeneracies
# ---------------------------------------------------------------------------


def test_c06_objective_degeneracy():
    model = loads_model(TINY4_TEXT)
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8))
    mc = 65536.0
    plan0 = plan_for(model, space, alpha=0.0, mc_bits=mc)
    feas = [c for c in plan0.candidates if c["feasible"]]
    assert plan0.acc_loss == min(c["acc_loss"] for c in feas)
    plan_inf = plan_for(model, space, alpha=1e6, mc_bits=mc)
    feas = [c for c in plan_inf.candidates if c["feasible"]]
    assert plan_inf.perf_loss == min(c["perf_loss"] for c in feas)

    a = CandidateEval(config=(3, 8, 8), feasible=True, dm_sum_bits=1000.0,
                      acc_loss=0.1, perf_loss=1.0, objective=0.1 + 0.2 * 1.0)
    b = CandidateEval(config=(4, 8, 8), feasible=True, dm_sum_bits=500.0,
                      acc_loss=0.3, perf_loss=0.5, objective=0.3 + 0.2 * 0.5)
    assert math.isclose(a.objective, 0.3) and math.isclose(b.objective, 0.4)
    assert select_candidate([a, b], "full") is a
    _report(6, "alpha=0, alpha=1e6 and the 0.3-vs-0.4 example all select correctly")


# ---------------------------------------------------------------------------
# 7. Normalization
# ---------------------------------------------------------------------------


def test_c07_normalization_and_scaling_invariance():
    model = loads_model(TINY4_TEXT)
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8))
    plan = plan_for(model, space, alpha=0.2, mc_bits=65536.0)
    feas = [c for c in plan.candidates if c["feasible"]]
    assert max(c["perf_loss"] for c in feas) == 1.0

    def build(scale):
        raw = [(0.02, 900.0, (2, 8, 8)), (0.05, 700.0, (3, 8, 8)), (0.30, 400.0, (4, 8, 8))]
        dm_max = max(d for _, d, _ in raw) * scale
        return [
            CandidateEval(config=cfg, feasible=True, dm_sum_bits=dm * scale, acc_loss=acc,
                          perf_loss=dm * scale / dm_max, objective=acc + 0.2 * dm * scale / dm_max)
            for acc, dm, cfg in raw
        ]

    for scale in (1.0, 3.0, 1e6, 1e-6):
        assert select_candidate(build(scale), "full").config == select_candidate(build(1.0), "full").config
    _report(7, "max candidate's perf_loss is exactly 1.0; selection invariant under DM scaling")


# ---------------------------------------------------------------------------
# 8. Energy arithmetic
# ---------------------------------------------------------------------------


def test_c08_energy_exact_cases():
    assert energy_from_bits(0.0, 1e9) == 20e-3
    assert energy_from_bits(1e9, 0.0) == 0.16e-3
    _report(8, "1e9 DRAM bits -> 20 mJ and 1e9 SRAM bits -> 0.16 mJ, exact")


# ---------------------------------------------------------------------------
# 9. Bitwidth monotonicity on a toy model
# ---------------------------------------------------------------------------


def test_c09_eight_bit_strictly_below_sixteen():
    model = loads_model(TINY4_TEXT)
    tables = build_mapping_tables(model)
    dm8 = dm16 = 0.0
    breakdowns8 = []
    breakdowns16 = []
    for layer in model.layers:
        specs16 = spec_triple(qb=16, se=3, bs=8)
        specs8 = spec_triple(qb=8, se=3, bs=8)
        hit = tables[shape_key(layer)].query(specs16, 65536.0)
        assert hit is not None
        mapping = hit[0]  # identical mapping reused for both bitwidths
        b16 = dm_layer(layer, mapping, specs16)
        b8 = dm_layer(layer, mapping, specs8)
        dm16 += b16.dm_total_bits
        dm8 += b8.dm_total_bits
        breakdowns16.append(b16)
        breakdowns8.append(b8)
    assert dm8 < dm16
    e8 = energy(model, breakdowns8).joules
    e16 = energy(model, breakdowns16).joules
    assert e8 < e16
    _report(9, f"dm8={dm8:.0f} < dm16={dm16:.0f} bits; energy {e8:.3e} < {e16:.3e} J")


# ---------------------------------------------------------------------------
# 10. Ablation directions
# ---------------------------------------------------------------------------


def test_c10_ablation_directions():
    model = loads_model(TINY4_TEXT)
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8))
    kw = dict(alpha=0.2, mc_bits=65536.0)
    full = plan_for(model, space, **kw)
    no_dm = plan_for(model, space, mode="no_dm", **kw)
    no_qat = plan_for(model, space, mode="no_qat", **kw)
    assert no_dm.acc_loss <= full.acc_loss
    assert no_dm.dm_sum_bits >= full.dm_sum_bits
    assert no_qat.dm_sum_bits <= full.dm_sum_bits
    _report(10, "no_dm favors accuracy, no_qat favors traffic, full sits between")


# ---------------------------------------------------------------------------
# 11. Alpha sweep shape
# ---------------------------------------------------------------------------


def test_c11_alpha_sweep_monotone():
    model = loads_model(TINY4_TEXT)
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4, 5), bs_set=(2, 8))
    alphas = (0.015, 0.05, 0.15, 0.2, 0.25, 1.5, 3.0)
    tables = build_mapping_tables(model)
    plans = [plan_for(model, space, alpha=a, mc_bits=65536.0, tables=tables) for a in alphas]
    perfs = [p.perf_loss for p in plans]
    accs = [p.acc_loss for p in plans]
    assert all(x >= y for x, y in zip(perfs, perfs[1:]))
    assert all(x <= y for x, y in zip(accs, accs[1:]))
    _report(11, f"perf {perfs[0]:.3f}->{perfs[-1]:.3f} nonincreasing, acc {accs[0]:.4f}->{accs[-1]:.4f} nondecreasing")


# ---------------------------------------------------------------------------
# 12. End-to-end runtime on a 20-layer model
# ---------------------------------------------------------------------------


def twenty_layer_text():
    shapes = [(3, 16, 32, 1, 1)]
    shapes += [(16, 16, 32, 1, 1)] * 6
    shapes += [(16, 32, 32, 2, 1)]
    shapes += [(32, 32, 16, 1, 1)] * 5
    shapes += [(32, 64, 16, 2, 1)]
    shapes += [(64, 64, 8, 1, 1)] * 6
    assert len(shapes) == 20
    lines = ["format_version 1", "model stack20", ""]
    for i, (cin, cout, size, stride, pad) in enumerate(shapes, start=1):
        lines += [
            f"layer {i}",
            f"  c_in {cin}",
            f"  c_out {cout}",
            f"  input {size} {size}",
            "  kernel 3 3",
            f"  stride {stride} {stride}",
            f"  pad {pad} {pad}",
            "",
        ]
    return "\n".join(lines)


def test_c12_end_to_end_runtime_twenty_layers():
    model = loads_model(twenty_layer_text())
    assert len(model.layers) == 20
    space = CandidateSpace(total_bits=16)  # the full 6x8 candidate grid
    assert len(list(space.configs())) == 48
    start = time.monotonic()
    plan = plan_for(model, space, alpha=0.2, mc_bits=2_097_152.0)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert len(plan.assignments) == 20
    _report(12, f"48-candidate search over 20 layers in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 13. Reproducibility
# ---------------------------------------------------------------------------


def test_c13_reproducible_reports(tmp_path):
    from bfpsearch.cli import main

    model_path = tmp_path / "tiny4.model"
    model_path.write_text(TINY4_TEXT)
    args = ["--model", str(model_path), "--qb", "8", "--alpha", "0.2", "--mc", "65536",
            "--se", "2,3,4", "--bs", "2,8", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    rep_a = (tmp_path / "a" / "report.json").read_bytes()
    rep_b = (tmp_path / "b" / "report.json").read_bytes()
    assert rep_a == rep_b
    plan_a = (tmp_path / "a" / "plan.json").read_bytes()
    plan_b = (tmp_path / "b" / "plan.json").read_bytes()
    assert plan_a == plan_b
    json.loads(rep_a)  # stays valid JSON
    _report(13, f"machine-readable reports byte-identical ({len(rep_a)} bytes)")
