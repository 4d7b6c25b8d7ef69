import itertools
import math
import sys
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from bfpsearch import accuracy
from bfpsearch.accuracy import loads_table, proxy_layer_loss, synthetic_sample
from bfpsearch.dm import role_bits
from bfpsearch.model import ConvLayer, ModelDesc, layer_volumes, loads_model
from bfpsearch.search import (
    CandidateEval,
    CandidateSpace,
    SearchError,
    build_mapping_tables,
    default_se_set,
    knee_point,
    pareto_frontier,
    search,
    select_candidate,
    specs_for_config,
)
from bfpsearch.tiling import InfeasibleError

from conftest import small_layer

MC = 65536.0


def test_candidate_space_defaults_match_published_sets():
    assert default_se_set(16) == (2, 3, 4, 5, 6, 7)
    assert default_se_set(8) == (2, 3, 4, 5, 6)
    space = CandidateSpace(total_bits=8)
    assert space.bs_set == (1, 2, 4, 8, 16, 24, 32, 48)
    assert len(list(space.configs())) == 40
    assert len(list(CandidateSpace(total_bits=16).configs())) == 48
    with pytest.raises(SearchError):
        CandidateSpace(total_bits=8, se_set=())


def small_space(scope="model"):
    return CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8), scope=scope)


def test_full_mode_objective_identity(tiny4):
    plan = search(tiny4, small_space(), alpha=0.2, mc_bits=MC)
    assert plan.objective == plan.acc_loss + 0.2 * plan.perf_loss
    assert 0.0 < plan.perf_loss <= 1.0
    assert len(plan.assignments) == len(tiny4.layers)


def test_alpha_zero_selects_min_acc(tiny4):
    plan = search(tiny4, small_space(), alpha=0.0, mc_bits=MC)
    feas = [c for c in plan.candidates if c["feasible"]]
    assert plan.acc_loss == min(c["acc_loss"] for c in feas)


def test_alpha_huge_selects_min_perf(tiny4):
    plan = search(tiny4, small_space(), alpha=1e6, mc_bits=MC)
    feas = [c for c in plan.candidates if c["feasible"]]
    assert plan.perf_loss == min(c["perf_loss"] for c in feas)


def test_two_candidate_arithmetic():
    a = CandidateEval(config=(3, 8, 8), feasible=True, dm_sum_bits=1000.0,
                      acc_loss=0.1, perf_loss=1.0, objective=0.1 + 0.2 * 1.0)
    b = CandidateEval(config=(4, 8, 8), feasible=True, dm_sum_bits=500.0,
                      acc_loss=0.3, perf_loss=0.5, objective=0.3 + 0.2 * 0.5)
    assert a.objective == pytest.approx(0.3)
    assert b.objective == pytest.approx(0.4)
    assert select_candidate([a, b], "full") is a


def test_normalization_max_candidate_is_one(tiny4):
    plan = search(tiny4, small_space(), alpha=0.2, mc_bits=MC)
    feas = [c for c in plan.candidates if c["feasible"]]
    assert max(c["perf_loss"] for c in feas) == 1.0
    assert max(c["acc_loss"] for c in feas) == 1.0  # proxy normalized the same way


def test_uniform_dm_scaling_keeps_selection():
    def build(scale):
        rows = []
        raw = [(0.02, 900.0, (2, 8, 8)), (0.05, 700.0, (3, 8, 8)), (0.30, 400.0, (4, 8, 8))]
        dm_max = max(d for _, d, _ in raw) * scale
        for acc, dm, cfg in raw:
            dm_s = dm * scale
            rows.append(CandidateEval(
                config=cfg, feasible=True, dm_sum_bits=dm_s, acc_loss=acc,
                perf_loss=dm_s / dm_max, objective=acc + 0.2 * dm_s / dm_max,
            ))
        return rows
    assert select_candidate(build(1.0), "full").config == select_candidate(build(7.25), "full").config


def test_tie_break_smaller_dm_then_larger_bs_then_smaller_se():
    def cand(cfg, dm):
        return CandidateEval(config=cfg, feasible=True, dm_sum_bits=dm,
                             acc_loss=0.1, perf_loss=0.5, objective=0.2)
    a = cand((3, 8, 8), 500.0)
    b = cand((3, 16, 8), 400.0)
    assert select_candidate([a, b], "full") is b  # smaller dm wins
    c = cand((3, 8, 8), 400.0)
    d = cand((3, 16, 8), 400.0)
    assert select_candidate([c, d], "full") is d  # larger bs wins
    e = cand((2, 16, 8), 400.0)
    assert select_candidate([d, e], "full") is e  # smaller se wins


def test_all_infeasible_raises(tiny4):
    with pytest.raises(InfeasibleError):
        search(tiny4, small_space(), alpha=0.2, mc_bits=50.0)


def test_ablation_directions(tiny4):
    space = small_space()
    kw = dict(alpha=0.2, mc_bits=MC)
    full = search(tiny4, space, **kw)
    no_dm = search(tiny4, space, mode="no_dm", **kw)
    no_qat = search(tiny4, space, mode="no_qat", **kw)
    assert no_dm.acc_loss <= full.acc_loss
    assert no_dm.dm_sum_bits >= full.dm_sum_bits
    assert no_qat.dm_sum_bits <= full.dm_sum_bits


def test_pareto_mode_returns_frontier_and_knee(tiny4):
    plan = search(tiny4, small_space(), alpha=0.2, mc_bits=MC, mode="pareto")
    assert plan.pareto
    accs = [r["acc_loss"] for r in plan.pareto]
    perfs = [r["perf_loss"] for r in plan.pareto]
    assert accs == sorted(accs)
    assert perfs == sorted(perfs, reverse=True)
    chosen = [r for r in plan.pareto if (r["se"], r["bs"]) == (plan.assignments[0].config[0], plan.assignments[0].config[1])]
    assert chosen, "knee must lie on the frontier"


def test_knee_point_geometry():
    def cand(cfg, acc, perf):
        return CandidateEval(config=cfg, feasible=True, dm_sum_bits=perf * 1000,
                             acc_loss=acc, perf_loss=perf, objective=acc + 0.2 * perf)
    frontier = pareto_frontier([
        cand((2, 8, 8), 0.0, 1.0),
        cand((3, 8, 8), 0.1, 0.2),  # pronounced knee
        cand((4, 8, 8), 1.0, 0.0),
    ])
    assert knee_point(frontier).config == (3, 8, 8)


def test_table_loss_source(tiny4):
    rows = ["format_version 1"]
    for se in (2, 3, 4):
        for bs in (2, 8):
            loss = 0.01 * se + (0.001 if bs == 8 else 0.0)
            rows.append(f"model {se} {bs} 8 {loss}")
    table = loads_table("\n".join(rows) + "\n")
    plan = search(tiny4, small_space(), alpha=0.0, mc_bits=MC, loss_source="table", acc_table=table)
    assert plan.assignments[0].config[0] == 2  # min tabulated loss at se=2
    assert plan.acc_loss == pytest.approx(0.02)


def test_table_source_requires_table(tiny4):
    with pytest.raises(SearchError):
        search(tiny4, small_space(), alpha=0.2, mc_bits=MC, loss_source="table")


def test_invalid_args(tiny4):
    with pytest.raises(SearchError):
        search(tiny4, small_space(), alpha=-1.0, mc_bits=MC)
    with pytest.raises(SearchError):
        search(tiny4, small_space(), alpha=0.2, mc_bits=MC, mode="bogus")
    with pytest.raises(SearchError):
        search(tiny4, small_space(), alpha=0.2, mc_bits=0.0)
    for alpha in (math.nan, math.inf):
        with pytest.raises(SearchError):
            search(tiny4, small_space(), alpha=alpha, mc_bits=MC)
    for mc_bits in (math.nan, math.inf):
        with pytest.raises(SearchError):
            search(tiny4, small_space(), alpha=0.2, mc_bits=mc_bits)
    with pytest.raises(SearchError):
        search(tiny4, small_space(), alpha=0.2, mc_bits=MC, seed=-1)


# -- per-layer decomposition --------------------------------------------------


def joint_exhaustive(model, space, alpha, mc_bits, samples, tables):
    configs = list(space.configs())
    wsum = sum(float(layer_volumes(l)[1]) for l in model.layers)
    per_layer = []
    for layer in model.layers:
        rows = {}
        for cfg in configs:
            hit = tables[layer.index].query(specs_for_config(cfg), mc_bits)
            if hit is None:
                continue
            acc = proxy_layer_loss(layer, specs_for_config(cfg), samples[layer.index])
            rows[cfg] = (hit[1], float(layer_volumes(layer)[1]) / wsum * acc)
        per_layer.append(rows)
    combos = list(itertools.product(*[list(r.keys()) for r in per_layer]))
    dm_of = lambda combo: sum(per_layer[i][c][0] for i, c in enumerate(combo))
    acc_of = lambda combo: sum(per_layer[i][c][1] for i, c in enumerate(combo))
    dm_max = max(dm_of(c) for c in combos)
    acc_max = max(acc_of(c) for c in combos)
    best = min(
        combos,
        key=lambda combo: (
            (acc_of(combo) / acc_max if acc_max > 0 else 0.0) + alpha * dm_of(combo) / dm_max,
            dm_of(combo),
            tuple(-c[1] for c in combo),
            tuple(c[0] for c in combo),
        ),
    )
    obj = (acc_of(best) / acc_max if acc_max > 0 else 0.0) + alpha * dm_of(best) / dm_max
    return best, obj


def test_decompose_single_layer_equals_whole_model_search():
    model = ModelDesc(name="one", layers=[small_layer(c_in=2, c_out=2)])
    space = small_space()
    joint = search(model, space, alpha=0.2, mc_bits=MC)
    per_layer = search(model, small_space("layer"), alpha=0.2, mc_bits=MC)
    assert per_layer.assignments[0].config == joint.assignments[0].config


def test_decompose_identical_layers_get_identical_configs():
    model = ModelDesc(name="twin", layers=[
        small_layer(index=1, c_in=2, c_out=2),
        small_layer(index=2, c_in=2, c_out=2),
    ])
    plan = search(model, small_space("layer"), alpha=0.2, mc_bits=MC)
    assert plan.assignments[0].config == plan.assignments[1].config


def test_decompose_matches_joint_exhaustive(tiny4):
    space = small_space()
    alpha = 0.2
    samples = {l.index: {"input": synthetic_sample(l, "input"), "weight": synthetic_sample(l, "weight")}
               for l in tiny4.layers}
    tables = build_mapping_tables(tiny4)
    best, obj = joint_exhaustive(tiny4, space, alpha, MC, samples, tables)
    plan = search(tiny4, small_space("layer"), alpha=alpha, mc_bits=MC, tables=tables)
    assert tuple(a.config for a in plan.assignments) == best
    assert plan.objective == pytest.approx(obj, rel=1e-12)


def test_decompose_rejects_model_only_table(tiny4):
    table = loads_table("format_version 1\nmodel 3 8 8 0.1\n")
    from bfpsearch.accuracy import AccuracyError

    with pytest.raises(AccuracyError):
        search(tiny4, small_space("layer"), alpha=0.2, mc_bits=MC,
               loss_source="table", acc_table=table)


def test_scope_layer_dispatches_to_decomposition(tiny4):
    space = CandidateSpace(total_bits=8, se_set=(2, 3), bs_set=(2, 8), scope="layer")
    plan = search(tiny4, space, alpha=0.2, mc_bits=MC)
    assert plan.scope == "layer"
    assert len({a.config for a in plan.assignments}) >= 1
    with pytest.raises(SearchError):
        search(tiny4, space, alpha=0.2, mc_bits=MC, mode="pareto")


def test_parallel_table_build_is_deterministic(tiny4):
    space = small_space()
    serial = search(tiny4, space, alpha=0.2, mc_bits=MC, tables=build_mapping_tables(tiny4, jobs=1))
    parallel = search(tiny4, space, alpha=0.2, mc_bits=MC, tables=build_mapping_tables(tiny4, jobs=2))
    assert [a.config for a in serial.assignments] == [a.config for a in parallel.assignments]
    assert serial.objective == parallel.objective
    assert serial.dm_sum_bits == parallel.dm_sum_bits


def test_identical_shapes_share_one_table():
    model = ModelDesc(name="shared", layers=[
        small_layer(index=1, c_in=2, c_out=2),
        small_layer(index=2, c_in=2, c_out=2, input_sample="in.f32", weight_sample="w.f32"),
        small_layer(index=3, c_in=2, c_out=4),
        small_layer(index=4, c_in=2, c_out=2, source_index=9),
        small_layer(index=5, c_in=2, c_out=2, stride_h=2),
        small_layer(index=6, c_in=2, c_out=4),
    ])
    tables = build_mapping_tables(model)
    assert tables[1] is tables[2] is tables[4]
    assert tables[3] is tables[6]
    assert len({id(t) for t in tables.values()}) == 3


def test_literal_first_load_tables_set_the_plans_traffic():
    # The tables carry the first-load accounting: under literal tables the
    # plan's traffic is its layers' literal breakdowns summed.
    model = ModelDesc(name="two", layers=[
        ConvLayer(1, 8, 8, 4, 4, 1, 1),
        ConvLayer(2, 8, 16, 4, 4, 3, 3, pad_h=1, pad_w=1),
    ])
    space = CandidateSpace(total_bits=8, se_set=(3,), bs_set=(8,))
    tables = build_mapping_tables(model, count_first_load=False)
    plan = search(model, space, mc_bits=4096.0, tables=tables)
    assert all(not a.breakdown.count_first_load for a in plan.assignments)
    assert plan.dm_sum_bits == sum(a.breakdown.dm_total_bits for a in plan.assignments) > 0


def test_shared_tables_parallel_build_matches_serial():
    model = ModelDesc(name="repeats", layers=[
        small_layer(index=i, c_in=c, c_out=2 * c) for i, c in enumerate((1, 2, 1, 2, 2), start=1)
    ])
    serial = build_mapping_tables(model, jobs=1)
    parallel = build_mapping_tables(model, jobs=2)
    assert parallel[1] is parallel[3] and parallel[2] is parallel[4] is parallel[5]
    for config in small_space().configs():
        specs = specs_for_config(config)
        for layer in model.layers:
            assert parallel[layer.index].query(specs, MC) == serial[layer.index].query(specs, MC)
    space = small_space()
    one = search(model, space, alpha=0.2, mc_bits=MC, tables=serial)
    two = search(model, space, alpha=0.2, mc_bits=MC, tables=parallel)
    assert one.to_record() == two.to_record()


POOL_MODEL = """format_version 1
layer 1
  c_in 2
  c_out 2
  input 6 6
  kernel 3 3
layer 2
  type pool
  c_in 2
  c_out 2
  input 4 4
  kernel 2 2
layer 3
  c_in 2
  c_out 4
  input 4 4
  kernel 3 3
"""


def per_layer_table(losses: dict) -> str:
    """Table text with one ``layer:N`` row per small-space config; ``losses``
    maps N to a function of (se, bs)."""
    rows = ["format_version 1"]
    for n, loss in losses.items():
        rows += [f"layer:{n} {se} {bs} {qb} {loss(se, bs)}" for se, bs, qb in small_space().configs()]
    return "\n".join(rows) + "\n"


# Layer 2 of the file is a pool block; its rows favour the widest exponent,
# layer 3's rows the narrowest, so misplaced rows change the plan.
POOL_LOSSES = {
    1: lambda se, bs: 0.02 * se + 0.001 * bs,
    2: lambda se, bs: 0.5 / se,
    3: lambda se, bs: 0.01 * se + 0.002 * bs,
}


@pytest.mark.parametrize("scope", ["model", "layer"])
def test_table_rows_follow_file_layer_index_after_skipped_block(scope):
    model = loads_model(POOL_MODEL)
    assert [(l.index, l.source_index) for l in model.layers] == [(1, 1), (2, 3)]
    table = loads_table(per_layer_table(POOL_LOSSES))
    # The same two convs numbered 1 and 2 in the file, with layer 3's rows as layer:2.
    plain = ModelDesc(name=model.name, layers=[replace(l, source_index=l.index) for l in model.layers])
    plain_table = loads_table(per_layer_table({1: POOL_LOSSES[1], 2: POOL_LOSSES[3]}))
    kw = dict(alpha=0.0, mc_bits=MC, loss_source="table")
    plan = search(model, small_space(scope), acc_table=table, **kw)
    want = search(plain, small_space(scope), acc_table=plain_table, **kw)
    assert plan.to_record() == want.to_record()
    if scope == "layer":
        assert plan.assignments[1].config[0] == 2  # layer 3's narrowest exponent
    else:
        w1, w2 = (float(layer_volumes(l)[1]) for l in model.layers)
        se, bs, _ = plan.assignments[0].config
        assert plan.acc_loss == pytest.approx((w1 * POOL_LOSSES[1](se, bs) + w2 * POOL_LOSSES[3](se, bs)) / (w1 + w2))


def test_proxy_holds_one_layers_samples_at_a_time():
    # Eight identical layers; each one's input and weight samples are
    # (64*32*32 + 64*64*3*3) float64 values = 0.78 MiB.  Holding every
    # layer's samples at once would be eight times that.
    layer = small_layer(c_in=64, c_out=64, i_h=32, i_w=32, pad_h=1, pad_w=1)
    model = ModelDesc(name="eight", layers=[replace(layer, index=i) for i in range(1, 9)])
    vol_in, _, vol_w = layer_volumes(layer)
    layer_bytes = 8 * (vol_in + vol_w)
    tables = build_mapping_tables(model)
    # NumPy imports numpy.random on first use, which the bound should not count.
    import numpy.random  # noqa: F401
    for scope in ("model", "layer"):
        space = CandidateSpace(total_bits=8, se_set=(3, 5), bs_set=(8, 32), scope=scope)
        tracemalloc.start()
        try:
            search(model, space, alpha=0.2, mc_bits=2.0 ** 21, tables=tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * layer_bytes, (scope, peak / layer_bytes)


def test_proxy_scores_exactly_the_selectable_cells(monkeypatch):
    # (se 4, bs 8) fits every layer; (se 2, bs 8) has more bits per element
    # and misses the capacity on the last, larger-kernel layer only.
    layers = [small_layer(index=i, c_in=2, c_out=2) for i in (1, 2, 3)]
    layers.append(small_layer(index=4, c_in=2, c_out=2, i_h=10, i_w=10, k_h=7, k_w=7))
    model = ModelDesc(name="edge", layers=layers)
    tables = build_mapping_tables(model)
    wide, narrow = specs_for_config((2, 8, 8)), specs_for_config((4, 8, 8))
    mc = float(tables[4].footprint_bits(role_bits(layers[-1], narrow)).min())
    assert tables[4].query(wide, mc) is None and tables[4].query(narrow, mc) is not None
    assert all(tables[i].query(wide, mc) is not None for i in (1, 2, 3))

    calls = []
    qdq = accuracy.quantize_dequantize

    def counting(tensor, spec):
        calls.append(spec)
        return qdq(tensor, spec)

    monkeypatch.setattr(accuracy, "quantize_dequantize", counting)
    space = CandidateSpace(total_bits=8, se_set=(2, 4), bs_set=(8,))
    search(model, space, alpha=0.2, mc_bits=mc, tables=tables)
    assert len(calls) == 2 * len(layers) * 1  # roles x layers x fully feasible configs
    calls.clear()
    search(model, replace(space, scope="layer"), alpha=0.2, mc_bits=mc, tables=tables)
    assert len(calls) == 2 * (2 * len(layers) - 1)  # roles x feasible cells


def test_proxy_takes_each_samples_power_once_per_layer(tiny4, monkeypatch):
    calls = []
    power = accuracy.signal_power

    def counting(tensor):
        calls.append(tensor.size)
        return power(tensor)

    monkeypatch.setattr(sys.modules["bfpsearch.search"], "signal_power", counting)
    monkeypatch.setattr(accuracy, "signal_power", counting)
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8))
    plan = search(tiny4, space, alpha=0.2, mc_bits=MC)
    assert len(calls) == 2 * len(tiny4.layers)  # roles x layers, not x configs
    monkeypatch.undo()
    assert search(tiny4, space, alpha=0.2, mc_bits=MC).to_record() == plan.to_record()


def test_proxy_scans_each_sample_once_per_scorable_block_size(monkeypatch):
    # (se 4, bs 8) fits every layer; (se 4, bs 1) carries more bits per
    # element and misses the capacity on the last, larger-kernel layer only.
    layers = [small_layer(index=i, c_in=2, c_out=2) for i in (1, 2, 3)]
    layers.append(small_layer(index=4, c_in=2, c_out=2, i_h=10, i_w=10, k_h=7, k_w=7))
    model = ModelDesc(name="edge", layers=layers)
    tables = build_mapping_tables(model)
    mc = float(tables[4].footprint_bits(role_bits(layers[-1], specs_for_config((4, 8, 8)))).min())
    assert tables[4].query(specs_for_config((4, 1, 8)), mc) is None
    assert all(tables[i].query(specs_for_config((4, 1, 8)), mc) is not None for i in (1, 2, 3))

    module = sys.modules["bfpsearch.search"]
    samples, scans, alive = {}, [], []
    make_samples, scan = module.layer_samples, module.scan_blocks

    def sampling(layer, **kw):
        samples[layer.index] = make_samples(layer, **kw)
        return samples[layer.index]

    def scanning(tensor, block_size):
        # Every scan made at another block size is gone by now.
        assert all(ref() is None for ref, bs in alive if bs != block_size)
        (layer, role), = [(i, r) for i, got in samples.items() for r, t in got.items() if t is tensor]
        scans.append((layer, role, block_size))
        blocks = scan(tensor, block_size)
        alive.append((weakref.ref(blocks), block_size))
        return blocks

    monkeypatch.setattr(module, "layer_samples", sampling)
    monkeypatch.setattr(module, "scan_blocks", scanning)
    space = CandidateSpace(total_bits=8, se_set=(4,), bs_set=(1, 8))
    search(model, space, alpha=0.2, mc_bits=mc, tables=tables)
    # Model scope: the bs 1 column is infeasible, so only bs 8 is scanned.
    assert sorted(scans) == [(i, role, 8) for i in (1, 2, 3, 4) for role in ("input", "weight")]
    scans.clear()
    search(model, replace(space, scope="layer"), alpha=0.2, mc_bits=mc, tables=tables)
    want = [(i, role, bs) for i in (1, 2, 3, 4) for role in ("input", "weight") for bs in (1, 8)]
    assert sorted(scans) == [cell for cell in want if cell[::2] != (4, 1)]
