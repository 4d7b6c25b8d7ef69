import concurrent.futures
import dataclasses
import itertools
import math
import sys
import tracemalloc
import weakref
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bfpsearch import accuracy
from bfpsearch.accuracy import AccuracyError, AccuracyTable, loads_table, synthetic_sample
from bfpsearch.dm import role_bits
from bfpsearch.model import ConvLayer, ModelDesc, layer_volumes, loads_model
from bfpsearch.search import (
    DEFAULT_BS_SET,
    MODES,
    SCOPES,
    CandidateEval,
    CandidateSpace,
    SearchError,
    accuracy_rows,
    build_mapping_tables,
    default_se_set,
    knee_point,
    pareto_frontier,
    select_candidate,
)
from bfpsearch.tiling import InfeasibleError, LayerMappingTable, shape_key

from conftest import plan_for, proxy_loss, small_convs, small_layer, spec_triple
from reference_search import footprint_bits, reference_search

MC = 65536.0


def config_specs(config):
    se, bs, qb = config
    return spec_triple(qb, se, bs)


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
    plan = plan_for(tiny4, small_space(), alpha=0.2, mc_bits=MC)
    assert plan.objective == plan.acc_loss + 0.2 * plan.perf_loss
    assert 0.0 < plan.perf_loss <= 1.0
    assert len(plan.assignments) == len(tiny4.layers)


def test_alpha_zero_selects_min_acc(tiny4):
    plan = plan_for(tiny4, small_space(), alpha=0.0, mc_bits=MC)
    feas = [c for c in plan.candidates if c["feasible"]]
    assert plan.acc_loss == min(c["acc_loss"] for c in feas)


def test_alpha_huge_selects_min_perf(tiny4):
    plan = plan_for(tiny4, small_space(), alpha=1e6, mc_bits=MC)
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
    plan = plan_for(tiny4, small_space(), alpha=0.2, mc_bits=MC)
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
        plan_for(tiny4, small_space(), alpha=0.2, mc_bits=50.0)


def test_ablation_directions(tiny4):
    space = small_space()
    kw = dict(alpha=0.2, mc_bits=MC)
    full = plan_for(tiny4, space, **kw)
    no_dm = plan_for(tiny4, space, mode="no_dm", **kw)
    no_qat = plan_for(tiny4, space, mode="no_qat", **kw)
    assert no_dm.acc_loss <= full.acc_loss
    assert no_dm.dm_sum_bits >= full.dm_sum_bits
    assert no_qat.dm_sum_bits <= full.dm_sum_bits


def test_pareto_mode_returns_frontier_and_knee(tiny4):
    plan = plan_for(tiny4, small_space(), alpha=0.2, mc_bits=MC, mode="pareto")
    assert plan.pareto
    accs = [r["acc_loss"] for r in plan.pareto]
    perfs = [r["perf_loss"] for r in plan.pareto]
    assert accs == sorted(accs)
    assert perfs == sorted(perfs, reverse=True)
    chosen = [r for r in plan.pareto if (r["se"], r["bs"]) == (plan.assignments[0].config[0], plan.assignments[0].config[1])]
    assert chosen, "knee must lie on the frontier"


def _knee_cand(cfg, acc, perf, alpha=0.2):
    return CandidateEval(config=cfg, feasible=True, dm_sum_bits=perf * 1000,
                         acc_loss=acc, perf_loss=perf, objective=acc + alpha * perf)


def test_knee_point_geometry():
    frontier = pareto_frontier([
        _knee_cand((2, 8, 8), 0.0, 1.0),
        _knee_cand((3, 8, 8), 0.1, 0.2),  # pronounced knee
        _knee_cand((4, 8, 8), 1.0, 0.0),
    ])
    assert knee_point(frontier).config == (3, 8, 8)


def test_knee_point_of_one_point_frontier_is_that_point():
    only = _knee_cand((3, 8, 8), 0.3, 0.7)
    assert knee_point([only]) is only


@pytest.mark.parametrize("alpha, want", [(0.2, (2, 8, 8)), (5.0, (4, 8, 8))])
def test_knee_point_of_two_point_frontier_takes_the_objective_minimum(alpha, want):
    # Both endpoints lie on the chord, exactly 0.0 from it, so the ranking decides.
    frontier = pareto_frontier([_knee_cand((2, 8, 8), 0.1, 0.9, alpha), _knee_cand((4, 8, 8), 0.7, 0.2, alpha)])
    assert len(frontier) == 2
    assert knee_point(frontier).config == want


def test_table_loss_source(tiny4):
    rows = ["format_version 1"]
    for se in (2, 3, 4):
        for bs in (2, 8):
            loss = 0.01 * se + (0.001 if bs == 8 else 0.0)
            rows.append(f"model {se} {bs} 8 {loss}")
    table = loads_table("\n".join(rows) + "\n")
    plan = plan_for(tiny4, small_space(), alpha=0.0, mc_bits=MC, acc_table=table)
    assert plan.assignments[0].config[0] == 2  # min tabulated loss at se=2
    assert plan.acc_loss == pytest.approx(0.02)


def test_an_accuracy_table_alone_makes_search_score_the_table(tiny4):
    space = small_space()
    configs = list(space.configs())
    proxy_pick = plan_for(tiny4, space, alpha=0.0, mc_bits=MC).assignments[0].config
    # The table puts the proxy's pick last, so a plan that scores the proxy picks it again.
    table = AccuracyTable({c: 0.75 if c == proxy_pick else 0.25 for c in configs})
    assert accuracy_rows(tiny4, space, MC, table).groups == [{j: table.model_entries[c] for j, c in enumerate(configs)}]
    plan = plan_for(tiny4, space, alpha=0.0, mc_bits=MC, acc_table=table)
    assert plan.assignments[0].config != proxy_pick
    assert plan.acc_loss == 0.25


def test_invalid_args(tiny4):
    with pytest.raises(SearchError):
        plan_for(tiny4, small_space(), alpha=-1.0, mc_bits=MC)
    with pytest.raises(SearchError):
        plan_for(tiny4, small_space(), alpha=0.2, mc_bits=MC, mode="bogus")
    with pytest.raises(SearchError):
        plan_for(tiny4, small_space(), alpha=0.2, mc_bits=0.0)
    for alpha in (math.nan, math.inf):
        with pytest.raises(SearchError):
            plan_for(tiny4, small_space(), alpha=alpha, mc_bits=MC)
    for mc_bits in (math.nan, math.inf):
        with pytest.raises(SearchError):
            plan_for(tiny4, small_space(), alpha=0.2, mc_bits=mc_bits)
    with pytest.raises(SearchError):
        plan_for(tiny4, small_space(), alpha=0.2, mc_bits=MC, seed=-1)


# -- per-layer decomposition --------------------------------------------------


def joint_exhaustive(model, space, alpha, mc_bits, samples, tables):
    configs = list(space.configs())
    wsum = sum(float(layer_volumes(l)[1]) for l in model.layers)
    per_layer = []
    for layer in model.layers:
        rows = {}
        for cfg in configs:
            hit = tables[shape_key(layer)].query(config_specs(cfg), mc_bits)
            if hit is None:
                continue
            acc = proxy_loss(layer, config_specs(cfg), samples[layer.index])
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


def test_layer_scope_single_layer_equals_model_scope():
    model = ModelDesc(name="one", layers=[small_layer(c_in=2, c_out=2)])
    space = small_space()
    joint = plan_for(model, space, alpha=0.2, mc_bits=MC)
    per_layer = plan_for(model, small_space("layer"), alpha=0.2, mc_bits=MC)
    assert per_layer.assignments[0].config == joint.assignments[0].config


def test_layer_scope_gives_identical_layers_identical_configs():
    model = ModelDesc(name="twin", layers=[
        small_layer(index=1, c_in=2, c_out=2),
        small_layer(index=2, c_in=2, c_out=2),
    ])
    plan = plan_for(model, small_space("layer"), alpha=0.2, mc_bits=MC)
    assert plan.assignments[0].config == plan.assignments[1].config


def test_layer_scope_matches_joint_exhaustive(tiny4):
    space = small_space()
    alpha = 0.2
    samples = {l.index: {"input": synthetic_sample(l, "input"), "weight": synthetic_sample(l, "weight")}
               for l in tiny4.layers}
    tables = build_mapping_tables(tiny4)
    best, obj = joint_exhaustive(tiny4, space, alpha, MC, samples, tables)
    plan = plan_for(tiny4, small_space("layer"), alpha=alpha, mc_bits=MC, tables=tables)
    assert tuple(a.config for a in plan.assignments) == best
    assert plan.objective == pytest.approx(obj, rel=1e-12)


def test_layer_scope_rejects_model_only_table(tiny4):
    table = loads_table("format_version 1\nmodel 3 8 8 0.1\n")
    from bfpsearch.accuracy import AccuracyError

    with pytest.raises(AccuracyError):
        plan_for(tiny4, small_space("layer"), alpha=0.2, mc_bits=MC, acc_table=table)


def test_scope_layer_dispatches_to_decomposition(tiny4):
    space = CandidateSpace(total_bits=8, se_set=(2, 3), bs_set=(2, 8), scope="layer")
    plan = plan_for(tiny4, space, alpha=0.2, mc_bits=MC)
    assert plan.scope == "layer"
    assert len({a.config for a in plan.assignments}) >= 1
    with pytest.raises(SearchError):
        plan_for(tiny4, space, alpha=0.2, mc_bits=MC, mode="pareto")


def test_parallel_table_build_is_deterministic(tiny4):
    space = small_space()
    serial = plan_for(tiny4, space, alpha=0.2, mc_bits=MC, tables=build_mapping_tables(tiny4, jobs=1))
    parallel = plan_for(tiny4, space, alpha=0.2, mc_bits=MC, tables=build_mapping_tables(tiny4, jobs=2))
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
    by_layer = [tables[shape_key(layer)] for layer in model.layers]
    assert by_layer[0] is by_layer[1] is by_layer[3]
    assert by_layer[2] is by_layer[5]
    assert len({id(t) for t in tables.values()}) == 3


def test_shape_key_reads_every_layer_field_but_the_indices_and_sample_paths():
    # A new ConvLayer field joins the key or this list, never neither.
    _, read = shape_key.__reduce__()
    left_out = ("index", "source_index", "input_sample", "weight_sample")
    assert sorted(read + left_out) == sorted(f.name for f in dataclasses.fields(ConvLayer))


def test_one_table_per_distinct_shape(tiny4):
    repeats = ModelDesc(name="repeats", layers=[
        small_layer(index=i, c_in=c, source_index=10 + i) for i, c in enumerate((1, 2, 1, 2, 2), start=1)
    ])
    for model, shapes in ((tiny4, 4), (repeats, 2)):
        tables = build_mapping_tables(model)
        assert len(tables) == shapes == len({shape_key(layer) for layer in model.layers})
        assert all(shape_key(tables[shape_key(layer)].layer) == shape_key(layer) for layer in model.layers)


# Three distinct shapes: a layer given another shape's table gets that
# shape's mappings and traffic, which changes the plan.
THREE_SHAPES = (
    small_layer(c_in=2, c_out=2),
    small_layer(c_in=2, c_out=4, i_h=8, i_w=8),
    small_layer(c_in=4, c_out=2, k_h=1, k_w=1),
)


def model_of(shapes, name="three"):
    return ModelDesc(name=name, layers=[replace(layer, index=i) for i, layer in enumerate(shapes, start=1)])


@pytest.mark.parametrize("scope", SCOPES)
def test_tables_of_the_same_shapes_in_another_order_give_the_same_plan(scope):
    model = model_of(THREE_SHAPES)
    rotated = build_mapping_tables(model_of(THREE_SHAPES[1:] + THREE_SHAPES[:1], name="rotated"))
    own = plan_for(model, small_space(scope), alpha=0.2, mc_bits=MC)
    theirs = plan_for(model, small_space(scope), alpha=0.2, mc_bits=MC, tables=rotated)
    assert theirs.to_record() == own.to_record()


def test_tables_missing_a_layers_shape_raise_naming_the_layer():
    model = model_of(THREE_SHAPES)
    tables = build_mapping_tables(model_of(THREE_SHAPES[::2], name="two"))
    with pytest.raises(SearchError, match=r"^no mapping table for the shape of layer 2$"):
        plan_for(model, small_space(), alpha=0.2, mc_bits=MC, tables=tables)


def test_literal_first_load_tables_set_the_plans_traffic():
    # The tables carry the first-load accounting: under literal tables the
    # plan's traffic is its layers' literal breakdowns summed.
    model = ModelDesc(name="two", layers=[
        ConvLayer(1, 8, 8, 4, 4, 1, 1),
        ConvLayer(2, 8, 16, 4, 4, 3, 3, pad_h=1, pad_w=1),
    ])
    space = CandidateSpace(total_bits=8, se_set=(3,), bs_set=(8,))
    tables = build_mapping_tables(model, count_first_load=False)
    plan = plan_for(model, space, mc_bits=4096.0, tables=tables)
    assert all(not a.breakdown.count_first_load for a in plan.assignments)
    assert plan.dm_sum_bits == sum(a.breakdown.dm_total_bits for a in plan.assignments) > 0


def test_shared_tables_parallel_build_matches_serial():
    model = ModelDesc(name="repeats", layers=[
        small_layer(index=i, c_in=c, c_out=2 * c) for i, c in enumerate((1, 2, 1, 2, 2), start=1)
    ])
    serial = build_mapping_tables(model, jobs=1)
    parallel = build_mapping_tables(model, jobs=2)
    by_layer = [parallel[shape_key(layer)] for layer in model.layers]
    assert by_layer[0] is by_layer[2] and by_layer[1] is by_layer[3] is by_layer[4]
    for specs in small_space().specs:
        for layer in model.layers:
            assert parallel[shape_key(layer)].query(specs, MC) == serial[shape_key(layer)].query(specs, MC)
    space = small_space()
    one = plan_for(model, space, alpha=0.2, mc_bits=MC, tables=serial)
    two = plan_for(model, space, alpha=0.2, mc_bits=MC, tables=parallel)
    assert one.to_record() == two.to_record()


def test_process_pool_gets_at_most_one_worker_per_shape(monkeypatch):
    # The pool starts all of its workers at the first submit, so --jobs
    # beyond the number of shapes would only start idle processes.
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    model = ModelDesc(name="three", layers=[small_layer(index=i, c_in=c) for i, c in enumerate((1, 2, 3, 1), start=1)])
    serial = build_mapping_tables(model)
    specs = small_space().specs[0]
    for jobs in (64, 2):
        tables = build_mapping_tables(model, jobs=jobs)
        assert [t.query(specs, MC) for t in tables.values()] == [t.query(specs, MC) for t in serial.values()]
    assert workers == [3, 2]


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
    kw = dict(alpha=0.0, mc_bits=MC)
    plan = plan_for(model, small_space(scope), acc_table=table, **kw)
    want = plan_for(plain, small_space(scope), acc_table=plain_table, **kw)
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
            plan_for(model, space, alpha=0.2, mc_bits=2.0 ** 21, tables=tables)
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
    *small, large = (tables[shape_key(layer)] for layer in layers)
    wide, narrow = config_specs((2, 8, 8)), config_specs((4, 8, 8))
    mc = float(large.footprint_bits(role_bits(layers[-1], narrow)).min())
    assert large.query(wide, mc) is None and large.query(narrow, mc) is not None
    assert all(table.query(wide, mc) is not None for table in small)

    calls = []
    qdq = accuracy.quantize_dequantize

    def counting(tensor, spec, *args, **kwargs):
        calls.append(spec)
        return qdq(tensor, spec, *args, **kwargs)

    monkeypatch.setattr(accuracy, "quantize_dequantize", counting)
    space = CandidateSpace(total_bits=8, se_set=(2, 4), bs_set=(8,))
    plan_for(model, space, alpha=0.2, mc_bits=mc, tables=tables)
    assert len(calls) == 2 * len(layers) * 1  # roles x layers x fully feasible configs
    calls.clear()
    plan_for(model, replace(space, scope="layer"), alpha=0.2, mc_bits=mc, tables=tables)
    assert len(calls) == 2 * (2 * len(layers) - 1)  # roles x feasible cells


def test_proxy_takes_each_samples_power_once_per_layer(tiny4, monkeypatch):
    calls = []
    power = accuracy.signal_power

    def counting(tensor):
        calls.append(tensor.size)
        return power(tensor)

    monkeypatch.setattr(sys.modules["bfpsearch.search"], "signal_power", counting)
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8))
    plan = plan_for(tiny4, space, alpha=0.2, mc_bits=MC)
    assert len(calls) == 2 * len(tiny4.layers)  # roles x layers, not x configs
    monkeypatch.undo()
    assert plan_for(tiny4, space, alpha=0.2, mc_bits=MC).to_record() == plan.to_record()


def test_proxy_scans_each_sample_once_per_scorable_block_size(monkeypatch):
    # (se 4, bs 8) fits every layer; (se 4, bs 1) carries more bits per
    # element and misses the capacity on the last, larger-kernel layer only.
    layers = [small_layer(index=i, c_in=2, c_out=2) for i in (1, 2, 3)]
    layers.append(small_layer(index=4, c_in=2, c_out=2, i_h=10, i_w=10, k_h=7, k_w=7))
    model = ModelDesc(name="edge", layers=layers)
    tables = build_mapping_tables(model)
    *small, large = (tables[shape_key(layer)] for layer in layers)
    mc = float(large.footprint_bits(role_bits(layers[-1], config_specs((4, 8, 8)))).min())
    assert large.query(config_specs((4, 1, 8)), mc) is None
    assert all(table.query(config_specs((4, 1, 8)), mc) is not None for table in small)

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
    plan_for(model, space, alpha=0.2, mc_bits=mc, tables=tables)
    # Model scope: the bs 1 column is infeasible, so only bs 8 is scanned.
    assert sorted(scans) == [(i, role, 8) for i in (1, 2, 3, 4) for role in ("input", "weight")]
    scans.clear()
    plan_for(model, replace(space, scope="layer"), alpha=0.2, mc_bits=mc, tables=tables)
    want = [(i, role, bs) for i in (1, 2, 3, 4) for role in ("input", "weight") for bs in (1, 8)]
    assert sorted(scans) == [cell for cell in want if cell[::2] != (4, 1)]


def _no_table(*args, **kwargs):
    raise AssertionError("a mapping table was built")


@pytest.mark.parametrize("scope", ["model", "layer"])
@pytest.mark.parametrize("source", ["proxy", "table"])
def test_accuracy_rows_need_no_table_and_give_the_same_plans(tiny4, monkeypatch, scope, source):
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8), scope=scope)
    text = per_layer_table({n: (lambda se, bs, n=n: 0.01 * n * se + 0.001 * bs) for n in range(1, 5)})
    table = loads_table(text + "model 3 8 8 0.125\n")  # stands for its column in model scope only
    acc_table = table if source == "table" else None
    mc = 100.0  # the se 2 cells of the 3x3 layers have no feasible mapping
    monkeypatch.setattr(LayerMappingTable, "__init__", _no_table)
    rows = accuracy_rows(tiny4, space, mc, acc_table)
    monkeypatch.undo()
    tables = build_mapping_tables(tiny4)
    configs = list(space.configs())
    fits = [[tables[shape_key(layer)].query(s, mc) is not None for s in space.specs] for layer in tiny4.layers]
    assert not all(map(all, fits)) and all(map(any, fits))

    def term(layer, j):
        if source == "table":
            return table.layer_entries[(layer.source_index,) + configs[j]]
        samples = {role: synthetic_sample(layer, role) for role in ("input", "weight")}
        return proxy_loss(layer, space.specs[j], samples)

    weights = [float(layer_volumes(layer)[1]) for layer in tiny4.layers]
    wsum = sum(weights)
    if scope == "layer":
        want = [{j: w / wsum * term(layer, j) for j, fit in enumerate(row) if fit}
                for w, layer, row in zip(weights, tiny4.layers, fits)]
    else:
        assert table.model_entries == {(3, 8, 8): 0.125}
        model_rows = table.model_entries if source == "table" else {}
        columns = [j for j in range(len(configs)) if all(row[j] for row in fits)]
        assert configs.index((3, 8, 8)) in columns
        want = [{j: model_rows[configs[j]] if configs[j] in model_rows
                 else sum(w * term(layer, j) for w, layer in zip(weights, tiny4.layers)) / wsum
                 for j in columns}]
    assert rows.model is tiny4 and (rows.space, rows.mc_bits) == (space, mc) and rows.acc_table is acc_table
    assert len(rows.groups) == (1 if scope == "model" else len(tiny4.layers))
    assert rows.groups == want


@pytest.mark.parametrize("scope, message", [
    ("model", "every candidate is infeasible under the memory capacity"),
    ("layer", "layer 1: every candidate is infeasible"),
])
def test_accuracy_rows_raise_infeasible_before_any_table(tiny4, monkeypatch, scope, message):
    monkeypatch.setattr(LayerMappingTable, "__init__", _no_table)
    space = CandidateSpace(total_bits=8, se_set=(2, 3), bs_set=(8,), scope=scope)
    for call in (lambda: accuracy_rows(tiny4, space, 50.0), lambda: plan_for(tiny4, space, mc_bits=50.0)):
        with pytest.raises(InfeasibleError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("mc_bits, seed", [(math.nan, 0), (-5.0, 0), (math.inf, 0), (MC, -1)])
def test_accuracy_rows_reject_what_search_rejects(tiny4, mc_bits, seed):
    with pytest.raises(SearchError) as rows_error:
        accuracy_rows(tiny4, small_space(), mc_bits, seed=seed)
    with pytest.raises(SearchError) as search_error:
        plan_for(tiny4, small_space(), mc_bits=mc_bits, seed=seed)
    assert str(rows_error.value) == str(search_error.value)


def test_accuracy_rows_weigh_each_shapes_least_footprint_once_per_config(monkeypatch):
    module = sys.modules["bfpsearch.search"]
    calls = {"elems": 0, "bits": 0}
    elems, bits = module.least_footprint_elems, module.role_bits

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(module, "least_footprint_elems", counting("elems", elems))
    monkeypatch.setattr(module, "role_bits", counting("bits", bits))
    layer = small_layer(c_in=2, c_out=2)
    model = ModelDesc(name="three", layers=[replace(layer, index=i) for i in (1, 2)] + [small_layer(index=3)])
    space = CandidateSpace(total_bits=8, se_set=(2, 3, 4), bs_set=(2, 8))
    accuracy_rows(model, space, MC)
    assert calls == {"elems": 2, "bits": 2 * 6}  # two shapes, six configs


# -- end-to-end reference -------------------------------------------------------


@st.composite
def reference_cases(draw):
    """1-3 small layers (file indices with gaps), small SE and BS subsets of
    either qb grid, any mode, scope and accounting, a capacity from
    infeasible to loose, and a table of per-layer and whole-model rows with
    tied values and, sometimes, holes."""
    scope = draw(st.sampled_from(SCOPES))
    mode = draw(st.sampled_from(MODES + ("pareto",) if scope == "model" else ("full",) * 6 + MODES))
    alpha = draw(st.sampled_from((0.2, 1.5, 0.0)))
    layers, source = [], 0
    for index in range(1, draw(st.integers(1, 3)) + 1):
        source += draw(st.integers(1, 2))
        layer = replace(draw(small_convs()), index=index, source_index=source)
        if draw(st.integers(0, 3)) == 0:  # a point layer: configs with equal se - se / bs tie on bits
            layer = replace(layer, i_h=1, i_w=1, k_h=1, k_w=1, pad_h=0, pad_w=0)
        layers.append(layer)
    model = ModelDesc(name="drawn", layers=layers)
    qb = draw(st.sampled_from((8, 16)))
    subset = lambda values: draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
    se_set, bs_set = subset(default_se_set(qb)), subset(DEFAULT_BS_SET)
    configs = [(se, bs, qb) for se in se_set for bs in bs_set]
    # The capacity: a cell's least footprint or one ulp below it (both often
    # infeasible), a cell's whole-layer footprint (no traffic at all without
    # first loads, for every config with no more bits), or log-uniform from
    # what the least hungry config needs on every layer to twice the largest
    # footprint.
    feet = [[footprint_bits(layer, config) for config in configs] for layer in layers]
    cell = draw(st.sampled_from(draw(st.sampled_from(feet))))
    lo = math.log(min(max(row[j].min() for row in feet) for j in range(len(configs))))
    hi = math.log(max(f.max() for row in feet for f in row) * 2)
    kind = draw(st.sampled_from(("least", "ulp", "whole", "log", "log", "log")))
    mc_bits = {"least": float(cell.min()), "ulp": math.nextafter(float(cell.min()), 0.0),
               "whole": float(cell.max())}.get(kind)
    if mc_bits is None:
        mc_bits = math.exp(lo + draw(st.floats(0, 1)) * (hi - lo))
    loss = st.sampled_from((0.0, 0.01, 0.1))  # few values, so losses tie
    present = st.sampled_from((True,) * 7 + (False,)) if draw(st.integers(0, 7)) == 0 else st.just(True)
    layer_rows = {(layer.source_index, *c): draw(loss) for layer in layers for c in configs if draw(present)}
    model_rows = {c: draw(loss) for c in configs if draw(st.booleans())}
    if not layer_rows and not model_rows:
        model_rows = {configs[0]: 0.0}
    table = AccuracyTable(model_rows, layer_rows)
    return model, qb, se_set, bs_set, scope, mode, alpha, mc_bits, table, draw(st.booleans())


def tie_case(se_set, bs_set, mode, losses):
    """A loose point layer, where a config's bits are 8 - se + se / bs, so
    its traffic is too, and a table of whole-model rows ``losses``."""
    model = ModelDesc(name="point", layers=[ConvLayer(1, 2, 2, 1, 1, 1, 1)])
    table = AccuracyTable(dict(zip(((se, bs, 8) for se in se_set for bs in bs_set), losses)))
    return model, 8, se_set, bs_set, "model", mode, 0.2, 1e9, table, True


@settings(settings.get_profile("seeded"), max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(reference_cases())
@example(tie_case([2, 3, 4], [1], "no_qat", [0.0] * 3))  # equal traffic: the smaller se wins
@example(tie_case([4, 6], [2, 4], "full", [0.0, 0.0, 0.0, 0.1]))  # (4, 4) and (6, 2) tie: the larger bs wins
@example(tie_case([2, 3], [8], "no_dm", [0.0, 0.0]))  # equal losses: the smaller traffic wins
@example(tie_case([2, 6], [4], "pareto", [0.0, 0.01]))  # a two-point frontier: the smaller objective wins
def test_search_matches_the_reference_search(case):
    """``search`` picks the reference's configs and mappings with the same dm
    bits, losses and candidate rows, bit for bit, or raises its error."""
    model, qb, se_set, bs_set, scope, mode, alpha, mc_bits, table, count_first_load = case
    args = dict(alpha=alpha, mc_bits=mc_bits, mode=mode, acc_table=table,
                tables=build_mapping_tables(model, count_first_load=count_first_load))
    space = CandidateSpace(qb, tuple(se_set), tuple(bs_set), scope)
    try:
        want = reference_search(model, qb, se_set, bs_set, scope, mode, alpha, mc_bits, table, count_first_load)
    except (AccuracyError, InfeasibleError, SearchError) as exc:
        with pytest.raises(type(exc)):
            plan_for(model, space, **args)
        return
    plan = plan_for(model, space, **args)
    assert [(a.config, a.mapping, a.breakdown.dm_total_bits) for a in plan.assignments] == want["layers"]
    assert (plan.acc_loss, plan.perf_loss, plan.objective, plan.dm_sum_bits, plan.dm_max_bits) == want["summary"]
    assert (plan.candidates, plan.pareto) == (want["candidates"], want["pareto"])
