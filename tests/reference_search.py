"""Slow end-to-end reference for ``search`` with a measured accuracy table.

It shares no logic with ``search.py`` or ``tiling.py``; from them it takes
only the documented error classes.  Each layer's cells weigh every
(permutation, tiling) of the unpruned count lattice of
``reference_tiling.py`` and pick the documented tie-break, written out
again; each winner's traffic is checked against ``oracle.simulate``.
Selectability, the accuracy terms, both normalizers and every mode's
selection rule are written out again from the documentation too.

The proxy loss source is not covered: the codec kernel and
``reference_codec.py`` still disagree on blocks that hold a zero.
"""

import functools
import itertools
import math

import numpy as np

from bfpsearch.accuracy import AccuracyError
from bfpsearch.codec import BfpSpec
from bfpsearch.dm import OPERANDS, make_mapping, role_bits
from bfpsearch.oracle import simulate
from bfpsearch.search import SearchError
from bfpsearch.tiling import InfeasibleError

from reference_tiling import reference_table_arrays

MOVING = ("oc", "ic", "oh", "ow")
PERMUTATIONS = tuple(itertools.permutations(MOVING))  # the default orders, in their documented order


def config_specs(config) -> tuple:
    se, bs, qb = config
    return tuple(BfpSpec(qb, se, bs, role) for role in OPERANDS)


def _weighed(elems: dict, bits: dict):
    return (elems["input"] * bits["input"] + elems["output"] * bits["output"]) + elems["weight"] * bits["weight"]


@functools.lru_cache(maxsize=32)
def _lattice(layer, count_first_load: bool):
    """Per-role counts over (permutation, flat tiling), per-role footprint
    elements over flat tilings, and each flat tiling's tile vector."""
    arrays = reference_table_arrays(layer, PERMUTATIONS, count_first_load)
    cands = arrays["candidates"]
    tiles = [tuple(cands[d][i] for d, i in zip(MOVING, idx)) for idx in np.ndindex(*(len(cands[d]) for d in MOVING))]
    counts = dict(zip(OPERANDS, arrays["lattice"]))
    footprint = {role: elems.reshape(-1) for role, elems in arrays["footprint_elems"].items()}
    return counts, footprint, tiles


def footprint_bits(layer, config) -> np.ndarray:
    """Every tiling's footprint in bits under ``config``."""
    _, footprint, _ = _lattice(layer, True)
    return _weighed(footprint, role_bits(layer, config_specs(config)))


def best_cell(layer, config, mc_bits: float, count_first_load: bool):
    """(dm_bits, mapping) of the least traffic among the mappings that fit,
    ties to larger tile volume, then the earlier permutation, then the
    lexicographically larger tile vector; None if no mapping fits."""
    counts, footprint, tiles = _lattice(layer, count_first_load)
    bits = role_bits(layer, config_specs(config))
    dm = np.where(_weighed(footprint, bits) <= mc_bits, _weighed(counts, bits), np.inf)
    least = dm.min()
    if least == np.inf:
        return None
    perm, flat = min(zip(*np.nonzero(dm == least)),
                     key=lambda pt: (-math.prod(tiles[pt[1]]), pt[0], tuple(-t for t in tiles[pt[1]])))
    return float(least), make_mapping(layer, dict(zip(MOVING, tiles[flat])), order=PERMUTATIONS[perm])


def _rank(cand, mode: str):
    """The mode's loss, then less traffic, larger block size, smaller shared exponent."""
    se, bs, _ = cand["config"]
    primary = {"no_qat": cand["dm"], "no_dm": cand["acc"]}.get(mode, cand["obj"])
    return (primary, cand["dm"], -bs, se)


def _frontier(feasible) -> list:
    """The candidates that no candidate before them in (acc, perf, full rank)
    order matches or beats on perf."""
    order = sorted(feasible, key=lambda c: (c["acc"], c["perf"], _rank(c, "full")))
    return [c for k, c in enumerate(order) if all(d["perf"] > c["perf"] for d in order[:k])]


def _knee(front):
    """The frontier point farthest from the chord between its ends, ties (and
    a zero-length chord) to the full rank."""
    (ax, ay), (bx, by) = ((c["acc"], c["perf"]) for c in (front[0], front[-1]))
    chord = math.hypot(bx - ax, by - ay)
    if chord == 0.0:
        return min(front, key=lambda c: _rank(c, "full"))
    dist = {id(c): abs((bx - ax) * (ay - c["perf"]) - (ax - c["acc"]) * (by - ay)) / chord for c in front}
    far = max(dist.values())
    return min((c for c in front if dist[id(c)] == far), key=lambda c: _rank(c, "full"))


def _row(cand) -> dict:
    se, bs, qb = cand["config"]
    values = {"dm_sum_bits": "dm", "acc_loss": "acc", "perf_loss": "perf", "objective": "obj"}
    return {"se": se, "bs": bs, "qb": qb, "feasible": cand["feasible"],
            **{name: cand[key] if cand["feasible"] else None for name, key in values.items()}}


def reference_search(model, qb, se_set, bs_set, scope, mode, alpha, mc_bits, acc_table, count_first_load=True):
    """What ``search`` given ``acc_table`` must return: per layer
    (config, mapping, dm_bits), the summary (acc_loss, perf_loss, objective,
    dm_sum_bits, dm_max_bits) and, in model scope, the candidate and Pareto
    rows.  Raises the error ``search`` must raise."""
    if scope == "layer" and mode != "full":
        raise SearchError("per-layer scope supports only the full trade-off mode")
    if scope == "layer" and not acc_table.layer_entries:
        raise AccuracyError("per-layer search needs per-layer accuracy entries")
    configs = [(se, bs, qb) for se in sorted(se_set) for bs in sorted(bs_set)]
    layers = model.layers
    cells = [[best_cell(layer, config, mc_bits, count_first_load) for config in configs] for layer in layers]

    # A cell is selectable when a mapping fits; in model scope only when every cell of its column is.
    fits = [[cell is not None for cell in row] for row in cells]
    if scope == "model":
        fits = [[all(column) for column in zip(*fits)]] * len(layers)
    for row in fits:
        if not any(row):
            raise InfeasibleError("no selectable candidate")

    def entry(layer, config):
        key = (layer.source_index, *config)
        if key not in acc_table.layer_entries:
            raise AccuracyError(f"no per-layer entry {key}")
        return acc_table.layer_entries[key]

    # Each layer is weighed by its output volume.
    weights = [float(layer.c_out * layer.o_h * layer.o_w) for layer in layers]
    wsum = sum(weights)
    if scope == "model":
        def raw(j):
            if configs[j] in acc_table.model_entries:
                return acc_table.model_entries[configs[j]]
            return sum(w * entry(layer, configs[j]) for layer, w in zip(layers, weights)) / wsum
        groups = [(range(len(layers)), raw)]
    else:
        groups = [([i], lambda j, i=i: weights[i] / wsum * entry(layers[i], configs[j])) for i in range(len(layers))]
    cands = [
        [{"config": config, "feasible": True, "dm": sum(cells[i][j][0] for i in members), "raw": raw(j)}
         if fits[members[0]][j] else {"config": config, "feasible": False}
         for j, config in enumerate(configs)]
        for members, raw in groups
    ]

    # Traffic is normalized by the sum of each group's largest; table losses are not normalized.
    feasible = [[c for c in group if c["feasible"]] for group in cands]
    dm_max = sum(max(c["dm"] for c in group) for group in feasible)
    if dm_max <= 0:
        raise SearchError("every candidate moves zero bits")
    for c in itertools.chain(*feasible):
        c["acc"], c["perf"] = c["raw"], c["dm"] / dm_max
        c["obj"] = c["acc"] + alpha * c["perf"]
    if mode == "pareto":
        winners = [_knee(_frontier(group)) for group in feasible]
    else:
        winners = [min(group, key=lambda c: _rank(c, mode)) for group in feasible]
    dm_sum = sum(c["dm"] for c in winners)
    acc_loss = sum(c["raw"] for c in winners)
    perf_loss = dm_sum / dm_max
    if scope == "model":
        winners = winners * len(layers)

    assigned = []
    for layer, row, winner in zip(layers, cells, winners):
        dm_bits, mapping = row[configs.index(winner["config"])]
        sim = simulate(layer, mapping, config_specs(winner["config"]), count_first_load=count_first_load)
        assert sim.total_bits == dm_bits, (layer, mapping, sim.total_bits, dm_bits)
        assigned.append((winner["config"], mapping, dm_bits))
    return {
        "layers": assigned,
        "summary": (acc_loss, perf_loss, acc_loss + alpha * perf_loss, dm_sum, dm_max),
        "candidates": [_row(c) for c in cands[0]] if scope == "model" else [],
        "pareto": [_row(c) for c in _frontier(feasible[0])] if scope == "model" and mode == "pareto" else [],
    }
