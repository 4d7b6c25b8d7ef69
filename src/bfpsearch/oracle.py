"""Brute-force tile-schedule simulator: the ground truth for the DM model.

Walks every tile of the loop nest in mapping order, keeps exactly one
resident footprint per operand, and counts the elements each step must fetch
beyond what is already resident.  Footprints are exact per-dimension interval
products, so counts are exact for rectangular tiles (including padding clip,
ragged final tiles and halo overlap).  Elements are counted as integers and
weighted by the per-role effective bitwidth once at the end, making totals
directly comparable, bit for bit, with :func:`bfpsearch.dm.dm_layer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .dm import (
    LOOP_DIMS,
    OPERANDS,
    Mapping,
    iteration_counts,
    loop_extents,
    role_bits,
    tile_footprint_elems,
    validate_mapping,
    weigh,
)
from .model import ConvLayer


class CapacityError(ValueError):
    pass


@dataclass
class SimResult:
    transfer_elems: dict
    transfer_bits: dict
    total_bits: float
    peak_occupancy_bits: float


def _box_volume(box):
    vol = 1
    for a, b in box:
        vol *= max(0, b - a)
    return vol


def _box_overlap(box_a, box_b):
    vol = 1
    for (a0, a1), (b0, b1) in zip(box_a, box_b):
        vol *= max(0, min(a1, b1) - max(a0, b0))
    return vol


def _input_span(lo_out, n_out, stride, lo_k, n_k, pad, extent):
    # Input support of output positions [lo_out, lo_out+n_out) under kernel
    # taps [lo_k, lo_k+n_k), clipped to the valid (unpadded) index range.
    a = lo_out * stride + lo_k - pad
    b = (lo_out + n_out - 1) * stride + (lo_k + n_k - 1) + 1 - pad
    return max(a, 0), min(b, extent)


def _footprint_boxes(layer: ConvLayer, mapping: Mapping, extents: dict, pos: dict) -> dict:
    t = {d: mapping.tile(d) for d in LOOP_DIMS}
    lo = {d: pos[d] * t[d] for d in LOOP_DIMS}
    n = {d: min(t[d], extents[d] - lo[d]) for d in LOOP_DIMS}

    in_rows = _input_span(lo["oh"], n["oh"], layer.stride_h, lo["kh"], n["kh"], layer.pad_h, layer.i_h)
    in_cols = _input_span(lo["ow"], n["ow"], layer.stride_w, lo["kw"], n["kw"], layer.pad_w, layer.i_w)
    return {
        "input": ((lo["ic"], lo["ic"] + n["ic"]), in_rows, in_cols),
        "output": (
            (lo["oc"], lo["oc"] + n["oc"]),
            (lo["oh"], lo["oh"] + n["oh"]),
            (lo["ow"], lo["ow"] + n["ow"]),
        ),
        "weight": (
            (lo["oc"], lo["oc"] + n["oc"]),
            (lo["ic"], lo["ic"] + n["ic"]),
            (lo["kh"], lo["kh"] + n["kh"]),
            (lo["kw"], lo["kw"] + n["kw"]),
        ),
    }


def simulate(
    layer: ConvLayer,
    mapping: Mapping,
    specs,
    mc_bits: float = math.inf,
    count_first_load: bool = True,
) -> SimResult:
    """Run the tile schedule and count exact off-chip transfers per operand.

    Retention is "slide-and-retain": each operand keeps its current
    footprint resident; when a step needs a different footprint, only the
    non-resident part transfers and the non-overlapping remainder is
    evicted (so an operand is effectively pinned across loops it does not
    depend on, until its own loops wrap around).  A single tile set larger
    than ``mc_bits`` is rejected up front.
    """
    validate_mapping(layer, mapping)
    bits = role_bits(layer, specs)
    tile_total = weigh(tile_footprint_elems(layer, mapping), bits)
    if tile_total > mc_bits:
        raise CapacityError(
            f"one tile set needs {tile_total:.1f} bits, exceeding capacity {mc_bits} bits"
        )

    extents = loop_extents(layer)
    iters = iteration_counts(layer, mapping)
    perm = mapping.permutation

    resident = {}  # each operand's resident footprint box
    peak_occupancy_bits = 0.0
    moved = {role: 0 for role in OPERANDS}
    changes = {role: 0 for role in OPERANDS}
    first = {role: 0 for role in OPERANDS}

    for idx in product(*[range(iters[d]) for d in perm]):
        pos = dict(zip(perm, idx))
        boxes = _footprint_boxes(layer, mapping, extents, pos)
        occupancy = 0.0
        for role in OPERANDS:
            new_box = boxes[role]
            vol = _box_volume(new_box)
            old_box = resident.get(role)
            if old_box is None:
                delta = vol
                first[role] = vol
            else:
                delta = vol - _box_overlap(new_box, old_box)
                if new_box != old_box:
                    changes[role] += 1
            moved[role] += delta
            resident[role] = new_box
            occupancy += vol * bits[role]
        peak_occupancy_bits = max(peak_occupancy_bits, occupancy)

    if not count_first_load:
        for role in OPERANDS:
            if changes[role] == 0:
                moved[role] -= first[role]

    transfer_elems = {role: moved[role] * layer.groups for role in OPERANDS}
    transfer_bits = {role: transfer_elems[role] * bits[role] for role in OPERANDS}
    return SimResult(
        transfer_elems=transfer_elems,
        transfer_bits=transfer_bits,
        total_bits=(transfer_bits["input"] + transfer_bits["output"]) + transfer_bits["weight"],
        peak_occupancy_bits=peak_occupancy_bits,
    )


