"""Spans around bfpsearch's module boundaries, recorded from outside the program.

``install`` replaces public names with timing wrappers where callers look
them up at call time, and returns a function that puts the originals back.
A span's self time is its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded operation at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts=None):
        """``fn`` timed as span ``name``; ``counts(args, result)`` adds counters."""

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Per span name: calls, self seconds and summed numeric counters."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, span in enumerate(self.spans):
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += span.end - span.start - child_time[i]
            for key, value in span.counts.items():
                if isinstance(value, (int, float)):
                    row[key] = row.get(key, 0) + value
        return dict(out)


def _qdq_counts(args, result):
    return {"elems": int(result.size)}


def _samples_counts(args, result):
    return {"elems": sum(int(t.size) for t in result.values())}


def _query_counts(args, result):
    table, specs, mc_bits = args
    return {"probe": (table, specs, mc_bits)}  # evaluated after the operation


def _build_counts(args, result):
    table = args[0]
    return {"lattice_points": len(table.permutations) * table.n_tilings}


def install(tracer: Tracer):
    """Wrap the public names on the search path; return the undo function."""
    import bfpsearch.tiling

    cli = sys.modules["bfpsearch.cli"]
    search = sys.modules["bfpsearch.search"]  # bfpsearch.search is the function
    accuracy = sys.modules["bfpsearch.accuracy"]
    dm = sys.modules["bfpsearch.dm"]
    table_cls = bfpsearch.tiling.LayerMappingTable
    targets = [
        (cli, "load_model", "model.load", None),
        (cli, "build_mapping_tables", "search.build_tables", None),
        (cli, "search", "search.search", None),
        (search, "proxy_layer_loss", "accuracy.proxy", None),
        (search, "layer_samples", "accuracy.samples", _samples_counts),
        (search, "energy", "energy.energy", None),
        (accuracy, "quantize_dequantize", "codec.qdq", _qdq_counts),
        (table_cls, "__init__", "tiling.build", _build_counts),
        (table_cls, "query", "tiling.query", _query_counts),
        (dm, "dm_layer", "dm.dm_layer", None),
    ]
    originals = []
    for owner, attr, name, counts in targets:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, counts))

    def undo():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return undo


def lattice_feasibility(spans) -> tuple:
    """(tilings that fit the capacity, tilings scanned), summed over queries."""
    from bfpsearch.dm import role_bits

    per_probe = {}
    fits = scanned = 0
    for span in spans:
        if span.name != "tiling.query":
            continue
        table, specs, mc_bits = span.counts["probe"]
        key = (id(table), specs, mc_bits)
        if key not in per_probe:
            mask = table.footprint_bits(role_bits(table.layer, specs)) <= mc_bits
            per_probe[key] = (int(mask.sum()), int(mask.size))
        fits += per_probe[key][0]
        scanned += per_probe[key][1]
    return fits, scanned


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced operation, named as in BENCHMARK.json."""
    totals = tracer.totals()

    def get(name, key="self_s"):
        return totals.get(name, {}).get(key, 0)

    fits, scanned = lattice_feasibility(tracer.spans)
    return {
        "cli.self_s": get("cli"),
        "model.load_s": get("model.load"),
        "search.self_s": get("search.search") + get("search.build_tables"),
        "search.calls": get("search.search", "calls"),
        "tiling.build_s": get("tiling.build"),
        "tiling.build_calls": get("tiling.build", "calls"),
        "tiling.lattice_points": get("tiling.build", "lattice_points"),
        "tiling.query_s": get("tiling.query"),
        "tiling.query_calls": get("tiling.query", "calls"),
        "tiling.query_feasible_ratio": fits / scanned if scanned else 0.0,
        "accuracy.proxy_s": get("accuracy.proxy"),
        "accuracy.proxy_calls": get("accuracy.proxy", "calls"),
        "accuracy.samples_s": get("accuracy.samples"),
        "accuracy.sample_elems": get("accuracy.samples", "elems"),
        "codec.qdq_s": get("codec.qdq"),
        "codec.qdq_calls": get("codec.qdq", "calls"),
        "codec.qdq_elems": get("codec.qdq", "elems"),
        "dm.dm_layer_s": get("dm.dm_layer"),
        "dm.dm_layer_calls": get("dm.dm_layer", "calls"),
        "energy.energy_s": get("energy.energy"),
    }
