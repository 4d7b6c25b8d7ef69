"""Benchmark workloads: their program inputs, generated in code from a seed.

Each workload is one CLI configuration of bfpsearch plus the files it reads.
Nothing is downloaded; the same seed always gives the same files.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

SWEEP_ALPHAS = (0.015, 0.05, 0.15, 0.2, 0.25, 1.5, 3.0)  # the CLI's default --sweep values
DEFAULT_BS = (1, 2, 4, 8, 16, 24, 32, 48)


def stack20_shapes() -> list:
    """(c_in, c_out, size, kernel, stride, pad) of the 20-layer acceptance stack."""
    stages = [(3, 16, 32, 1)] + [(16, 16, 32, 1)] * 6 + [(16, 32, 32, 2)]
    stages += [(32, 32, 16, 1)] * 5 + [(32, 64, 16, 2)] + [(64, 64, 8, 1)] * 6
    return [(c_in, c_out, size, 3, stride, 1) for c_in, c_out, size, stride in stages]


def resnet50_shapes() -> list:
    """The 53 convolutions of ResNet-50 (v1.5 bottlenecks) at 224x224 input."""
    shapes = [(3, 64, 224, 7, 2, 3)]
    c_in, size = 64, 56  # after the stride-2 max pool, which is not a conv
    for width, blocks, stride in ((64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2)):
        for b in range(blocks):
            s = stride if b == 0 else 1
            shapes.append((c_in, width, size, 1, 1, 0))
            shapes.append((width, width, size, 3, s, 1))
            out_size = (size - 1) // s + 1
            shapes.append((width, 4 * width, out_size, 1, 1, 0))
            if b == 0:
                shapes.append((c_in, 4 * width, size, 1, s, 0))  # projection shortcut
            c_in, size = 4 * width, out_size
    if len(shapes) != 53 or len(set(shapes)) != 23:
        raise AssertionError(f"ResNet-50 needs 53 convs / 23 shapes, got {len(shapes)} / {len(set(shapes))}")
    return shapes


def model_text(name: str, shapes) -> str:
    lines = ["format_version 1", f"model {name}", ""]
    for i, (c_in, c_out, size, k, stride, pad) in enumerate(shapes, start=1):
        lines += [
            f"layer {i}",
            f"  c_in {c_in}",
            f"  c_out {c_out}",
            f"  input {size} {size}",
            f"  kernel {k} {k}",
            f"  stride {stride} {stride}",
            f"  pad {pad} {pad}",
            "",
        ]
    return "\n".join(lines)


def output_volume(shape) -> int:
    c_in, c_out, size, k, stride, pad = shape
    out = (size + 2 * pad - k) // stride + 1
    return c_out * out * out


def acc_table(shapes, configs, seed: int) -> dict:
    """Seeded stand-in for measured per-layer accuracy losses.

    Loss grows as the mantissa narrows and the block widens, and grows again
    when the shared exponent is too narrow to cover the range; each layer gets
    its own sensitivity and every entry a small multiplicative jitter.
    """
    rng = random.Random(seed)
    table = {}
    for index in range(1, len(shapes) + 1):
        sensitivity = rng.uniform(0.2, 2.0)
        for se, bs, qb in configs:
            rounding = 4.0 ** -(qb - se - 2) * (1.0 + 0.15 * math.log2(bs))
            clipping = 0.05 * 2.0 ** -(2 ** se / 4)
            loss = sensitivity * (rounding + clipping) * rng.uniform(0.9, 1.1)
            table[(index, se, bs, qb)] = float(f"{loss:.9e}")  # exactly as written to the file
    return table


def acc_table_text(table: dict) -> str:
    lines = ["format_version 1"]
    for (index, se, bs, qb), loss in sorted(table.items()):
        lines.append(f"layer:{index} {se} {bs} {qb} {loss:.9e}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    shapes: tuple
    qb: int
    se: tuple
    bs: tuple
    scope: str
    loss_source: str
    mc_bits: float
    sweep: bool
    query_calls: int        # LayerMappingTable.query calls per operation on the seed commit
    qdq_calls: int          # quantize_dequantize calls per operation on the seed commit

    @property
    def configs(self) -> list:
        return [(se, bs, self.qb) for se in self.se for bs in self.bs]

    @property
    def evals(self) -> int:
        """(layer x candidate config x alpha) evaluations per operation."""
        return len(self.shapes) * len(self.configs) * (len(SWEEP_ALPHAS) if self.sweep else 1)

    def flags(self) -> list:
        """CLI flags of the workload, apart from its input files and --out."""
        flags = ["--qb", str(self.qb), "--se", ",".join(map(str, self.se)),
                 "--bs", ",".join(map(str, self.bs)), "--scope", self.scope,
                 "--loss-source", self.loss_source, "--mc", str(self.mc_bits), "--jobs", "1"]
        return flags + (["--sweep"] if self.sweep else [])

    def write_inputs(self, directory: str, seed: int) -> list:
        """Write the workload's input files; return the CLI flags naming them."""
        model_path = os.path.join(directory, f"{self.model}.model")
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write(model_text(self.model, self.shapes))
        args = ["--model", model_path]
        if self.loss_source == "table":
            table_path = os.path.join(directory, f"{self.model}.acc")
            with open(table_path, "w", encoding="utf-8") as fh:
                fh.write(acc_table_text(acc_table(self.shapes, self.configs, seed)))
            return args + ["--acc-table", table_path]
        return args + ["--seed", str(seed)]  # seeds the proxy's synthetic sample tensors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stack20-proxy", model="stack20", shapes=tuple(stack20_shapes()),
            qb=16, se=(2, 3, 4, 5, 6, 7), bs=DEFAULT_BS, scope="model", loss_source="proxy",
            mc_bits=2_097_152.0, sweep=False, query_calls=980, qdq_calls=1920,
        ),
        Workload(
            name="resnet50-layer-proxy", model="resnet50", shapes=tuple(resnet50_shapes()),
            qb=8, se=(3, 5), bs=(8, 32), scope="layer", loss_source="proxy",
            mc_bits=2_097_152.0, sweep=False, query_calls=265, qdq_calls=424,
        ),
        Workload(
            name="stack20-sweep-table", model="stack20", shapes=tuple(stack20_shapes()),
            qb=8, se=(2, 3, 4, 5, 6), bs=DEFAULT_BS, scope="model", loss_source="table",
            mc_bits=65_536.0, sweep=True, query_calls=5740, qdq_calls=0,
        ),
    )
}
