"""Accuracy-loss sources for the configuration search.

Two interchangeable sources:

* a built-in proxy: normalized quantization MSE of sampled weight/activation
  tensors under the candidate format, volume-weighted across layers.  Stands
  in for measured fine-tuning results, which need training infrastructure
  this tool deliberately does not ship.
* externally measured accuracy tables, for users who ran the real thing.

Proxy losses are relative: the search normalizes them over the candidate set
so the trade-off factor weighs two ratios of comparable scale.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .codec import BfpSpec, load_tensor_f32, quantize_dequantize
from .model import ConvLayer, ModelDesc, layer_volumes

TABLE_FORMAT_VERSION = 1

SYNTHETIC_SEED = 0x5EED


class AccuracyError(ValueError):
    pass


@dataclass
class AccuracyTable:
    """Measured accuracy-loss values per configuration.

    ``model_entries`` maps (exp_bits, block_size, total_bits) to a whole-model
    loss; ``layer_entries`` adds a leading layer index for per-layer values.
    Missing keys are genuinely missing (never implicit zeros).
    """

    model_entries: dict = field(default_factory=dict)
    layer_entries: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.model_entries and not self.layer_entries


def loads_table(text: str) -> AccuracyTable:
    table = AccuracyTable()
    errors = []
    version_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "format_version":
            version_seen = True
            if parts[1:] != [str(TABLE_FORMAT_VERSION)]:
                errors.append((lineno, f"unsupported format_version {parts[1:]}"))
            continue
        if len(parts) != 5:
            errors.append((lineno, f"expected 'scope SE BS qb loss', got {len(parts)} fields"))
            continue
        scope, se_s, bs_s, qb_s, loss_s = parts
        try:
            key = (int(se_s), int(bs_s), int(qb_s))
            loss = float(loss_s)
        except ValueError:
            errors.append((lineno, f"non-numeric record {parts[1:]}"))
            continue
        if not math.isfinite(loss):
            errors.append((lineno, f"non-finite loss {loss_s!r}"))
            continue
        if loss < 0.0:
            table.diagnostics.append((lineno, f"negative loss {loss} clamped to 0"))
            loss = 0.0
        if scope == "model":
            table.model_entries[key] = loss
        elif scope.startswith("layer:"):
            try:
                layer_idx = int(scope.split(":", 1)[1])
            except ValueError:
                errors.append((lineno, f"bad layer scope {scope!r}"))
                continue
            table.layer_entries[(layer_idx,) + key] = loss
        else:
            errors.append((lineno, f"unknown scope {scope!r}"))
    if not version_seen:
        errors.append((0, "missing format_version line"))
    if errors:
        msgs = "; ".join(f"line {ln}: {m}" for ln, m in errors)
        raise AccuracyError(f"invalid accuracy table: {msgs}")
    return table


def load_table(path) -> AccuracyTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_table(fh.read())
    except OSError as exc:
        raise AccuracyError(f"cannot read accuracy table {path}: {exc}") from exc


def lookup_acc_loss(table: AccuracyTable, config: tuple, model: ModelDesc | None = None,
                    compose: bool = True) -> float:
    """Tabulated loss for one (exp_bits, block_size, total_bits) config.

    Exact whole-model entries win; otherwise, with composition enabled and a
    model given, per-layer entries are combined as an output-volume-weighted
    sum (the same rule the proxy uses).  Per-layer rows are keyed by the layer
    index written in the model file (``ConvLayer.source_index``).
    """
    if table.is_empty():
        raise AccuracyError("accuracy table is empty")
    key = tuple(int(v) for v in config)
    if key in table.model_entries:
        return table.model_entries[key]
    if not compose:
        raise AccuracyError(f"no whole-model entry for config {key} and composition is disabled")
    if model is None:
        raise AccuracyError(f"no whole-model entry for config {key}; need a model to compose per-layer entries")
    total = 0.0
    weight_sum = 0.0
    for layer in model.layers:
        layer_key = (layer.source_index,) + key
        if layer_key not in table.layer_entries:
            raise AccuracyError(
                f"accuracy table covers neither model nor layer {layer.source_index} for config {key}"
            )
        w = float(layer_volumes(layer)[1])
        total += w * table.layer_entries[layer_key]
        weight_sum += w
    return total / weight_sum


# ---------------------------------------------------------------------------
# Quantization-error proxy
# ---------------------------------------------------------------------------


def synthetic_sample(layer: ConvLayer, role: str, seed: int = SYNTHETIC_SEED) -> np.ndarray:
    """Deterministic unit-variance sample tensor for one layer operand."""
    vol_in, vol_out, vol_w = layer_volumes(layer)
    size = {"input": vol_in, "output": vol_out, "weight": vol_w}[role]
    rng = np.random.default_rng((seed, layer.index, {"input": 0, "output": 1, "weight": 2}[role]))
    return rng.standard_normal(size)


def layer_samples(layer: ConvLayer, model_dir: str | None = None, seed: int = SYNTHETIC_SEED,
                  allow_synthetic: bool = True) -> dict:
    """Sample tensors for the proxy, one per role with data on disk, falling
    back to fixed-seed synthetic tensors."""
    samples = {}
    vol_in, _, vol_w = layer_volumes(layer)
    refs = {"input": (layer.input_sample, vol_in), "weight": (layer.weight_sample, vol_w)}
    for role, (ref, volume) in refs.items():
        if ref:
            path = os.path.join(model_dir, ref) if model_dir else ref
            samples[role] = load_tensor_f32(path, shape=(volume,))
        elif allow_synthetic:
            samples[role] = synthetic_sample(layer, role, seed=seed)
        else:
            raise AccuracyError(
                f"layer {layer.index} has no {role} sample and the synthetic fallback is disabled"
            )
    return samples


def normalized_mse(tensor: np.ndarray, spec: BfpSpec) -> float:
    """MSE of the encode/decode round trip, normalized by signal power."""
    arr = np.asarray(tensor, dtype=np.float64)
    # The squared error is built in place in the fresh dequantized buffer.
    err = quantize_dequantize(arr, spec)
    np.subtract(arr, err, out=err)
    np.square(err, out=err)
    power = float(np.mean(arr * arr))
    if power == 0.0:
        return 0.0
    return float(np.mean(err)) / power


def proxy_layer_loss(layer: ConvLayer, specs, samples: dict) -> float:
    """Mean normalized round-trip MSE over the roles with samples."""
    spec_by_role = {s.role: s for s in specs if isinstance(s, BfpSpec)}
    losses = []
    for role, tensor in sorted(samples.items()):
        if role not in spec_by_role:
            continue
        losses.append(normalized_mse(tensor, spec_by_role[role]))
    if not losses:
        raise AccuracyError(f"no usable samples for layer {layer.index}")
    return float(np.mean(losses))


def proxy_acc_loss(model: ModelDesc, samples_per_layer, specs_per_layer) -> float:
    """Raw (unnormalized) proxy loss: output-volume-weighted sum of per-layer
    normalized round-trip MSE.  The search divides by the candidate-set
    maximum so the reported loss lands in [0, 1]."""
    if len(specs_per_layer) != len(model.layers):
        raise AccuracyError(f"need specs for all {len(model.layers)} layers")
    total = 0.0
    weight_sum = 0.0
    for layer, specs in zip(model.layers, specs_per_layer):
        samples = samples_per_layer[layer.index] if isinstance(samples_per_layer, dict) else samples_per_layer(layer)
        w = float(layer_volumes(layer)[1])
        total += w * proxy_layer_loss(layer, specs, samples)
        weight_sum += w
    return total / weight_sum
