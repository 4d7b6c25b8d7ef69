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

from .codec import ROLES, BfpSpec, Blocks, load_tensor_f32, quantize_dequantize
from .model import ConvLayer, layer_volumes, raise_errors, read_text, records

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
    first = {}  # format_version -> its line
    row_lines = {}  # entry key -> the line that set it
    for lineno, scope, args in records(text, errors, first):
        if len(args) != 4:
            errors.append((lineno, f"expected 'scope SE BS qb loss', got {len(args) + 1} fields"))
            continue
        try:
            key = tuple(int(a) for a in args[:3])
            loss = float(args[3])
        except ValueError:
            errors.append((lineno, f"non-numeric record {args}"))
            continue
        if not math.isfinite(loss):
            errors.append((lineno, f"non-finite loss {args[3]!r}"))
            continue
        if loss < 0.0:
            table.diagnostics.append((lineno, f"negative loss {loss} clamped to 0"))
            loss = 0.0
        if scope == "model":
            entries = table.model_entries
        elif scope.startswith("layer:"):
            try:
                key = (int(scope.split(":", 1)[1]),) + key
            except ValueError:
                errors.append((lineno, f"bad layer scope {scope!r}"))
                continue
            entries = table.layer_entries
        else:
            errors.append((lineno, f"unknown scope {scope!r}"))
            continue
        if key in row_lines:
            errors.append((lineno, f"repeats the {scope} row of line {row_lines[key]}"))
            continue
        row_lines[key] = lineno
        entries[key] = loss
    raise_errors(errors, first, "accuracy table", AccuracyError)
    return table


def load_table(path) -> AccuracyTable:
    return loads_table(read_text(path, "accuracy table", AccuracyError))


# ---------------------------------------------------------------------------
# Quantization-error proxy
# ---------------------------------------------------------------------------


def synthetic_sample(layer: ConvLayer, role: str, seed: int = SYNTHETIC_SEED) -> np.ndarray:
    """Deterministic unit-variance sample tensor for one layer operand."""
    index = ROLES.index(role)  # layer_volumes lists the operands in ROLES order
    rng = np.random.default_rng((seed, layer.index, index))
    return rng.standard_normal(layer_volumes(layer)[index])


def _load_sample(what: str, path: str, volume: int) -> np.ndarray:
    """One sample file, checked for its size before it is read and for
    finite values after."""
    try:
        nbytes = os.path.getsize(path)
    except OSError as exc:
        raise AccuracyError(f"cannot read {what}: {exc}") from exc
    if nbytes != 4 * volume:
        raise AccuracyError(f"{what} has {nbytes} bytes, expected {volume} float32 values ({4 * volume} bytes)")
    data = load_tensor_f32(path)
    if not np.isfinite(data).all():
        raise AccuracyError(f"{what} holds NaN or inf")
    return data


def layer_samples(layer: ConvLayer, model_dir: str | None = None, seed: int = SYNTHETIC_SEED) -> dict:
    """Sample tensors for the proxy, one per role with data on disk, falling
    back to fixed-seed synthetic tensors.  A sample file that cannot be read,
    whose size does not match the operand volume or that holds NaN or inf
    raises :class:`AccuracyError` naming the layer and the path."""
    samples = {}
    vol_in, _, vol_w = layer_volumes(layer)
    refs = {"input": (layer.input_sample, vol_in), "weight": (layer.weight_sample, vol_w)}
    for role, (ref, volume) in refs.items():
        if ref:
            path = os.path.join(model_dir, ref) if model_dir else ref
            samples[role] = _load_sample(f"layer {layer.source_index} {role} sample {path}", path, volume)
        else:
            samples[role] = synthetic_sample(layer, role, seed=seed)
    return samples


def signal_power(tensor: np.ndarray) -> float:
    """Mean square of a sample: the normalizer of its round-trip MSE."""
    arr = np.asarray(tensor, dtype=np.float64)
    return float(np.mean(arr * arr))


def normalized_mse(sample, spec: BfpSpec, power: float | None = None) -> float:
    """MSE of the encode/decode round trip, normalized by signal power.

    ``sample`` is a tensor or its :class:`~bfpsearch.codec.Blocks` scanned at
    ``spec.block_size``.  ``power`` is the tensor's :func:`signal_power`.
    Callers that score one sample under many specs pass both, so the scan
    and the power are computed once; the power is computed here when not
    given.
    """
    if isinstance(sample, Blocks):
        arr = sample.values
    else:
        arr = sample = np.asarray(sample, dtype=np.float64)
    # Power first, so its temporary is gone before the round trip; the
    # squared error is built in place in the fresh dequantized buffer.
    if power is None:
        power = signal_power(arr)
    err = quantize_dequantize(sample, spec)
    np.subtract(arr, err, out=err)
    np.square(err, out=err)
    if power == 0.0:
        return 0.0
    return float(np.mean(err)) / power


def proxy_layer_loss(layer: ConvLayer, specs, samples: dict, powers: dict | None = None) -> float:
    """Mean normalized round-trip MSE over the roles with samples.

    ``samples`` maps each role to its tensor or to that tensor's
    :class:`~bfpsearch.codec.Blocks` scanned at the specs' block size.
    ``powers`` maps each role to its sample's :func:`signal_power`, computed
    once per layer by callers that score the layer under many configs.
    """
    spec_by_role = {s.role: s for s in specs if isinstance(s, BfpSpec)}
    losses = []
    for role, sample in sorted(samples.items()):
        if role not in spec_by_role:
            continue
        losses.append(normalized_mse(sample, spec_by_role[role], None if powers is None else powers[role]))
    if not losses:
        raise AccuracyError(f"no usable samples for layer {layer.index}")
    return float(np.mean(losses))
