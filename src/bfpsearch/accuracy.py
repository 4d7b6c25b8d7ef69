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
    ``diagnostics`` holds a (line, message) warning per negative loss clamped
    to 0, which the command line prints; ``row_lines`` maps each entry's key
    to the line that set it.
    """

    model_entries: dict = field(default_factory=dict)
    layer_entries: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    row_lines: dict = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.model_entries and not self.layer_entries

    def unread_rows(self, source_indices, scope: str) -> list:
        """A (line, message) warning per row that no run over layers with the
        model-file indices ``source_indices`` in ``scope`` reads, in line
        order: each ``layer:<n>`` row whose n is none of them, in model scope
        each other ``layer:<n>`` row whose config has a model row, and in
        layer scope each model row.  A row for a config outside the run's
        grid is not one: a table may cover a larger grid than one run searches."""
        notes = []
        for key in self.layer_entries:
            if key[0] not in source_indices:
                notes.append((self.row_lines.get(key, 0), f"layer:{key[0]} names no layer of the model; row ignored"))
            elif scope == "model" and key[1:] in self.model_entries:
                notes.append((self.row_lines.get(key, 0),
                              f"layer:{key[0]} row ignored: a model row gives this config's loss under --scope model"))
        if scope == "layer":
            notes += [(self.row_lines.get(key, 0), "model row ignored under --scope layer") for key in self.model_entries]
        return sorted(notes)


def loads_table(text: str) -> AccuracyTable:
    table = AccuracyTable()
    errors = []
    first = {}  # format_version -> its line
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
        if key in table.row_lines:
            errors.append((lineno, f"repeats the {scope} row of line {table.row_lines[key]}"))
            continue
        table.row_lines[key] = lineno
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


def layer_samples(layer: ConvLayer, seed: int = SYNTHETIC_SEED) -> dict:
    """Sample tensors for the proxy, one per role: the file at the path the
    layer holds (:func:`~bfpsearch.model.load_model` resolves it against the
    model file's directory), else a fixed-seed synthetic tensor.  A sample
    file that cannot be read, whose size does not match the operand volume or that holds NaN or inf
    raises :class:`AccuracyError` naming the layer and the path."""
    samples = {}
    vol_in, _, vol_w = layer_volumes(layer)
    refs = {"input": (layer.input_sample, vol_in), "weight": (layer.weight_sample, vol_w)}
    for role, (ref, volume) in refs.items():
        if ref:
            samples[role] = _load_sample(f"layer {layer.source_index} {role} sample {ref}", ref, volume)
        else:
            samples[role] = synthetic_sample(layer, role, seed=seed)
    return samples


def signal_power(tensor: np.ndarray) -> float:
    """Mean square of a sample: the normalizer of its round-trip MSE."""
    arr = np.asarray(tensor, dtype=np.float64)
    return float(np.mean(arr * arr))


def normalized_mse(blocks: Blocks, spec: BfpSpec, power: float) -> float:
    """MSE of the encode/decode round trip, normalized by signal power.

    ``blocks`` is a sample scanned at ``spec.block_size`` (see
    :func:`~bfpsearch.codec.scan_blocks`) and ``power`` is the sample's
    :func:`signal_power`; a caller that scores one sample under many specs
    computes both once.  The squared error is built in place in the scan's
    round-trip buffer, which every spec of its block size reuses.
    """
    err = quantize_dequantize(blocks, spec, out=blocks.roundtrip)
    np.subtract(blocks.values, err, out=err)
    np.square(err, out=err)
    if power == 0.0:
        return 0.0
    # np.mean's sum and division, without its per-call overhead.
    return float(np.add.reduce(err, axis=None)) / err.size / power


def proxy_layer_loss(specs, scans: dict, powers: dict) -> float:
    """Mean normalized round-trip MSE over the roles with samples.

    ``scans`` maps each role with a sample to that sample's
    :class:`~bfpsearch.codec.Blocks` scanned at the specs' block size, and
    ``powers`` maps it to the sample's :func:`signal_power`.  A caller that
    scores the layer under many configs computes the powers once per layer
    and the scans once per block size.
    """
    spec_by_role = {s.role: s for s in specs}
    # A left fold and one division: np.mean's bits for these few terms (its
    # pairwise sum folds left below 8), without its per-call overhead.  The
    # terms are never -0.0, so starting from 0.0 changes no bit.
    total = 0.0
    for role, blocks in sorted(scans.items()):
        total += normalized_mse(blocks, spec_by_role[role], powers[role])
    return total / len(scans)
