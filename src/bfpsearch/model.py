"""Convolution-layer network descriptions and their on-disk text format.

A model file is a line-oriented key/value format with one block per layer::

    format_version 1
    model tiny4

    layer 1
      c_in 3
      c_out 16
      input 32 32
      kernel 3 3
      stride 1 1
      pad 1 1

``#`` starts a comment.  ``format_version`` appears exactly once, ``model``
at most once, and a repeat of either, or of a field in one layer block, is
an error naming both lines; accuracy tables follow the same rules.

Output dims are derived from the shape formula; explicitly given output dims
must agree with it.  Non-conv layer blocks (``type pool`` etc.) are skipped
with a warning since the cost model is defined over convolutions only; the
conv layers after them are renumbered and keep the index written in the file
as ``source_index``, which per-layer accuracy-table rows refer to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised on malformed model files."""


def out_extent(in_extent: int, pad: int, kernel: int, stride: int) -> int:
    return (in_extent + 2 * pad - kernel) // stride + 1


@dataclass(frozen=True)
class ConvLayer:
    """Shape record for one convolution layer (1-based index within the model).

    ``source_index`` is the index the model file gave the layer; it defaults
    to ``index`` and differs from it where skipped non-conv blocks or gaps in
    the file's numbering made the parser renumber the layer.
    """

    index: int
    c_in: int
    c_out: int
    i_h: int
    i_w: int
    k_h: int
    k_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    groups: int = 1
    input_sample: str | None = None
    weight_sample: str | None = None
    source_index: int | None = None

    def __post_init__(self):
        if self.source_index is None:
            object.__setattr__(self, "source_index", self.index)
        for name in ("c_in", "c_out", "i_h", "i_w", "k_h", "k_w"):
            if getattr(self, name) < 1:
                raise ModelFormatError(f"layer {self.index}: {name} must be >= 1")
        if self.stride_h < 1 or self.stride_w < 1:
            raise ModelFormatError(f"layer {self.index}: strides must be >= 1")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ModelFormatError(f"layer {self.index}: paddings must be >= 0")
        if self.groups < 1 or self.c_in % self.groups or self.c_out % self.groups:
            raise ModelFormatError(
                f"layer {self.index}: groups must divide both c_in and c_out"
            )
        if self.o_h < 1 or self.o_w < 1:
            raise ModelFormatError(
                f"layer {self.index}: kernel {self.k_h}x{self.k_w} does not fit input "
                f"{self.i_h}x{self.i_w} with pad ({self.pad_h},{self.pad_w})"
            )

    @property
    def o_h(self) -> int:
        return out_extent(self.i_h, self.pad_h, self.k_h, self.stride_h)

    @property
    def o_w(self) -> int:
        return out_extent(self.i_w, self.pad_w, self.k_w, self.stride_w)


@dataclass
class ModelDesc:
    """A parsed model.  ``diagnostics`` holds every (line, message) note the
    parser made, informational ones (derived output sizes, renumbered
    layers) included; ``warnings`` holds those that drop something the file
    says, ignored fields and skipped blocks, which the command line prints."""

    name: str
    layers: list
    diagnostics: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ModelFormatError(f"model {self.name!r} has no conv layers")
        for want, layer in enumerate(self.layers, start=1):
            if layer.index != want:
                raise ModelFormatError(
                    f"layer indices must be contiguous from 1, got {layer.index} at position {want}"
                )


def layer_volumes(layer: ConvLayer):
    """Element counts of the three operands: (inputs, outputs, weights)."""
    inputs = layer.c_in * layer.i_h * layer.i_w
    outputs = layer.c_out * layer.o_h * layer.o_w
    weights = layer.c_out * (layer.c_in // layer.groups) * layer.k_h * layer.k_w
    return inputs, outputs, weights


def layer_macs(layer: ConvLayer) -> int:
    return layer.c_out * (layer.c_in // layer.groups) * layer.o_h * layer.o_w * layer.k_h * layer.k_w


_INT_KEYS = {
    "c_in": ("c_in",),
    "c_out": ("c_out",),
    "groups": ("groups",),
    "input": ("i_h", "i_w"),
    "kernel": ("k_h", "k_w"),
    "stride": ("stride_h", "stride_w"),
    "pad": ("pad_h", "pad_w"),
    "output": ("o_h", "o_w"),
}
_TEXT_KEYS = {"type": "_type", "input_sample": "input_sample", "weight_sample": "weight_sample"}


def records(text: str, errors: list, first: dict, once=()):
    """Yield ``(line, key, args)`` per record of either text input: ``#``
    starts a comment, and the one ``format_version`` line is checked, not
    yielded.  It and each key in ``once`` may appear once; ``first`` maps
    each to its line, and a repeat goes to ``errors`` naming that line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        key, args = parts[0], parts[1:]
        if key in first:
            errors.append((lineno, f"{key} repeats line {first[key]}"))
            continue
        if key == "format_version" or key in once:
            first[key] = lineno
        if key != "format_version":
            yield lineno, key, args
        elif args != [str(FORMAT_VERSION)]:
            errors.append((lineno, f"unsupported format_version {' '.join(args)}"))


def raise_errors(errors: list, first: dict, what: str, error_cls):
    """Raise ``error_cls`` listing the collected errors, then a missing version line."""
    if "format_version" not in first:
        errors.append((0, "missing format_version line"))
    if errors:
        msgs = "; ".join(f"line {ln}: {m}" for ln, m in errors)
        raise error_cls(f"invalid {what}: {msgs}")


def read_text(path, what: str, error_cls) -> str:
    """The text of an input file; an OSError or text that is not UTF-8 becomes ``error_cls``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error_cls(f"cannot read {what} {path}: {exc}") from exc


def loads_model(text: str, name_hint: str = "model") -> ModelDesc:
    """Parse a model description from text.  See module docstring for format."""
    diagnostics = []
    warnings = []  # the diagnostics that drop something the file says
    errors = []
    first = {}  # format_version and model -> the line that gave it
    name = name_hint
    layers = []
    seen_indices = set()  # per-layer accuracy-table rows refer to these
    current = None
    block_lines = {}  # field -> the line of the current block that set it

    def warn(lineno, message):
        diagnostics.append((lineno, message))
        warnings.append((lineno, message))

    def finish_block():
        nonlocal current
        if current is None:
            return
        lineno, fields = current
        current = None
        if fields.pop("_type", None) not in (None, "conv"):
            warn(lineno, f"skipping non-conv layer {fields.get('index')}")
            return
        declared = {k: fields.pop(k) for k in ("o_h", "o_w") if k in fields}
        missing = [k for k in ("c_in", "c_out", "i_h", "i_w", "k_h", "k_w") if k not in fields]
        if missing:
            errors.append((lineno, f"layer {fields.get('index')}: missing fields {missing}"))
            return
        try:
            layer = ConvLayer(**fields)
        except ModelFormatError as exc:
            errors.append((lineno, str(exc)))
            return
        for key, got in declared.items():
            want = getattr(layer, key)
            if got != want:
                errors.append(
                    (lineno, f"layer {layer.index}: declared {key}={got} contradicts shape formula ({want})")
                )
                return
        if not declared:
            diagnostics.append((lineno, f"layer {layer.index}: derived output {layer.o_h}x{layer.o_w}"))
        layers.append(layer)

    for lineno, key, args in records(text, errors, first, once=("model",)):
        if key == "model":
            name = " ".join(args) or name
            continue
        if key == "layer":
            finish_block()
            try:
                idx = int(args[0])
            except (IndexError, ValueError):
                errors.append((lineno, "layer needs an integer index"))
                idx = len(layers) + 1
            if idx in seen_indices:
                errors.append((lineno, f"duplicate layer index {idx}"))
            seen_indices.add(idx)
            current = (lineno, {"index": idx})
            block_lines = {}
            continue
        if current is None:
            errors.append((lineno, f"field {key!r} outside any layer block"))
            continue
        if key not in _TEXT_KEYS and key not in _INT_KEYS:
            warn(lineno, f"ignoring unknown field {key!r}")
            continue
        if key in block_lines:
            errors.append((lineno, f"layer {current[1]['index']}: {key} repeats line {block_lines[key]}"))
            continue
        block_lines[key] = lineno
        if key in _TEXT_KEYS:
            current[1][_TEXT_KEYS[key]] = args[0] if args else None
            continue
        names = _INT_KEYS[key]
        try:
            vals = [int(a) for a in args]
        except ValueError:
            errors.append((lineno, f"{key}: expected integers, got {args}"))
            continue
        if len(vals) == 1 and len(names) == 2:
            vals = vals * 2
        if len(vals) != len(names):
            errors.append((lineno, f"{key}: expected {len(names)} value(s), got {len(vals)}"))
            continue
        for n, v in zip(names, vals):
            current[1][n] = v

    finish_block()
    raise_errors(errors, first, "model description", ModelFormatError)
    # Re-index sequentially: skipped non-conv blocks leave gaps by design.
    renumbered = []
    for i, layer in enumerate(layers, start=1):
        if layer.index != i:
            diagnostics.append((0, f"renumbered layer {layer.index} -> {i}"))
            layer = replace(layer, index=i)
        renumbered.append(layer)
    return ModelDesc(name=name, layers=renumbered, diagnostics=diagnostics, warnings=warnings)


def load_model(path) -> ModelDesc:
    text = read_text(path, "model file", ModelFormatError)
    return loads_model(text, name_hint=os.path.splitext(os.path.basename(str(path)))[0])


def dumps_model(model: ModelDesc) -> str:
    lines = [f"format_version {FORMAT_VERSION}", f"model {model.name}", ""]
    for layer in model.layers:
        lines.append(f"layer {layer.source_index}")
        lines.append(f"  c_in {layer.c_in}")
        lines.append(f"  c_out {layer.c_out}")
        lines.append(f"  input {layer.i_h} {layer.i_w}")
        lines.append(f"  kernel {layer.k_h} {layer.k_w}")
        lines.append(f"  stride {layer.stride_h} {layer.stride_w}")
        lines.append(f"  pad {layer.pad_h} {layer.pad_w}")
        if layer.groups != 1:
            lines.append(f"  groups {layer.groups}")
        if layer.input_sample:
            lines.append(f"  input_sample {layer.input_sample}")
        if layer.weight_sample:
            lines.append(f"  weight_sample {layer.weight_sample}")
        lines.append("")
    return "\n".join(lines)
