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
``layer`` takes one integer and each field exactly its count of values
(see ``_FIELDS``).  ``input_sample``/``weight_sample`` name float32 sample
files, which :func:`load_model` resolves against the model file's directory.

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


# Each field's value type and the ConvLayer fields its values fill, in order.
# A field takes exactly one value per name; a two-name field given one value
# repeats it (``stride 2`` is ``stride 2 2``).
_FIELDS = {
    "c_in": (int, "c_in"),
    "c_out": (int, "c_out"),
    "groups": (int, "groups"),
    "input": (int, "i_h", "i_w"),
    "kernel": (int, "k_h", "k_w"),
    "stride": (int, "stride_h", "stride_w"),
    "pad": (int, "pad_h", "pad_w"),
    "output": (int, "o_h", "o_w"),
    "type": (str, "_type"),
    "input_sample": (str, "input_sample"),
    "weight_sample": (str, "weight_sample"),
}


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
                (idx,) = map(int, args)
            except ValueError:
                errors.append((lineno, f"layer needs one integer index, got {args}"))
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
        if key not in _FIELDS:
            warn(lineno, f"ignoring unknown field {key!r}")
            continue
        if key in block_lines:
            errors.append((lineno, f"layer {current[1]['index']}: {key} repeats line {block_lines[key]}"))
            continue
        block_lines[key] = lineno
        kind, *names = _FIELDS[key]
        try:
            vals = [kind(a) for a in args]
        except ValueError:
            errors.append((lineno, f"{key}: expected integers, got {args}"))
            continue
        if len(vals) == 1:
            vals = vals * len(names)
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
    """Parse the model file at ``path``.  Its sample references resolve
    against the file's directory, as the command line reads them;
    :func:`loads_model` keeps them as written."""
    text = read_text(path, "model file", ModelFormatError)
    model = loads_model(text, name_hint=os.path.splitext(os.path.basename(str(path)))[0])
    base = os.path.dirname(os.path.abspath(path))
    for i, layer in enumerate(model.layers):
        refs = {role: os.path.join(base, ref) for role, ref in
                (("input_sample", layer.input_sample), ("weight_sample", layer.weight_sample)) if ref}
        if refs:
            model.layers[i] = replace(layer, **refs)
    return model
