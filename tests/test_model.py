import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfpsearch.model import (
    ConvLayer,
    ModelDesc,
    ModelFormatError,
    layer_macs,
    layer_volumes,
    load_model,
    loads_model,
)

from conftest import edited_text


def test_output_shape_basic():
    layer = ConvLayer(1, 1, 1, 6, 6, 3, 3)
    assert (layer.o_h, layer.o_w) == (4, 4)


def test_output_shape_strided_padded():
    layer = ConvLayer(1, 3, 64, 224, 224, 7, 7, stride_h=2, stride_w=2, pad_h=3, pad_w=3)
    assert (layer.o_h, layer.o_w) == (112, 112)


def test_layer_volumes_small():
    layer = ConvLayer(1, 1, 1, 6, 6, 3, 3)
    assert layer_volumes(layer) == (36, 16, 9)


def test_layer_volumes_padded():
    layer = ConvLayer(1, 3, 64, 32, 32, 3, 3, pad_h=1, pad_w=1)
    assert layer_volumes(layer) == (3072, 65536, 1728)


def test_volumes_use_stored_dims_with_asymmetric_padding():
    layer = ConvLayer(1, 2, 2, 8, 8, 3, 3, pad_h=1, pad_w=0)
    inputs, outputs, _ = layer_volumes(layer)
    assert inputs == 2 * 8 * 8
    assert outputs == 2 * layer.o_h * layer.o_w
    assert (layer.o_h, layer.o_w) == (8, 6)


def test_grouped_weight_volume_and_macs():
    layer = ConvLayer(1, 8, 8, 8, 8, 3, 3, pad_h=1, pad_w=1, groups=4)
    _, _, weights = layer_volumes(layer)
    assert weights == 8 * 2 * 9
    assert layer_macs(layer) == 8 * 2 * 8 * 8 * 9


def test_invalid_layer_shapes_rejected():
    with pytest.raises(ModelFormatError):
        ConvLayer(1, 0, 1, 6, 6, 3, 3)
    with pytest.raises(ModelFormatError):
        ConvLayer(1, 1, 1, 2, 2, 3, 3)  # kernel does not fit
    with pytest.raises(ModelFormatError):
        ConvLayer(1, 3, 4, 6, 6, 3, 3, groups=2)  # groups must divide c_in


def test_loads_single_layer():
    text = """format_version 1
model one
layer 1
  c_in 1
  c_out 1
  input 6 6
  kernel 3 3
"""
    model = loads_model(text)
    assert len(model.layers) == 1
    assert (model.layers[0].o_h, model.layers[0].o_w) == (4, 4)


def test_loads_18_layer_residual_style_no_diagnostics():
    # Conv shapes of a small residual-style stack; declared outputs must
    # satisfy the shape formula, so a clean load produces no diagnostics.
    lines = ["format_version 1", "model res18ish", ""]
    shapes = [(3, 16, 32, 3, 1, 1)] + [(16, 16, 32, 3, 1, 1)] * 4
    shapes += [(16, 32, 32, 3, 2, 1)] + [(32, 32, 16, 3, 1, 1)] * 4
    shapes += [(32, 64, 16, 3, 2, 1)] + [(64, 64, 8, 3, 1, 1)] * 4
    shapes += [(64, 64, 8, 3, 1, 1)] * 3
    assert len(shapes) == 18
    for i, (cin, cout, size, k, stride, pad) in enumerate(shapes, start=1):
        out = (size + 2 * pad - k) // stride + 1
        lines += [
            f"layer {i}",
            f"  c_in {cin}",
            f"  c_out {cout}",
            f"  input {size} {size}",
            f"  kernel {k} {k}",
            f"  stride {stride} {stride}",
            f"  pad {pad} {pad}",
            f"  output {out} {out}",
            "",
        ]
    model = loads_model("\n".join(lines))
    assert len(model.layers) == 18
    assert model.diagnostics == []


def test_declared_output_contradiction_rejected():
    text = """format_version 1
layer 1
  c_in 1
  c_out 1
  input 6 6
  kernel 3 3
  output 5 5
"""
    with pytest.raises(ModelFormatError) as err:
        loads_model(text)
    assert "contradicts" in str(err.value)


def test_missing_fields_rejected_with_line():
    text = """format_version 1
layer 1
  c_in 1
  input 6 6
"""
    with pytest.raises(ModelFormatError) as err:
        loads_model(text)
    assert "missing" in str(err.value)


def test_missing_format_version_rejected():
    with pytest.raises(ModelFormatError):
        loads_model("layer 1\n  c_in 1\n  c_out 1\n  input 6 6\n  kernel 3 3\n")


def test_nonpositive_dims_rejected():
    text = """format_version 1
layer 1
  c_in 0
  c_out 1
  input 6 6
  kernel 3 3
"""
    with pytest.raises(ModelFormatError):
        loads_model(text)


def test_non_conv_layers_skipped_with_warning():
    text = """format_version 1
layer 1
  c_in 1
  c_out 1
  input 6 6
  kernel 3 3
layer 2
  type pool
  c_in 1
  c_out 1
  input 4 4
  kernel 2 2
layer 3
  c_in 1
  c_out 2
  input 4 4
  kernel 3 3
"""
    model = loads_model(text)
    assert len(model.layers) == 2
    assert [l.index for l in model.layers] == [1, 2]
    assert any("skipping non-conv" in msg for _, msg in model.diagnostics)


def test_skipped_block_keeps_file_layer_index():
    text = """format_version 1
layer 1
  c_in 1
  c_out 1
  input 6 6
  kernel 3 3
layer 2
  type pool
layer 3
  c_in 1
  c_out 2
  input 4 4
  kernel 3 3
"""
    model = loads_model(text)
    assert [(l.index, l.source_index) for l in model.layers] == [(1, 1), (2, 3)]


def test_duplicate_layer_index_rejected():
    block = "layer 2\n  c_in 1\n  c_out 1\n  input 4 4\n  kernel 3 3\n"
    with pytest.raises(ModelFormatError, match="duplicate layer index 2"):
        loads_model("format_version 1\n" + block + block)


@pytest.mark.parametrize("field, first, again", [
    ("c_in", "3", "16"), ("input", "6 6", "8 8"), ("stride", "1", "2"), ("type", "conv", "pool"),
    ("output", "4 4", "4 4"), ("weight_sample", "a.f32", "b.f32"),
])
def test_repeated_layer_field_rejected_naming_its_line(field, first, again):
    base = {"c_in": "3", "c_out": "1", "input": "6 6", "kernel": "3 3"}
    lines = ["format_version 1", "layer 1", f"  {field} {first}"]
    lines += [f"  {k} {v}" for k, v in base.items() if k != field]
    lines += [f"  {field} {again}", "  groups 0 0"]
    with pytest.raises(ModelFormatError) as err:
        loads_model("\n".join(lines) + "\n")
    msg = str(err.value)
    assert f"line {len(lines) - 1}: layer 1: {field} repeats line 3" in msg
    assert f"line {len(lines)}: groups: expected 1 value(s), got 2" in msg  # collected with the others


@pytest.mark.parametrize("repeat, first", [("format_version 1", 1), ("model b", 2)])
def test_repeated_file_level_line_rejected_naming_both_lines(repeat, first):
    block = "layer 1\n  c_in 1\n  c_out 1\n  input 4 4\n  kernel 3 3\n"
    with pytest.raises(ModelFormatError) as err:
        loads_model(f"format_version 1\nmodel a\n{repeat}\n{block}")
    key = repeat.split()[0]
    assert str(err.value) == f"invalid model description: line 3: {key} repeats line {first}"


def test_same_field_in_two_layer_blocks_and_repeated_unknown_field_are_accepted():
    block = "layer {}\n  c_in 1\n  c_out 1\n  input 4 4\n  kernel 3 3\n  note a\n  note b\n"
    model = loads_model("format_version 1\n" + block.format(1) + block.format(2))
    assert [layer.index for layer in model.layers] == [1, 2]
    assert sum("unknown field 'note'" in msg for _, msg in model.diagnostics) == 4


@pytest.mark.parametrize("text", [
    "format_version 1\nmodel empty\n",
    "format_version 1\nlayer 1\n  type pool\n  c_in 1\n  c_out 1\n  input 4 4\n  kernel 2 2\n",
])
def test_model_without_conv_layers_rejected(text):
    with pytest.raises(ModelFormatError, match="no conv layers"):
        loads_model(text)


@pytest.mark.parametrize("line, lineno", [
    ("layer 1 junk", 2), ("  type", 7), ("  input_sample", 7), ("  type conv pool", 7),
    ("  input_sample a.f32 b.f32", 7),
])
def test_line_with_a_wrong_count_of_values_rejected_naming_it(line, lineno):
    lines = ["format_version 1", "layer 1", "  c_in 1", "  c_out 1", "  input 4 4", "  kernel 3 3"]
    if lineno == 2:
        lines[1] = line
    else:
        lines.append(line)
    with pytest.raises(ModelFormatError) as err:
        loads_model("\n".join(lines) + "\n")
    assert f"line {lineno}: {line.split()[0]}" in str(err.value)


def test_load_model_resolves_sample_paths_against_its_directory(tmp_path):
    text = "format_version 1\nlayer 1\n  c_in 1\n  c_out 1\n  input 4 4\n  kernel 3 3\n  input_sample a.f32\n"
    (tmp_path / "m.model").write_text(text + f"  weight_sample {tmp_path / 'w' / 'b.f32'}\n")
    (layer,) = load_model(tmp_path / "m.model").layers
    assert (layer.input_sample, layer.weight_sample) == (str(tmp_path / "a.f32"), str(tmp_path / "w" / "b.f32"))
    assert loads_model(text).layers[0].input_sample == "a.f32"


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelFormatError) as err:
        load_model(tmp_path / "nope.model")
    assert "nope.model" in str(err.value)


# Keys and values the parser must turn into its own error or a warning:
# keys unknown, misplaced or empty; values missing, too many, signed,
# non-ASCII, floating, words, huge or a comment.
ODD_KEYS = ("strdie", "layer", "model", "format_version", "c_in", "output", "#", "")
ODD_VALUES = ("", "1 2 3", "0", "-1", "+2", "\u0663", "1.5", "nan", "x", "99999999999999999999", "#", "pool")
OPTIONAL_FIELDS = (["groups", "2"], ["stride", "2", "1"], ["pad", "1"], ["output", "8", "8"], ["type", "conv"],
                   ["input_sample", "x.f32"], ["weight_sample", "w.f32"], ["model", "net"])


@st.composite
def model_texts(draw):
    """Model-file text: a well-formed description of one to three layers,
    each with some optional fields, after up to two odd edits."""
    records = [["format_version", "1"]]
    for index in range(1, draw(st.integers(1, 3)) + 1):
        records += [["layer", str(index)], ["c_in", draw(st.sampled_from(("1", "8")))], ["c_out", "2"],
                    ["input", draw(st.sampled_from(("8", "16")))], ["kernel", draw(st.sampled_from(("1", "3")))]]
        records += draw(st.lists(st.sampled_from(OPTIONAL_FIELDS), max_size=3, unique_by=lambda r: r[0]))
    return draw(edited_text(records, ODD_KEYS, ODD_VALUES))


@settings(settings.get_profile("seeded"), max_examples=300)
@given(st.one_of(model_texts(), st.text(max_size=120)))
def test_any_model_text_gives_a_model_or_a_format_error(text):
    try:
        model = loads_model(text)
    except ModelFormatError:
        return
    assert isinstance(model, ModelDesc)
    assert [layer.index for layer in model.layers] == list(range(1, len(model.layers) + 1))
