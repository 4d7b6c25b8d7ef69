import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfpsearch.accuracy import (
    AccuracyError,
    AccuracyTable,
    layer_samples,
    loads_table,
    normalized_mse,
    signal_power,
    synthetic_sample,
)
from bfpsearch.codec import BfpSpec, scan_blocks
from bfpsearch.model import ModelDesc, ModelFormatError, layer_volumes, loads_model
from bfpsearch.search import CandidateSpace

from conftest import edited_text, plan_for, proxy_loss, small_layer, spec_triple


def two_layer_model():
    return ModelDesc(name="two", layers=[
        small_layer(index=1, c_in=2, c_out=2),
        small_layer(index=2, c_in=2, c_out=2),
    ])


def table_acc_loss(table, config, model=None):
    """The model-scope accuracy loss ``search`` takes from ``table`` for one
    config (a table's losses are not normalized)."""
    se, bs, qb = config
    space = CandidateSpace(total_bits=qb, se_set=(se,), bs_set=(bs,))
    plan = plan_for(model or two_layer_model(), space, mc_bits=1e9, acc_table=table)
    return plan.acc_loss


def samples_for(model, seed=7):
    return {l.index: {"input": synthetic_sample(l, "input", seed),
                      "weight": synthetic_sample(l, "weight", seed)} for l in model.layers}


def test_table_parse_lookup():
    table = loads_table("""format_version 1
# scope SE BS qb loss
model 3 8 8 0.0029
layer:1 3 8 8 0.001
layer:2 3 8 8 0.004
""")
    assert table.model_entries == {(3, 8, 8): 0.0029}
    assert table.layer_entries == {(1, 3, 8, 8): 0.001, (2, 3, 8, 8): 0.004}
    assert table_acc_loss(table, (3, 8, 8)) == 0.0029


def test_table_negative_loss_clamped():
    table = loads_table("format_version 1\nmodel 3 8 8 -0.01\n")
    assert table_acc_loss(table, (3, 8, 8)) == 0.0
    assert table.diagnostics


@pytest.mark.parametrize("loss", ["nan", "inf", "-inf"])
def test_table_non_finite_loss_rejected(loss):
    with pytest.raises(AccuracyError, match="line 3: non-finite loss"):
        loads_table(f"format_version 1\nmodel 3 8 8 0.1\nlayer:1 3 8 8 {loss}\n")


@pytest.mark.parametrize("row", ["model 3 8 8", "layer:1 3 8 8", "layer:01 3 8 8"])
def test_table_repeated_row_rejected_naming_its_line(row):
    first = "model 3 8 8" if row.startswith("model") else "layer:1 3 8 8"
    text = f"format_version 1\n{first} 0.01\nmodel 4 8 8 0.2\n{row} 0.9\nblob 3 8 8 0.1\n"
    scope = row.split()[0]
    with pytest.raises(AccuracyError, match=f"line 4: repeats the {scope} row of line 2; line 5: unknown scope"):
        loads_table(text)


def test_table_repeated_format_version_rejected_naming_both_lines():
    with pytest.raises(AccuracyError) as err:
        loads_table("format_version 1\nmodel 3 8 8 0.1\nformat_version 1\n")
    assert str(err.value) == "invalid accuracy table: line 3: format_version repeats line 1"


def test_unsupported_version_reads_the_same_in_both_formats():
    with pytest.raises(AccuracyError) as table_err:
        loads_table("format_version 2\nmodel 3 8 8 0.1\n")
    with pytest.raises(ModelFormatError) as model_err:
        loads_model("format_version 2\nlayer 1\n  c_in 1\n  c_out 1\n  input 4 4\n  kernel 3 3\n")
    assert str(table_err.value) == "invalid accuracy table: line 1: unsupported format_version 2"
    assert str(model_err.value) == "invalid model description: line 1: unsupported format_version 2"


def test_table_empty_rejected():
    with pytest.raises(AccuracyError, match="empty"):
        table_acc_loss(AccuracyTable(), (3, 8, 8))


def test_table_composition_weighted_sum():
    model = two_layer_model()
    table = loads_table("""format_version 1
layer:1 3 8 8 0.001
layer:2 3 8 8 0.004
""")
    # Identical layers: equal output volumes, so the composition is the mean.
    assert table_acc_loss(table, (3, 8, 8), model=model) == pytest.approx(0.0025)


def test_table_exact_entry_overrides_composition():
    model = two_layer_model()
    table = loads_table("""format_version 1
model 3 8 8 0.5
layer:1 3 8 8 0.001
layer:2 3 8 8 0.004
""")
    assert table_acc_loss(table, (3, 8, 8), model=model) == 0.5


def test_table_uncovered_config_rejected():
    table = loads_table("format_version 1\nmodel 3 8 8 0.1\n")
    with pytest.raises(AccuracyError):
        table_acc_loss(table, (4, 8, 8))


def test_table_format_errors():
    with pytest.raises(AccuracyError):
        loads_table("model 3 8 8 0.1\n")  # missing version
    with pytest.raises(AccuracyError):
        loads_table("format_version 1\nmodel 3 8 0.1\n")  # short record
    with pytest.raises(AccuracyError):
        loads_table("format_version 1\nblob 3 8 8 0.1\n")  # bad scope


def test_proxy_zero_for_exactly_representable_constant():
    layer = small_layer(c_in=2, c_out=2)
    samples = {"input": np.full(72, 2.0), "weight": np.full(36, -0.5)}
    for se in (2, 4, 6):
        specs = spec_triple(qb=8, se=se, bs=4)
        assert proxy_loss(layer, specs, samples) == 0.0


def test_proxy_monotone_in_mantissa_bits():
    layer = small_layer(c_in=2, c_out=2)
    samples = samples_for(ModelDesc(name="m", layers=[layer]))[1]
    losses = [proxy_loss(layer, spec_triple(qb=8, se=se, bs=4), samples) for se in (2, 3, 4, 5, 6)]
    assert all(a <= b for a, b in zip(losses, losses[1:]))
    assert losses[0] < losses[-1]


def test_proxy_block_size_2_vs_48():
    layer = small_layer(c_in=4, c_out=4, i_h=12, i_w=12)
    samples = samples_for(ModelDesc(name="m", layers=[layer]))[1]
    small_bs = proxy_loss(layer, spec_triple(qb=8, se=3, bs=2), samples)
    large_bs = proxy_loss(layer, spec_triple(qb=8, se=3, bs=48), samples)
    assert large_bs > small_bs


def test_proxy_determinism_under_seed():
    layer = small_layer(c_in=2, c_out=2)
    a = synthetic_sample(layer, "weight", seed=42)
    b = synthetic_sample(layer, "weight", seed=42)
    assert np.array_equal(a, b)
    c = synthetic_sample(layer, "weight", seed=43)
    assert not np.array_equal(a, c)


def test_proxy_model_loss_weighted():
    # Output-volume-weighted per-layer losses, normalized by the candidate
    # set's largest; layer 2 has twice layer 1's output volume.
    model = ModelDesc(name="two", layers=[
        small_layer(index=1, c_in=2, c_out=2),
        small_layer(index=2, c_in=2, c_out=4),
    ])
    samples = samples_for(model)
    space = CandidateSpace(total_bits=8, se_set=(2, 3), bs_set=(8,))
    plan = plan_for(model, space, mc_bits=1e9, seed=7)
    weights = [float(layer_volumes(l)[1]) for l in model.layers]
    assert weights[1] == 2 * weights[0]
    raw = [
        sum(w * proxy_loss(l, spec_triple(qb=8, se=se, bs=8), samples[l.index])
            for w, l in zip(weights, model.layers)) / sum(weights)
        for se in (2, 3)
    ]
    assert [c["acc_loss"] for c in plan.candidates] == pytest.approx([r / max(raw) for r in raw])


def test_layer_samples_fallback_control():
    layer = small_layer(c_in=2, c_out=2)
    got = layer_samples(layer, seed=7)
    assert set(got) == {"input", "weight"}
    assert np.array_equal(got["weight"], synthetic_sample(layer, "weight", 7))


def test_layer_samples_from_file(tmp_path):
    layer = small_layer(c_in=1, c_out=1, input_sample=str(tmp_path / "x.f32"))
    data = np.linspace(-1, 1, 36).astype("<f4")
    (tmp_path / "x.f32").write_bytes(data.tobytes())
    got = layer_samples(layer)
    assert np.allclose(got["input"], data.astype(np.float64))


def test_normalized_mse_zero_signal():
    spec = BfpSpec(8, 3, 2, "weight")
    zeros = np.zeros(8)
    assert normalized_mse(scan_blocks(zeros, 2), spec, signal_power(zeros)) == 0.0


# Scopes and values the parser must turn into its own error or a clamp
# warning: scopes unknown, malformed or empty; values missing, too many,
# negative, non-finite, overflowing, hexadecimal, non-ASCII, words or a
# comment.
ODD_SCOPES = ("layer:x", "layer:", "layer:-1", "blob", "format_version", "#", "")
ODD_VALUES = ("", "1 2", "-0.5", "nan", "inf", "1e309", "0x10", "\u0663", "x", "#")


@st.composite
def table_texts(draw):
    """Accuracy-table text: a well-formed table of up to six distinct rows
    after up to two odd edits."""
    keys = st.tuples(st.sampled_from(("model", "layer:1", "layer:2")), st.sampled_from(("2", "3")),
                     st.sampled_from(("8", "16")), st.sampled_from(("8", "16")))
    rows = draw(st.lists(keys, max_size=6, unique=True))
    losses = draw(st.lists(st.sampled_from(("0", "0.1", "2.5")), min_size=len(rows), max_size=len(rows)))
    records = [["format_version", "1"]] + [[*key, loss] for key, loss in zip(rows, losses)]
    return draw(edited_text(records, ODD_SCOPES, ODD_VALUES))


@settings(settings.get_profile("seeded"), max_examples=300)
@given(st.one_of(table_texts(), st.text(max_size=120)))
def test_any_table_text_gives_a_table_or_an_accuracy_error(text):
    try:
        table = loads_table(text)
    except AccuracyError:
        return
    assert isinstance(table, AccuracyTable)
    for entries in (table.model_entries, table.layer_entries):
        assert all(math.isfinite(loss) and loss >= 0.0 for loss in entries.values())
