import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from bfpsearch.accuracy import SYNTHETIC_SEED, proxy_layer_loss, signal_power
from bfpsearch.codec import BfpSpec, scan_blocks
from bfpsearch.energy import EnergyParams
from bfpsearch.model import ConvLayer, loads_model
from bfpsearch.search import (
    DEFAULT_ALPHA,
    DEFAULT_MODE,
    accuracy_rows,
    build_mapping_tables,
    check_search_args,
    search,
)

# Property tests use this profile: the same examples on every run, and no
# example database written to disk.
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)


@st.composite
def edited_text(draw, records, odd_keys, odd_values):
    """Input-file text from well-formed ``records`` (lists of fields, the key
    first) after up to two edits to one record each: its key replaced by one
    of ``odd_keys``, another field by one of ``odd_values`` (drawn counting
    from the last field, which carries each format's value checks), its last
    field dropped, or the record dropped or repeated at the end."""
    records = [list(record) for record in records]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(records) - 1))
        record = records[i]
        change = draw(st.sampled_from(("key", "value", "value", "truncate", "drop", "repeat")))
        if change == "key":
            record[0] = draw(st.sampled_from(odd_keys))
        elif change == "value" and len(record) > 1:
            record[-draw(st.integers(1, len(record) - 1))] = draw(st.sampled_from(odd_values))
        elif change == "truncate":
            record.pop()
        elif change == "drop":
            del records[i]
        elif change == "repeat":
            records.append(list(record))
        if not records:
            break
    return "\n".join(" ".join(record) for record in records)


def spec_triple(qb=8, se=3, bs=2):
    return (
        BfpSpec(qb, se, bs, "input"),
        BfpSpec(qb, se, bs, "output"),
        BfpSpec(qb, se, bs, "weight"),
    )


def proxy_loss(layer, specs, samples):
    """``proxy_layer_loss`` of one config over sample tensors by role, with
    the scans and signal powers that ``search`` gives it."""
    scans = {role: scan_blocks(tensor, specs[0].block_size) for role, tensor in samples.items()}
    powers = {role: signal_power(tensor) for role, tensor in samples.items()}
    return proxy_layer_loss(specs, scans, powers)


def plan_for(model, space, alpha=DEFAULT_ALPHA, mc_bits=None, mode=DEFAULT_MODE, acc_table=None,
             tables=None, seed=SYNTHETIC_SEED, energy_params=EnergyParams()):
    """The plan of one search in the command line's order: every argument
    checked, then the accuracy rows, then the mapping tables unless given
    (counting first loads), then ``search``."""
    check_search_args(space, mc_bits, acc_table, seed, alpha, mode)
    rows = accuracy_rows(model, space, mc_bits, acc_table, seed)
    if tables is None:
        tables = build_mapping_tables(model)
    return search(rows, tables, alpha, mode, energy_params)


TINY4_TEXT = """format_version 1
model tiny4

layer 1
  c_in 3
  c_out 8
  input 16 16
  kernel 3 3
  stride 1 1
  pad 1 1

layer 2
  c_in 8
  c_out 8
  input 16 16
  kernel 3 3
  stride 2 2
  pad 1 1

layer 3
  c_in 8
  c_out 16
  input 8 8
  kernel 3 3
  stride 1 1
  pad 1 1

layer 4
  c_in 16
  c_out 16
  input 8 8
  kernel 1 1
  stride 1 1
  pad 0 0
"""


@pytest.fixture
def tiny4():
    return loads_model(TINY4_TEXT)


@pytest.fixture
def tiny4_path(tmp_path):
    path = tmp_path / "tiny4.model"
    path.write_text(TINY4_TEXT)
    return str(path)


@st.composite
def small_convs(draw):
    """A conv layer of at most 8 channels and a 6 x 6 input, with strides,
    padding and groups drawn."""
    groups = draw(st.sampled_from((1, 1, 2)))
    k = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    pad = draw(st.integers(0, (k - 1) // 2))
    return ConvLayer(
        1,
        c_in=groups * draw(st.integers(1, 4)),
        c_out=groups * draw(st.integers(1, 4)),
        i_h=draw(st.integers(k, 6)),
        i_w=draw(st.integers(k, 6)),
        k_h=k,
        k_w=draw(st.integers(1, k)),
        stride_h=stride,
        stride_w=draw(st.integers(1, 2)),
        pad_h=pad,
        pad_w=pad,
        groups=groups,
    )


def small_layer(**kw):
    base = dict(index=1, c_in=1, c_out=1, i_h=6, i_w=6, k_h=3, k_w=3)
    base.update(kw)
    return ConvLayer(**base)
