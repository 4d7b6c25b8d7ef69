import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest
from hypothesis import settings

from bfpsearch.codec import BfpSpec
from bfpsearch.model import ConvLayer, loads_model

# Property tests use this profile: the same examples on every run, and no
# example database written to disk.
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)


def spec_triple(qb=8, se=3, bs=2):
    return (
        BfpSpec(qb, se, bs, "input"),
        BfpSpec(qb, se, bs, "output"),
        BfpSpec(qb, se, bs, "weight"),
    )


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


def small_layer(**kw):
    base = dict(index=1, c_in=1, c_out=1, i_h=6, i_w=6, k_h=3, k_w=3)
    base.update(kw)
    return ConvLayer(**base)
