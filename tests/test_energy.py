import math

import pytest

from bfpsearch.dm import dm_layer, make_mapping, role_bits
from bfpsearch.energy import (
    EnergyError,
    EnergyParams,
    energy,
    energy_from_bits,
    normalized_energy,
    sram_bits_for_layer,
)
from bfpsearch.model import ModelDesc, layer_macs

from conftest import small_layer, spec_triple


def test_dram_only_twenty_millijoules():
    assert energy_from_bits(0.0, 1e9) == 20e-3


def test_sram_only_sixteen_hundredths_millijoule():
    assert energy_from_bits(1e9, 0.0) == 0.16e-3


def test_linearity():
    base = energy_from_bits(3e6, 7e6)
    assert energy_from_bits(6e6, 14e6) == pytest.approx(2 * base, rel=1e-15)
    p = EnergyParams(sram_pj_per_bit=0.32, dram_pj_per_bit=40.0)
    assert energy_from_bits(3e6, 7e6, p) == pytest.approx(2 * base, rel=1e-15)


def test_invalid_params_rejected():
    with pytest.raises(EnergyError):
        EnergyParams(sram_pj_per_bit=0.0)
    for bad in (-5.0, math.nan, math.inf):
        with pytest.raises(EnergyError):
            EnergyParams(dram_pj_per_bit=bad)
    with pytest.raises(EnergyError):
        energy_from_bits(-1.0, 0.0)


def test_sram_stream_is_macs_times_bitwidths():
    layer = small_layer(c_in=2, c_out=2)
    specs = spec_triple()
    bits = role_bits(layer, specs)
    got = sram_bits_for_layer(layer, bits)
    assert got == layer_macs(layer) * ((bits["input"] + bits["output"]) + bits["weight"])


def model_energy(qb):
    layer = small_layer(c_in=2, c_out=2)
    model = ModelDesc(name="one", layers=[layer])
    specs = spec_triple(qb=qb)
    mapping = make_mapping(layer, {"oh": 2, "ow": 2})
    return energy(model, [dm_layer(layer, mapping, specs)])


def test_eight_bit_beats_sixteen_at_equal_mapping():
    e8 = model_energy(8)
    e16 = model_energy(16)
    assert e8.dram_bits < e16.dram_bits
    assert e8.joules < e16.joules


def test_normalized_against_baseline():
    e8 = model_energy(8)
    base = model_energy(8)
    normalized_energy(e8, base)
    assert e8.normalized == 1.0
    doubled = model_energy(8)
    doubled.sram_bits *= 2
    doubled.dram_bits *= 2
    doubled.joules *= 2
    normalized_energy(doubled, base)
    assert doubled.normalized == pytest.approx(2.0, rel=1e-15)


def test_missing_breakdown_rejected():
    layer = small_layer()
    model = ModelDesc(name="one", layers=[layer])
    with pytest.raises(EnergyError):
        energy(model, [None])
    with pytest.raises(EnergyError):
        energy(model, [])


def test_zero_baseline_rejected():
    e = model_energy(8)
    bad = model_energy(8)
    bad.joules = 0.0
    with pytest.raises(EnergyError):
        normalized_energy(e, bad)


def test_per_layer_rows_sum_to_totals():
    layer1 = small_layer(index=1, c_in=2, c_out=2)
    layer2 = small_layer(index=2, c_in=2, c_out=4)
    model = ModelDesc(name="two", layers=[layer1, layer2])
    specs = spec_triple()
    breakdowns = [
        dm_layer(layer1, make_mapping(layer1), specs),
        dm_layer(layer2, make_mapping(layer2, {"oh": 2}), specs),
    ]
    rep = energy(model, breakdowns)
    assert rep.sram_bits == pytest.approx(sum(r["sram_bits"] for r in rep.per_layer), rel=1e-15)
    assert rep.dram_bits == pytest.approx(sum(r["dram_bits"] for r in rep.per_layer), rel=1e-15)
