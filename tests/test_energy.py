import math
from dataclasses import replace

import pytest

from bfpsearch.dm import dm_layer, make_mapping, role_bits
from bfpsearch.energy import (
    EnergyError,
    EnergyParams,
    energy,
    energy_from_bits,
    sram_bits_for_layer,
)
from bfpsearch.model import ModelDesc, layer_macs
from bfpsearch.search import CandidateSpace

from conftest import plan_for, small_layer, spec_triple


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


def test_normalized_is_the_ratio_to_the_32_bit_baseline(tiny4):
    plan = plan_for(tiny4, CandidateSpace(8, (2, 3), (2, 8)), mc_bits=65536)
    assert plan.energy_report.normalized == plan.energy_report.joules / plan.baseline_energy_report.joules
    assert plan.baseline_energy_report.normalized is None
    assert 0 < plan.energy_report.normalized < 1


def test_missing_breakdown_rejected():
    layer = small_layer()
    model = ModelDesc(name="one", layers=[layer])
    with pytest.raises(EnergyError):
        energy(model, [None])
    with pytest.raises(EnergyError):
        energy(model, [])


def test_total_that_rounds_to_zero_rejected():
    layer = small_layer(c_in=2, c_out=2)
    model = ModelDesc(name="one", layers=[layer])
    breakdown = dm_layer(layer, make_mapping(layer, {"oh": 2, "ow": 2}), spec_triple())
    with pytest.raises(EnergyError, match="^the energy of layer 1 is 0.0 J"):
        energy(model, [breakdown], EnergyParams(1e-320, 1e-320))


def test_total_that_overflows_rejected_though_no_layer_does():
    layer = small_layer(c_in=2, c_out=2)
    model = ModelDesc(name="twin", layers=[layer, replace(layer, index=2)])
    breakdowns = [dm_layer(layer, make_mapping(layer), spec_triple())] * 2
    row = energy(model, breakdowns).per_layer[0]
    per_bit = 1e308 / (row["sram_bits"] + row["dram_bits"])  # each layer's picojoules near 1e308, the sum past float64
    assert math.isfinite(energy_from_bits(row["sram_bits"], row["dram_bits"], EnergyParams(per_bit, per_bit)))
    with pytest.raises(EnergyError, match="^the energy of the whole model is inf J"):
        energy(model, breakdowns, EnergyParams(per_bit, per_bit))


def test_layer_that_rounds_to_zero_rejected_though_the_total_does_not():
    small, large = small_layer(index=1), small_layer(index=2, c_in=64, c_out=64, i_h=32, i_w=32)
    model = ModelDesc(name="two", layers=[small, large])
    breakdowns = [dm_layer(layer, make_mapping(layer), spec_triple()) for layer in model.layers]
    row = energy(model, breakdowns).per_layer[0]
    per_bit = 1e-312 / (row["sram_bits"] + row["dram_bits"])  # layer 1 takes about 1e-324 J, below the least subnormal
    params = EnergyParams(per_bit, per_bit)
    assert energy_from_bits(row["sram_bits"], row["dram_bits"], params) == 0.0
    assert energy_from_bits(sum(b.dm_total_bits for b in breakdowns), 0.0, params) > 0.0
    with pytest.raises(EnergyError, match="^the energy of layer 1 is 0.0 J"):
        energy(model, breakdowns, params)


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
