"""Energy estimates from data-movement volumes.

Energy = DRAM bits * per-bit DRAM cost + SRAM bits * per-bit SRAM cost.
DRAM traffic comes straight from the analytical model.  SRAM traffic is the
compute-side operand stream: every multiply-accumulate touches one input, one
weight and one output accumulator, each at its role's effective bitwidth.
That construction is deliberately isolated here so a different on-chip access
model can be swapped in without touching the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import ConvLayer, ModelDesc, layer_macs

PJ_PER_JOULE = 1e12


class EnergyError(ValueError):
    pass


@dataclass(frozen=True)
class EnergyParams:
    """Per-bit movement energy, picojoules. Defaults: 0.16 pJ/bit on-chip
    SRAM, 20 pJ/bit off-chip DRAM."""

    sram_pj_per_bit: float = 0.16
    dram_pj_per_bit: float = 20.0

    def __post_init__(self):
        for value in (self.sram_pj_per_bit, self.dram_pj_per_bit):
            if not (math.isfinite(value) and value > 0):
                raise EnergyError(f"per-bit energies must be positive and finite, got {value}")


@dataclass
class EnergyReport:
    sram_bits: float
    dram_bits: float
    joules: float
    per_layer: list = field(default_factory=list)
    normalized: float | None = None  # joules as a ratio of the 32-bit "original" baseline's

    def to_record(self) -> dict:
        rec = {
            "sram_bits": self.sram_bits,
            "dram_bits": self.dram_bits,
            "joules": self.joules,
            "per_layer": list(self.per_layer),
        }
        if self.normalized is not None:
            rec["baseline"] = "original"
            rec["normalized"] = self.normalized
        return rec


def energy_from_bits(sram_bits: float, dram_bits: float, params: EnergyParams = EnergyParams()) -> float:
    """Joules for given SRAM/DRAM bit volumes."""
    if sram_bits < 0 or dram_bits < 0:
        raise EnergyError("bit volumes must be nonnegative")
    return (sram_bits * params.sram_pj_per_bit + dram_bits * params.dram_pj_per_bit) / PJ_PER_JOULE


def sram_bits_for_layer(layer: ConvLayer, bits: dict) -> float:
    """Compute-side operand stream: MACs x (input + output + weight bits per element)."""
    macs = layer_macs(layer)
    return macs * ((bits["input"] + bits["output"]) + bits["weight"])


def energy(model: ModelDesc, breakdowns, params: EnergyParams = EnergyParams()) -> EnergyReport:
    """Energy report for a plan from its traffic breakdowns, one per layer.

    A breakdown supplies the DRAM traffic, and its bits per element
    (``DmBreakdown.bits``) the bitwidths of the SRAM-side stream.  Raises
    :class:`EnergyError` when a layer's or the total energy rounds to 0 J
    or overflows.
    """
    if len(breakdowns) != len(model.layers):
        raise EnergyError(f"plan covers {len(breakdowns)} layers, model has {len(model.layers)}")
    sram_total = 0.0
    dram_total = 0.0
    rows = []
    for layer, breakdown in zip(model.layers, breakdowns):
        if breakdown is None:
            raise EnergyError(f"layer {layer.index} is missing its traffic breakdown")
        dram = breakdown.dm_total_bits
        sram = sram_bits_for_layer(layer, breakdown.bits)
        sram_total += sram
        dram_total += dram
        rows.append(
            {
                "layer": layer.index,
                "sram_bits": sram,
                "dram_bits": dram,
                "joules": _checked(energy_from_bits(sram, dram, params), f"layer {layer.index}"),
            }
        )
    return EnergyReport(
        sram_bits=sram_total,
        dram_bits=dram_total,
        joules=_checked(energy_from_bits(sram_total, dram_total, params), "the whole model"),
        per_layer=rows,
    )


def _checked(joules: float, what: str) -> float:
    """``joules``, if finite and positive, so every ratio of two reports exists."""
    if not (math.isfinite(joules) and joules > 0):
        raise EnergyError(f"the energy of {what} is {joules} J: these per-bit energies "
                          "leave float64's finite positive range")
    return joules
