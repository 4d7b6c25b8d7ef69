"""Block-floating-point quantization configuration search.

Finds per-layer shared-exponent widths, block sizes, loop orders and tile
sizes for a convolutional network under a memory budget, trading accuracy
loss against data-movement-driven performance loss, and reports traffic and
energy estimates.
"""

__version__ = "0.1.0"

from .codec import (
    BfpBlock,
    BfpSpec,
    BfpTensor,
    Blocks,
    CodecError,
    QuantError,
    decode_block,
    decode_tensor,
    effective_bitwidth,
    encode_block,
    encode_tensor,
    quantization_error,
    quantize_dequantize,
    scan_blocks,
)
from .dm import (
    LOOP_DIMS,
    OPERANDS,
    DmBreakdown,
    Mapping,
    MappingError,
    ReuseClass,
    classify_reuse,
    dm_layer,
    make_mapping,
    tile_footprint,
)
from .accuracy import (
    AccuracyError,
    AccuracyTable,
    load_table,
    loads_table,
    synthetic_sample,
)
from .energy import EnergyParams, EnergyReport, energy, energy_from_bits, normalized_energy
from .model import ConvLayer, ModelDesc, ModelFormatError, layer_volumes, load_model, loads_model
from .oracle import CapacityError, SimResult, simulate
from .search import (
    CandidateSpace,
    QuantPlan,
    SearchError,
    pareto_frontier,
    search,
)
from .tiling import (
    InfeasibleError,
    LayerMappingTable,
    tile_candidates,
)
