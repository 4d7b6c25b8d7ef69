"""Block-floating-point quantization configuration search.

Finds per-layer shared-exponent widths, block sizes, loop orders and tile
sizes for a convolutional network under a memory budget, trading accuracy
loss against data-movement-driven performance loss, and reports traffic and
energy estimates.

The package root exports the names README's "Library use" documents; every
other name is imported from its module.
"""

__version__ = "0.1.0"

from .codec import (
    BfpSpec,
    Blocks,
    CodecError,
    encode_tensor,
    quantization_error,
    quantize_dequantize,
    scan_blocks,
)
from .dm import (
    MappingError,
    dm_layer,
)
from .model import (
    ModelFormatError,
    load_model,
    loads_model,
)
from .oracle import simulate
from .search import (
    CandidateSpace,
    SearchError,
    accuracy_rows,
    build_mapping_tables,
    search,
)
from .tiling import (
    InfeasibleError,
    LayerMappingTable,
)
