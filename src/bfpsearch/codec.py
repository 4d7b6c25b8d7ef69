"""Block floating point codec: shared-exponent blocks of signed mantissas.

A block groups ``block_size`` values under one shared exponent.  Each element
stores a two's-complement mantissa of ``total_bits - exp_bits`` bits (sign
included).  Encoding picks the largest binary exponent in the block, shifts
every element's significand down to that scale and rounds to nearest-even.

:func:`encode_tensor` and :func:`quantize_dequantize` share one block kernel
in two steps.  :func:`scan_blocks` does the work that depends only on the
tensor and the block size: it lays the tensor out as zero-padded blocks and
finds each block's largest value and exponent.  The per-format step then
applies the rounding bump, clamps the exponent to the format's window and
rounds the mantissas.  Both entries accept a :class:`Blocks` in place of the
tensor, so one scan serves every shared-exponent width of its block size.

The scan keeps one rule that :func:`encode_block` lacks: a block holding a
zero (padding included) takes exponent ``max(e, 0)``, so an all-zero block
gets 0, not ``exp_min``.  It comes from an ``int64``-min zero sentinel that
NumPy 2's ``int32`` ``frexp`` exponents wrap to 0; the benchmark's recorded
plans were made with it, and dropping it changes some of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROLES = ("input", "output", "weight")

VALID_TOTAL_BITS = (8, 16)


class CodecError(ValueError):
    pass


@dataclass(frozen=True)
class BfpSpec:
    """One block-floating-point format: width, shared-exponent bits, block size.

    ``total_bits`` is the nominal bits-per-element budget (8 or 16).  The
    signed mantissa occupies ``total_bits - exp_bits`` bits; the shared
    exponent is amortized over the block, so the storage cost per element is
    fractional (see :func:`effective_bitwidth`).
    """

    total_bits: int
    exp_bits: int
    block_size: int
    role: str = "weight"
    exp_bias: int = 0

    def __post_init__(self):
        if self.total_bits not in VALID_TOTAL_BITS:
            raise CodecError(f"total_bits must be one of {VALID_TOTAL_BITS}, got {self.total_bits}")
        if self.exp_bits < 1:
            raise CodecError(f"exp_bits must be >= 1, got {self.exp_bits}")
        if self.mantissa_bits < 2:
            raise CodecError(
                f"signed mantissa needs >= 2 bits, got total_bits={self.total_bits} exp_bits={self.exp_bits}"
            )
        if self.block_size < 1:
            raise CodecError(f"block_size must be >= 1, got {self.block_size}")
        if self.role not in ROLES:
            raise CodecError(f"role must be one of {ROLES}, got {self.role!r}")
        if abs(self.exp_bias) > 1 << 30:  # the block kernel keeps shared exponents in int32
            raise CodecError(f"exp_bias must be within +-2^30, got {self.exp_bias}")

    @property
    def mantissa_bits(self) -> int:
        """Signed mantissa width in bits, sign included."""
        return self.total_bits - self.exp_bits

    @property
    def fraction_bits(self) -> int:
        """Mantissa bits below the shared scale: decode is mant * 2^(exp - fraction_bits)."""
        return self.mantissa_bits - 2

    @property
    def mantissa_min(self) -> int:
        return -(1 << (self.mantissa_bits - 1))

    @property
    def mantissa_max(self) -> int:
        return (1 << (self.mantissa_bits - 1)) - 1

    @property
    def exp_min(self) -> int:
        """Smallest storable shared exponent (also the all-zero sentinel)."""
        return self.exp_bias - (1 << (self.exp_bits - 1))

    @property
    def exp_max(self) -> int:
        return self.exp_bias + (1 << (self.exp_bits - 1)) - 1


@dataclass(frozen=True)
class BfpBlock:
    """An encoded block: shared exponent plus signed integer mantissas."""

    shared_exponent: int
    mantissas: tuple
    saturated: bool = False


@dataclass
class BfpTensor:
    """A tensor encoded block-by-block over its row-major flattening."""

    shape: tuple
    blocks: list
    spec: BfpSpec
    last_block_fill: int
    saturated_blocks: int = 0

    @property
    def element_count(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 0


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise CodecError("values must be finite (no NaN/inf)")


def _max_exponent(values: np.ndarray) -> int | None:
    """Largest binary exponent e with |v| in [2^e, 2^(e+1)) over nonzero values."""
    nz = values[values != 0.0]
    if nz.size == 0:
        return None
    _, exps = np.frexp(nz)
    return int(exps.max()) - 1


def _round_mantissas(values: np.ndarray, spec: BfpSpec, shared_exp: int) -> np.ndarray:
    # Power-of-two scaling is exact in float64; np.rint rounds half to even.
    scaled = np.ldexp(values, spec.fraction_bits - shared_exp)
    return np.rint(scaled)


def encode_block(values, spec: BfpSpec) -> BfpBlock:
    """Encode up to ``block_size`` real values into one shared-exponent block.

    The shared exponent is the largest per-element binary exponent, bumped by
    one when the top element rounds up across the power-of-two boundary (so
    the round-trip error bound holds without mantissa saturation).  Exponents
    outside the storable window saturate and set the block's flag.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise CodecError("cannot encode an empty block")
    if arr.size > spec.block_size:
        raise CodecError(f"block of {arr.size} values exceeds block_size={spec.block_size}")
    _check_finite(arr)

    e_max = _max_exponent(arr)
    if e_max is None:
        return BfpBlock(shared_exponent=spec.exp_min, mantissas=(0,) * arr.size)

    shared = e_max
    mant = _round_mantissas(arr, spec, shared)
    if mant.max(initial=0.0) > spec.mantissa_max:
        # Rounding overflow at the positive boundary: raise the shared scale.
        shared += 1
        mant = _round_mantissas(arr, spec, shared)

    saturated = False
    if shared < spec.exp_min or shared > spec.exp_max:
        saturated = True
        shared = min(max(shared, spec.exp_min), spec.exp_max)
        mant = np.clip(_round_mantissas(arr, spec, shared), spec.mantissa_min, spec.mantissa_max)

    return BfpBlock(
        shared_exponent=shared,
        mantissas=tuple(int(m) for m in mant),
        saturated=saturated,
    )


def decode_block(block: BfpBlock, spec: BfpSpec):
    """Invert :func:`encode_block`.  Decoding itself is exact."""
    mant = np.asarray(block.mantissas, dtype=np.float64)
    if mant.size == 0:
        raise CodecError("cannot decode an empty block")
    ints = np.asarray(block.mantissas)
    if np.any(ints < spec.mantissa_min) or np.any(ints > spec.mantissa_max):
        raise CodecError(
            f"mantissa out of range [{spec.mantissa_min}, {spec.mantissa_max}] for {spec.mantissa_bits}-bit format"
        )
    if not (spec.exp_min <= block.shared_exponent <= spec.exp_max):
        raise CodecError(
            f"shared exponent {block.shared_exponent} outside storable window "
            f"[{spec.exp_min}, {spec.exp_max}]"
        )
    return [float(v) for v in np.ldexp(mant, block.shared_exponent - spec.fraction_bits)]


def roundtrip_error_bound(spec: BfpSpec, shared_exponent: int) -> float:
    """Per-element absolute error bound after encode/decode at a given exponent."""
    return math.ldexp(1.0, shared_exponent - (spec.total_bits - spec.exp_bits - 1))


def _fold(op, grid: np.ndarray) -> np.ndarray:
    """Reduce each row of a C-contiguous 2-D array by folding adjacent column
    pairs: long strided ufunc runs, far faster than ``op.reduce(axis=1)``."""
    while grid.shape[1] > 1:
        width = grid.shape[1]
        folded = op(grid[:, 0 : width - 1 : 2], grid[:, 1:width:2])
        if width % 2:
            op(folded[:, 0], grid[:, width - 1], out=folded[:, 0])
        grid = folded
    return grid[:, 0]


@dataclass(frozen=True, eq=False)
class Blocks:
    """One tensor scanned at one block size: what every format of that block
    size rounds from (see :func:`scan_blocks`)."""

    values: np.ndarray  # the tensor as float64, in its own shape
    grid: np.ndarray  # its row-major flattening as (n_blocks, block_size) rows, the last zero-padded
    hi: np.ndarray  # each block's largest signed value, as a fraction of 2^(exp + 1)
    exp: np.ndarray  # each block's int32 shared exponent before the rounding bump
    exp_range: tuple  # (smallest, largest) of ``exp``

    @property
    def block_size(self) -> int:
        return self.grid.shape[1]


def scan_blocks(tensor, block_size: int) -> Blocks:
    """The per-block work every format of one block size shares: block
    extremes, their exponents and the zero rule."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.size == 0:
        raise CodecError("cannot encode an empty tensor")
    if block_size < 1:
        raise CodecError(f"block_size must be >= 1, got {block_size}")
    flat = arr.reshape(-1)
    bs = block_size
    n_blocks = -(-flat.size // bs)
    if flat.size % bs:
        flat = np.concatenate([flat, np.zeros(n_blocks * bs - flat.size)])
    grid = flat.reshape(n_blocks, bs)

    hi = _fold(np.maximum, grid)
    amax = np.maximum(hi, -_fold(np.minimum, grid))
    _check_finite(amax)  # np.maximum and np.minimum propagate NaN
    _, exp = np.frexp(amax)  # the largest element exponent, plus one
    exp -= 1
    # A zero-holding block takes max(e, 0): the zero sentinel wraps to 0 (module docstring).
    zero = np.flatnonzero(grid == 0.0) // bs
    exp[zero] = np.maximum(exp[zero], 0)
    # Scaling by a power of two is exact wherever the rounding bump can happen.
    hi = np.ldexp(hi, -1 - exp)
    return Blocks(arr, grid, hi, exp, (int(exp.min()), int(exp.max())))


def _round_blocks(blocks: Blocks, spec: BfpSpec):
    """The per-format step of the block kernel: the rounding bump, the
    exponent clamp and the rounded mantissas of ``blocks.grid``, with
    per-block int32 shared exponents and saturation flags."""
    if blocks.block_size != spec.block_size:
        raise CodecError(f"blocks scanned at block_size={blocks.block_size} cannot take {spec}")
    # Rounding overflow at the positive boundary raises the shared scale;
    # rint and ldexp are monotone, so the block's largest value decides: it
    # rounds to 2^(fraction_bits + 1) once at least 1 - 2^-(fraction_bits + 2)
    # of 2^(exp + 1) (ties go to that even value).
    exp = blocks.exp + (blocks.hi >= 1.0 - 2.0 ** -(spec.fraction_bits + 2))
    lo, top = blocks.exp_range
    if spec.exp_min <= lo and top + 1 <= spec.exp_max:  # no block can leave the window
        saturated = np.zeros(len(exp), dtype=bool)
        shared = exp
    else:
        saturated = (exp < spec.exp_min) | (exp > spec.exp_max)
        shared = np.clip(exp, spec.exp_min, spec.exp_max)
    mant = np.ldexp(blocks.grid, (spec.fraction_bits - shared)[:, None])
    np.rint(mant, out=mant)
    if saturated.any():
        mant[saturated] = np.clip(mant[saturated], spec.mantissa_min, spec.mantissa_max)
    return shared, mant, saturated


def _blocks_for(tensor, spec: BfpSpec) -> Blocks:
    return tensor if isinstance(tensor, Blocks) else scan_blocks(tensor, spec.block_size)


def encode_tensor(tensor, spec: BfpSpec) -> BfpTensor:
    """Encode a whole tensor, blocking its row-major flattening.

    ``tensor`` may be a :class:`Blocks` scanned at ``spec.block_size``.  The
    final block may be partial; its fill count is recorded so decoding
    restores the exact shape.
    """
    blocks = _blocks_for(tensor, spec)
    shared, mant, saturated = _round_blocks(blocks, spec)
    arr = blocks.values
    fill = arr.size - (len(shared) - 1) * spec.block_size
    rows = mant.astype(np.int64).tolist()
    rows[-1] = rows[-1][:fill]
    return BfpTensor(
        shape=tuple(arr.shape),
        blocks=[
            BfpBlock(shared_exponent=e, mantissas=tuple(m), saturated=s)
            for e, m, s in zip(shared.tolist(), rows, saturated.tolist())
        ],
        spec=spec,
        last_block_fill=fill,
        saturated_blocks=int(saturated.sum()),
    )


def decode_tensor(enc: BfpTensor) -> np.ndarray:
    spec = enc.spec
    out = np.empty(enc.element_count, dtype=np.float64)
    pos = 0
    for block in enc.blocks:
        vals = np.ldexp(
            np.asarray(block.mantissas, dtype=np.float64),
            block.shared_exponent - spec.fraction_bits,
        )
        out[pos : pos + vals.size] = vals
        pos += vals.size
    return out.reshape(enc.shape)


def quantize_dequantize(tensor, spec: BfpSpec) -> np.ndarray:
    """encode + decode in one step, without materializing block objects.

    ``tensor`` may be a :class:`Blocks` scanned at ``spec.block_size``, so
    one scan serves every format of that block size.
    """
    blocks = _blocks_for(tensor, spec)
    shared, mant, _ = _round_blocks(blocks, spec)
    deq = np.ldexp(mant, (shared - spec.fraction_bits)[:, None], out=mant)
    arr = blocks.values
    return deq.reshape(-1)[: arr.size].reshape(arr.shape)


def effective_bitwidth(spec: BfpSpec, dims) -> float:
    """Real-valued bits per element: mantissa bits plus the amortized exponent.

    ``dims`` is the role-dependent pair of extents the exponent is shared
    across together with the block: (height, width) of the input or output
    feature map, or (kernel rows, kernel cols) for weights.
    """
    d0, d1 = int(dims[0]), int(dims[1])
    if d0 < 1 or d1 < 1:
        raise CodecError(f"amortizing dims must be >= 1, got {dims}")
    return (spec.total_bits - spec.exp_bits) + spec.exp_bits / (spec.block_size * d0 * d1)


@dataclass(frozen=True)
class QuantError:
    max_abs_error: float
    mse: float
    sqnr_db: float


def quantization_error(tensor, spec: BfpSpec) -> QuantError:
    """Error metrics between a tensor and its encode/decode round trip."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.size == 0:
        raise CodecError("cannot measure an empty tensor")
    deq = quantize_dequantize(arr, spec)
    err = arr - deq
    mse = float(np.mean(err * err))
    signal = float(np.mean(arr * arr))
    if mse == 0.0:
        sqnr = math.inf
    elif signal == 0.0:
        sqnr = -math.inf
    else:
        sqnr = 10.0 * math.log10(signal / mse)
    return QuantError(max_abs_error=float(np.max(np.abs(err))), mse=mse, sqnr_db=sqnr)


def load_tensor_f32(path) -> np.ndarray:
    """Read a flat little-endian float32 file as float64."""
    return np.fromfile(path, dtype="<f4").astype(np.float64)
