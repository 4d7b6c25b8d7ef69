"""Block floating point codec: shared-exponent blocks of signed mantissas.

A block groups ``block_size`` values under one shared exponent.  Each element
stores a two's-complement mantissa of ``total_bits - exp_bits`` bits (sign
included).  Encoding picks the largest binary exponent in the block, shifts
every element's significand down to that scale and rounds to nearest-even.

:func:`encode_tensor` and :func:`quantize_dequantize` share one block kernel
in two steps.  :func:`scan_blocks` does the work that depends only on the
tensor and the block size: it views the tensor as blocks (only a ragged
last block is copied, zero-padded) and finds each block's largest value and
exponent.  The per-format step then
applies the rounding bump, clamps the exponent to the format's window and
rounds the mantissas.  Both entries accept a :class:`Blocks` in place of the
tensor, so one scan serves every shared-exponent width of its block size,
and a scan's ``roundtrip`` buffer lets every one of those formats round
trip into the same memory (``quantize_dequantize``'s ``out``).

Only what can change a result is paid per format: mantissas are clipped
only in the blocks whose exponent is clamped down to ``exp_max``, and only
when the scan holds such a block; a block clamped up to ``exp_min`` needs no
clip (see :func:`_round_blocks`).  At small block sizes the per-block
scaling runs as one long pass per block column, not as one short pass per
block.

The scan keeps one rule that the exact rational codec of the tests,
``tests/reference_codec.py``, does not: a block holding a zero (padding
included) takes exponent ``max(e, 0)``, so an all-zero block gets 0, where
that codec gives it ``exp_min``.  It comes from an ``int64``-min zero
sentinel that NumPy 2's ``int32`` ``frexp`` exponents wrap to 0; the
benchmark's recorded plans were made with it, and dropping it changes some
of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        # Hashed once, from integers only: a str hash differs between
        # processes, and a pickled spec carries this value to another one.
        fields = (self.total_bits, self.exp_bits, self.block_size, ROLES.index(self.role), self.exp_bias)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

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
        """Smallest storable shared exponent.  ``tests/reference_codec.py``
        gives it to an all-zero block; the kernel gives such a block 0 (see
        the module docstring)."""
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
        return math.prod(self.shape)


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise CodecError("values must be finite (no NaN/inf)")


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
    full: np.ndarray  # its row-major flattening's whole blocks, as (n, block_size) rows (a view if it can be)
    tail: np.ndarray | None  # the last, partial block zero-padded to block_size, or None
    hi: np.ndarray  # each block's largest signed value, as a fraction of 2^(exp + 1)
    exp: np.ndarray  # each block's int32 shared exponent before the rounding bump
    exp_range: tuple  # (smallest, largest) of ``exp``

    @property
    def block_size(self) -> int:
        return self.full.shape[1]

    @cached_property
    def roundtrip(self) -> np.ndarray:
        """A (n_blocks, block_size) float64 buffer, made on first use, that
        round trips of this scan may be built in (``quantize_dequantize``'s
        ``out``), so every format of the block size reuses one buffer."""
        return np.empty((len(self.exp), self.block_size))


def _fold_blocks(op, full: np.ndarray, tail) -> np.ndarray:
    """``_fold`` of the whole blocks, then of the padded tail row."""
    folded = _fold(op, full)
    return folded if tail is None else np.append(folded, _fold(op, tail[None]))


def scan_blocks(tensor, block_size: int) -> Blocks:
    """The per-block work every format of one block size shares: block
    extremes, their exponents and the zero rule.  Only a ragged tail is
    copied, and the per-block temporaries share one buffer: the negated
    minima, then the largest magnitudes, their mantissas and the scaled ``hi``."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.size == 0:
        raise CodecError("cannot encode an empty tensor")
    if block_size < 1:
        raise CodecError(f"block_size must be >= 1, got {block_size}")
    flat = arr.reshape(-1)
    bs = block_size
    n_full = flat.size // bs
    full = flat[: n_full * bs].reshape(n_full, bs)
    tail = None
    if flat.size % bs:
        tail = np.zeros(bs)
        tail[: flat.size - n_full * bs] = flat[n_full * bs :]

    hi = _fold_blocks(np.maximum, full, tail)
    buf = _fold_blocks(np.minimum, full, tail)
    # At block size 1 the folds are views of the tensor, which stays as it is.
    buf = np.negative(buf) if bs == 1 else np.negative(buf, out=buf)
    amax = np.maximum(hi, buf, out=buf)
    _check_finite(amax)  # np.maximum and np.minimum propagate NaN
    _, exp = np.frexp(amax, out=(buf, None))  # the largest element exponent, plus one
    exp -= 1
    # A zero-holding block takes max(e, 0): the zero sentinel wraps to 0
    # (module docstring).  A padded tail always holds one.
    zero = np.flatnonzero(full == 0.0) // bs
    if tail is not None:
        zero = np.append(zero, n_full)
    exp[zero] = np.maximum(exp[zero], 0)
    # Scaling by a power of two is exact wherever the rounding bump can happen.
    hi = np.ldexp(hi, -1 - exp, out=buf)
    return Blocks(arr, full, tail, hi, exp, (int(exp.min()), int(exp.max())))


# Up to this block size, scaling rows by per-block powers of two runs one
# pass per block column: a broadcast pass would run one inner loop per
# block, only this many elements long.  Measured by scoring three formats
# per block size on the synthetic samples of a 20-layer stack (0.5 M
# elements) and of 12 ResNet-50 layers (4.4 M): columns take 0.65x the time
# at block size 2 and 0.83-0.88x at 3, break even at 4 and lose from 5 on,
# where their strided reads cost more than the short loops.
COLUMN_PASSES_UP_TO = 3


def _scale_rows(rows: np.ndarray, shift: np.ndarray, out: np.ndarray):
    """``out[i] = ldexp(rows[i], shift[i])`` for every block row i."""
    if rows.shape[1] <= COLUMN_PASSES_UP_TO:
        for c in range(rows.shape[1]):
            np.ldexp(rows[:, c], shift, out=out[:, c])
    else:
        np.ldexp(rows, shift[:, None], out=out)


def _round_blocks(blocks: Blocks, spec: BfpSpec, out=None, flags: bool = False):
    """The per-format step of the block kernel: the rounding bump, the
    exponent clamp and the rounded mantissas of the scanned blocks, as
    (n_blocks, block_size) rows in ``out`` (a fresh buffer when None), with
    the per-block int32 shifts that scaled them and, with ``flags``,
    per-block saturation flags (None without).

    A block saturates when its exponent leaves the window, in either
    direction, and is clamped into it.  Only a block clamped down to
    ``exp_max`` can round to a mantissa out of range, so only those blocks
    are clipped, and only when one exists.  A block clamped up to ``exp_min``
    had exponent e < exp_min, so each of its values has |x| < 2^(e + 1) <=
    2^exp_min and |x * 2^(fraction_bits - exp_min)| < 2^fraction_bits <=
    ``mantissa_max``.

    One int32 buffer holds, in turn, the bumped exponent, the clamped
    exponent and the mantissas' shift ``fraction_bits - shared``, which it
    returns in place of the shared exponent."""
    if blocks.block_size != spec.block_size:
        raise CodecError(f"blocks scanned at block_size={blocks.block_size} cannot take {spec}")
    n_blocks = len(blocks.exp)
    if out is None:
        out = np.empty((n_blocks, spec.block_size))
    elif out.shape != (n_blocks, spec.block_size) or out.dtype != np.float64:
        raise CodecError(f"out must be a ({n_blocks}, {spec.block_size}) float64 array, got {out.shape} {out.dtype}")
    fb, exp_min, exp_max = spec.fraction_bits, spec.exp_min, spec.exp_max
    # Rounding overflow at the positive boundary raises the shared scale;
    # rint and ldexp are monotone, so the block's largest value decides: it
    # rounds to 2^(fraction_bits + 1) once at least 1 - 2^-(fraction_bits + 2)
    # of 2^(exp + 1) (ties go to that even value).
    shared = np.add(blocks.exp, blocks.hi >= 1.0 - 2.0 ** -(fb + 2), dtype=np.int32)
    lo, top = blocks.exp_range
    saturated = (shared < exp_min) | (shared > exp_max) if flags else None
    if lo < exp_min:  # some block may fall below the window
        np.maximum(shared, exp_min, out=shared)
    over = ()
    if top + 1 > exp_max:  # some block may rise above it
        over = (shared > exp_max).nonzero()[0]
        shared[over] = exp_max
    shift = np.subtract(fb, shared, out=shared)
    n_full = len(blocks.full)
    _scale_rows(blocks.full, shift[:n_full], out[:n_full])
    if blocks.tail is not None:
        np.ldexp(blocks.tail, shift[n_full], out=out[n_full])
    np.rint(out, out=out)
    if len(over):
        out[over] = np.clip(out[over], spec.mantissa_min, spec.mantissa_max)
    return shift, out, saturated


def _blocks_for(tensor, spec: BfpSpec) -> Blocks:
    return tensor if isinstance(tensor, Blocks) else scan_blocks(tensor, spec.block_size)


def encode_tensor(tensor, spec: BfpSpec) -> BfpTensor:
    """Encode a whole tensor, blocking its row-major flattening.

    ``tensor`` may be a :class:`Blocks` scanned at ``spec.block_size``.  The
    final block may be partial; its fill count is recorded so decoding
    restores the exact shape.
    """
    blocks = _blocks_for(tensor, spec)
    shift, mant, saturated = _round_blocks(blocks, spec, flags=True)
    shared = np.subtract(spec.fraction_bits, shift, out=shift)
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


def quantize_dequantize(tensor, spec: BfpSpec, out=None) -> np.ndarray:
    """encode + decode in one step, without materializing block objects.

    ``tensor`` may be a :class:`Blocks` scanned at ``spec.block_size``, so
    one scan serves every format of that block size.  The round trip is
    built in ``out``, a (n_blocks, block_size) float64 array such as the
    scan's ``roundtrip``, and the result is a view of it; without ``out``
    it gets a fresh buffer.
    """
    blocks = _blocks_for(tensor, spec)
    shift, mant, _ = _round_blocks(blocks, spec, out)
    _scale_rows(mant, np.negative(shift, out=shift), mant)
    arr = blocks.values
    return mant.reshape(-1)[: arr.size].reshape(arr.shape)


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
