"""Frozen copy of the earlier vectorized ``encode_tensor`` and
``quantize_dequantize`` bodies (per-element ``frexp``, ``max(axis=1)`` and
up to three ``rint(ldexp(...))`` passes).

It is the bit-exactness oracle for the shared block kernel in
``bfpsearch.codec``: the kernel must reproduce these results bit for bit,
including the zero-holding-block exponent rule that the ``int64``-min
sentinel below produces under NumPy 2's ``int32`` exponents.  Do not edit.
"""

import numpy as np

from bfpsearch.codec import BfpBlock, BfpTensor, CodecError


def _grid(tensor, spec):
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.size == 0:
        raise CodecError("cannot encode an empty tensor")
    if not np.all(np.isfinite(arr)):
        raise CodecError("values must be finite (no NaN/inf)")
    flat = arr.reshape(-1)
    bs = spec.block_size
    n_blocks = -(-flat.size // bs)
    padded = np.zeros(n_blocks * bs, dtype=np.float64)
    padded[: flat.size] = flat
    return arr, padded.reshape(n_blocks, bs)


def frozen_encode_tensor(tensor, spec) -> BfpTensor:
    arr, grid = _grid(tensor, spec)
    n_blocks, bs = grid.shape
    fill = arr.size - (n_blocks - 1) * bs

    frac, exps = np.frexp(grid)
    exps = np.where(grid != 0.0, exps - 1, np.iinfo(np.int64).min)
    e_max = exps.max(axis=1)
    zero_rows = e_max == np.iinfo(np.int64).min
    shared = np.where(zero_rows, spec.exp_min, e_max)

    mant = np.rint(np.ldexp(grid, spec.fraction_bits - shared[:, None]))
    bump = mant.max(axis=1) > spec.mantissa_max
    if bump.any():
        shared = shared + bump.astype(np.int64)
        mant = np.rint(np.ldexp(grid, spec.fraction_bits - shared[:, None]))

    saturated = (~zero_rows) & ((shared < spec.exp_min) | (shared > spec.exp_max))
    if saturated.any():
        shared = np.clip(shared, spec.exp_min, spec.exp_max)
        mant = np.clip(
            np.rint(np.ldexp(grid, spec.fraction_bits - shared[:, None])),
            spec.mantissa_min,
            spec.mantissa_max,
        )

    blocks = []
    for r in range(n_blocks):
        size = bs if r < n_blocks - 1 else fill
        blocks.append(
            BfpBlock(
                shared_exponent=int(shared[r]),
                mantissas=tuple(int(m) for m in mant[r, :size]),
                saturated=bool(saturated[r]),
            )
        )
    return BfpTensor(
        shape=tuple(arr.shape),
        blocks=blocks,
        spec=spec,
        last_block_fill=fill,
        saturated_blocks=int(saturated.sum()),
    )


def frozen_quantize_dequantize(tensor, spec) -> np.ndarray:
    arr, grid = _grid(tensor, spec)

    _, exps = np.frexp(grid)
    exps = np.where(grid != 0.0, exps - 1, np.iinfo(np.int64).min)
    e_max = exps.max(axis=1)
    shared = np.where(e_max == np.iinfo(np.int64).min, spec.exp_min, e_max)
    mant = np.rint(np.ldexp(grid, spec.fraction_bits - shared[:, None]))
    bump = mant.max(axis=1) > spec.mantissa_max
    if bump.any():
        shared = shared + bump.astype(np.int64)
        mant = np.rint(np.ldexp(grid, spec.fraction_bits - shared[:, None]))
    shared = np.clip(shared, spec.exp_min, spec.exp_max)
    mant = np.clip(
        np.rint(np.ldexp(grid, spec.fraction_bits - shared[:, None])),
        spec.mantissa_min,
        spec.mantissa_max,
    )
    deq = np.ldexp(mant, shared[:, None] - spec.fraction_bits)
    return deq.reshape(-1)[: arr.size].reshape(arr.shape)
