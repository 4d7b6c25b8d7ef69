import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfpsearch.accuracy import normalized_mse, signal_power
from bfpsearch.codec import (
    BfpSpec,
    CodecError,
    decode_block,
    decode_tensor,
    effective_bitwidth,
    encode_block,
    encode_tensor,
    quantization_error,
    quantize_dequantize,
    scan_blocks,
)
from frozen_codec import frozen_encode_tensor, frozen_quantize_dequantize
from reference_codec import ref_encode


def test_spec_validation():
    BfpSpec(8, 3, 2, "input")
    with pytest.raises(CodecError):
        BfpSpec(12, 3, 2, "input")  # only 8/16-bit formats
    with pytest.raises(CodecError):
        BfpSpec(8, 7, 2, "input")  # mantissa would be 1 bit
    with pytest.raises(CodecError):
        BfpSpec(8, 0, 2, "input")
    with pytest.raises(CodecError):
        BfpSpec(8, 3, 0, "input")
    with pytest.raises(CodecError):
        BfpSpec(8, 3, 2, "bias")
    BfpSpec(8, 3, 2, "input", exp_bias=-(1 << 30))
    for bias in (1 << 31, -(10**12)):  # shared exponents would leave int32
        with pytest.raises(CodecError):
            BfpSpec(8, 3, 2, "input", exp_bias=bias)


def test_equal_specs_hash_equal():
    specs = [BfpSpec(qb, se, bs, role, bias) for qb in (8, 16) for se in (2, 5) for bs in (1, 48)
             for role in ("input", "output", "weight") for bias in (0, -3)]
    for spec in specs:
        twin = BfpSpec(spec.total_bits, spec.exp_bits, spec.block_size, spec.role, spec.exp_bias)
        assert twin == spec and hash(twin) == hash(spec)
        assert hash(replace(spec, exp_bits=spec.exp_bits + 1)) == hash(replace(twin, exp_bits=twin.exp_bits + 1))
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
    assert len({hash(spec) for spec in specs}) == len(specs)


def test_spec_pickled_in_another_process_hashes_equal():
    # Another process hashes strings with another seed; a spec it pickles
    # must still hash like the equal spec built here (a --jobs worker's).
    code = ("import pickle, sys; from bfpsearch.codec import BfpSpec; "
            "sys.stdout.write(pickle.dumps(BfpSpec(8, 3, 16, 'output')).hex())")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    spec = pickle.loads(bytes.fromhex(out))
    assert hash(spec) == hash(BfpSpec(8, 3, 16, "output"))
    assert {BfpSpec(8, 3, 16, "output"): 1}[spec] == 1


def test_encode_identical_values_exact():
    spec = BfpSpec(8, 3, 2, "weight")
    block = encode_block([2.0, 2.0], spec)
    assert block.shared_exponent == 1
    assert decode_block(block, spec) == [2.0, 2.0]


def test_encode_zero_block_sentinel():
    spec = BfpSpec(8, 3, 2, "weight")
    block = encode_block([0.0, 0.0], spec)
    assert block.shared_exponent == spec.exp_min
    assert block.mantissas == (0, 0)
    assert decode_block(block, spec) == [0.0, 0.0]


def test_encode_small_value_shifts_out():
    # Expected output computed with the exact rational reference encoder:
    # shared exponent 0 (from 1.0), 0.0078125 * 2^3 = 0.0625 rounds to 0.
    spec = BfpSpec(8, 3, 2, "weight")
    ref_exp, ref_mants = ref_encode([1.0, 0.0078125], 8, 3)
    assert (ref_exp, ref_mants) == (0, [8, 0])
    block = encode_block([1.0, 0.0078125], spec)
    assert block.shared_exponent == ref_exp
    assert list(block.mantissas) == ref_mants
    assert decode_block(block, spec) == [1.0, 0.0]


def test_encode_rejects_bad_input():
    spec = BfpSpec(8, 3, 2, "weight")
    with pytest.raises(CodecError):
        encode_block([float("nan"), 1.0], spec)
    with pytest.raises(CodecError):
        encode_block([float("inf")], spec)
    with pytest.raises(CodecError):
        encode_block([], spec)
    with pytest.raises(CodecError):
        encode_block([1.0, 2.0, 3.0], spec)  # exceeds block size


def test_decode_rejects_out_of_range_mantissa():
    spec = BfpSpec(8, 3, 2, "weight")
    block = encode_block([1.0, 1.0], spec)
    bad = type(block)(shared_exponent=block.shared_exponent, mantissas=(99, 0))
    with pytest.raises(CodecError):
        decode_block(bad, spec)


def test_encode_matches_rational_reference():
    rng = np.random.default_rng(11)
    for qb, se in [(8, 2), (8, 3), (8, 6), (16, 4), (16, 7)]:
        spec = BfpSpec(qb, se, 4, "weight")
        for _ in range(200):
            vals = [float(v) for v in rng.uniform(-1.9, 1.9, size=4)]
            if rng.random() < 0.3:
                vals[rng.integers(0, 4)] = 0.0
            got = encode_block(vals, spec)
            ref_exp, ref_mants = ref_encode(vals, qb, se)
            assert got.shared_exponent == ref_exp
            assert list(got.mantissas) == ref_mants


def test_roundtrip_bound_randomized():
    # Smaller sibling of the acceptance property: bound and maximality.
    rng = np.random.default_rng(5)
    for qb, se, bs in [(8, 2, 2), (8, 6, 8), (16, 7, 4), (16, 2, 48)]:
        spec = BfpSpec(qb, se, bs, "input")
        data = rng.uniform(-1.9, 1.9, size=200 * bs)
        enc = encode_tensor(data, spec)
        dec = decode_tensor(enc)
        for b, block in enumerate(enc.blocks):
            src = data[b * bs : b * bs + len(block.mantissas)]
            bound = math.ldexp(0.5, block.shared_exponent - spec.fraction_bits)  # half a mantissa step
            err = np.abs(src - dec[b * bs : b * bs + len(block.mantissas)])
            assert err.max() <= bound
            nz = src[src != 0]
            if nz.size:
                _, exps = np.frexp(nz)
                assert int(exps.max()) - 1 <= block.shared_exponent


def test_encode_tensor_partial_final_block():
    spec = BfpSpec(8, 3, 4, "weight")
    data = np.arange(1, 11, dtype=float)  # 10 elements, BS=4 -> fill 2
    enc = encode_tensor(data, spec)
    assert len(enc.blocks) == 3
    assert enc.last_block_fill == 2
    assert len(enc.blocks[-1].mantissas) == 2
    assert decode_tensor(enc).shape == (10,)


def test_exponent_window_saturates_and_flags():
    spec = BfpSpec(8, 2, 2, "weight")  # window [-2, 1]
    big = encode_block([1024.0, 0.0], spec)
    assert big.saturated
    assert big.shared_exponent == spec.exp_max
    assert max(big.mantissas) == spec.mantissa_max
    tiny = encode_block([2.0**-9, 0.0], spec)
    assert tiny.saturated
    assert tiny.shared_exponent == spec.exp_min


def test_encode_determinism():
    spec = BfpSpec(16, 5, 8, "input")
    vals = np.linspace(-1.5, 1.5, 8)
    a = encode_block(vals, spec)
    b = encode_block(vals, spec)
    assert a == b


def test_effective_bitwidth_hand_values():
    assert effective_bitwidth(BfpSpec(8, 3, 2, "input"), (1, 1)) == 6.5
    got = effective_bitwidth(BfpSpec(16, 4, 4, "weight"), (3, 3))
    assert math.isclose(got, 12 + 4 / 36, rel_tol=1e-15)


def test_effective_bitwidth_limit_and_monotonicity():
    spec_small = BfpSpec(8, 3, 1, "input")
    spec_big = BfpSpec(8, 3, 4096, "input")
    assert effective_bitwidth(spec_big, (8, 8)) < effective_bitwidth(spec_small, (8, 8))
    assert effective_bitwidth(spec_big, (64, 64)) == pytest.approx(5.0, abs=1e-4)
    # strictly decreasing in BS and in the amortizing spatial product
    prev = math.inf
    for bs in (1, 2, 4, 8, 16):
        cur = effective_bitwidth(BfpSpec(8, 3, bs, "input"), (4, 4))
        assert cur < prev
        prev = cur
    assert effective_bitwidth(BfpSpec(8, 3, 2, "input"), (8, 8)) < effective_bitwidth(
        BfpSpec(8, 3, 2, "input"), (4, 4)
    )
    with pytest.raises(CodecError):
        effective_bitwidth(BfpSpec(8, 3, 2, "input"), (0, 4))


def test_quantization_error_zero_for_representable():
    spec = BfpSpec(16, 4, 4, "weight")
    data = np.array([0.5, 1.0, -2.0, 0.25, 4.0, -8.0, 1.5, 3.0])
    err = quantization_error(data, spec)
    assert err.mse == 0.0
    assert err.max_abs_error == 0.0
    assert err.sqnr_db == math.inf


def test_quantization_error_constant_power_of_two():
    spec = BfpSpec(8, 6, 4, "weight")  # smallest mantissa the format allows
    err = quantization_error(np.full(64, 2.0), spec)
    assert err.max_abs_error == 0.0


def test_quantization_error_16bit_beats_8bit():
    rng = np.random.default_rng(23)
    worse = 0
    for i in range(50):
        data = rng.standard_normal(256)
        mse8 = quantization_error(data, BfpSpec(8, 3, 8, "weight")).mse
        mse16 = quantization_error(data, BfpSpec(16, 3, 8, "weight")).mse
        if mse16 > mse8:
            worse += 1
    assert worse == 0


def test_quantization_error_rejects_empty():
    with pytest.raises(CodecError):
        quantization_error(np.array([]), BfpSpec(8, 3, 2, "weight"))


def test_quantize_dequantize_matches_block_path():
    """A 0-d tensor holds one element, so it decodes like any other shape."""
    rng = np.random.default_rng(3)
    spec = BfpSpec(8, 4, 8, "input")
    for shape in ((100,), (4, 25), ()):
        data = rng.uniform(-1.9, 1.9, size=shape)
        via_blocks = decode_tensor(encode_tensor(data, spec))
        direct = quantize_dequantize(data, spec)
        assert via_blocks.shape == direct.shape == shape
        assert np.array_equal(via_blocks, direct)


# -- bit-exactness of the block kernel ------------------------------------------


@st.composite
def codec_cases(draw):
    """A format and a tensor built to hit the kernel's edge cases: partial last
    blocks, zeros (signed, whole blocks), subnormals, magnitudes from about
    1e-310 to 1e300, values just below a power of two (they round up across
    it), and exponent windows that saturate on either side."""
    qb = draw(st.sampled_from((8, 16)))
    spec = BfpSpec(
        qb,
        draw(st.integers(1, qb - 2)),
        draw(st.sampled_from((1, 2, 3, 5, 24, 48))),
        exp_bias=draw(st.one_of(st.just(0), st.integers(-1100, 1100))),
    )
    bs = spec.block_size
    n = draw(st.integers(1, 4 * bs + 3))
    scale = draw(st.integers(-1075, 990))  # binary exponent the values cluster around
    sign = st.sampled_from((1.0, -1.0))
    element = st.one_of(
        st.sampled_from((0.0, -0.0)),
        st.builds(lambda s, m, d: s * math.ldexp(m, scale + d), sign, st.floats(1.0, 2.0, exclude_max=True), st.integers(-12, 0)),
        st.builds(lambda s, k: s * math.ldexp(1.0 - 2.0**-k, scale), sign, st.integers(1, 20)),
    )
    if draw(st.booleans()):
        element = st.one_of(element, st.floats(-1e300, 1e300))
    data = np.array(draw(st.lists(element, min_size=n, max_size=n)))
    zero_block = draw(st.integers(-1, (n - 1) // bs))
    if zero_block >= 0:
        data[zero_block * bs : (zero_block + 1) * bs] = 0.0
    return spec, data


def assert_matches_frozen(got, data, spec):
    """``got`` is a scan of ``data`` at ``spec.block_size`` or ``data`` itself;
    both entries must reproduce the frozen codec bit for bit."""
    with np.errstate(over="ignore", under="ignore"):
        deq, want = quantize_dequantize(got, spec), frozen_quantize_dequantize(data, spec)
        enc, ref = encode_tensor(got, spec), frozen_encode_tensor(data, spec)
    assert deq.shape == want.shape
    assert np.array_equal(deq.view(np.int64), want.view(np.int64))  # -0.0 and 0.0 differ here
    assert [b.shared_exponent for b in enc.blocks] == [b.shared_exponent for b in ref.blocks]
    assert [b.mantissas for b in enc.blocks] == [b.mantissas for b in ref.blocks]
    assert [b.saturated for b in enc.blocks] == [b.saturated for b in ref.blocks]
    assert enc.saturated_blocks == ref.saturated_blocks
    assert enc == ref


@settings(settings.get_profile("seeded"), max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(codec_cases())
def test_kernel_matches_frozen_vectorized_codec_bitwise(case):
    spec, data = case
    assert_matches_frozen(data, data, spec)
    # One scan serves every shared-exponent width of its block size.
    blocks = scan_blocks(data, spec.block_size)
    for se in range(1, spec.total_bits - 1):
        assert_matches_frozen(blocks, data, replace(spec, exp_bits=se))


@pytest.mark.parametrize("bs", [1, 3, 8, 48])
def test_scan_edge_cases_match_frozen_codec(bs):
    rng = np.random.default_rng(bs)
    relu = np.maximum(rng.standard_normal(10 * bs + 1), 0.0) * 0.25
    zeros = np.zeros(3 * bs)
    tiny = np.array([5e-324, -2.0**-1070, 0.0, 1e-310] * bs)
    huge = np.array([1e30, -1e30, 0.0, 3.0] * bs)
    # At SE 2 the largest exponent sits at the window's top and 3.99 bumps past it.
    top = np.array([3.99, 0.3, -0.26, 1.0] * bs)
    for data in (relu, zeros, tiny, huge, top):
        blocks = scan_blocks(data, bs)
        for qb in (8, 16):
            for se in range(1, qb - 1):
                for bias in (0, -1000, 1000):
                    assert_matches_frozen(blocks, data, BfpSpec(qb, se, bs, exp_bias=bias))


def test_blocks_of_another_block_size_are_rejected():
    blocks = scan_blocks(np.linspace(-1.0, 1.0, 16), 4)
    assert quantize_dequantize(blocks, BfpSpec(8, 3, 4)).shape == (16,)
    for bs in (2, 8):
        with pytest.raises(CodecError, match="block_size=4"):
            quantize_dequantize(blocks, BfpSpec(8, 3, bs))
        with pytest.raises(CodecError, match="block_size=4"):
            encode_tensor(blocks, BfpSpec(8, 3, bs))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bs", [1, 3, 24])
def test_non_finite_anywhere_is_rejected(bad, bs):
    spec = BfpSpec(8, 3, bs, "input")
    for n in (1, bs, 2 * bs + 1):  # whole blocks and a padded last block
        for pos in range(n):
            data = np.linspace(-1.0, 1.0, n)
            data[pos] = bad
            with pytest.raises(CodecError):
                quantize_dequantize(data, spec)
            with pytest.raises(CodecError):
                encode_tensor(data, spec)


@st.composite
def small_block_cases(draw):
    """Block sizes 1-4 (the column passes and the first broadcast size) with
    ragged tails, and a narrow exponent window centred in the data, so blocks
    leave it in both directions; some zeros and whole zero blocks."""
    qb = draw(st.sampled_from((8, 16)))
    bs = draw(st.integers(1, 4))
    centre = draw(st.integers(-1000, 1000))
    spec = BfpSpec(qb, draw(st.integers(1, 3)), bs, "input", exp_bias=centre)
    n = draw(st.integers(1, 6 * bs + 3))
    element = st.one_of(
        st.just(0.0),
        st.builds(lambda s, m, e: s * math.ldexp(m, centre + e), st.sampled_from((1.0, -1.0)),
                  st.floats(1.0, 2.0, exclude_max=True), st.integers(-20, 20)),
    )
    data = np.array(draw(st.lists(element, min_size=n, max_size=n)))
    zero_block = draw(st.integers(-1, (n - 1) // bs))
    if zero_block >= 0:
        data[zero_block * bs : (zero_block + 1) * bs] = 0.0
    return spec, data


@settings(settings.get_profile("seeded"), max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(small_block_cases())
def test_small_block_sizes_and_reused_buffer_match_frozen_codec(case):
    spec, data = case
    blocks = scan_blocks(data, spec.block_size)
    with np.errstate(over="ignore", under="ignore"):
        want = frozen_quantize_dequantize(data, spec)
        power = float(np.mean(data * data))
        sq = (data - want) ** 2
        want_mse = 0.0 if power == 0.0 else float(np.mean(sq)) / power  # the np.mean formula
        for se in (spec.exp_bits, 1):  # the buffer holds the previous format's round trip
            assert_matches_frozen(blocks, data, replace(spec, exp_bits=se))
            deq = quantize_dequantize(blocks, replace(spec, exp_bits=se), out=blocks.roundtrip)
            assert np.shares_memory(deq, blocks.roundtrip)
            assert np.array_equal(deq.view(np.int64), frozen_quantize_dequantize(data, replace(spec, exp_bits=se)).view(np.int64))
        got_mse = normalized_mse(blocks, spec, power)
        fresh_mse = normalized_mse(scan_blocks(data, spec.block_size), spec, power)  # a fresh scan, a fresh buffer
    bits = lambda x: np.float64(x).view(np.int64)
    assert bits(got_mse) == bits(want_mse) and bits(fresh_mse) == bits(want_mse)


def test_round_trip_buffer_must_fit_the_scan():
    blocks = scan_blocks(np.linspace(-1.0, 1.0, 10), 4)
    for bad in (np.empty((2, 4)), np.empty((3, 4), dtype=np.float32), np.empty(12)):
        with pytest.raises(CodecError, match="out must be"):
            quantize_dequantize(blocks, BfpSpec(8, 3, 4), out=bad)


@pytest.mark.parametrize("bs", [2, 8])
def test_formats_of_one_scan_reuse_its_round_trip_buffer(bs):
    # Every format after the first rounds into the scan's buffer, so it
    # allocates only per-block temporaries, and a scan plus five formats
    # peaks no higher than a scan plus one.  Measured above the sample.
    sample = np.random.default_rng(0).standard_normal(1 << 18)
    specs = [BfpSpec(8, se, bs, "input") for se in range(2, 7)]
    tracemalloc.start()
    try:
        blocks = scan_blocks(sample, bs)
        normalized_mse(blocks, specs[0], 1.0)
        one, held = tracemalloc.get_traced_memory()[1], tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for spec in specs[1:]:
            normalized_mse(blocks, spec, 1.0)
        five = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert five <= one + 1024, (five, one)  # 1 KiB for interpreter objects; a buffer is 256 KiB or more
    assert five - held < 0.5 * sample.nbytes, (five - held) / sample.nbytes


@pytest.mark.parametrize("se", [2, 5])
def test_block_size_one_temporaries_stay_bounded(se):
    # At block size 1 every per-block array is as long as the sample, so each
    # temporary the scan or the round trip allocates costs a sample-sized
    # buffer.  Measured above the sample itself; SE 2 saturates some blocks.
    sample = np.random.default_rng(0).standard_normal(1 << 20)
    before = sample.copy()
    power = signal_power(sample)  # taken once per sample, before its scans, as the search does
    tracemalloc.start()
    try:
        blocks = scan_blocks(sample, 1)
        scan_peak = tracemalloc.get_traced_memory()[1]
        normalized_mse(blocks, BfpSpec(8, se, 1, "input"), power)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan_peak <= 2.25 * sample.nbytes, scan_peak / sample.nbytes
    assert peak <= 3.75 * sample.nbytes, peak / sample.nbytes
    assert np.array_equal(sample, before)  # built in place, but never in the sample


def test_ragged_scan_holds_no_second_copy():
    # Only the partial last block is copied; the whole blocks are a view.
    rng = np.random.default_rng(1)
    peaks = {}
    for n in (48 * 6_666, 48 * 6_666 + 7):
        sample = rng.standard_normal(n)
        tracemalloc.start()
        try:
            blocks = scan_blocks(sample, 48)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(blocks.full, sample)
    ragged = 8 * (48 * 6_666 + 7)
    assert peaks[48 * 6_666 + 7] <= peaks[48 * 6_666] + 0.05 * ragged
    assert peaks[48 * 6_666 + 7] < 0.9 * ragged
