"""Mergeable cardinality sketches (HyperLogLog).

The exact running-distinct operator (``queries.events_cumulative_users``)
shuffles one row per (key, first-touch) — correct, but at 100 TB an
approximate answer is usually wanted at a fraction of the cost. HyperLogLog
(Flajolet, Fusy, Gandouet, Meunier 2007) is the standard mergeable sketch:
a fixed 2**p-byte register array per group whose elementwise MAX is exactly
the sketch of the union, so per-batch partial sketches combine through any
shuffle topology without error accumulation beyond the sketch's own
~1.04/sqrt(2**p) relative standard error.

Everything here is vectorized numpy over uint64 hashes; no per-row Python.
The register array is carried through Arrow as a FixedSizeBinary(2**p)
column — one value per group per batch, so a groupby-merge shuffle moves
|groups| x 4 KiB per batch (p=12), never the raw keys.

Approximate by construction — no SQL oracle exists (DuckDB's
``approx_count_distinct`` is its own HLL with different hashing); the
correctness surface is ``tests/test_sketch.py``: exact mergeability,
linear-counting small-range behavior, and measured relative error well
inside 3 sigma at several cardinalities.
"""

from __future__ import annotations

import numpy as np

HLL_P = 12  #: 4096 registers -> ~1.6% relative standard error
HLL_M = 1 << HLL_P


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Full splitmix64 finalizer: uniform, avalanching uint64 hash of an
    integer key array (the bucket fold's one-round remix is fine
    for bucketing but too weak for HLL's leading-zero statistics)."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _floor_log2(x: np.ndarray) -> np.ndarray:
    """Position of the highest set bit of uint64 ``x`` (x==0 -> -1), by
    vectorized binary search — float conversion would misround above 2**53
    at power-of-two boundaries, so stay in integers."""
    x = x.copy()
    out = np.full(x.shape, -1, np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        y = x >> np.uint64(s)
        m = y != 0
        out[m] += s
        x = np.where(m, y, x)
    out[x != 0] += 1
    return out


def hll_from_hashes(h: np.ndarray) -> np.ndarray:
    """Build a fresh register array (uint8[HLL_M]) from uniform uint64
    hashes: top p bits pick the register, the rank is 1 + the count of
    leading zeros in the remaining 64-p bits."""
    regs = np.zeros(HLL_M, np.uint8)
    if len(h) == 0:
        return regs
    h = h.astype(np.uint64)
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    w = h << np.uint64(HLL_P)  # remaining bits, left-aligned
    # leading zeros of w within 64 bits; w == 0 -> all 64-p bits are zero
    rank = np.where(w == 0, 64 - HLL_P + 1, 64 - 1 - _floor_log2(w) + 1)
    np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sketches — elementwise max, exactly associative and
    commutative (the property that makes any shuffle topology safe)."""
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> float:
    """Cardinality estimate with the paper's small-range (linear counting)
    correction; the large-range correction is unnecessary with 64-bit
    hashes."""
    m = float(HLL_M)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    inv = np.ldexp(1.0, -regs.astype(np.int64))  # exact 2**-reg
    e = alpha * m * m / float(inv.sum())
    if e <= 2.5 * m:
        v = int((regs == 0).sum())
        if v > 0:
            return m * float(np.log(m / v))
    return e


def hll_pack(regs_2d: np.ndarray):
    """(n_groups, HLL_M) uint8 -> Arrow FixedSizeBinary(HLL_M) column."""
    import pyarrow as pa

    regs_2d = np.ascontiguousarray(regs_2d, dtype=np.uint8)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(HLL_M), regs_2d.shape[0], [None, pa.py_buffer(regs_2d.tobytes())]
    )


def hll_unpack(col) -> np.ndarray:
    """Arrow FixedSizeBinary(HLL_M) column -> (n, HLL_M) uint8 view."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    buf = col.buffers()[1]
    flat = np.frombuffer(buf, dtype=np.uint8,
                         count=len(col) * HLL_M,
                         offset=col.offset * HLL_M)
    return flat.reshape(len(col), HLL_M)


# ---------------------------------------------------------------------------
# Bloom filter: mergeable membership prefilter.
#
# NO false negatives, tunable false-positive rate — so a membership join can
# split its left side BEFORE the shuffle: bloom-miss rows are definitively
# absent from the right side (anti join keeps them / semi join drops them
# with zero shuffle), and only bloom-hit rows (true members + fp rate) enter
# the exact bucketed join. Double hashing (Kirsch-Mitzenmacher 2006):
# k probe positions from two splitmix64-derived hashes, all vectorized.
# ---------------------------------------------------------------------------

BLOOM_K = 6  #: probes; with m/n >= 16 bits/key, fp rate < ~0.5%


def _bloom_probes(h: np.ndarray, m_bits: int):
    """Yield BLOOM_K index arrays for uniform uint64 hashes ``h``."""
    h1 = splitmix64(h)
    h2 = splitmix64(h ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
    for i in range(BLOOM_K):
        # wrapping uint64 arithmetic is intentional (deterministic mix)
        with np.errstate(over="ignore"):
            yield ((h1 + np.uint64(i) * h2) % np.uint64(m_bits)).astype(np.int64)


def bloom_build(keys: np.ndarray, m_bits: int) -> np.ndarray:
    """uint64 word array (m_bits/64) with the BLOOM_K bits of every key set."""
    assert m_bits % 64 == 0
    words = np.zeros(m_bits // 64, np.uint64)
    if len(keys) == 0:
        return words
    h = keys.astype(np.uint64)
    for idx in _bloom_probes(h, m_bits):
        np.bitwise_or.at(words, idx >> 6, np.uint64(1) << (idx & np.int64(63)).astype(np.uint64))
    return words


def bloom_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union — bitwise OR, exactly associative/commutative like HLL max."""
    return a | b


def bloom_maybe(words: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Bool mask: True = possibly present, False = DEFINITELY absent."""
    m_bits = len(words) * 64
    if len(keys) == 0:
        return np.zeros(0, bool)
    h = keys.astype(np.uint64)
    out = np.ones(len(keys), bool)
    for idx in _bloom_probes(h, m_bits):
        bit = (words[idx >> 6] >> (idx & np.int64(63)).astype(np.uint64)) & np.uint64(1)
        out &= bit.astype(bool)
    return out
