"""Relational operators Ray Data lacks, built on the bucketed-groupby idiom.

``anti_join_keys`` / ``semi_join_keys`` are key-membership joins
(NOT EXISTS / EXISTS): keep each left row whose int64 key is absent from
(present in) the right-side key stream.  Ray's native ``Dataset.join``
has no anti/semi type, and a left-outer + null-filter would ship the full
right payload; instead both sides are reduced to what the predicate
needs — the right side to DISTINCT keys *per batch* (a combiner, so
duplicate-heavy rights shrink before the shuffle) — folded by key hash
(``stages.buckets.bucket_fold``) and resolved per bucket with one
``np.isin``.

Partitioning assumption: equal keys land in the same bucket (guaranteed by
hashing the key itself); bucket width only controls parallelism and is
the fold's cluster-relative width unless ``bucket_width`` is passed.  The
right side ships 8 bytes per distinct key per batch; the left ships only
the projected payload columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from localhost_address_matching_ray.stages.buckets import bucket_fold


def _membership_join(left, right, *, key, right_key, bucket_width, keep_present):
    # schema() of an all-empty Dataset is None — only then is the lazy path
    # unbuildable (no field types to project); an empty-but-typed left flows
    # through lazily and comes out empty, no driver count() needed
    left_schema = left.schema()
    if left_schema is None:
        return left
    out_fields = list(left_schema.base_schema)
    out_names = [f.name for f in out_fields]

    def mark_left(t: pa.Table) -> pa.Table:
        # A NULL key never matches in SQL (the correlated '=' is never
        # true); the fold buckets it as 0, and probe=2 marks the row so
        # per_bucket applies the null rule (anti keeps it, semi drops it)
        # regardless of what shares that bucket.
        probe = np.zeros(t.num_rows, np.int8)
        probe[pc.is_null(t[key]).to_numpy(zero_copy_only=False)] = 2
        return t.append_column("probe", pa.array(probe))

    def right_keys(t: pa.Table) -> pa.Table:
        arr = t[right_key]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        keys = np.unique(arr.drop_null().to_numpy(zero_copy_only=False))
        cols: dict[str, pa.Array] = {}
        for f in out_fields:
            if f.name == key:
                cols[f.name] = pa.array(keys, f.type)
            else:  # placeholder — never emitted; nulls keep the type honest
                cols[f.name] = pa.nulls(len(keys), f.type)
        return pa.table(cols).append_column(
            "probe", pa.array(np.ones(len(keys), np.int8))
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        probe = g["probe"].to_numpy(zero_copy_only=False)
        arr = g[key]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        # fill nulls BEFORE to_numpy: a null-bearing int64 column otherwise
        # degrades to float64+NaN and loses exactness above 2^53
        keys = arr.fill_null(0).to_numpy(zero_copy_only=False)
        present = np.isin(keys, keys[probe == 1])
        keep = (probe == 0) & (present if keep_present else ~present)
        if not keep_present:
            keep |= probe == 2  # NULL left key: NOT EXISTS is vacuously true
        return g.filter(pa.array(keep)).select(out_names)

    return bucket_fold(
        [left.map_batches(mark_left, batch_format="pyarrow"),
         right.map_batches(right_keys, batch_format="pyarrow")],
        key, per_bucket, bucket_width,
    )


def _bloom_of_right(right: ray.data.Dataset, right_key: str, m_bits: int):
    """Distributed Bloom build of the right key set: per-batch partial
    filters (one ``m_bits/8``-byte value per batch — a combiner, like the
    distinct-keys reduction) OR-merged on the driver. The collect is
    bounded by n_blocks × m_bits/8 (128 KiB per block at the default 2^20
    bits), not by row count."""
    from localhost_address_matching_ray.functions.sketch import (
        bloom_build,
        bloom_merge,
    )

    nbytes = m_bits // 8

    def partial(t: pa.Table) -> pa.Table:
        arr = t[right_key]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        keys = arr.drop_null().to_numpy(zero_copy_only=False)
        words = bloom_build(keys, m_bits)
        return pa.table({"bf": pa.array([words.tobytes()], pa.binary(nbytes))})

    merged = np.zeros(m_bits // 64, np.uint64)
    for ref in right.map_batches(partial, batch_format="pyarrow").to_arrow_refs():
        t = ray.get(ref)
        if t.num_columns == 0:
            continue
        for v in t["bf"].to_pylist():
            merged = bloom_merge(merged, np.frombuffer(v, np.uint64))
    return merged


def anti_join_keys(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    right_key: str,
    bucket_width: int | None = None,
    bloom_bits: int | None = None,
) -> ray.data.Dataset:
    """Rows of *left* whose ``key`` does NOT occur as *right*'s
    ``right_key`` (SQL ``NOT EXISTS``). Left columns pass through
    unchanged; the right side contributes nothing but key presence.

    ``bloom_bits`` (power-of-two, 64-divisible) turns on the Bloom
    prefilter: a merged filter of the right keys is broadcast, and left
    rows whose key the filter rules out — for an anti join, DEFINITE
    keeps, typically the vast majority — stream straight to the output
    with ZERO shuffle; only bloom-hits (true members + the fp rate) enter
    the exact bucketed join, so the result is bit-identical. Cost: the
    left is read twice (two pruned streaming passes) — worth it whenever
    shuffling the left dominates re-reading it."""
    if bloom_bits is None:
        return _membership_join(left, right, key=key, right_key=right_key,
                                bucket_width=bucket_width, keep_present=False)
    from localhost_address_matching_ray.functions.sketch import bloom_maybe

    ref = ray.put(_bloom_of_right(right, right_key, bloom_bits))

    def split(t: pa.Table, want_maybe: bool) -> pa.Table:
        arr = t[key]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
        keys = arr.fill_null(0).to_numpy(zero_copy_only=False)
        maybe = bloom_maybe(ray.get(ref), keys)
        # NULL left key: NOT EXISTS is vacuously true -> definite keep
        mask = (maybe & ~null_mask) if want_maybe else (~maybe | null_mask)
        return t.filter(pa.array(mask))

    definite = left.map_batches(
        lambda t: split(t, False), batch_format="pyarrow")
    candidates = left.map_batches(
        lambda t: split(t, True), batch_format="pyarrow")
    joined = _membership_join(candidates, right, key=key, right_key=right_key,
                              bucket_width=bucket_width, keep_present=False)
    return definite.union(joined)


def semi_join_keys(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    right_key: str,
    bucket_width: int | None = None,
    bloom_bits: int | None = None,
) -> ray.data.Dataset:
    """Rows of *left* whose ``key`` DOES occur in the right key stream
    (SQL ``EXISTS``) — same shuffle shape as :func:`anti_join_keys` with
    the membership mask inverted.

    With ``bloom_bits``, bloom-miss rows (definitely absent) are dropped
    before the shuffle in ONE streaming pass — the semi join needs no
    second read of the left, and only bloom-hits are shuffled into the
    exact membership join."""
    if bloom_bits is None:
        return _membership_join(left, right, key=key, right_key=right_key,
                                bucket_width=bucket_width, keep_present=True)
    from localhost_address_matching_ray.functions.sketch import bloom_maybe

    ref = ray.put(_bloom_of_right(right, right_key, bloom_bits))

    def keep_maybe(t: pa.Table) -> pa.Table:
        arr = t[key]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
        keys = arr.fill_null(0).to_numpy(zero_copy_only=False)
        # NULL key never matches EXISTS -> safe to drop here
        return t.filter(pa.array(bloom_maybe(ray.get(ref), keys) & ~null_mask))

    candidates = left.map_batches(keep_maybe, batch_format="pyarrow")
    return _membership_join(candidates, right, key=key, right_key=right_key,
                            bucket_width=bucket_width, keep_present=True)
