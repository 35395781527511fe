"""The hash-bucket fold: the one shape of every bucketed groupby.

Ray's ``groupby(key).map_groups(fn)`` pays one Python call (and one sort
key) per distinct key, which dwarfs the real work when keys are many and
small. :func:`bucket_fold` instead tags each row with ``hash(key) % nb``
inside the task of the map before it, groups by that low-cardinality tag
and hands ``fn`` whole buckets, which it folds with vectorized code
(numpy sort/diff, Arrow ``group_by``). Every key lands wholly in one
bucket, so per-key semantics hold for any width; the width only sets how
many groups the shuffle sorts and how much parallelism the fold gets.

This module alone decides the bucket hash and the bucket width:

* integer key columns are hashed by ``hashing.u64_bucket``'s 64-bit remix;
* string key columns by the package's stable sha256 token hash
  (``hashing.TokenHasher``), never by builtin ``hash()``, whose
  per-process salt would scatter one key across buckets;
* multi-column keys mix their per-column hashes;
* the width is ``config.bucket_width()``, resolved once on the driver when
  the fold is built and captured in the tag closure, so every task of one
  fold agrees on it even while an autoscaling cluster changes size.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import ray.data

from localhost_address_matching_ray.config import bucket_width
from localhost_address_matching_ray.functions.hashing import TokenHasher, u64_bucket

#: The tag column; dropped before ``fn`` sees a group.
_TAG = "__bucket"
_KEY_MIX = np.uint64(0xC2B2AE3D27D4EB4F)


def _column_hash(col, hasher: TokenHasher) -> np.ndarray:
    """uint64 hash of one key column, equal for equal values in any process."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return hasher.hash_token_array(col.fill_null("") if col.null_count else col)
    if pa.types.is_integer(col.type):
        if col.null_count:
            col = col.fill_null(0)
        return col.to_numpy(zero_copy_only=False).astype(np.uint64)
    raise TypeError(f"bucket keys must be integer or string columns, got {col.type}")


def _bucket_of(t: pa.Table, keys: Sequence[str], nb: int, hasher: TokenHasher) -> np.ndarray:
    """int32 bucket in ``[0, nb)`` of every row of ``t`` by its ``keys``."""
    h = _column_hash(t[keys[0]], hasher)
    for c in keys[1:]:
        h = h * _KEY_MIX ^ _column_hash(t[c], hasher)
    return u64_bucket(h, nb)


def bucket_fold(
    ds: ray.data.Dataset | Sequence[ray.data.Dataset],
    key: str | Sequence[str],
    fn: Callable[[pa.Table], pa.Table],
    nb: int | None = None,
) -> ray.data.Dataset:
    """``fn`` over hash buckets of ``ds`` by ``key`` (one or more integer or
    string columns): every row of one key reaches the same ``fn`` call,
    together with the rows of the other keys of its bucket, and without the
    tag column. A sequence of datasets is folded as their union, each tagged
    in the task of its own last map. ``nb=None`` is ``bucket_width()``,
    resolved here, on the driver."""
    keys = [key] if isinstance(key, str) else list(key)
    width = int(nb or bucket_width())
    hasher = TokenHasher()  # string keys: memoized per worker process

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(_TAG, pa.array(_bucket_of(t, keys, width, hasher)))

    def fold(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns([_TAG]))

    # map_groups names its operator after the function: keep fn's name
    fold.__name__ = getattr(fn, "__name__", "fold")
    parts = [ds] if isinstance(ds, ray.data.Dataset) else list(ds)
    tagged = [p.map_batches(tag, batch_format="pyarrow") for p in parts]
    merged = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return merged.groupby(_TAG).map_groups(fold, batch_format="pyarrow")


def keyed_fold(
    ds: ray.data.Dataset, key: str, sums: Sequence[str], count: str | None = None,
) -> ray.data.Dataset:
    """``groupby(key).aggregate(Sum(c) for c in sums[, Count])`` for a
    high-cardinality integer ``key``: one ``np.unique`` combiner per batch,
    then :func:`bucket_fold` of the partials. Output columns keep their
    names and types: each sum column holds its per-key sum, accumulated
    batch by batch and then bucket by bucket with ``np.add.at`` in its own
    dtype; ``count`` holds the per-key row count."""

    def combine(t: pa.Table) -> pa.Table:
        uniq, inv = np.unique(t[key].to_numpy(zero_copy_only=False), return_inverse=True)
        cols = {key: pa.array(uniq, t.schema.field(key).type)}
        for c in sums:
            v = t[c].to_numpy(zero_copy_only=False)
            s = np.zeros(len(uniq), dtype=v.dtype)
            np.add.at(s, inv, v)
            cols[c] = pa.array(s, t.schema.field(c).type)
        if count is not None:
            if count in t.column_names:  # fold: add up the partial counts
                n = np.zeros(len(uniq), dtype=np.int64)
                np.add.at(n, inv, t[count].to_numpy(zero_copy_only=False))
            else:  # combiner: count the raw rows
                n = np.bincount(inv, minlength=len(uniq))
            cols[count] = pa.array(n, pa.int64())
        return pa.table(cols)

    return bucket_fold(ds.map_batches(combine, batch_format="pyarrow"), key, combine)
