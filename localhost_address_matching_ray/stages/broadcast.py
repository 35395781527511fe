"""Per-worker-process cache of one broadcast object, and the endpoint fetch
every pair operator's verify shares: the sorted ids a pair stream touches
(:func:`involved_ids`) and the id-sorted rows it needs (:func:`fetch_sorted`).

Stateless ``map_batches`` tasks that read a ``ray.put`` bundle (a query
matrix, a verify bundle, a cluster map) fetch it here, so a worker process
pays the ``ray.get`` once per bundle rather than once per batch. The cache
holds ONE entry: a new ref clears the old one, so a long-lived session never
accumulates the bundles of finished runs. Two maps that stream at the same
time over different refs would refetch on every switch, so each caller's
map is separated from the next by a shuffle barrier or a collect."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

_CACHE: dict = {}


def cached_get(ref):
    """``ray.get(ref)``, cached per process under ``ref.hex()``; at most one
    entry lives at a time."""
    key = ref.hex()
    val = _CACHE.get(key)
    if val is None:
        _CACHE.clear()
        val = _CACHE[key] = ray.get(ref)
    return val


def involved_ids(pairs, u: str = "u", v: str = "v") -> np.ndarray:
    """Sorted unique endpoint ids of a pair stream: a per-batch unique runs
    in the workers, and the driver merges the per-batch uniques (ids only)
    instead of sorting the raw 2×pairs stream."""

    def uniq(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id": pa.array([], pa.uint64())})
        return pa.table({"id": np.unique(np.concatenate((
            t[u].to_numpy(zero_copy_only=False),
            t[v].to_numpy(zero_copy_only=False),
        )))})

    parts = [
        t["id"].to_numpy(zero_copy_only=False)
        for t in ray.get(pairs.map_batches(uniq, batch_format="pyarrow").to_arrow_refs())
        if t.num_rows
    ]
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate(parts))


def fetch_sorted(ds, involved, ids_of, prep=None) -> "tuple[np.ndarray, pa.Table] | None":
    """The rows of ``ds`` whose id is in ``involved`` (sorted, non-empty;
    None keeps every row), collected to the driver and sorted by id:
    ``(sorted ids, table in that order)``, or None when no row is left.
    ``ids_of(table)`` reads a table's ids; ``prep`` (with ``involved``) maps
    each filtered batch in the worker before the collect. The sorted ids let a verify scorer
    find each pair endpoint's row with one ``searchsorted``."""
    if involved is not None:
        inv_ref = ray.put(involved)

        def keep(t: pa.Table) -> pa.Table:
            keys = cached_get(inv_ref)
            ids = ids_of(t)
            pos = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
            t = t.filter(pa.array(keys[pos] == ids))
            return t if prep is None else prep(t)

        ds = ds.map_batches(keep, batch_format="pyarrow", batch_size=8192)
    tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tbls:
        return None
    tbl = pa.concat_tables(tbls).combine_chunks()
    ids = ids_of(tbl)
    order = np.argsort(ids)
    return ids[order], tbl.take(pa.array(order))
