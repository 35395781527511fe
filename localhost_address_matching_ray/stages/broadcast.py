"""Per-worker-process cache of one broadcast object.

Stateless ``map_batches`` tasks that read a ``ray.put`` bundle (a query
matrix, a verify bundle, a cluster map) fetch it here, so a worker process
pays the ``ray.get`` once per bundle rather than once per batch. The cache
holds ONE entry: a new ref clears the old one, so a long-lived session never
accumulates the bundles of finished runs. Two maps that stream at the same
time over different refs would refetch on every switch, so each caller's
map is separated from the next by a shuffle barrier or a collect."""

from __future__ import annotations

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
