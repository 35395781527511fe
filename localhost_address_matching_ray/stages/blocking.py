"""Blocking stage — composite key emission with explicit hot-key salting.

Reference analog: the hierarchical constrained lookup — province constrains
district constrains neighbourhood (``static_parser.py:63-89``) — generalized
to composite blocking keys; and the duplicate-district union index
(``map.py:279-287``), the reference's acknowledgment that keys collide, which
here becomes hot-key detection + salting (north_rule: "explicit salting of
hot keys").

Keys are uint64 hashes precomputed by the feature stage (``block_hashes``):
one per MinHash LSH band (content channel) plus one for (lang, stem) (the
renamed-copy channel). Multi-pass blocking: the union of both key families
maximizes recall; pair dedup collapses the overlap.

**Bucketed shuffles.** Ray's ``groupby`` on a high-cardinality key pays a
per-key cost that dwarfs the actual counting, so every blocking shuffle here
is a hash-bucket fold over the key hash (``stages.buckets.bucket_fold``):
the shuffle sorts only the fold's few bucket tags, and the real per-key
work runs *vectorized inside the bucket* (numpy sort/diff). All rows of a
key land in one bucket by construction, so per-key semantics are preserved.

Skew handling is two-pass:

1. key-only flatten → bucketed count → per-key sizes; hot keys
   (``n > max_block_rows``) are collected to the driver (few by definition —
   bounded by corpus_size / max_block_rows) and broadcast via ``ray.put``.
2. the payload pass salts hot keys into ``mix(key, bucket)`` sub-keys with
   RING OVERLAP: every row of a hot key is emitted to its own sub-block AND
   to the next one (``bucket+1 mod n_sub``), so consecutive sub-blocks share
   half their rows and the whole hot key stays transitively connected — a
   deterministic bridge with bounded (2×) emission, no sampling math that
   could degenerate at extreme sizes. The sub-block count scales with the
   key's size so sub-blocks stay ~max_block_rows regardless of how hot the
   key is. PARTITIONING ASSUMPTION: a hot band-block is a near-clique (same
   MinHash band ⇒ near-identical content), so ring connectivity preserves
   the cluster; direct far-apart cross-sub-block pairs are intentionally
   traded away and the trade is logged in metrics.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray
import ray.data

from localhost_address_matching_ray.config import PipelineConfig
from localhost_address_matching_ray.functions.arrowbuf import (
    binary_col_matrix,
    hex16_col_to_u64,
)
from localhost_address_matching_ray.stages.buckets import bucket_fold

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _salted(kh: np.uint64 | int, salt: int) -> int:
    """Deterministic sub-key for a hot key: splitmix-style remix."""
    x = (np.uint64(kh) + np.uint64(salt + 1)) * _MIX
    return int(x ^ (x >> np.uint64(31)))


def _salted_arr(kh: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_salted` over uint64 arrays."""
    x = (kh + salt + np.uint64(1)) * _MIX
    return x ^ (x >> np.uint64(31))


def _stable_bucket(row_id: str, buckets: int) -> int:
    return int.from_bytes(hashlib.sha1(row_id.encode()).digest()[:4], "big") % buckets


def _splitmix_arr(x: np.ndarray) -> np.ndarray:
    """Full splitmix64 finalizer (Steele et al., public domain constants):
    unlike the one-round salting remix above, its low bits avalanche even
    for sequential inputs — required for modulo-based row sampling."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _flat_hashes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ``block_hashes`` list column → (row_index, key_hash)."""
    col = batch["block_hashes"].combine_chunks()
    kh = col.values.to_numpy(zero_copy_only=False).astype(np.uint64)
    lengths = np.diff(col.offsets.to_numpy(zero_copy_only=False))
    idx = np.repeat(np.arange(batch.num_rows), lengths)
    return idx, kh


def block_size_census(
    features: ray.data.Dataset, config: PipelineConfig, sample_div: int | None = None
) -> ray.data.Dataset:
    """``(kh, n)`` per blocking key — G2's hot-key-detection analog.
    Key-only flatten + per-batch partial counts + bucketed merge.

    The census only feeds hot-key detection, so it row-samples 1/sample_div
    of the corpus (deterministic row_id hash): a key above ``max_block_rows``
    still surfaces at ~size/div with overwhelming probability, and the
    shuffle shrinks by the same factor. ``n`` in the output is the
    scaled-back estimate. Pass ``sample_div=1`` for exact counts."""
    div = sample_div if sample_div is not None else config.census_sample_div

    def flatten(batch: pa.Table) -> pa.Table:
        if div > 1:
            # deterministic 1/div row sample, vectorized off the u64 rid
            # (splitmix remix — same family as the salting hash; falls back
            # to the per-row sha1 bucket only for non-16-hex ids)
            rids = hex16_col_to_u64(batch["row_id"])
            if rids is not None:
                rid_sel = _splitmix_arr(rids) % np.uint64(div) == 0
            else:
                rid_sel = np.array([
                    _stable_bucket(r, div) == 0
                    for r in batch["row_id"].to_pylist()
                ])
            batch = batch.filter(pa.array(rid_sel))
        _, kh = _flat_hashes(batch)
        # per-batch partial counts shrink the shuffle before it happens
        uniq, counts = np.unique(kh, return_counts=True)
        return pa.table({
            "kh": pa.array(uniq, pa.uint64()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    def count_bucket(group: pa.Table) -> pa.Table:
        kh = group["kh"].to_numpy(zero_copy_only=False)
        ns = group["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(kh, kind="stable")
        kh, ns = kh[order], ns[order]
        bounds = np.flatnonzero(np.diff(kh)) + 1
        starts = np.concatenate(([0], bounds))
        totals = np.add.reduceat(ns, starts)
        return pa.table({
            "kh": pa.array(kh[starts], pa.uint64()),
            "n": pa.array(totals * div, pa.int64()),
        })

    keys = features.select_columns(["row_id", "block_hashes"]).map_batches(
        # 4× the pipeline batch size: the per-batch np.unique partial
        # aggregation dedups better over bigger batches, shrinking the
        # census shuffle (keys repeat heavily on dup-rich corpora) at a
        # few MB of extra task heap
        flatten, batch_format="pyarrow", batch_size=config.batch_size * 4
    )
    return bucket_fold(keys, "kh", count_bucket)


def find_hot_keys(block_sizes: ray.data.Dataset, config: PipelineConfig) -> dict[int, int]:
    """Collect keys above the salting threshold (few by definition)."""
    hot = block_sizes.filter(expr=f"n > {config.max_block_rows}").take_all()
    return {int(r["kh"]): int(r["n"]) for r in hot}


def census_hot_and_multi(
    block_sizes: ray.data.Dataset, config: PipelineConfig
) -> tuple[dict[int, int], np.ndarray]:
    """ONE collect serving both census consumers (round-4: find_hot_keys +
    find_multi_keys were two driver-side dataset executions over the same
    materialized census — each execution costs serial driver latency):
    multi = sorted keys with n ≥ 2; hot = the n > max_block_rows subset of
    the same collected rows (hot ⊆ multi since max_block_rows ≥ 2)."""
    tbls = [
        t for t in ray.get(
            block_sizes.filter(expr="n >= 2").to_arrow_refs()
        )
        if t.num_rows > 0 and "kh" in t.column_names
    ]
    if not tbls:
        return {}, np.empty(0, dtype=np.uint64)
    kh = np.concatenate([
        t["kh"].to_numpy(zero_copy_only=False).astype(np.uint64) for t in tbls
    ])
    ns = np.concatenate([
        t["n"].to_numpy(zero_copy_only=False) for t in tbls
    ])
    order = np.argsort(kh)
    kh, ns = kh[order], ns[order]
    hot_mask = ns > config.max_block_rows
    hot = {
        int(k): int(n) for k, n in zip(kh[hot_mask], ns[hot_mask])
    }
    return hot, kh


def find_multi_keys(block_sizes: ray.data.Dataset) -> np.ndarray:
    """Sorted uint64 array of keys with ≥ 2 rows — requires an EXACT census
    (``sample_div=1``): a sampled census misses most small multi-row keys.

    Most key emissions land in singleton blocks (unique band hashes) that
    the pair stage drops AFTER the shuffle; broadcasting the multi-key set
    (8 B/key, O(duplicate rows) entries) lets the payload emitter drop them
    BEFORE it, shrinking the blocking shuffle by the singleton fraction."""
    tbls = [
        t for t in ray.get(
            block_sizes.filter(expr="n >= 2").to_arrow_refs()
        )
        if t.num_rows > 0 and "kh" in t.column_names
    ]
    if not tbls:
        return np.empty(0, dtype=np.uint64)
    return np.sort(np.concatenate([
        t["kh"].to_numpy(zero_copy_only=False).astype(np.uint64) for t in tbls
    ]))


class _PayloadEmitter:
    """Pass 2: (block_key, rid, sigp, sigp2, sigf) with salting — KEY-ONLY
    emission (candidates-then-verify: signatures are fetched for surviving
    candidate pairs in a separate narrow pass). ``rid`` is the 16-hex row_id
    as ONE uint64 (big-endian view preserves lexicographic order), so a key
    emission ships 28 B instead of 36 B with the string id — the blocking
    shuffle is the pipeline's largest, so the shrink is wall-clock.
    ``sigp``/``sigp2`` are the first 16 bytes of sig8 as two uint64s — a
    sort proxy that makes exact-duplicate rows adjacent inside large blocks
    so the windowed candidate generation finds them without all-pairs, and
    the large-block screen's compare bytes. Plain callable used as a
    stateless task fn — broadcast hot/multi arrays ride the object store
    (``ray.get`` of the same ref is cached per worker). Fully vectorized,
    including the hot-key salting path (splitmix sub-bucket of rid)."""

    def __init__(self, config: PipelineConfig, hot_ref, multi_ref=None) -> None:
        self.config = config
        self._hot_ref = hot_ref
        self._hot: tuple[np.ndarray, np.ndarray] | None = None
        self._multi_ref = multi_ref
        self._multi: np.ndarray | None = None

    @property
    def hot(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted hot-key array, matching sizes) — empty when nothing is hot."""
        if self._hot is None:
            if self._hot_ref is None:
                self._hot = (np.empty(0, np.uint64), np.empty(0, np.int64))
            else:
                self._hot = ray.get(self._hot_ref)
        return self._hot

    @property
    def multi(self) -> "np.ndarray | None":
        if self._multi is None and self._multi_ref is not None:
            self._multi = ray.get(self._multi_ref)
        return self._multi

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.config
        idx, kh = _flat_hashes(batch)
        # straight off the Arrow value buffers — no per-row Python objects
        # in this full-corpus pass. hex16_col_to_u64 does the per-value
        # width gate itself (mixed widths that sum to 16n, non-hex, nulls
        # all return None), so the contract error stays loud.
        rids = hex16_col_to_u64(batch["row_id"])
        if rids is None:
            raise ValueError(
                "blocking requires 16-hex-char row_ids (the normalize stage "
                "emits sha256[:16]); got a missing/mis-sized/non-hex id"
            )
        n_rows = batch.num_rows
        if n_rows:
            num_perm = cfg.num_perm
            s8 = binary_col_matrix(batch["sig8"], num_perm)
            if s8 is None or num_perm < 16:
                raise ValueError(
                    "blocking requires uniform sig8 values of >=16 bytes"
                )
            sp16 = (
                np.ascontiguousarray(s8[:, :16]).view(">u8")
                .astype(np.uint64).reshape(-1, 2)
            )
            sigp, sigp2 = sp16[:, 0], sp16[:, 1]
            # sigf: one uint64 FNV-style fold of the ENTIRE sig8 vector.
            # The pair stage's exact-duplicate chain skip needs "same full
            # signature", not "same 16-byte prefix": on vocab-sharing
            # corpora whole blocks share sigp/sigp2 while their full sigs
            # differ, and a prefix-based skip suppressed real candidates
            # (the chain edges between interleaved non-dups fail verify,
            # splintering true clusters — caught by the
            # corpus_linkage_clusters oracle).
            w8 = (num_perm // 8) * 8
            words = np.ascontiguousarray(s8[:, :w8]).view(np.uint64)
            sigf = np.full(n_rows, 0x9E3779B97F4A7C15, np.uint64)
            prime = np.uint64(0x100000001B3)
            for j in range(words.shape[1]):
                sigf = (sigf ^ words[:, j]) * prime
            if num_perm != w8:
                tail = np.zeros((n_rows, 8), np.uint8)
                tail[:, : num_perm - w8] = s8[:, w8:]
                sigf = (sigf ^ tail.view(np.uint64)[:, 0]) * prime
        else:
            sigp = sigp2 = sigf = np.empty(0, np.uint64)
        multi = self.multi
        if multi is not None and len(kh):
            # singleton-block suppression: only keys the exact census saw
            # ≥2 times enter the shuffle
            if len(multi):
                pos = np.minimum(np.searchsorted(multi, kh), len(multi) - 1)
                keep = multi[pos] == kh
            else:
                keep = np.zeros(len(kh), dtype=bool)
            idx, kh = idx[keep], kh[keep]

        hot_keys, hot_sizes = self.hot
        if len(hot_keys) and len(kh):
            pos = np.minimum(np.searchsorted(hot_keys, kh), len(hot_keys) - 1)
            is_hot = hot_keys[pos] == kh
            cold_i, cold_k = idx[~is_hot], kh[~is_hot]
            hi, hk = idx[is_hot], kh[is_hot]
            # sub-block count scales with the key's size so sub-blocks stay
            # ~max_block_rows/2 even for pathologically hot keys
            sizes = hot_sizes[pos[is_hot]]
            n_sub = np.maximum(
                cfg.salt_buckets, -(-sizes // (cfg.max_block_rows // 2))
            ).astype(np.uint64)
            h = rids[hi] * _MIX
            h ^= h >> np.uint64(33)
            b = h % n_sub
            k1 = _salted_arr(hk, b)
            # ring overlap: every hot row also joins the next sub-block
            k2 = _salted_arr(hk, (b + np.uint64(1)) % n_sub)
            key_arr = np.concatenate((cold_k, k1, k2))
            i_arr = np.concatenate((cold_i, hi, hi))
        else:
            key_arr = kh
            i_arr = idx

        return pa.table({
            "block_key": pa.array(key_arr, pa.uint64()),
            # i_arr may be empty (all emissions suppressed as singletons);
            # indexing with an empty array yields correct 0-row columns.
            "rid": pa.array(rids[i_arr], pa.uint64()),
            "sigp": pa.array(sigp[i_arr], pa.uint64()),
            "sigp2": pa.array(sigp2[i_arr], pa.uint64()),
            "sigf": pa.array(sigf[i_arr], pa.uint64()),
        })


def emit_block_rows(
    features: ray.data.Dataset,
    config: PipelineConfig,
    hot_keys: dict[int, int] | None = None,
    multi_keys: np.ndarray | None = None,
) -> ray.data.Dataset:
    """Pass 2: payload block rows, salted per ``hot_keys``. With
    ``multi_keys`` (from an exact census), singleton-block emissions are
    dropped BEFORE the shuffle; without it, they are dropped vectorized
    inside the pair stage's bucket groups — either way they never cost
    per-group Python calls."""
    hk = np.array(sorted((hot_keys or {}).keys()), dtype=np.uint64)
    hs = np.array([(hot_keys or {})[int(k)] for k in hk], dtype=np.int64)
    hot_ref = ray.put((hk, hs))
    multi_ref = ray.put(multi_keys) if multi_keys is not None else None
    return features.select_columns(
        ["row_id", "sig8", "block_hashes"]
    ).map_batches(
        _PayloadEmitter(config, hot_ref, multi_ref),
        batch_format="pyarrow", batch_size=config.batch_size,
    )
