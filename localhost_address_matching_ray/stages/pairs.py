"""Pair generation + scoring — the in-block self-join, restructured as
CANDIDATES-THEN-VERIFY.

Reference analog: the best-match ranking semantics (rank candidates, take
best, ``static_parser.py:139-147``) generalized to all-pairs scoring within a
block. This is the engine's ONE large-large "join", expressed as a hash-bucket
fold over the block key (``stages.buckets.bucket_fold``) — never a cross join
(SURVEY.md §2.4).

Round-1 measured the 17-key-emission × ~160 B/row payload shuffle dominating
the 1M-row soak, so round 2 splits the stage:

1. **candidates** — the blocking shuffle carries only (block_key, rid u64,
   sigp); inside each hash bucket, runs of equal key are found by numpy
   sort/diff (singletons vanish in one mask — no per-group Python). Small
   blocks emit all pairs; large blocks sort by ``sigp`` (8-byte signature
   prefix: exact dups become adjacent) and emit a ±``cap`` window of
   following rows per row, which always includes the i→i+1 spanning chain —
   so a block's candidate graph is connected by construction and the degree
   cap can no longer disconnect true clusters (it bounds *extra* edges, not
   the chain). Overflowing blocks keep a prefix, logged never silent.
2. **verify** — a payload (the ``sig8`` signature, or in exact mode the
   ``tok64`` token set) and the path stem are fetched for ONLY the rows
   that appear in a candidate pair: broadcast fetch below
   ``verify_broadcast_max_rows`` involved rows (one id-sorted bundle rides
   the object store once), partitioned hash-join fetch above it. Both
   fetches feed one scorer; only its kernel differs by mode (a vectorized
   uint8-equality mean, or exact token-set Jaccard). Pairs whose
   score falls below ``jaccard_threshold`` but at/above
   ``rename_jaccard_floor`` get the Jaro-Winkler stem assist
   (``functions.similarity.jaro_winkler``, DuckDB-parity tested): similar
   stem + moderately-similar content ⇒ edge (the north-star's
   "batched Jaro-Winkler on path stems" kernel; honors
   ``config.stem_sim_threshold``).

Emits edges ``(u, v, score)`` with ``u < v``; duplicates across bands/key
families/buckets are collapsed by :func:`distinct_pairs`, the hash-bucket
fold keyed on ``(u, v)`` that every pair operator shares.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data

from localhost_address_matching_ray.config import PipelineConfig
from localhost_address_matching_ray.functions.arrowbuf import (
    binary_col_matrix,
    hex16_ids,
    one_array,
    s16_to_arrow,
    u64_to_hex16,
)
from localhost_address_matching_ray.functions.similarity import duckdb_round, jaro_winkler
from localhost_address_matching_ray.stages.broadcast import (
    cached_get,
    fetch_sorted,
    involved_ids,
)
from localhost_address_matching_ray.stages.buckets import bucket_fold

logger = logging.getLogger(__name__)

_EMPTY_EDGES = {
    "u": pa.array([], pa.string()),
    "v": pa.array([], pa.string()),
    "score": pa.array([], pa.float64()),
}

_EMPTY_SCORED = {
    "pu": pa.array([], pa.uint64()),
    "pv": pa.array([], pa.uint64()),
    "score": pa.array([], pa.float64()),
}

_EMPTY_PAIRS = {
    "pu": pa.array([], pa.uint64()),
    "pv": pa.array([], pa.uint64()),
}

def _unique_pairs(arr: np.ndarray) -> np.ndarray:
    """Distinct rows of an (n, 2) uint64 pair array.

    Sorts ONE mixed hash key (introsort on native u64 — ~3x faster than a
    two-key lexsort, ~50x faster than np.unique(axis=0)'s void-dtype sort),
    then masks value-equal neighbors. Hash collisions between DIFFERENT
    pairs cannot drop one (the mask compares actual values); the only
    effect of a collision is that a rare duplicate may survive — harmless
    for idempotent consumers (scoring, connected components)."""
    if len(arr) <= 1:
        return arr
    key = arr[:, 0] * np.uint64(0x9E3779B97F4A7C15) ^ arr[:, 1] * np.uint64(
        0xC2B2AE3D27D4EB4F
    )
    a = arr[np.argsort(key)]
    keep = np.concatenate(([True], (a[1:] != a[:-1]).any(axis=1)))
    return a[keep]


def _binary_u64_parts(col) -> tuple[np.ndarray, np.ndarray]:
    """Variable-width binary column of packed u64s → (row offsets in u64
    units, flat u64 values), zero-copy off the Arrow buffers; fails loudly
    if any value's width is not a multiple of 8 (token sets are whole
    u64s by construction — drift means a schema bug, not data)."""
    col = one_array(col)
    bufs = col.buffers()
    off_b = np.frombuffer(bufs[1], dtype=np.int32)[
        col.offset : col.offset + len(col) + 1
    ].astype(np.int64)
    if np.any(np.diff(off_b) % 8):
        raise ValueError(
            "packed token-set width drift: a binary value is not a whole "
            "number of uint64s — tok64 packing / schema mismatch"
        )
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    start = off_b[0]
    flat = np.ascontiguousarray(data[start : off_b[-1]]).view(np.uint64)
    return (off_b - start) // 8, flat


def _tok_list_to_binary(col) -> pa.Array:
    """``list<uint64>`` token-set column → variable-width ``binary`` (the
    u64s' native bytes), built from buffers with no per-row Python. Binary
    columns ride Arrow hash joins and ``take``; list columns are rejected as
    non-key join fields — this is what lets exact-mode verify scale past the
    broadcast ceiling."""
    col = one_array(col)
    offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = col.values.to_numpy(zero_copy_only=False).astype(np.uint64)
    base = offs[0]  # sliced arrays: offsets are absolute into values
    if (offs[-1] - base) * 8 > np.iinfo(np.int32).max:
        raise ValueError(
            "packed token-set batch exceeds int32 binary offsets "
            f"({(offs[-1] - base) * 8} bytes) — lower the batch size"
        )
    rel = ((offs - base) * 8).astype(np.int32)
    data = np.ascontiguousarray(vals[base:offs[-1]]).view(np.uint8)
    return pa.Array.from_buffers(
        pa.binary(), len(col),
        [None, pa.py_buffer(rel), pa.py_buffer(data)],
    )


def _intersection_counts(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|A ∩ B|, |A|, |B|) per row of two aligned packed-u64 set columns
    (:func:`_tok_list_to_binary`) whose sets hold unique values: one
    lexsort of the concatenated (row, value) stream, and adjacent equal
    values inside a row count the intersection. The shared kernel of the
    flagship's exact verify and ``docs_ops.minhash_lsh_pairs``."""
    offu, valu = _binary_u64_parts(a)
    offv, valv = _binary_u64_parts(b)
    lu, lv = np.diff(offu), np.diff(offv)
    n = len(lu)
    seg = np.concatenate((np.repeat(np.arange(n), lu), np.repeat(np.arange(n), lv)))
    val = np.concatenate((valu, valv))
    o = np.lexsort((val, seg))
    seg, val = seg[o], val[o]
    dup = (seg[1:] == seg[:-1]) & (val[1:] == val[:-1])
    return np.bincount(seg[1:][dup], minlength=n), lu, lv


def _candidate_pairs_factory(config: PipelineConfig):
    window = config.candidate_window
    screen_min = config.screen_min_matches
    screen_cap = config.screen_degree_cap
    # The off>1 / screen "already chain-connected" skip is only sound when
    # signature equality GUARANTEES the chain edges verify: in estimate
    # mode an equal-sigf run scores est = 1.0 end to end, so skipping its
    # off>1 pairs loses nothing. In exact mode equal signatures do NOT
    # imply token-set equality (shared-vocab corpora collide whole OPH
    # lanes), so every window offset is emitted.
    skip_dup_runs = config.verify_mode != "exact"

    def pairs_bucket(group: pa.Table) -> pa.Table:
        """One hash bucket of block rows → candidate pairs.

        Two vectorized passes after one lexsort by (block_key, sigp, id):

        * **window** — candidates are the offset positions ``(i, i+off)``,
          off = 1..window, that share a block: ``window`` numpy passes over
          the whole bucket, no Python call per block (buckets hold 10⁴-10⁵
          tiny blocks; per-block overhead was the stage's cost). Offset 1 is
          the spanning chain — block candidate graphs are connected by
          construction; offsets ≥ 2 skip equal-sigp runs (exact-dup chains).
        * **screen** — blocks larger than window+1 (diverse stem blocks,
          salted sub-blocks) additionally run an all-pairs similarity screen
          over the 16 folded sig bytes each block row carries: pairs
          matching ≥ screen_min of 16 bytes become candidates, first
          `screen_degree_cap` per row (transitivity connects near-cliques).
          This restores the long-range recall windowing alone lost (a
          similar pair > window apart in sort order) at O(k²·16) byte ops
          per large block — vectorized, bounded by salting's k ≤ ~max_block
          rows, and orders of magnitude cheaper than shuffling the pairs a
          full-signature carry would cost.
        """
        n = group.num_rows
        if n < 2:
            return pa.table(_EMPTY_PAIRS)
        kh = group["block_key"].to_numpy(zero_copy_only=False)
        sigp = group["sigp"].to_numpy(zero_copy_only=False)
        sigp2 = group["sigp2"].to_numpy(zero_copy_only=False)
        sigf = group["sigf"].to_numpy(zero_copy_only=False)
        # rid is the uint64 view of the 16-hex row_id (blocking emits it
        # pre-converted so the string never rides the blocking shuffle)
        ids = group["rid"].to_numpy(zero_copy_only=False)
        # sigf is IN the sort key (between sigp and ids): the off>1 skip
        # reasons about runs of equal full signatures, which are only runs
        # if the sort makes them contiguous — with sigp-only ordering, two
        # equal-sig rows interleaved with a same-prefix different-sig row
        # would have their (guaranteed-est-1.0) off=2 pair skipped while
        # both chain edges fail verify, splintering the cluster
        order = np.lexsort((ids, sigf, sigp, kh))
        kh = kh[order]; ids = ids[order]; sigp = sigp[order]; sigp2 = sigp2[order]
        sigf = sigf[order]
        chunks: list[np.ndarray] = []
        for off in range(1, min(window, n - 1) + 1):
            same = kh[:-off] == kh[off:]
            if off > 1 and skip_dup_runs:
                # skip only FULL-signature-equal runs (est = 1.0, chain
                # verifies at any threshold) — a 16-byte prefix match is
                # not enough (see _PayloadEmitter.sigf)
                same = same & (sigf[:-off] != sigf[off:])
            if not same.any():
                continue
            a, b = ids[:-off][same], ids[off:][same]
            ne = a != b
            a, b = a[ne], b[ne]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            chunks.append(np.stack([lo, hi], axis=1))

        # large-block screen
        bounds = np.flatnonzero(np.diff(kh)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        big = np.flatnonzero((ends - starts) > window + 1)
        for bi in big:
            s, e = int(starts[bi]), int(ends[bi])
            k = e - s
            bids = ids[s:e]
            B = np.ascontiguousarray(
                np.stack([sigp[s:e], sigp2[s:e]], axis=1)
            ).view(np.uint8).reshape(k, 16)
            sf_ = sigf[s:e]
            pos = np.arange(k)
            # row-chunked so the (chunk, k, 16) broadcast stays small
            for c0 in range(0, k, 256):
                c1 = min(c0 + 256, k)
                eq = (B[c0:c1, None, :] == B[None, :, :]).sum(
                    axis=2, dtype=np.int16
                )
                m = eq >= screen_min
                # only beyond the window pass's reach, upper triangle
                m &= (pos[None, :] - pos[c0:c1, None]) > window
                if skip_dup_runs:
                    # FULL-signature-equal runs are chain-connected
                    # already (est = 1.0 ⇒ every chain edge verifies)
                    m &= sf_[c0:c1, None] != sf_[None, :]
                # tight degree cap: first `screen_cap` screened partners
                m &= np.cumsum(m, axis=1) <= screen_cap
                ii, jj = np.nonzero(m)
                if len(ii) == 0:
                    continue
                a, b = bids[ii + c0], bids[jj]
                ne = a != b
                a, b = a[ne], b[ne]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                chunks.append(np.stack([lo, hi], axis=1))

        if not chunks:
            return pa.table(_EMPTY_PAIRS)
        pairs = _unique_pairs(np.concatenate(chunks))
        return pa.table({
            "pu": pa.array(pairs[:, 0], pa.uint64()),
            "pv": pa.array(pairs[:, 1], pa.uint64()),
        })

    return pairs_bucket


def candidate_pairs(blocks: ray.data.Dataset, config: PipelineConfig) -> ray.data.Dataset:
    """Key-only blocking rows → in-bucket-distinct candidate pairs (uint64).

    Pairs are deduped within each blocking bucket (np.unique over the
    bucket's blocks); the residual cross-bucket duplicates (the same pair
    arising in key-family blocks that hash to different buckets) are scored
    redundantly — scoring is a vectorized byte compare, far cheaper than an
    extra all-to-all dedup shuffle of the full candidate stream — and
    collapsed on the smaller verified EDGE stream in :func:`verify_edges`
    (2.87 scored rows per distinct edge on the ``link_hot`` benchmark
    corpus, seed 1)."""
    return bucket_fold(blocks, "block_key", _candidate_pairs_factory(config))


def distinct_pairs(
    ds: ray.data.Dataset, nb: int | None = None, u: str = "u", v: str = "v",
    keep_max: str | None = None,
) -> ray.data.Dataset:
    """One row per distinct ``(u, v)`` of a pair stream, other columns
    carried along: a hash-bucket fold keyed on ``(u, v)``, one lexsort per
    bucket — never a ``groupby([u, v])`` (Ray's per-key groupby floor).
    Which copy of a pair survives is arbitrary unless ``keep_max`` names a
    column, whose largest value then wins. ``nb`` is the fold's width
    (``None``: the cluster-relative default)."""

    def fold(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g
        a = g[u].to_numpy(zero_copy_only=False)
        b = g[v].to_numpy(zero_copy_only=False)
        keys = (b, a) if keep_max is None else (
            -g[keep_max].to_numpy(zero_copy_only=False), b, a
        )
        order = np.lexsort(keys)
        a, b = a[order], b[order]
        first = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
        return g.take(pa.array(order[first]))

    return bucket_fold(ds, [u, v], fold, nb)


def _row_ids(t: pa.Table) -> np.ndarray:
    return hex16_ids(t["row_id"])


def _sig_agreement(num_perm: int):
    """Estimate-mode kernel: the share of equal bytes between two aligned
    columns of ``num_perm``-byte folded MinHash signatures."""

    def kernel(a, b) -> np.ndarray:
        su, sv = binary_col_matrix(a, num_perm), binary_col_matrix(b, num_perm)
        if su is None or sv is None:
            # None means some value is not num_perm bytes: comparing
            # misaligned bytes would be a silently wrong Jaccard
            raise ValueError(
                f"signature width drift: expected {num_perm}-byte sig8 values "
                "— feature stage / config.num_perm mismatch (stale checkpoint?)"
            )
        return (su == sv).mean(axis=1)

    return kernel


def _token_jaccard(a, b) -> np.ndarray:
    """Exact-mode kernel: token-set Jaccard of two aligned packed ``tok64``
    columns, DuckDB-rounded to 6 places BEFORE the threshold, so the edge
    predicate matches the corpus_linkage_clusters SQL oracle bit for bit."""
    inter, lu, lv = _intersection_counts(a, b)
    union = lu + lv - inter
    return duckdb_round(np.where(union > 0, inter / np.maximum(union, 1), 1.0), 6)


def _payload(config: PipelineConfig):
    """(feature column, its packing into the binary column both endpoint
    fetches carry, the kernel that scores two aligned packed columns)."""
    if config.verify_mode == "exact":
        # the feature stage emits tok64 (sorted-unique uint64 token
        # hashes) only in exact mode
        return "tok64", _tok_list_to_binary, _token_jaccard
    return "sig8", one_array, _sig_agreement(config.num_perm)


def _scorer(config: PipelineConfig):
    """Pairs with both endpoints attached — (pu, pv, pay_u, stem_u, pay,
    stem), from either fetch — → thresholded (pu, pv, score). A pair below
    ``jaccard_threshold`` but at or above ``rename_jaccard_floor`` passes
    when its path stems' Jaro-Winkler similarity reaches
    ``stem_sim_threshold`` (a borderline band: few pairs)."""
    kernel = _payload(config)[2]
    threshold = config.jaccard_threshold
    floor = config.rename_jaccard_floor
    stem_thr = config.stem_sim_threshold

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(_EMPTY_SCORED)
        est = kernel(t["pay_u"], t["pay"])
        accept = est >= threshold
        assist = np.flatnonzero((~accept) & (est >= floor))
        if len(assist):
            idx = pa.array(assist)
            stems = zip(t["stem_u"].take(idx).to_pylist(), t["stem"].take(idx).to_pylist())
            for i, (a, b) in zip(assist, stems):
                if jaro_winkler(a, b) >= stem_thr:
                    accept[i] = True
        keep = pa.array(np.flatnonzero(accept))
        return pa.table({
            "pu": t["pu"].take(keep),
            "pv": t["pv"].take(keep),
            "score": pa.array(est, pa.float64()).take(keep),
        })

    return score


def _verify_broadcast(
    pairs: ray.data.Dataset, features: ray.data.Dataset,
    involved: "np.ndarray | None", config: PipelineConfig,
) -> ray.data.Dataset:
    """Broadcast endpoint fetch: the packed payload and stem of the involved
    rows (``involved=None``: every row) ride the object store once as one
    id-sorted bundle, and each pair batch finds both endpoints by
    ``searchsorted``. Emits the thresholded (pu, pv, score) stream, which
    may still carry cross-bucket duplicate pairs."""
    col, pack, _ = _payload(config)
    got = fetch_sorted(
        features.select_columns(["row_id", col, "stem"]), involved, _row_ids
    )
    if got is None:
        return ray.data.from_arrow(pa.table(_EMPTY_SCORED))
    ids, ft = got
    bundle_ref = ray.put((ids, pack(ft[col]), one_array(ft["stem"])))
    score = _scorer(config)

    def attach_and_score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(_EMPTY_SCORED)
        ids, pay, stems = cached_get(bundle_ref)
        pu = batch["pu"].to_numpy(zero_copy_only=False)
        pv = batch["pv"].to_numpy(zero_copy_only=False)
        # clamp + mask: a candidate id absent from the bundle is DROPPED
        # (as in the join path), never scored against a neighboring row
        iu = np.minimum(np.searchsorted(ids, pu), len(ids) - 1)
        iv = np.minimum(np.searchsorted(ids, pv), len(ids) - 1)
        hit = (ids[iu] == pu) & (ids[iv] == pv)
        iu, iv = pa.array(iu[hit]), pa.array(iv[hit])
        return score(pa.table({
            "pu": pa.array(pu[hit], pa.uint64()),
            "pv": pa.array(pv[hit], pa.uint64()),
            "pay_u": pay.take(iu), "stem_u": stems.take(iu),
            "pay": pay.take(iv), "stem": stems.take(iv),
        }))

    return pairs.map_batches(
        attach_and_score, batch_format="pyarrow", batch_size=16384,
    )


def _verify_join(
    pairs: ray.data.Dataset, features: ray.data.Dataset, config: PipelineConfig,
) -> ray.data.Dataset:
    """Scale fallback above the broadcast ceiling: two partitioned hash
    joins attach each endpoint's packed payload and stem to every pair
    (each ships once per pair occurrence, so callers dedup pairs first),
    then the broadcast path's scorer runs on the joined batches."""
    from localhost_address_matching_ray.stages.cluster import _JOIN_ARGS, _partitions_for

    col, pack, _ = _payload(config)

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table({
            "rid": pa.array(_row_ids(t), pa.uint64()),
            "pay": pack(t[col]),
            "stem": t["stem"],
        })

    slim = features.select_columns(["row_id", col, "stem"]).map_batches(
        keyed, batch_format="pyarrow",
    ).materialize()
    parts = _partitions_for(max(pairs.count(), 1))
    j1 = pairs.join(
        slim, join_type="inner", num_partitions=parts,
        on=("pu",), right_on=("rid",), **_JOIN_ARGS,
    ).map_batches(
        lambda t: pa.table({
            "pu": t["pu"], "pv": t["pv"], "pay_u": t["pay"], "stem_u": t["stem"],
        }),
        batch_format="pyarrow",
    )
    return j1.join(
        slim, join_type="inner", num_partitions=parts,
        on=("pv",), right_on=("rid",), **_JOIN_ARGS,
    ).map_batches(_scorer(config), batch_format="pyarrow")


def _hex_edges(scored: ray.data.Dataset) -> ray.data.Dataset:
    """(pu, pv, score) uint64 edges → the stage's (u, v, score) edges with
    16-hex string ids."""

    def to_hex(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(_EMPTY_EDGES)
        return pa.table({
            "u": s16_to_arrow(u64_to_hex16(t["pu"].to_numpy(zero_copy_only=False))),
            "v": s16_to_arrow(u64_to_hex16(t["pv"].to_numpy(zero_copy_only=False))),
            "score": t["score"],
        })

    return scored.map_batches(to_hex, batch_format="pyarrow")


def _tok64_volume(features: ray.data.Dataset) -> int:
    """Total token count of the tok64 column (one narrow distributed pass —
    per-block list-offset spans summed on the driver)."""

    def cnt(t: pa.Table) -> pa.Table:
        col = t["tok64"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        n = int(offs[-1] - offs[0]) if len(offs) else 0
        return pa.table({"n": pa.array([n], pa.int64())})

    out = features.select_columns(["tok64"]).map_batches(
        cnt, batch_format="pyarrow"
    ).sum("n")
    return int(out or 0)


def verify_edges(
    pairs: ray.data.Dataset, features: ray.data.Dataset, config: PipelineConfig,
) -> ray.data.Dataset:
    """Candidate pairs (uint64, cross-bucket duplicates allowed) →
    thresholded DISTINCT edges (u, v, score).

    On the broadcast path cross-bucket duplicates are scored REDUNDANTLY —
    the scoring kernel is vectorized and fully parallel — and dedup happens
    on the verified EDGE stream, which is smaller than the candidate stream. The
    duplicate factor depends on the corpus: in-bucket dedup already
    collapsed the band-level copies, yet on the ``link_hot`` benchmark
    corpus (seed 1) 1,012,385 scored rows collapse to 353,301 distinct
    edges, 2.87×. The former
    shape (driver collect + single-threaded np.argsort dedup of the raw
    pair stream) measured ~15 s of serial wall at the 1M soak — the single
    largest non-scaling term in the 4→16 CPU efficiency. Above the
    broadcast ceiling, pairs ARE deduped first (a join fetch pays per
    pair), then fetched via partitioned hash joins."""
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return ray.data.from_arrow(pa.table(_EMPTY_EDGES))
    exact = config.verify_mode == "exact"
    # exact bundles carry whole token sets, not 128 B signatures — the row
    # ceiling alone could admit a multi-GB driver collect, so gate the
    # broadcast on total token volume too (one narrow pass over the
    # materialized features)
    broadcast_ok = (not exact) or (
        _tok64_volume(features) <= config.exact_broadcast_max_tokens
    )
    ceiling = config.verify_broadcast_max_rows
    if broadcast_ok:
        # when the WHOLE feature table fits the ceiling, the involved set
        # can't not fit — skip computing it (at the 1M soak involved == all
        # rows and the involved pass cost 3 s of driver wall for a no-op
        # filter)
        involved = (
            None if features.count() <= ceiling
            else involved_ids(pairs, "pu", "pv")
        )
        if involved is None or len(involved) <= ceiling:
            scored = _verify_broadcast(pairs, features, involved, config)
            return _hex_edges(distinct_pairs(scored, u="pu", v="pv"))
    logger.info(
        "verify_edges: broadcast ceiling exceeded (rows or token volume) — "
        "join path",
    )
    distinct = distinct_pairs(pairs, u="pu", v="pv")
    return _hex_edges(_verify_join(distinct, features, config))


def candidate_edges(
    blocks: ray.data.Dataset,
    features: ray.data.Dataset,
    config: PipelineConfig,
) -> ray.data.Dataset:
    """Bucketed candidate generation → narrow endpoint fetch → vectorized
    verify → distinct edges (:func:`verify_edges` says where duplicate
    pairs are collapsed)."""
    return verify_edges(candidate_pairs(blocks, config), features, config)
