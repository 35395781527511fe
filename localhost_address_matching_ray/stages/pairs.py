"""Pair generation + scoring — the in-block self-join, restructured as
CANDIDATES-THEN-VERIFY.

Reference analog: the best-match ranking semantics (rank candidates, take
best, ``static_parser.py:139-147``) generalized to all-pairs scoring within a
block. This is the engine's ONE large-large "join", expressed as a bucketed
``groupby(bucket).map_groups`` — never a cross join (SURVEY.md §2.4).

Round-1 measured the 17-key-emission × ~160 B/row payload shuffle dominating
the 1M-row soak, so round 2 splits the stage:

1. **candidates** — the blocking shuffle carries only (block_key, rid u64,
   sigp); inside each 64-way bucket, runs of equal key are found by numpy
   sort/diff (singletons vanish in one mask — no per-group Python). Small
   blocks emit all pairs; large blocks sort by ``sigp`` (8-byte signature
   prefix: exact dups become adjacent) and emit a ±``cap`` window of
   following rows per row, which always includes the i→i+1 spanning chain —
   so a block's candidate graph is connected by construction and the degree
   cap can no longer disconnect true clusters (it bounds *extra* edges, not
   the chain). Overflowing blocks keep a prefix, logged never silent.
2. **verify** — signatures (and path stems) are fetched for ONLY the rows
   that appear in a candidate pair: broadcast fetch below
   ``verify_broadcast_max_rows`` involved rows (sig8 matrix + stems ride the
   object store once), partitioned hash-join fetch above it. Scoring is one
   vectorized uint8-equality reduction per candidate batch. Pairs whose
   MinHash estimate falls below ``jaccard_threshold`` but at/above
   ``rename_jaccard_floor`` get the Jaro-Winkler stem assist
   (``functions.similarity.jaro_winkler``, DuckDB-parity tested): similar
   stem + moderately-similar content ⇒ edge (the north-star's
   "batched Jaro-Winkler on path stems" kernel; honors
   ``config.stem_sim_threshold``).

Emits edges ``(u, v, score)`` with ``u < v``; duplicates across bands/key
families/buckets are collapsed by a bucketed unique-max keyed on
``hash(u, v)``.
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
    hex16_col_to_u64,
)
from localhost_address_matching_ray.functions.similarity import jaro_winkler
from localhost_address_matching_ray.stages.broadcast import cached_get

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


def _hex16_to_u64(ids: list[str]) -> np.ndarray:
    """row_id (16 hex chars, sha256 prefix) → uint64; big-endian view keeps
    lexicographic order, so u64 compares == string compares.

    This is the fallback for when the Arrow buffer fast path returned None
    — i.e. exactly when some id is NOT uniformly 16 hex chars — so it must
    validate per-id: joining mixed-width ids and slicing the blob at 16-char
    boundaries would silently scramble keys across rows (the
    blocking._PayloadEmitter lesson), dropping candidate pairs downstream."""
    bad = [i for i in ids if len(i) != 16]
    if bad:
        raise ValueError(
            f"row_id must be 16 hex chars (pipeline contract; "
            f"functions.hashing assign_row_ids produces them): got e.g. "
            f"{bad[0]!r}"
        )
    return np.frombuffer(bytes.fromhex("".join(ids)), dtype=">u8").astype(np.uint64)


def _u64_to_hex(vals: np.ndarray) -> list[str]:
    return [format(int(v), "016x") for v in vals]


def _intersection_counts(
    seg: np.ndarray, val: np.ndarray, n_pairs: int
) -> np.ndarray:
    """|A ∩ B| per pair from one concatenated (pair, value) stream where
    each side's values are unique within its pair: one lexsort, adjacent
    equal values inside a pair count the intersection (the shared kernel of
    both exact-verify scorers; stages/docs_ops.py uses the same shape)."""
    o = np.lexsort((val, seg))
    seg_s, val_s = seg[o], val[o]
    dup = (seg_s[1:] == seg_s[:-1]) & (val_s[1:] == val_s[:-1])
    return np.bincount(seg_s[1:][dup], minlength=n_pairs)


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
        """One 64-way bucket of block rows → candidate pairs.

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


_PB_P1 = np.uint64(0x9E3779B97F4A7C15)
_PB_P2 = np.uint64(0xC2B2AE3D27D4EB4F)


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
    return blocks.groupby("bucket").map_groups(
        _candidate_pairs_factory(config), batch_format="pyarrow"
    )


def _slim_features(features: ray.data.Dataset) -> ray.data.Dataset:
    return features.select_columns(["row_id", "sig8", "stem"])


def _scorer_factory(bundle_ref, config: PipelineConfig):
    """Stateless-task scorer over the broadcast (ids, sig-matrix, stems)
    bundle, fetched once per worker process (numpy parts are zero-copy from
    plasma)."""
    threshold = config.jaccard_threshold
    floor = config.rename_jaccard_floor
    stem_thr = config.stem_sim_threshold

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(_EMPTY_SCORED)
        ids, sigs, stems = cached_get(bundle_ref)
        pu = batch["pu"].to_numpy(zero_copy_only=False)
        pv = batch["pv"].to_numpy(zero_copy_only=False)
        # clamp + mask: a candidate id absent from the fetched bundle is
        # DROPPED (same behavior as the join path) instead of raising
        # IndexError / silently scoring a neighboring row's signature
        iu = np.minimum(np.searchsorted(ids, pu), len(ids) - 1)
        iv = np.minimum(np.searchsorted(ids, pv), len(ids) - 1)
        hit = (ids[iu] == pu) & (ids[iv] == pv)
        if not hit.all():
            pu, pv, iu, iv = pu[hit], pv[hit], iu[hit], iv[hit]
            if len(pu) == 0:
                return pa.table(_EMPTY_SCORED)
        est = (sigs[iu] == sigs[iv]).mean(axis=1)
        accept = est >= threshold
        # Jaro-Winkler stem assist on the borderline band only (few pairs);
        # stems is an Arrow array — materialized per assist pair only
        assist = np.flatnonzero((~accept) & (est >= floor))
        for i in assist:
            if jaro_winkler(stems[iu[i]].as_py(), stems[iv[i]].as_py()) >= stem_thr:
                accept[i] = True
        keep = np.flatnonzero(accept)
        return pa.table({
            "pu": pa.array(pu[keep], pa.uint64()),
            "pv": pa.array(pv[keep], pa.uint64()),
            "score": pa.array(est[keep], pa.float64()),
        })

    return score


def _verify_broadcast(
    pairs: ray.data.Dataset, features: ray.data.Dataset,
    involved: "np.ndarray | None", config: PipelineConfig,
) -> ray.data.Dataset:
    """Fetch sig8/stem for involved rows via a filtered pass over features
    (``involved=None`` skips the filter — the whole table fits the bundle),
    broadcast the bundle, score pairs in stateless map_batches. Emits the
    SCORED uint64 stream (pu, pv, score) — thresholded but possibly still
    carrying cross-bucket duplicate pairs; callers dedup the (small) edge
    stream."""
    slim = _slim_features(features)
    if involved is not None:
        inv_ref = ray.put(involved)  # sorted uint64

        def fetch(batch: pa.Table) -> pa.Table:
            keys = ray.get(inv_ref)
            bids = hex16_col_to_u64(batch["row_id"])
            if bids is None:  # non-16-hex ids: scalar fallback
                bids = _hex16_to_u64(batch["row_id"].to_pylist())
            pos = np.minimum(np.searchsorted(keys, bids), len(keys) - 1)
            return batch.filter(pa.array(keys[pos] == bids))

        slim = slim.map_batches(fetch, batch_format="pyarrow", batch_size=8192)
    tbls = [
        t for t in ray.get(slim.to_arrow_refs())
        if t.num_rows > 0
    ]
    if not tbls:
        return ray.data.from_arrow(pa.table(_EMPTY_SCORED))
    ft = pa.concat_tables(
        [t.select(["row_id", "sig8", "stem"]) for t in tbls]
    ).combine_chunks()
    num_perm = config.num_perm
    # zero-copy-ish extraction straight from the Arrow buffers: row_id is
    # n·16 hex chars and sig8 n·num_perm bytes, both contiguous (the shared
    # helpers validate per-value widths so a malformed id fails loud)
    ids = hex16_col_to_u64(ft["row_id"])
    sigs = binary_col_matrix(ft["sig8"], num_perm)
    if ids is None or sigs is None:
        raise ValueError(
            "verify bundle requires 16-hex row_ids and uniform "
            f"{num_perm}-byte sig8 values"
        )
    order = np.argsort(ids)
    ids = ids[order]
    sigs = sigs[order]
    stems = ft["stem"].chunk(0).take(pa.array(order))  # arrow array: lazy .as_py per assist pair
    bundle_ref = ray.put((ids, sigs, stems))
    return pairs.map_batches(
        _scorer_factory(bundle_ref, config),
        batch_format="pyarrow", batch_size=16384,
    )


def _exact_scorer_factory(bundle_ref, config: PipelineConfig):
    """Exact token-set Jaccard scorer over the broadcast
    (ids, offsets, flat token hashes, stems) bundle — the
    ``verify_mode="exact"`` analog of :func:`_scorer_factory`. Each row's
    hashes are sorted-unique, so after one lexsort of the gathered
    (pair, value) stream, adjacent equal values within a pair count the
    intersection (stages/docs_ops.py kernel). The score is the
    DuckDB-rounded Jaccard, so the edge predicate matches the
    corpus_linkage_clusters SQL oracle bit-for-bit."""
    from localhost_address_matching_ray.functions.similarity import duckdb_round

    threshold = config.jaccard_threshold
    floor = config.rename_jaccard_floor
    stem_thr = config.stem_sim_threshold

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(_EMPTY_SCORED)
        ids, offs, flat, stems = cached_get(bundle_ref)
        pu = batch["pu"].to_numpy(zero_copy_only=False)
        pv = batch["pv"].to_numpy(zero_copy_only=False)
        iu = np.minimum(np.searchsorted(ids, pu), len(ids) - 1)
        iv = np.minimum(np.searchsorted(ids, pv), len(ids) - 1)
        hit = (ids[iu] == pu) & (ids[iv] == pv)
        if not hit.all():
            pu, pv, iu, iv = pu[hit], pv[hit], iu[hit], iv[hit]
            if len(pu) == 0:
                return pa.table(_EMPTY_SCORED)
        n_pairs = len(pu)
        lu = offs[iu + 1] - offs[iu]
        lv = offs[iv + 1] - offs[iv]

        def gather_side(ii: np.ndarray, ll: np.ndarray) -> np.ndarray:
            tot = int(ll.sum())
            outs = np.concatenate(([0], np.cumsum(ll)[:-1]))
            return flat[
                np.repeat(offs[ii] - outs, ll) + np.arange(tot, dtype=np.int64)
            ]

        seg = np.concatenate((np.repeat(np.arange(n_pairs), lu),
                              np.repeat(np.arange(n_pairs), lv)))
        val = np.concatenate((gather_side(iu, lu), gather_side(iv, lv)))
        inter = _intersection_counts(seg, val, n_pairs)
        union = lu + lv - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            est = duckdb_round(
                np.where(union > 0, inter / np.maximum(union, 1), 1.0), 6
            )
        accept = est >= threshold
        assist = np.flatnonzero((~accept) & (est >= floor))
        for i in assist:
            if jaro_winkler(stems[iu[i]].as_py(), stems[iv[i]].as_py()) >= stem_thr:
                accept[i] = True
        keep = np.flatnonzero(accept)
        return pa.table({
            "pu": pa.array(pu[keep], pa.uint64()),
            "pv": pa.array(pv[keep], pa.uint64()),
            "score": pa.array(est[keep], pa.float64()),
        })

    return score


def _verify_broadcast_exact(
    pairs: ray.data.Dataset, features: ray.data.Dataset,
    involved: "np.ndarray | None", config: PipelineConfig,
) -> ray.data.Dataset:
    """Exact-mode verify fetch: broadcast (ids, token-set offsets/values,
    stems) for involved rows and score pairs by exact Jaccard. The feature
    stage emits ``tok64`` (sorted-unique uint64 token hashes) only in exact
    mode, so this path requires ``config.verify_mode == "exact"``."""
    slim = features.select_columns(["row_id", "tok64", "stem"])
    if involved is not None:
        inv_ref = ray.put(involved)

        def fetch(batch: pa.Table) -> pa.Table:
            keys = ray.get(inv_ref)
            bids = hex16_col_to_u64(batch["row_id"])
            if bids is None:
                bids = _hex16_to_u64(batch["row_id"].to_pylist())
            pos = np.minimum(np.searchsorted(keys, bids), len(keys) - 1)
            return batch.filter(pa.array(keys[pos] == bids))

        slim = slim.map_batches(fetch, batch_format="pyarrow", batch_size=8192)
    tbls = [t for t in ray.get(slim.to_arrow_refs()) if t.num_rows > 0]
    if not tbls:
        return ray.data.from_arrow(pa.table(_EMPTY_SCORED))
    ft = pa.concat_tables(
        [t.select(["row_id", "tok64", "stem"]) for t in tbls]
    ).combine_chunks()
    ids = hex16_col_to_u64(ft["row_id"])
    if ids is None:
        ids = _hex16_to_u64(ft["row_id"].to_pylist())
    col = ft["tok64"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    raw_offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(raw_offs)
    vals = col.values.to_numpy(zero_copy_only=False).astype(np.uint64)
    starts = raw_offs[:-1]
    order = np.argsort(ids)
    lens_s = lens[order]
    out_starts = np.concatenate(([0], np.cumsum(lens_s)[:-1]))
    gather = np.repeat(starts[order] - out_starts, lens_s) + np.arange(
        int(lens_s.sum()), dtype=np.int64
    )
    stems = ft["stem"].chunk(0).take(pa.array(order))
    bundle_ref = ray.put((
        ids[order],
        np.concatenate((out_starts, [int(lens_s.sum())])).astype(np.int64),
        vals[gather],
        stems,
    ))
    return pairs.map_batches(
        _exact_scorer_factory(bundle_ref, config),
        batch_format="pyarrow", batch_size=16384,
    )


def _tok_list_to_binary(col) -> pa.Array:
    """``list<uint64>`` token-set column → variable-width ``binary`` (the
    u64s' native bytes), built from buffers with no per-row Python. Binary
    columns ride Arrow hash joins; list columns are rejected as non-key
    fields — this is what lets exact-mode verify scale past the broadcast
    ceiling."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
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


def _binary_u64_parts(col) -> tuple[np.ndarray, np.ndarray]:
    """Variable-width binary column of packed u64s → (row offsets in u64
    units, flat u64 values), zero-copy off the Arrow buffers; fails loudly
    if any value's width is not a multiple of 8 (token sets are whole
    u64s by construction — drift means a schema bug, not data)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
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


def _verify_join_exact(
    pairs: ray.data.Dataset, features: ray.data.Dataset, config: PipelineConfig,
) -> ray.data.Dataset:
    """Exact-mode scale fallback (above the broadcast ceiling): two
    partitioned hash joins fetch each endpoint's packed token set + stem,
    then one vectorized lexsort-intersection pass per batch scores the
    exact Jaccard — the same kernel as the broadcast path, with the token
    sets arriving via the join instead of the object store."""
    from localhost_address_matching_ray.functions.similarity import duckdb_round
    from localhost_address_matching_ray.stages.cluster import _JOIN_ARGS, _partitions_for

    def to_u64_keyed(t: pa.Table) -> pa.Table:
        rid = hex16_col_to_u64(t["row_id"])
        if rid is None:
            rid = _hex16_to_u64(t["row_id"].to_pylist())
        return pa.table({
            "rid_u64": pa.array(rid, pa.uint64()),
            "tokb": _tok_list_to_binary(t["tok64"]),
            "stem": t["stem"],
        })

    slim = features.select_columns(["row_id", "tok64", "stem"]).map_batches(
        to_u64_keyed, batch_format="pyarrow",
    ).materialize()
    parts = _partitions_for(max(pairs.count(), 1))
    j1 = pairs.join(
        slim, join_type="inner", num_partitions=parts,
        on=("pu",), right_on=("rid_u64",), **_JOIN_ARGS,
    ).map_batches(
        lambda t: pa.table({
            "pu": t["pu"], "pv": t["pv"], "tok_u": t["tokb"], "stem_u": t["stem"],
        }),
        batch_format="pyarrow",
    )
    j2 = j1.join(
        slim, join_type="inner", num_partitions=parts,
        on=("pv",), right_on=("rid_u64",), **_JOIN_ARGS,
    )

    threshold = config.jaccard_threshold
    floor = config.rename_jaccard_floor
    stem_thr = config.stem_sim_threshold

    def score(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(_EMPTY_EDGES)
        offu, valu = _binary_u64_parts(t["tok_u"])
        offv, valv = _binary_u64_parts(t["tokb"])
        lu, lv = np.diff(offu), np.diff(offv)
        # each side's values are already row-major in joined order — one
        # concatenated (pair, value) stream, lexsort, adjacent-equal count
        seg = np.concatenate((np.repeat(np.arange(n), lu),
                              np.repeat(np.arange(n), lv)))
        val = np.concatenate((valu, valv))
        inter = _intersection_counts(seg, val, n)
        union = lu + lv - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            est = duckdb_round(
                np.where(union > 0, inter / np.maximum(union, 1), 1.0), 6
            )
        accept = est >= threshold
        assist = np.flatnonzero((~accept) & (est >= floor))
        if len(assist):
            stem_u = t["stem_u"]
            stem_v = t["stem"]
            for i in assist:
                if jaro_winkler(stem_u[i].as_py(), stem_v[i].as_py()) >= stem_thr:
                    accept[i] = True
        keep = np.flatnonzero(accept)
        pu = t["pu"].to_numpy(zero_copy_only=False)[keep]
        pv = t["pv"].to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            "u": pa.array(_u64_to_hex(pu), pa.string()),
            "v": pa.array(_u64_to_hex(pv), pa.string()),
            "score": pa.array(est[keep], pa.float64()),
        })

    return j2.map_batches(score, batch_format="pyarrow")


def _verify_join(
    pairs: ray.data.Dataset, features: ray.data.Dataset, config: PipelineConfig,
) -> ray.data.Dataset:
    """Scale fallback: two partitioned hash joins fetch each endpoint's
    (sig8, stem); scoring is the same vectorized kernel. Used when the
    involved-row set exceeds the broadcast ceiling."""
    from localhost_address_matching_ray.stages.cluster import _JOIN_ARGS, _partitions_for

    def to_u64_keyed(t: pa.Table) -> pa.Table:
        rid = hex16_col_to_u64(t["row_id"])
        if rid is None:  # non-16-hex ids: scalar fallback
            rid = _hex16_to_u64(t["row_id"].to_pylist())
        return pa.table({
            "rid_u64": pa.array(rid, pa.uint64()),
            "sig8": t["sig8"],
            "stem": t["stem"],
        })

    slim = _slim_features(features).map_batches(
        to_u64_keyed, batch_format="pyarrow",
    ).materialize()
    parts = _partitions_for(max(pairs.count(), 1))
    j1 = pairs.join(
        slim, join_type="inner", num_partitions=parts,
        on=("pu",), right_on=("rid_u64",), **_JOIN_ARGS,
    ).map_batches(
        lambda t: pa.table({
            "pu": t["pu"], "pv": t["pv"], "sig_u": t["sig8"], "stem_u": t["stem"],
        }),
        batch_format="pyarrow",
    )
    j2 = j1.join(
        slim, join_type="inner", num_partitions=parts,
        on=("pv",), right_on=("rid_u64",), **_JOIN_ARGS,
    )

    threshold = config.jaccard_threshold
    floor = config.rename_jaccard_floor
    stem_thr = config.stem_sim_threshold
    num_perm = config.num_perm

    def score(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(_EMPTY_EDGES)
        su = binary_col_matrix(t["sig_u"], num_perm)
        sv = binary_col_matrix(t["sig8"], num_perm)
        if su is None or sv is None:
            # the buffer path returns None exactly when some value is NOT
            # num_perm bytes — joining and reshaping would then compare
            # misaligned signature bytes (silently wrong jaccard), so this
            # path only re-packs per-value and fails LOUDLY on real drift
            def repack(col) -> np.ndarray:
                vals = col.to_pylist()
                bad = next((v for v in vals if len(v) != num_perm), None)
                if bad is not None:
                    raise ValueError(
                        f"signature width drift: expected {num_perm} bytes, "
                        f"got {len(bad)} — feature stage / config.num_perm "
                        f"mismatch (stale checkpoint?)"
                    )
                return np.frombuffer(b"".join(vals), dtype=np.uint8).reshape(n, num_perm)

            su = repack(t["sig_u"])
            sv = repack(t["sig8"])
        est = (su == sv).mean(axis=1)
        accept = est >= threshold
        assist = np.flatnonzero((~accept) & (est >= floor))
        if len(assist):
            stem_u = t["stem_u"].to_pylist()
            stem_v = t["stem"].to_pylist()
            for i in assist:
                if jaro_winkler(stem_u[i], stem_v[i]) >= stem_thr:
                    accept[i] = True
        keep = np.flatnonzero(accept)
        pu = t["pu"].to_numpy(zero_copy_only=False)[keep]
        pv = t["pv"].to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            "u": pa.array(_u64_to_hex(pu), pa.string()),
            "v": pa.array(_u64_to_hex(pv), pa.string()),
            "score": pa.array(est[keep], pa.float64()),
        })

    return j2.map_batches(score, batch_format="pyarrow")


def _distinct_pairs_shuffle(
    pairs: ray.data.Dataset, buckets: int
) -> ray.data.Dataset:
    """Distributed pair dedup: pair-hash bucket groupby + in-bucket
    np.unique (used only above the driver-collect ceiling)."""

    def tag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("pb", pa.array([], pa.int32()))
        pu = t["pu"].to_numpy(zero_copy_only=False)
        pv = t["pv"].to_numpy(zero_copy_only=False)
        pb = ((pu * _PB_P1 ^ pv * _PB_P2) % np.uint64(buckets)).astype(np.int32)
        return t.append_column("pb", pa.array(pb, pa.int32()))

    def dedup(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(_EMPTY_PAIRS)
        arr = _unique_pairs(np.stack([
            g["pu"].to_numpy(zero_copy_only=False),
            g["pv"].to_numpy(zero_copy_only=False),
        ], axis=1))
        return pa.table({
            "pu": pa.array(arr[:, 0], pa.uint64()),
            "pv": pa.array(arr[:, 1], pa.uint64()),
        })

    return pairs.map_batches(tag, batch_format="pyarrow").groupby("pb").map_groups(
        dedup, batch_format="pyarrow"
    )


def _edges_distinct_hex(scored: ray.data.Dataset, buckets: int) -> ray.data.Dataset:
    """Thresholded scored stream (pu, pv, score; cross-bucket duplicate
    pairs allowed — duplicates carry IDENTICAL scores, same signatures →
    same kernel) → distinct hex edges (u, v, score), via the pair-hash
    bucket idiom. The edge stream is orders of magnitude smaller than the
    candidate stream, so this shuffle is cheap — and it replaces the former
    DRIVER-side 21M-pair collect + single-threaded argsort dedup that
    profiling measured at ~15 s of serial time at the 1M soak."""

    def tag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("pb", pa.array([], pa.int32()))
        pu = t["pu"].to_numpy(zero_copy_only=False)
        pv = t["pv"].to_numpy(zero_copy_only=False)
        pb = ((pu * _PB_P1 ^ pv * _PB_P2) % np.uint64(buckets)).astype(np.int32)
        return t.append_column("pb", pa.array(pb, pa.int32()))

    def dedup(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(_EMPTY_EDGES)
        pu = g["pu"].to_numpy(zero_copy_only=False)
        pv = g["pv"].to_numpy(zero_copy_only=False)
        sc = g["score"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pv, pu))
        pu, pv, sc = pu[order], pv[order], sc[order]
        keep = np.concatenate(([True], (pu[1:] != pu[:-1]) | (pv[1:] != pv[:-1])))
        return pa.table({
            "u": pa.array(_u64_to_hex(pu[keep]), pa.string()),
            "v": pa.array(_u64_to_hex(pv[keep]), pa.string()),
            "score": pa.array(sc[keep], pa.float64()),
        })

    return scored.map_batches(tag, batch_format="pyarrow").groupby("pb").map_groups(
        dedup, batch_format="pyarrow"
    )


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


def _involved_rows(pairs: ray.data.Dataset) -> np.ndarray:
    """Sorted unique endpoint ids of the candidate stream, computed with a
    distributed per-block unique first — the driver merges per-block unique
    arrays (Σ block uniques) instead of sorting the raw 2×pairs stream."""

    def uniq(t: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            t["pu"].to_numpy(zero_copy_only=False),
            t["pv"].to_numpy(zero_copy_only=False),
        ])) if t.num_rows else np.empty(0, np.uint64)
        return pa.table({"rid": pa.array(ids, pa.uint64())})

    parts = [
        t["rid"].to_numpy(zero_copy_only=False)
        for t in ray.get(
            pairs.map_batches(uniq, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows > 0
    ]
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate(parts))


def verify_edges(
    pairs: ray.data.Dataset, features: ray.data.Dataset, config: PipelineConfig,
) -> ray.data.Dataset:
    """Candidate pairs (uint64, cross-bucket duplicates allowed) →
    thresholded DISTINCT edges (u, v, score).

    Cross-bucket duplicates are scored REDUNDANTLY — the scoring kernel is
    a vectorized byte compare and fully parallel — and dedup happens on the
    verified EDGE stream, which is smaller than the candidate stream. The
    duplicate factor depends on the corpus: in-bucket dedup already
    collapsed the band-level copies, yet on the ``link_hot`` benchmark
    corpus (seed 1) 1,012,385 scored rows collapse to 353,301 distinct
    edges, 2.87×. The former
    shape (driver collect + single-threaded np.argsort dedup of the raw
    pair stream) measured ~15 s of serial wall at the 1M soak — the single
    largest non-scaling term in the 4→16 CPU efficiency. Above the
    broadcast ceiling, pairs ARE deduped first (a join fetch pays per
    pair), then fetched via partitioned hash joins."""
    if config.census_buckets <= 0:
        # pre-ray.init() config sentinel (config.py) — resolve driver-side
        from dataclasses import replace

        from localhost_address_matching_ray.config import bucket_width

        config = replace(config, census_buckets=bucket_width())
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return ray.data.from_arrow(pa.table(_EMPTY_EDGES))
    exact = config.verify_mode == "exact"
    broadcast = _verify_broadcast_exact if exact else _verify_broadcast
    # exact bundles carry whole token sets, not 128 B signatures — the row
    # ceiling alone could admit a multi-GB driver collect, so gate the
    # broadcast on total token volume too (one narrow pass over the
    # materialized features)
    broadcast_ok = (not exact) or (
        _tok64_volume(features) <= config.exact_broadcast_max_tokens
    )
    # when the WHOLE feature table fits the broadcast ceiling, the involved
    # set can't not fit — skip computing it (at the 1M soak involved == all
    # rows and the involved pass cost 3 s of driver wall for a no-op filter)
    n_feat = features.count()
    if broadcast_ok:
        if n_feat <= config.verify_broadcast_max_rows:
            scored = broadcast(pairs, features, None, config)
            return _edges_distinct_hex(scored, config.census_buckets)
        involved = _involved_rows(pairs)
        if len(involved) <= config.verify_broadcast_max_rows:
            scored = broadcast(pairs, features, involved, config)
            return _edges_distinct_hex(scored, config.census_buckets)
    logger.info(
        "verify_edges: broadcast ceiling exceeded (rows or token volume) — "
        "join path",
    )
    distinct = _distinct_pairs_shuffle(pairs, config.census_buckets)
    if exact:
        return _verify_join_exact(distinct, features, config)
    return _verify_join(distinct, features, config)


def candidate_edges(
    blocks: ray.data.Dataset,
    features: ray.data.Dataset,
    config: PipelineConfig,
) -> ray.data.Dataset:
    """Bucketed candidate generation → pair dedup (driver or shuffle) →
    narrow signature fetch → vectorized verify. Pairs are distinct before
    scoring, so the verified stream IS the final edge set."""
    return verify_edges(candidate_pairs(blocks, config), features, config)
