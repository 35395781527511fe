"""Training-data operators over the ``documents`` table
(``doc_id, text, lang, source, n_chars``): quality scoring, language-ID,
token counting, fingerprints, and the near-dup family (exact n-gram Jaccard,
MinHash-LSH, SimHash).

Pairwise ops block by ``lang`` (the hierarchical-constraint analog —
province constrains district, ``static_parser.py:67-72``) and vectorize the
in-block work as incidence-matrix matmuls over a per-block vocabulary, so a
block of k docs costs one (k × V)·(V × k) integer matmul instead of k²
Python set intersections.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data

logger = logging.getLogger(__name__)

from localhost_address_matching_ray.functions.arrowbuf import (
    hex16_ids,
    s16_to_arrow,
    u64_to_hex16,
)
from localhost_address_matching_ray.functions.hashing import (
    MinHasher,
    SimHasher,
    TokenHasher,
    hamming64_arrays,
    sha256_hex_array,
    shingle_hashes,
)
from localhost_address_matching_ray.functions.normalize import normalize_content
from localhost_address_matching_ray.functions.similarity import duckdb_round
from localhost_address_matching_ray.functions.text import quality_features
from localhost_address_matching_ray.stages.broadcast import cached_get, fetch_sorted
from localhost_address_matching_ray.stages.buckets import bucket_fold
from localhost_address_matching_ray.stages.pairs import (
    _binary_u64_parts,
    _intersection_counts,
    _tok_list_to_binary,
    _unique_pairs,
    distinct_pairs,
)


def doc_quality(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Per-doc quality features (SQL-parity semantics; see functions/text.py)."""

    def batch_fn(batch: pa.Table) -> pa.Table:
        feats = quality_features(batch["text"].to_pylist())
        out = batch.select(["doc_id"])
        for name, vals in feats.items():
            if isinstance(vals, np.ndarray):
                out = out.append_column(name, pa.array(vals))
            else:
                out = out.append_column(name, pa.array(vals, pa.string()))
        return out

    return docs.map_batches(batch_fn, batch_format="pyarrow", batch_size=4096)


def doc_fingerprints(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Document fingerprint = sha256 of the whitespace-normalized text
    (SQL-exact), plus the non-SQL rolling polynomial hash."""
    from localhost_address_matching_ray.functions.hashing import rolling_fingerprint

    def batch_fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        norm = [normalize_content(t) for t in texts]
        return pa.table({
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(sha256_hex_array(norm), pa.string()),
            # int64, not uint64: values are < 2^61 by construction and the
            # DuckDB oracle's BIGINT column must hash-compare byte-identically
            "rolling_fp": pa.array(
                [rolling_fingerprint(n) for n in norm], pa.int64()
            ),
        })

    return docs.map_batches(batch_fn, batch_format="pyarrow", batch_size=4096)


def _doc_shingles(text: str, k: int) -> list[str]:
    toks = normalize_content(text).split(" ")
    if not toks or toks == [""]:
        return []
    if len(toks) < k:
        return [" ".join(toks)]
    return [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]


def _pairwise_jaccard_block(
    ids: np.ndarray, sets: list[set[str]], threshold: float
) -> tuple[list, list, list]:
    """All-pairs set Jaccard. The incidence is extremely sparse (tens of
    shingles per doc over a vocab of ~nnz), so the default path walks
    POSTINGS RUNS: sort the flat (doc, shingle) pairs by shingle, emit
    co-occurring doc pairs per shared shingle, and count multiplicities —
    intersection sizes for exactly the pairs that share ≥1 shingle (a pair
    sharing none has J=0 and can't pass a positive threshold). Cost is
    O(nnz log nnz + Σ df²), vs the dense (k×V)@(V×k) matmul's O(k²·V);
    measured 26× on the 2,059-doc en block at sf0.1. A degenerate block
    (a shingle shared by most docs inflates Σ df²) or a non-positive
    threshold falls back to the dense matmul."""
    k = len(sets)
    if k < 2:
        return [], [], []
    lens = np.array([len(s) for s in sets], dtype=np.int64)
    nnz = int(lens.sum())

    def _exact(ii: np.ndarray, jj: np.ndarray) -> tuple[list, list, list]:
        # exact value parity with SQL: recompute the kept few as int/int
        us, vs, sc = [], [], []
        for a, b in zip(ii, jj):
            ia, ib = (a, b) if ids[a] < ids[b] else (b, a)
            inter_ab = len(sets[ia] & sets[ib])
            union_ab = len(sets[ia] | sets[ib])
            us.append(int(ids[ia])); vs.append(int(ids[ib]))
            sc.append(float(duckdb_round(inter_ab / union_ab, 6)))
        return us, vs, sc

    def _dense() -> tuple[list, list, list]:
        vocab: dict[str, int] = {}
        rows, cols = [], []
        for i, s in enumerate(sets):
            for tok in s:
                j = vocab.setdefault(tok, len(vocab))
                rows.append(i); cols.append(j)
        m = np.zeros((k, len(vocab)), dtype=np.float32)
        m[rows, cols] = 1.0
        inter = m @ m.T                       # |A ∩ B|
        size = m.sum(axis=1)
        union = size[:, None] + size[None, :] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            # union == 0 (both sets empty) is NOT a duplicate pair: empty
            # docs emit no shingles on the LSH path and no ss row in the
            # SQL oracle, so scoring them 1.0 would clique empties together
            jac = np.where(union > 0, inter / union, 0.0)
        iu = np.triu_indices(k, 1)
        mask = (jac[iu] >= threshold) & (union[iu] > 0)
        return _exact(iu[0][mask], iu[1][mask])

    if threshold <= 0.0 or nnz == 0:
        return _dense()
    # flat (doc, shingle-id) incidence, sorted by shingle
    vocab: dict[str, int] = {}
    cols = np.empty(nnz, dtype=np.int64)
    pos = 0
    for s in sets:
        for tok in s:
            cols[pos] = vocab.setdefault(tok, len(vocab))
            pos += 1
    rows = np.repeat(np.arange(k, dtype=np.int64), lens)
    order = np.argsort(cols, kind="stable")
    cs, rs = cols[order], rows[order]
    bounds = np.flatnonzero(np.diff(cs)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [nnz]))
    df = ends - starts
    if int((df * df).sum()) > max(4_000_000, 8 * k * k):
        return _dense()  # pathological shared-shingle block
    shared = df > 1
    pi, pj = [], []
    for s0, e0 in zip(starts[shared], ends[shared]):
        run = np.sort(rs[s0:e0])
        a, b = np.triu_indices(len(run), 1)
        pi.append(run[a]); pj.append(run[b])
    if not pi:
        return [], [], []
    code = np.concatenate(pi) * k + np.concatenate(pj)
    uniq, inter = np.unique(code, return_counts=True)
    ii, jj = uniq // k, uniq % k
    union = lens[ii] + lens[jj] - inter
    # same float-division-then-compare boundary as the SQL oracle (a
    # multiplied threshold could disagree by 1 ulp on exact-J boundaries)
    mask = (inter.astype(np.float64) / union) >= threshold
    return _exact(ii[mask], jj[mask])


#: Hard row cap for the whole-language O(block²) oracle baselines below.
#: They exist to cross-check the LSH scale paths on sandbox-sized tables;
#: a run over more rows than this is almost certainly a mistake (the block
#: is one task holding an entire language) and fails fast with a pointer to
#: the scale path instead of silently attempting an O(n²) matmul.
UNSCALED_BASELINE_MAX_ROWS = 200_000


def _guard_unscaled(docs: ray.data.Dataset, op: str, scale_path: str,
                    max_rows: int | None) -> None:
    cap = UNSCALED_BASELINE_MAX_ROWS if max_rows is None else max_rows
    n = docs.count()
    if n > cap:
        raise ValueError(
            f"{op} is the O(block²) oracle baseline and refuses {n} rows "
            f"(cap {cap}): one whole-language group would run in a single "
            f"task. Use {scale_path} (the LSH scale path) instead, or pass "
            f"max_rows explicitly to override."
        )


def ngram_dup_pairs(
    docs: ray.data.Dataset, k: int = 3, threshold: float = 0.5,
    max_rows: int | None = None,
) -> ray.data.Dataset:
    """Exact k-token-shingle Jaccard near-dup pairs within each lang block.
    O(block²) by design — the *oracle-able* baseline; guarded by a row cap
    (``UNSCALED_BASELINE_MAX_ROWS``). :func:`minhash_lsh_pairs` is the scale
    path and converges to this exact output under its verify stage."""
    _guard_unscaled(docs, "ngram_dup_pairs", "minhash_lsh_pairs", max_rows)

    def per_lang(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        sets = [set(_doc_shingles(t, k)) for t in group["text"].to_pylist()]
        us, vs, sc = _pairwise_jaccard_block(ids, sets, threshold)
        return pa.table({
            "u": pa.array(us, pa.int64()),
            "v": pa.array(vs, pa.int64()),
            "jaccard": pa.array(sc, pa.float64()),
        })

    return docs.select_columns(["doc_id", "lang", "text"]).groupby("lang").map_groups(
        per_lang, batch_format="pyarrow"
    )


def token_jaccard_pairs(
    docs: ray.data.Dataset, threshold: float = 0.97,
    max_rows: int | None = None,
) -> ray.data.Dataset:
    """Distinct-token (1-gram) Jaccard pairs within lang — same machinery,
    same row-cap guard (oracle baseline, not a scale path)."""
    _guard_unscaled(docs, "token_jaccard_pairs", "minhash_lsh_pairs(k=1)", max_rows)

    def per_lang(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        # unconditional split: '' → {''} — exactly DuckDB's
        # string_split('', ' ') = [''], so two empty docs pair at 1.0 like
        # the registered oracle (empty-vs-nonempty stays 0.0: '' never
        # appears in a nonempty normalized doc's token set)
        sets = [
            set(normalize_content(t).split(" "))
            for t in group["text"].to_pylist()
        ]
        us, vs, sc = _pairwise_jaccard_block(ids, sets, threshold)
        return pa.table({
            "u": pa.array(us, pa.int64()),
            "v": pa.array(vs, pa.int64()),
            "jaccard": pa.array(sc, pa.float64()),
        })

    return docs.select_columns(["doc_id", "lang", "text"]).groupby("lang").map_groups(
        per_lang, batch_format="pyarrow"
    )


#: per-worker-process cache of doc hashing state (MinHash perm tables, token
#: memo, lang-hash memo) — cheap state, so stateless tasks with a process
#: cache beat an actor pool's process spin-up (round-1 lesson; 30 actors for
#: a 3-batch dataset is pure overhead)
_PROCESS_DOC_STATE: dict = {}

_BK_P1 = np.uint64(0x9E3779B97F4A7C15)
_BK_P2 = np.uint64(0xBF58476D1CE4E5B9)
_BK_P3 = np.uint64(0x94D049BB133111EB)


def _doc_band_keyer_factory(num_perm: int, bands: int, k: int,
                            minhash_mode: str = "oph"):
    """MinHash LSH band keys for documents — KEY-ONLY emission.

    The candidates-then-verify shape (flagship lesson, round 1: carrying
    signatures through the band shuffle multiplied the payload by the band
    count): each doc contributes ``bands`` rows of (doc_id, band_key uint64)
    — 16 B/row — and nothing else. Signatures never ride the shuffle;
    survivors are verified EXACTLY against their shingle sets in a second,
    narrow pass over only the candidate docs. Band keys are a vectorized
    uint64 mix of (lang hash, band index, the band's r signature values) —
    one numpy pass per batch instead of bands × sha1 per doc.
    """
    import hashlib

    skey = ("band", num_perm, k)
    r = num_perm // bands
    band_mix = (np.arange(bands, dtype=np.uint64) + np.uint64(1)) * _BK_P2

    def emit(batch: pa.Table) -> pa.Table:
        st = _PROCESS_DOC_STATE.get(skey)
        if st is None:
            st = _PROCESS_DOC_STATE[skey] = {
                "mh": MinHasher(num_perm=num_perm),
                "th": TokenHasher(),
                "langs": {},
            }
        mh, th, langc = st["mh"], st["th"], st["langs"]
        from localhost_address_matching_ray.functions.normalize import (
            normalize_content_arrow,
        )

        texts = normalize_content_arrow(batch["text"]).to_pylist()
        langs = batch["lang"].to_pylist()
        n = len(texts)
        lh = np.empty(n, dtype=np.uint64)
        sh_list = []
        lens = np.empty(n, dtype=np.int64)
        for i, (t, lg) in enumerate(zip(texts, langs)):
            # shingle-less docs (empty normalized text) emit NO band rows —
            # parity with the exact verify (_doc_shingles → []) and the SQL
            # oracle's `shingle IS NOT NULL` exclusion; the old [''] hashing
            # collided every empty doc into one giant band block
            sh = (
                shingle_hashes(t.split(" "), k, th)
                if t else np.empty(0, np.uint64)
            )
            sh_list.append(sh)
            lens[i] = len(sh)
            v = langc.get(lg)
            if v is None:
                v = langc[lg] = int.from_bytes(
                    hashlib.sha1(lg.encode()).digest()[:8], "big"
                )
            lh[i] = v
        flat = np.concatenate(sh_list) if sh_list else np.empty(0, np.uint64)
        # OPH by default (one binning pass; candidates are exactly verified
        # downstream, so the family only affects recall — covered by the
        # LSH-finds-exact-pairs test). Same effective-mode rule as
        # PipelineConfig: OPH needs a power-of-two num_perm.
        if minhash_mode == "oph" and num_perm & (num_perm - 1) == 0:
            S = mh.oph_signature_batch(flat, lens)
        else:
            S = mh.signature_batch(flat, lens)
        Sb = S.reshape(n, bands, r)
        K = lh[:, None] * _BK_P3 ^ band_mix[None, :]
        for j in range(r):
            K = K ^ (Sb[:, :, j] + np.uint64(j + 1)) * _BK_P1
        K = K ^ (K >> np.uint64(30))
        K = K * _BK_P2
        K = K ^ (K >> np.uint64(27))
        keep = np.flatnonzero(lens > 0)  # shingle-less docs: no band rows
        kh = K[keep].ravel()
        return pa.table({
            "doc_id": pa.array(
                np.repeat(
                    batch["doc_id"].to_numpy(zero_copy_only=False)[keep], bands
                ),
                pa.int64(),
            ),
            "band_key": pa.array(kh, pa.uint64()),
        })

    return emit


def _distinct_pairs_bucket(group: pa.Table, key_col: str, max_band_rows: int = 4096) -> pa.Table:
    """One hash bucket of (id, key) rows → distinct candidate pairs.

    Whole key-blocks colocate here (the fold is keyed on the key); runs of
    equal key are found by numpy diff — no per-key Python group calls (the
    high-cardinality-groupby floor lesson). Pairs are deduped within the
    bucket via np.unique, so the downstream verify never sees band-level
    duplicates."""
    empty = pa.table({
        "u": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
    })
    n = group.num_rows
    if n < 2:
        return empty
    kh = group[key_col].to_numpy(zero_copy_only=False)
    ids_all = group["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids_all, kh))
    kh = kh[order]; ids_all = ids_all[order]
    bounds = np.flatnonzero(np.diff(kh)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [n]))
    chunks = []
    for s0, e0 in zip(starts, ends):
        k = e0 - s0
        if k < 2:
            continue
        if k > max_band_rows:
            logger.warning(
                "band block overflow: %d rows > %d — keeping first %d "
                "(near-identical content; ring handled by remaining bands)",
                k, max_band_rows, max_band_rows,
            )
            k = max_band_rows
            e0 = s0 + k
        ids = ids_all[s0:e0]
        iu, jv = np.triu_indices(k, 1)
        a, b = ids[iu], ids[jv]
        keep = a != b
        chunks.append(np.stack([a[keep], b[keep]], axis=1))
    if not chunks:
        return empty
    pairs = _unique_pairs(np.concatenate(chunks).astype(np.uint64)).astype(np.int64)
    return pa.table({
        "u": pa.array(pairs[:, 0], pa.int64()),
        "v": pa.array(pairs[:, 1], pa.int64()),
    })


def _collect_distinct_pairs(cand: ray.data.Dataset) -> np.ndarray:
    """Driver collect of the (small, already bucket-deduped) candidate pair
    set as an (n, 2) int64 array, distinct across buckets."""
    tbls = [t for t in ray.get(cand.to_arrow_refs()) if t.num_rows > 0]
    if not tbls:
        return np.empty((0, 2), dtype=np.int64)
    t = pa.concat_tables([t.select(["u", "v"]) for t in tbls])
    arr = np.stack([
        t["u"].to_numpy(zero_copy_only=False), t["v"].to_numpy(zero_copy_only=False)
    ], axis=1)
    return _unique_pairs(arr.astype(np.uint64)).astype(np.int64)


def minhash_lsh_pairs(
    docs: ray.data.Dataset,
    num_perm: int = 128,
    bands: int = 64,
    shingle_k: int = 3,
    threshold: float = 0.5,
    max_candidates: int = 5_000_000,
    minhash_mode: str = "oph",
) -> ray.data.Dataset:
    """MinHash-LSH near-dup pairs with EXACT shingle-Jaccard verification —
    the scale path whose verified output equals :func:`ngram_dup_pairs`
    (same k, same threshold) up to LSH recall, which at bands=64/r=2 is
    1 − (1 − J^2)^64 ≈ 1 − 7.5e-9 at J = 0.5.

    Three narrow passes, none of which ships content or signatures through a
    shuffle:

    1. key-only band emission (16 B per band row) → bucketed distinct
       candidate pairs;
    2. shingle-set fetch for ONLY the candidate docs (a filtered second read
       — candidates are O(near-dups), orders of magnitude below the corpus);
    3. exact Jaccard on each candidate pair, thresholded.

    The candidate set and its docs' shingle sets are broadcast via the object
    store; ``max_candidates`` bounds that driver/broadcast footprint the same
    way ``driver_cc_max_edges`` bounds the clustering stage.
    """
    band_rows = docs.select_columns(["doc_id", "lang", "text"]).map_batches(
        _doc_band_keyer_factory(num_perm, bands, shingle_k, minhash_mode),
        batch_format="pyarrow", batch_size=2048,
    )
    cand = bucket_fold(
        band_rows, "band_key", lambda g: _distinct_pairs_bucket(g, "band_key")
    )
    pairs = _collect_distinct_pairs(cand)
    empty = pa.table({
        "u": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
        "jaccard": pa.array([], pa.float64()),
    })
    if len(pairs) == 0:
        return ray.data.from_arrow(empty)
    if len(pairs) > max_candidates:
        raise ValueError(
            f"minhash_lsh_pairs: {len(pairs)} candidates exceed "
            f"max_candidates={max_candidates}; raise the threshold/bands or "
            f"partition the corpus before pairing."
        )

    def shingle_sets(batch: pa.Table) -> pa.Table:
        """Sorted-unique uint64 shingle hashes for candidate docs only.

        Hash-verify: the shingle→uint64 map (token-hash polynomial,
        :func:`shingle_hashes`) is injective up to 64-bit collisions, so
        distinct-hash counts equal distinct-shingle counts and the exact
        set Jaccard is computed on numpy arrays instead of a broadcast
        dict-of-string-sets (round-2 verify shipped Python string sets and
        looped per pair). A collision would perturb one pair's Jaccard by
        ~1/|union| with probability ~|shingles|²/2⁶⁴ — negligible."""
        th = TokenHasher()
        sh = [
            np.unique(shingle_hashes(normalize_content(t).split(" "), shingle_k, th))
            if normalize_content(t) else np.empty(0, np.uint64)
            for t in batch["text"].to_pylist()
        ]
        return pa.table({
            "doc_id": batch["doc_id"],
            "shingles": pa.array([s.tolist() for s in sh], pa.list_(pa.uint64())),
        })

    got = fetch_sorted(
        docs.select_columns(["doc_id", "text"]), np.unique(pairs),
        lambda t: t["doc_id"].to_numpy(zero_copy_only=False), prep=shingle_sets,
    )
    if got is None:
        return ray.data.from_arrow(empty)
    ids, tbl = got
    # numpy ids + one packed binary column ride plasma zero-copy, unlike a
    # pickled dict of Python sets
    packed = _tok_list_to_binary(tbl["shingles"])
    sh_ref = ray.put((ids, packed, np.diff(_binary_u64_parts(packed)[0])))
    pairs_ds = ray.data.from_arrow(pa.table({
        "u": pa.array(pairs[:, 0], pa.int64()),
        "v": pa.array(pairs[:, 1], pa.int64()),
    }))

    def verify(batch: pa.Table) -> pa.Table:
        """Exact set Jaccard per candidate pair, fully vectorized
        (:func:`~localhost_address_matching_ray.stages.pairs._intersection_counts`).
        No per-pair Python."""
        ids, packed, lens = cached_get(sh_ref)
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        iu = np.minimum(np.searchsorted(ids, u), len(ids) - 1)
        iv = np.minimum(np.searchsorted(ids, v), len(ids) - 1)
        # drop misses and shingle-less docs (oracle excludes them)
        ok = (ids[iu] == u) & (ids[iv] == v) & (lens[iu] > 0) & (lens[iv] > 0)
        u, v, iu, iv = u[ok], v[ok], iu[ok], iv[ok]
        if len(u) == 0:
            return empty
        inter, lu, lv = _intersection_counts(
            packed.take(pa.array(iu)), packed.take(pa.array(iv))
        )
        jac = inter / (lu + lv - inter)
        keep = np.flatnonzero(jac >= threshold)
        return pa.table({
            "u": pa.array(u[keep], pa.int64()),
            "v": pa.array(v[keep], pa.int64()),
            "jaccard": pa.array(
                [float(duckdb_round(float(jac[i]), 6)) for i in keep], pa.float64()
            ),
        })

    return pairs_ds.map_batches(verify, batch_format="pyarrow", batch_size=8192)


def near_dedup_keep(
    docs: ray.data.Dataset,
    num_perm: int = 128,
    bands: int = 64,
    shingle_k: int = 3,
    threshold: float = 0.5,
) -> ray.data.Dataset:
    """Near-dedup that REMOVES documents: verified MinHash-LSH pairs →
    connected components → keep the min ``doc_id`` per duplicate cluster,
    drop the rest. Output: one row per KEPT doc, ``(doc_id, cluster_size)``
    where ``cluster_size`` is how many near-dups the kept doc represents
    (1 for docs with no near-dup) — the shape a training-data pipeline
    feeds downstream (kept corpus + provenance weight).

    Scale shape: clustering is the scale-adaptive
    :func:`~localhost_address_matching_ray.stages.cluster.connected_components`
    (vectorized driver min-label ≤ ``driver_cc_max_edges``, distributed
    label propagation above); the drop-set and rep→size map are
    O(duplicate docs) — broadcast once via ``ray.put`` — and the corpus
    then streams through ONE vectorized searchsorted filter pass, no join.
    """
    pairs = minhash_lsh_pairs(docs, num_perm, bands, shingle_k, threshold)
    return keep_representatives(docs, pairs, id_col="doc_id")


def keep_representatives(
    items: ray.data.Dataset, pairs: ray.data.Dataset, id_col: str,
    components_collect_max: int = 5_000_000,
) -> ray.data.Dataset:
    """Shared keep-side of near-dedup: duplicate pairs ``(u, v)`` (int64 ids)
    → connected components → one ``(id_col, cluster_size)`` row per kept
    representative (min id per cluster; size 1 for untouched items).
    Scale shape documented on :func:`near_dedup_keep`.

    The component map is O(duplicate nodes). At or below
    ``components_collect_max`` it is collected once and broadcast (drop-set
    + rep→size arrays via ``ray.put``, one streaming filter pass); above
    the ceiling the same semantics run as partitioned joins
    (:func:`_keep_representatives_join`) — the stated-cap-plus-distributed-
    fallback pattern every other driver collect in the codebase follows
    (``cluster.py assign_clusters``)."""
    from localhost_address_matching_ray.stages.cluster import (
        _collect,
        connected_components,
    )

    def to_hex(batch: pa.Table) -> pa.Table:
        # 16-hex zero-padded ids preserve int order, unlocking the CC
        # stage's vectorized u64 fast path
        return pa.table({
            "u": s16_to_arrow(u64_to_hex16(batch["u"].to_numpy(zero_copy_only=False))),
            "v": s16_to_arrow(u64_to_hex16(batch["v"].to_numpy(zero_copy_only=False))),
        })

    comps = connected_components(
        pairs.map_batches(to_hex, batch_format="pyarrow")
    ).materialize()
    n_comp = comps.count()
    if n_comp > components_collect_max:
        logger.info(
            "keep_representatives: %d component rows > collect ceiling %d — "
            "join fallback", n_comp, components_collect_max,
        )
        return _keep_representatives_join(items, comps, id_col)
    comp_tbl = _collect(
        comps, pa.schema([("row_id", pa.string()), ("cluster_label", pa.string())])
    )
    nodes = hex16_ids(comp_tbl["row_id"]).astype(np.int64)
    labels = hex16_ids(comp_tbl["cluster_label"]).astype(np.int64)
    dropped = np.sort(nodes[nodes != labels])
    reps, counts = np.unique(labels, return_counts=True)  # sorted by construction
    drop_ref = ray.put(dropped)
    rep_ref = ray.put((reps, counts))

    def keep(batch: pa.Table) -> pa.Table:
        drop = ray.get(drop_ref)
        reps_l, counts_l = ray.get(rep_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(drop):
            pos = np.minimum(np.searchsorted(drop, ids), len(drop) - 1)
            kept_mask = drop[pos] != ids
        else:
            kept_mask = np.ones(len(ids), dtype=bool)
        kids = ids[kept_mask]
        size = np.ones(len(kids), dtype=np.int64)
        if len(reps_l):
            pos = np.minimum(np.searchsorted(reps_l, kids), len(reps_l) - 1)
            m = reps_l[pos] == kids
            size[m] = counts_l[pos[m]]
        return pa.table({
            id_col: pa.array(kids, pa.int64()),
            "cluster_size": pa.array(size, pa.int64()),
        })

    return items.select_columns([id_col]).map_batches(keep, batch_format="pyarrow")


def _keep_representatives_join(
    items: ray.data.Dataset, comps: ray.data.Dataset, id_col: str
) -> ray.data.Dataset:
    """Distributed fallback for :func:`keep_representatives` above the
    collect ceiling: one partitioned left join attaches each item's
    component label (absent → untouched singleton), non-representatives
    (label ≠ id) are filtered, and a small per-label count join fills
    ``cluster_size``. Same output as the broadcast path."""
    from ray.data.aggregate import Count

    from localhost_address_matching_ray.stages.cluster import (
        _JOIN_ARGS,
        _partitions_for,
    )

    def to_int(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.array(hex16_ids(t["row_id"]).astype(np.int64), pa.int64()),
            "label": pa.array(hex16_ids(t["cluster_label"]).astype(np.int64), pa.int64()),
        })

    comp_int = comps.map_batches(to_int, batch_format="pyarrow").materialize()
    sizes = comp_int.groupby("label").aggregate(Count(alias_name="sz")).map_batches(
        lambda t: pa.table({"szkey": t["label"], "sz": t["sz"]}),
        batch_format="pyarrow",
    ).materialize()
    parts = _partitions_for(max(items.count(), 1))
    joined = items.select_columns([id_col]).join(
        comp_int, join_type="left_outer", num_partitions=parts,
        on=(id_col,), right_on=("node",), **_JOIN_ARGS,
    )

    def keep_only(t: pa.Table) -> pa.Table:
        # null label → untouched item; label == id → representative.
        # Compare in Arrow: to_numpy on a null-bearing int64 column yields
        # float64+NaN, which loses exactness for ids >= 2^53.
        mask = pa.compute.or_kleene(
            pa.compute.is_null(t["label"]),
            pa.compute.fill_null(
                pa.compute.equal(t["label"], t[id_col]), False
            ),
        )
        kept_t = t.filter(mask)
        return pa.table({
            id_col: kept_t[id_col].cast(pa.int64()),
            "label": kept_t["label"],
        })

    kept = joined.map_batches(keep_only, batch_format="pyarrow")
    out = kept.join(
        sizes, join_type="left_outer", num_partitions=_partitions_for(
            max(kept.count(), 1)
        ),
        on=("label",), right_on=("szkey",), **_JOIN_ARGS,
    )

    def finish(t: pa.Table) -> pa.Table:
        sz = pa.compute.coalesce(
            t["sz"].cast(pa.int64()), pa.scalar(1, pa.int64())
        )
        return pa.table({
            id_col: t[id_col],
            "cluster_size": sz,
        })

    return out.map_batches(finish, batch_format="pyarrow")


_SH_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_SH_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _simhash_run_pairs(
    ids: np.ndarray, hs: np.ndarray, avail: np.ndarray,
    max_hamming: int, max_block_rows: int, depth: int, rec: list,
) -> None:
    """Pairs at Hamming ≤ ``max_hamming`` within one agreement run,
    recursively pigeonholed: rows here agree on every bit NOT in ``avail``,
    so a qualifying pair's ≤ d differing bits all lie in ``avail`` and the
    pair must agree exactly on one of d+1 disjoint groups of those bits —
    re-splitting on each group preserves recall while bounding the k² work
    to runs ≤ ``max_block_rows``. Duplicate emissions across groups are
    collapsed by the callers' dedup passes.

    Work bound: each level branches into ≤ d+1 groups (a pair is re-found
    via every group it agrees on — redundancy, not incorrectness), so the
    depth cap (4) bounds the blowup at (d+1)⁴ cheap numpy calls per
    oversized run. Runs still oversized at the cap — rows agreeing on
    ~4·|avail|/(d+1) constrained bits — are near-identical fingerprints
    (exact-dedup territory) and are truncated with a warning, as is a run
    no group manages to split."""
    k = len(ids)
    if k < 2:
        return
    if k <= max_block_rows:
        iu, jv = np.triu_indices(k, 1)
        d = hamming64_arrays(hs[iu], hs[jv])
        hit = (d <= max_hamming) & (ids[iu] != ids[jv])
        if hit.any():
            a, b = ids[iu][hit], ids[jv][hit]
            rec.append(np.stack([
                np.minimum(a, b), np.maximum(a, b), d[hit].astype(np.int64)
            ], axis=1))
        return
    if len(avail) <= max_hamming or depth >= 4:
        # fewer free bits than the pigeonhole needs ⇒ the run is
        # near-identical fingerprints (exact-dedup territory): cap it
        logger.warning(
            "simhash run overflow: %d rows with %d free bits at depth %d — "
            "truncated to %d", k, len(avail), depth, max_block_rows,
        )
        _simhash_run_pairs(
            ids[:max_block_rows], hs[:max_block_rows], avail,
            max_hamming, max_block_rows, depth, rec,
        )
        return
    progressed = False
    for g in np.array_split(avail, max_hamming + 1):
        if len(g) == 0:
            continue
        key = np.zeros(k, np.uint64)
        for j, bit in enumerate(g):
            key |= ((hs >> np.uint64(bit)) & np.uint64(1)) << np.uint64(j)
        order = np.argsort(key, kind="stable")
        ks = key[order]
        bounds = np.flatnonzero(np.diff(ks)) + 1
        if len(bounds):
            progressed = True
        sts = np.concatenate(([0], bounds))
        ens = np.concatenate((bounds, [k]))
        rest = np.setdiff1d(avail, g, assume_unique=True)
        for s0, e0 in zip(sts, ens):
            if e0 - s0 >= 2:
                sel = order[s0:e0]
                _simhash_run_pairs(
                    ids[sel], hs[sel], rest, max_hamming, max_block_rows,
                    depth + 1, rec,
                )
    if not progressed:
        # identical on every free bit: all pairs are distance-0 dups; cap
        logger.warning(
            "simhash run of %d identical-fingerprint rows — truncated to %d",
            k, max_block_rows,
        )
        _simhash_run_pairs(
            ids[:max_block_rows], hs[:max_block_rows],
            np.empty(0, dtype=avail.dtype), max_hamming, max_block_rows,
            depth, rec,
        )


def simhash_pairs(
    docs: ray.data.Dataset, max_hamming: int = 6, max_block_rows: int = 8192,
) -> ray.data.Dataset:
    """SimHash near-dup pairs via Hamming-LSH pigeonhole blocking.

    64-bit fingerprints; a pair at Hamming distance ≤ d must agree EXACTLY on
    at least one of d+1 disjoint bit-blocks (pigeonhole), so each doc emits
    d+1 key rows ``hash(lang, block_idx, block_bits)`` and only same-key runs
    are verified with the exact XOR-popcount — recall 1 by construction,
    cost O(rows·(d+1)) emission + per-run verification instead of the former
    whole-language O(k²) scan. Runs over ``max_block_rows`` are truncated
    with a warning (a run that large means near-constant fingerprints).

    Runs over ``max_block_rows`` are RECURSIVELY re-split by pigeonhole on
    the remaining (unconstrained) bits: rows in a run agree on the bits
    constrained so far, so a pair at Hamming ≤ d among the remaining bits
    must agree exactly on one of d+1 disjoint groups of those bits —
    exactness is preserved at every depth. Truncation (logged) now happens
    only when fewer than d+1 unconstrained bits remain (near-identical
    fingerprints — exact-dedup territory) or at the depth cap.
    """

    def hasher(batch: pa.Table) -> pa.Table:
            import hashlib

            st = _PROCESS_DOC_STATE.get("simhash")
            if st is None:
                st = _PROCESS_DOC_STATE["simhash"] = {"sh": SimHasher(), "langs": {}}
            sh = st["sh"]
            # batch simhash: concat token hashes + one reduceat pass
            th_list, lens = [], []
            for t in batch["text"].to_pylist():
                toks = normalize_content(t).split(" ")
                th_list.append(sh._hasher.hash_tokens(toks))
                lens.append(len(toks))
            hs = sh.simhash_batch(
                np.concatenate(th_list) if th_list else np.empty(0, np.uint64),
                np.asarray(lens, dtype=np.int64),
            )
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            langs = batch["lang"].to_pylist()
            lang_h = np.array([
                int.from_bytes(hashlib.sha1(lg.encode()).digest()[:8], "big")
                for lg in langs
            ], dtype=np.uint64)
            n_blocks = max_hamming + 1
            # block b covers bits [b*64//n_blocks, (b+1)*64//n_blocks)
            edges = [(b * 64) // n_blocks for b in range(n_blocks + 1)]
            out_id, out_key, out_sh, out_blk = [], [], [], []
            for b in range(n_blocks):
                lo, hi = edges[b], edges[b + 1]
                bits = (hs >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1)
                # block-index salt folded in Python-int space: numpy warns
                # on intentional uint64 SCALAR wraparound (array ops don't)
                salt = np.uint64(((b + 1) * int(_SH_MIX2)) & 0xFFFFFFFFFFFFFFFF)
                key = (lang_h ^ salt) * _SH_MIX1 ^ (bits * _SH_MIX2)
                key = key ^ (key >> np.uint64(29))
                out_id.append(ids)
                out_key.append(key)
                out_sh.append(hs)
                out_blk.append(np.full(len(ids), b, dtype=np.int32))
            kh = np.concatenate(out_key)
            return pa.table({
                "doc_id": pa.array(np.concatenate(out_id), pa.int64()),
                "key": pa.array(kh, pa.uint64()),
                "simhash": pa.array(np.concatenate(out_sh), pa.uint64()),
                "blk": pa.array(np.concatenate(out_blk), pa.int32()),
            })

    keyed = docs.select_columns(["doc_id", "lang", "text"]).map_batches(
        hasher, batch_format="pyarrow", batch_size=2048,
    )

    def verify_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "u": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int64()),
        })
        n = group.num_rows
        if n < 2:
            return empty
        kh = group["key"].to_numpy(zero_copy_only=False)
        ids_all = group["doc_id"].to_numpy(zero_copy_only=False)
        hs_all = group["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        blk_all = group["blk"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids_all, kh))
        kh = kh[order]; ids_all = ids_all[order]
        hs_all = hs_all[order]; blk_all = blk_all[order]
        bounds = np.flatnonzero(np.diff(kh)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        n_blocks = max_hamming + 1
        edges = [(b * 64) // n_blocks for b in range(n_blocks + 1)]
        all_bits = np.arange(64, dtype=np.int64)
        rec: list = []
        for s0, e0 in zip(starts, ends):
            k = e0 - s0
            if k < 2:
                continue
            # rows in this run agree on block b's bits; the remaining
            # (unconstrained) bits drive the recursive pigeonhole re-split
            b = int(blk_all[s0])
            avail = np.concatenate((all_bits[: edges[b]], all_bits[edges[b + 1]:]))
            _simhash_run_pairs(
                ids_all[s0:e0], hs_all[s0:e0], avail,
                max_hamming, max_block_rows, 0, rec,
            )
        if not rec:
            return empty
        arr = np.concatenate(rec)
        if len(arr) == 0:
            return empty
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        arr = arr[order]
        keep = np.concatenate(
            ([True], (arr[1:, :2] != arr[:-1, :2]).any(axis=1))
        ) if len(arr) > 1 else np.array([True])
        arr = arr[keep]
        return pa.table({
            "u": pa.array(arr[:, 0], pa.int64()),
            "v": pa.array(arr[:, 1], pa.int64()),
            "hamming": pa.array(arr[:, 2], pa.int64()),
        })

    raw = bucket_fold(keyed, "key", verify_bucket)

    # cross-bucket dedup (a pair can match via blocks landing in different
    # buckets); duplicates carry equal Hamming distances
    return distinct_pairs(raw)


# --------------------------------------------------------------------------
# TF-IDF top terms
# --------------------------------------------------------------------------

_TOP_TERMS_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("token", pa.string()),
    ("tf", pa.int64()),
    ("df", pa.int64()),
    ("score", pa.float64()),
    ("term_rank", pa.int64()),
])


def _batch_row_token_tf(batch: pa.Table):
    """Vectorized (row_idx, token_code, tf) runs for one batch plus the
    batch dictionary: normalize in RE2/C, ``split_pattern`` to Arrow lists,
    dictionary-encode (one string object per DISTINCT token, not per
    occurrence), then one lexsort + run-length pass. The empty token ''
    (produced only by all-empty rows: ``split_pattern('', ' ') == ['']``
    while the token semantics say []) is dropped by code."""
    import pyarrow.compute as pc

    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
    )

    n = batch.num_rows
    col = batch["text"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    norm = normalize_content_arrow(pc.fill_null(col, ""))
    tok_list = pc.split_pattern(norm, pattern=" ")
    enc = pc.list_flatten(tok_list).dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dict_strings = enc.dictionary
    lengths = pc.list_value_length(tok_list).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lengths)
    empty_code = np.flatnonzero(
        pc.equal(dict_strings, "").to_numpy(zero_copy_only=False)
    )
    if len(empty_code):
        keep = codes != empty_code[0]
        codes, row_of = codes[keep], row_of[keep]
    order = np.lexsort((codes, row_of))
    r2, c2 = row_of[order], codes[order]
    if len(r2):
        new = np.concatenate(([True], (r2[1:] != r2[:-1]) | (c2[1:] != c2[:-1])))
    else:
        new = np.empty(0, dtype=bool)
    starts = np.flatnonzero(new)
    tf = np.diff(np.append(starts, len(r2)))
    return r2[starts], c2[starts], tf.astype(np.int64), dict_strings


def _df_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Document frequency per token: per-batch partial counts (one row per
    DISTINCT token per batch — the combiner) → one small groupby-sum
    shuffle. The wide text column never rides the shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        _, toks, _, dict_strings = _batch_row_token_tf(batch)
        cnt = np.bincount(toks, minlength=len(dict_strings)) if len(toks) \
            else np.zeros(len(dict_strings), np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "token": dict_strings.take(pa.array(nz)),
            "cnt": pa.array(cnt[nz], pa.int64()),
        })

    return docs.map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    ).groupby("token").aggregate(Sum("cnt", alias_name="df"))


def top_terms(
    docs: ray.data.Dataset,
    k: int = 3,
    broadcast_df_max: int = 2_000_000,
) -> ray.data.Dataset:
    """Per-document top-``k`` TF-IDF terms over the normalized token stream:
    ``score = tf * (n_docs / df)`` (a log-free idf weighting — division and
    multiplication are IEEE-exact, so the Ray and DuckDB values agree
    bit-for-bit, which a transcendental ``ln`` across two libm
    implementations would not guarantee), ties broken by token ASC
    (UTF-8 byte order, = DuckDB's binary collation).

    Scale shape: docs stream TWICE (df pass, then score pass) — a doc's
    tokens stay inside its own batch, so there is NO (doc, token) shuffle
    on the hot path; the only exchange is the pre-aggregated token→df
    groupby (one row per distinct token per batch). The df table is
    broadcast via ``ray.put`` when ≤ ``broadcast_df_max`` rows (vocab of a
    100-TB corpus after per-batch dedup is typically ≪ row count); above
    the ceiling the op falls back to a distributed explode + hash join +
    per-doc group top-k — same result, two extra shuffles, no driver
    collect."""
    import pyarrow.compute as pc

    n_docs = docs.count()
    if n_docs == 0:
        return ray.data.from_arrow(_TOP_TERMS_SCHEMA.empty_table())
    df_ds = _df_table(docs).materialize()
    if df_ds.count() > broadcast_df_max:
        return _top_terms_join(docs, df_ds, k, n_docs)
    df_tbl = pa.concat_tables(ray.get(df_ds.to_arrow_refs())).combine_chunks()
    vocab_ref = ray.put((
        df_tbl["token"].combine_chunks(),
        df_tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64),
    ))

    def score_batch(batch: pa.Table) -> pa.Table:
        rows, toks, tf, dict_strings = _batch_row_token_tf(batch)
        if len(rows) == 0:
            return _TOP_TERMS_SCHEMA.empty_table()
        vocab, dfv = ray.get(vocab_ref)
        pos = pc.fill_null(
            pc.index_in(dict_strings, value_set=vocab), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        assert (pos[np.unique(toks)] >= 0).all(), "df pass missed a token"
        df_run = dfv[pos[toks]]
        score = tf.astype(np.float64) * (np.float64(n_docs) / df_run)
        # token tie-rank = position in the batch dictionary's sorted order
        sort_idx = pc.array_sort_indices(dict_strings).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        tok_rank = np.empty(len(sort_idx), np.int64)
        tok_rank[sort_idx] = np.arange(len(sort_idx))
        order = np.lexsort((tok_rank[toks], -score, rows))
        rr = rows[order]
        starts = np.flatnonzero(
            np.concatenate(([True], rr[1:] != rr[:-1]))
        )
        pos_in_row = np.arange(len(rr)) - np.repeat(
            starts, np.diff(np.append(starts, len(rr)))
        )
        keep = pos_in_row < k
        sel = order[keep]
        doc_col = batch["doc_id"]
        if isinstance(doc_col, pa.ChunkedArray):
            doc_col = doc_col.combine_chunks()
        return pa.table({
            "doc_id": doc_col.take(pa.array(rows[sel])),
            "token": dict_strings.take(pa.array(toks[sel])),
            "tf": pa.array(tf[sel], pa.int64()),
            "df": pa.array(df_run[sel], pa.int64()),
            "score": pa.array(score[sel], pa.float64()),
            "term_rank": pa.array(pos_in_row[keep] + 1, pa.int64()),
        })

    return docs.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)


def _top_terms_join(
    docs: ray.data.Dataset, df_ds: ray.data.Dataset, k: int, n_docs: int
) -> ray.data.Dataset:
    """Beyond-broadcast fallback: explode (doc_id, token, tf), hash-join
    with the df table on token, then per-doc top-k via a bucketed group
    pass — all-distributed, no driver collect."""

    def explode(batch: pa.Table) -> pa.Table:
        rows, toks, tf, dict_strings = _batch_row_token_tf(batch)
        doc_col = batch["doc_id"]
        if isinstance(doc_col, pa.ChunkedArray):
            doc_col = doc_col.combine_chunks()
        return pa.table({
            "doc_id": doc_col.take(pa.array(rows)),
            "token": dict_strings.take(pa.array(toks)),
            "tf": pa.array(tf, pa.int64()),
        })

    tf_ds = docs.map_batches(explode, batch_format="pyarrow", batch_size=4096)
    from localhost_address_matching_ray.config import bucket_width

    joined = tf_ds.join(
        df_ds, join_type="inner", on=("token",),
        num_partitions=max(8, bucket_width() // 8),
    )

    def pick_topk(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tf = group["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        dfv = group["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        score = tf.astype(np.float64) * (np.float64(n_docs) / dfv)
        toks = group["token"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        sort_idx = pc.array_sort_indices(toks).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        tok_rank = np.empty(len(sort_idx), np.int64)
        tok_rank[sort_idx] = np.arange(len(sort_idx))
        doc = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((tok_rank, -score, doc))
        dd = doc[order]
        starts = np.flatnonzero(np.concatenate(([True], dd[1:] != dd[:-1])))
        pos_in_row = np.arange(len(dd)) - np.repeat(
            starts, np.diff(np.append(starts, len(dd)))
        )
        keep = pos_in_row < k
        sel = order[keep]
        return pa.table({
            "doc_id": pa.array(doc[sel], pa.int64()),
            "token": toks.take(pa.array(sel)),
            "tf": pa.array(tf[sel], pa.int64()),
            "df": pa.array(dfv[sel], pa.int64()),
            "score": pa.array(score[sel], pa.float64()),
            "term_rank": pa.array(pos_in_row[keep] + 1, pa.int64()),
        })

    return joined.groupby("doc_id").map_groups(pick_topk, batch_format="pyarrow")


_BIGRAM_LIFT_SCHEMA = pa.schema([
    ("x", pa.string()), ("y", pa.string()),
    ("c", pa.int64()), ("lift", pa.float64()),
])

#: unigram-vocab rows above which bigram_lift falls back from the broadcast
#: count-attach to partitioned hash joins (vocab rows are ~tens of bytes;
#: 5M ≈ a few hundred MB in a worker heap — the usual stated-cap shape)
BIGRAM_VOCAB_BROADCAST_MAX = 5_000_000


def bigram_lift(
    docs: ray.data.Dataset, min_count: int = 5, k: int = 20
) -> ray.data.Dataset:
    """Collocation mining: top-``k`` adjacent-token bigrams ranked by
    pointwise lift ``p(x,y) / (p(x)·p(y))`` — PMI without the log (``ln``
    is monotone so the ranking IS the PMI ranking, and the bare ratio is
    pure IEEE mult/div, bit-identical between Ray and the DuckDB oracle
    where two libm ``ln`` implementations need not agree). Ties break by
    (x, y) byte order.

    Scale shape: ONE pass over the text — each batch emits pre-aggregated
    (kind, x, y) → c partial counts (kind 'u' rows carry unigrams with
    y=''), so the only data-sized exchange is a vocab-sized groupby.
    Totals are a 2-row aggregate; attaching unigram counts to surviving
    bigrams is two distributed hash joins against the vocab-sized side;
    ranking is a distributed sort + limit. No driver collect anywhere.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from localhost_address_matching_ray.functions.normalize import normalize_content_arrow
    from localhost_address_matching_ray.stages.cluster import _collect, _partitions_for

    def partial(batch: pa.Table) -> pa.Table:
        norm = pc.utf8_lower(normalize_content_arrow(batch["text"]))
        lists = pc.split_pattern(norm, pattern=" ")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        vals = lists.flatten()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        enc = vals.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dic = enc.dictionary
        n_u = len(dic)
        ucnt = np.bincount(idx, minlength=n_u)
        n = len(idx)
        # pair (i, i+1) is a bigram iff it does not straddle a doc boundary
        valid = np.ones(max(n - 1, 0), dtype=bool)
        ends = offs[1:-1] - 1
        ends = ends[(ends >= 0) & (ends < n - 1)]
        valid[ends] = False
        bx, by = idx[:-1][valid], idx[1:][valid]
        bkey, bcnt = np.unique(bx * n_u + by, return_counts=True)
        kind = np.concatenate(
            (np.full(n_u, "u"), np.full(len(bkey), "b"))
        )
        xs = pa.concat_arrays([
            dic.combine_chunks() if isinstance(dic, pa.ChunkedArray) else dic,
            dic.take(pa.array(bkey // n_u)),
        ])
        ys = pa.concat_arrays([
            pa.array(np.full(n_u, ""), pa.string()),
            dic.take(pa.array(bkey % n_u)),
        ])
        return pa.table({
            "kind": pa.array(kind, pa.string()),
            "x": xs,
            "y": ys,
            "c": pa.array(np.concatenate((ucnt, bcnt)), pa.int64()),
        })

    def fold_bucket(g: pa.Table) -> pa.Table:
        # Arrow-native C++ group_by inside the bucket — no Python per key
        out = g.group_by(
            ["kind", "x", "y"]
        ).aggregate([("c", "sum")])
        return out.rename_columns(["kind", "x", "y", "c"])

    # no docs.count() emptiness pre-check — that would cost a full extra
    # pass over the text; the "b" ∉ totals guard below covers empty input
    counts = bucket_fold(
        docs.map_batches(partial, batch_format="pyarrow"), ["x", "y"], fold_bucket
    ).materialize()
    totals = _collect(
        counts.groupby("kind").aggregate(Sum("c", alias_name="t")),
        pa.schema([("kind", pa.string()), ("t", pa.int64())]),
    )
    tmap = dict(zip(
        totals["kind"].to_pylist(),
        totals["t"].to_numpy(zero_copy_only=False).astype(np.float64),
    ))
    if "b" not in tmap:
        return ray.data.from_arrow(_BIGRAM_LIFT_SCHEMA.empty_table())
    tot, btot = tmap["u"], tmap["b"]

    def keep_bigrams(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(t["kind"], "b"), pc.greater_equal(t["c"], min_count))
        return t.filter(m).select(["x", "y", "c"])

    def keep_unigrams(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], "u"))
        return pa.table({"tok": t["x"], "cu": t["c"]})

    bi = counts.map_batches(keep_bigrams, batch_format="pyarrow")
    n_bi = bi.count()
    if n_bi == 0:
        return ray.data.from_arrow(_BIGRAM_LIFT_SCHEMA.empty_table())
    uni = counts.map_batches(keep_unigrams, batch_format="pyarrow").materialize()
    n_uni = uni.count()
    if n_uni <= BIGRAM_VOCAB_BROADCAST_MAX:
        # the unigram vocab fits a worker heap: broadcast (token, count)
        # once and attach counts with C++ hash lookups (pc.index_in) —
        # the two tiny hash joins cost more in aggregator-actor spin-up
        # than this whole pass (measured 1.5 s → 0.2 s at sf0.1)
        ut = pa.concat_tables(
            [b for b in ray.get(uni.to_arrow_refs()) if b.num_columns > 0]
        )
        uref = ray.put((
            ut["tok"].combine_chunks(),
            ut["cu"].to_numpy(zero_copy_only=False).astype(np.float64),
        ))

        def score_b(t: pa.Table) -> pa.Table:
            toks, cus = ray.get(uref)
            ix = pc.index_in(t["x"], value_set=toks).to_numpy(zero_copy_only=False)
            iy = pc.index_in(t["y"], value_set=toks).to_numpy(zero_copy_only=False)
            # every bigram token has a unigram row by construction
            c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
            lift = duckdb_round(
                (c / btot) / ((cus[ix] / tot) * (cus[iy] / tot)), 6
            )
            return pa.table({
                "x": t["x"], "y": t["y"],
                "c": t["c"].cast(pa.int64()),
                "lift": pa.array(lift, pa.float64()),
            })

        return (
            bi.map_batches(score_b, batch_format="pyarrow")
            .sort(["lift", "x", "y"], descending=[True, False, False])
            .limit(k)
        )
    parts = _partitions_for(n_bi)
    j = bi.join(uni, join_type="inner", num_partitions=parts, on=("x",), right_on=("tok",))

    def rename_cx(t: pa.Table) -> pa.Table:
        return t.select(["x", "y", "c", "cu"]).rename_columns(["x", "y", "c", "cx"])

    j = j.map_batches(rename_cx, batch_format="pyarrow")
    j = j.join(uni, join_type="inner", num_partitions=parts, on=("y",), right_on=("tok",))

    def score(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cx = t["cx"].to_numpy(zero_copy_only=False).astype(np.float64)
        cy = t["cu"].to_numpy(zero_copy_only=False).astype(np.float64)
        lift = duckdb_round((c / btot) / ((cx / tot) * (cy / tot)), 6)
        return pa.table({
            "x": t["x"], "y": t["y"],
            "c": t["c"].cast(pa.int64()),
            "lift": pa.array(lift, pa.float64()),
        })

    return (
        j.map_batches(score, batch_format="pyarrow")
        .sort(["lift", "x", "y"], descending=[True, False, False])
        .limit(k)
    )


def bm25_topk(
    docs: ray.data.Dataset,
    terms: list[str],
    k: int = 10,
) -> ray.data.Dataset:
    """BM25 retrieval: top-``k`` documents for a fixed query-term set — the
    lexical half of similarity search (``ann_topk`` is the embedding half).

    Two streaming passes, O(1) exchange: pass 1 reduces per-batch partials
    (doc count, total token count, per-term document frequency — a
    |terms|-wide row, NOT a vocabulary groupby: the query is tiny and known,
    so df is computed only for its terms); pass 2 scores each batch locally
    against the broadcast stats and pre-selects its own top-k, then one
    |batches|×k sort/limit picks the global winners. Nothing doc-shaped is
    shuffled.

    Exactness: df/tf/dl are integers; idf uses the engine's log-free form
    ``((N - df) + 0.5) / (df + 0.5)`` (the ``doc_top_terms`` precedent —
    monotone in the classic idf, IEEE-exact across engines, no libm ``ln``);
    every float expression is parenthesized identically in the SQL oracle,
    and the per-term scores are summed in declared term order, so Ray and
    DuckDB agree bit-for-bit.

    The BM25 constants k1=1.2 / b=0.75 appear as LITERALS (2.2, 1.2, 0.25,
    0.75) in both the kernel and the oracle: ``k1 + 1`` computed at runtime
    rounds differently from the source literal ``2.2`` in IEEE doubles, so
    parameterizing them would silently break bit-parity.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    m = len(terms)
    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("dl", pa.int64()), ("score", pa.float64()),
    ])
    term_arr = pa.array(terms, pa.string())

    def term_codes(dict_strings: pa.Array) -> np.ndarray:
        # -1 = term absent from this batch's token dictionary
        return pc.fill_null(
            pc.index_in(term_arr, value_set=dict_strings), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)

    def stats_partial(batch: pa.Table) -> pa.Table:
        rows, toks, tf, dict_strings = _batch_row_token_tf(batch)
        codes = term_codes(dict_strings)
        out = {
            "one": pa.array([0], pa.int32()),
            "nd": pa.array([batch.num_rows], pa.int64()),
            "tot": pa.array([int(tf.sum()) if len(tf) else 0], pa.int64()),
        }
        for i in range(m):
            dfi = int((toks == codes[i]).sum()) if codes[i] >= 0 else 0
            out[f"df{i}"] = pa.array([dfi], pa.int64())
        return pa.table(out)

    cols = ["nd", "tot"] + [f"df{i}" for i in range(m)]
    agg = (
        docs.map_batches(stats_partial, batch_format="pyarrow", batch_size=4096)
        .groupby("one")
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
        .take(1)
    )
    stats = agg[0] if agg else {c: 0 for c in cols}
    nd = float(stats["nd"] or 0)
    if nd == 0.0:
        return ray.data.from_arrow(out_schema.empty_table())
    avgdl = float(stats["tot"] or 0) / nd
    idf = [((nd - float(stats[f"df{i}"] or 0)) + 0.5)
           / (float(stats[f"df{i}"] or 0) + 0.5) for i in range(m)]

    def score_batch(batch: pa.Table) -> pa.Table:
        rows, toks, tf, dict_strings = _batch_row_token_tf(batch)
        n = batch.num_rows
        if n == 0 or len(rows) == 0:
            return out_schema.empty_table()
        dl = np.bincount(rows, weights=tf, minlength=n).astype(np.int64)
        codes = term_codes(dict_strings)
        nrm = 0.25 + ((0.75 * dl.astype(np.float64)) / avgdl)
        score = np.zeros(n, np.float64)
        hit = np.zeros(n, bool)
        for i in range(m):  # term order fixed = SQL's (s0 + s1) + s2
            tfv = np.zeros(n, np.float64)
            if codes[i] >= 0:
                mask = toks == codes[i]
                tfv[rows[mask]] = tf[mask]
            score = score + ((idf[i] * (tfv * 2.2)) / (tfv + (1.2 * nrm)))
            hit |= tfv > 0
        keep = np.flatnonzero(hit)
        # per-batch pre-top-k: only k candidates per batch reach the sort
        if len(keep) > k:
            sub = np.lexsort((
                batch["doc_id"].to_numpy(zero_copy_only=False)[keep],
                -score[keep],
            ))[:k]
            keep = keep[sub]
        doc_col = batch["doc_id"]
        if isinstance(doc_col, pa.ChunkedArray):
            doc_col = doc_col.combine_chunks()
        return pa.table({
            "doc_id": doc_col.take(pa.array(keep)),
            "dl": pa.array(dl[keep], pa.int64()),
            "score": pa.array(score[keep], pa.float64()),
        })

    return (
        docs.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
    )


def _batch_token_seq(batch: pa.Table):
    """Sequence-order token view of one batch: (per-token row index,
    per-token dictionary code, per-row token count, dictionary size).
    Unlike :func:`_batch_row_token_tf` this preserves ORDER (bigram /
    windowing consumers); all-empty rows report 0 tokens and contribute no
    entries. One normalize + split + dictionary-encode pass, no per-row
    Python."""
    import pyarrow.compute as pc

    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
    )

    n = batch.num_rows
    col = batch["text"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    norm = normalize_content_arrow(pc.fill_null(col, ""))
    tok_list = pc.split_pattern(norm, pattern=" ")
    enc = pc.list_flatten(tok_list).dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = pc.list_value_length(tok_list).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    # split_pattern('') == [''] while the token semantics say []: zero the
    # empty rows and drop their lone '' entry from the sequence
    empty = np.asarray(
        pc.equal(norm, "").to_numpy(zero_copy_only=False), dtype=bool
    )
    nt = lens.copy()
    nt[empty] = 0
    keep = ~empty[row_of]
    return row_of[keep], codes[keep], nt, len(enc.dictionary)


def doc_repetition(
    docs: ray.data.Dataset,
    *,
    min_tokens: int = 20,
    max_dup_token_frac: float = 0.55,
    max_top_bigram_frac: float = 0.06,
) -> ray.data.Dataset:
    """Repetition-based quality features per document (the Gopher/C4-style
    repetition rules a training-data pipeline gates on): ``dup_token_frac``
    = 1 − distinct/total tokens, ``top_bigram_frac`` = most-frequent-bigram
    count / total bigrams, plus the combined ``keep`` verdict. Stateless
    vectorized ``map_batches`` — per-doc state never leaves its batch, so
    the stage streams at any corpus size. Fractions are rounded to 6 dp on
    BOTH sides (SQL parity) and the keep thresholds compare the rounded
    values."""

    out_schema = pa.schema([
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("dup_token_frac", pa.float64()),
        ("top_bigram_frac", pa.float64()),
        ("keep", pa.bool_()),
    ])

    def batch_fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return out_schema.empty_table()
        rows, seq, nt, vocab = _batch_token_seq(batch)
        # distinct tokens per row: one lexsort, count runs
        ndist = np.zeros(n, np.int64)
        if len(rows):
            order = np.lexsort((seq, rows))
            rs, cs = rows[order], seq[order]
            run = np.concatenate(
                ([True], (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1]))
            )
            ndist += np.bincount(rs[run], minlength=n).astype(np.int64)
        # top bigram count per row: adjacent-pair codes (exact — dictionary
        # codes, not hashes), one lexsort, run-length, max per row
        top = np.zeros(n, np.int64)
        if len(rows) > 1:
            adj = rows[1:] == rows[:-1]
            brow = rows[:-1][adj]
            bg = seq[:-1][adj] * np.int64(vocab) + seq[1:][adj]
            if len(brow):
                o2 = np.lexsort((bg, brow))
                br, bgs = brow[o2], bg[o2]
                b_run = np.concatenate(
                    ([True], (br[1:] != br[:-1]) | (bgs[1:] != bgs[:-1]))
                )
                starts = np.flatnonzero(b_run)
                counts = np.diff(np.append(starts, len(br)))
                np.maximum.at(top, br[starts], counts)
        nb = np.maximum(nt - 1, 0)
        # mirror the SQL expressions literally (1.0 - ndt/nt, topc/nb) so
        # the float64 intermediates are bit-identical before rounding
        dup = duckdb_round(
            np.where(nt > 0, 1.0 - ndist / np.maximum(nt, 1), 0.0), 6
        )
        big = duckdb_round(
            np.where(nb > 0, top / np.maximum(nb, 1), 0.0), 6
        )
        keep = (
            (nt >= min_tokens)
            & (dup <= max_dup_token_frac)
            & (big <= max_top_bigram_frac)
        )
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(nt, pa.int64()),
            "dup_token_frac": pa.array(dup, pa.float64()),
            "top_bigram_frac": pa.array(big, pa.float64()),
            "keep": pa.array(keep),
        })

    return docs.map_batches(batch_fn, batch_format="pyarrow", batch_size=4096)


#: Fail-fast ceiling for the broadcast benchmark-snippet set. A real
#: decontamination run's benchmark side is a fixed eval corpus (thousands of
#: snippets); anything past this cap means the caller sampled the corpus
#: itself and should build an Aho-Corasick automaton per actor instead of
#: the per-snippet substring scans.
DECONTAMINATE_MAX_SNIPPETS = 100_000


def doc_decontaminate(
    docs: ray.data.Dataset,
    *,
    modulus: int = 53,
    snip_start: int = 2,
    snip_stop: int = 10,
    min_tokens: int = 10,
    max_snippets: int | None = None,
) -> ray.data.Dataset:
    """Benchmark decontamination: flag every document whose normalized text
    contains any benchmark snippet. The benchmark set (here: the 8-token
    span [snip_start:snip_stop) of every ``doc_id % modulus == 0`` document
    with ≥ ``min_tokens`` tokens — a deterministic stand-in for a fixed
    eval corpus) is the SMALL side by construction: it is extracted in one
    narrow pass, deduped, broadcast once via ``ray.put``, and every batch
    runs one C-level ``match_substring`` scan per distinct snippet.
    ``n_hits`` counts DISTINCT snippets found. Fail-fast cap
    ``DECONTAMINATE_MAX_SNIPPETS`` guards the driver collect; past it the
    right structure is a per-actor Aho-Corasick automaton over the same
    broadcast, which changes only the inner loop."""
    import pyarrow.compute as pc

    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
    )

    cap = DECONTAMINATE_MAX_SNIPPETS if max_snippets is None else max_snippets

    def extract(batch: pa.Table) -> pa.Table:
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids % modulus == 0)
        if len(sel) == 0:
            return pa.schema([("snippet", pa.string())]).empty_table()
        norm = normalize_content_arrow(
            pc.fill_null(col.take(pa.array(sel)), "")
        )
        toks = pc.split_pattern(norm, pattern=" ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        empty = np.asarray(
            pc.equal(norm, "").to_numpy(zero_copy_only=False), dtype=bool
        )
        ok = (lens >= min_tokens) & ~empty
        sliced = pc.list_slice(
            toks.take(pa.array(np.flatnonzero(ok))),
            start=snip_start, stop=snip_stop,
        )
        return pa.table({"snippet": pc.binary_join(sliced, " ")})

    bench = docs.map_batches(extract, batch_format="pyarrow").materialize()
    n_bench = bench.count()
    if n_bench > cap:
        raise ValueError(
            f"doc_decontaminate: benchmark snippet set has {n_bench} rows "
            f"(cap {cap}) — a benchmark corpus is fixed-size by nature; "
            "for a set this large build a per-actor Aho-Corasick automaton "
            "instead of per-snippet scans"
        )
    snippets = np.unique(np.concatenate([
        t["snippet"].to_numpy(zero_copy_only=False)
        for t in ray.get(bench.to_arrow_refs())
        if t.num_rows
    ])) if n_bench else np.empty(0, dtype=object)
    snip_ref = ray.put([str(s) for s in snippets])

    def mark(batch: pa.Table) -> pa.Table:
        snips = ray.get(snip_ref)
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        norm = normalize_content_arrow(pc.fill_null(col, ""))
        n_hits = np.zeros(batch.num_rows, np.int64)
        for s in snips:
            n_hits += np.asarray(
                pc.match_substring(norm, s).to_numpy(zero_copy_only=False),
                dtype=np.int64,
            )
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_hits": pa.array(n_hits, pa.int64()),
            "contaminated": pa.array(n_hits > 0),
        })

    return docs.map_batches(mark, batch_format="pyarrow", batch_size=4096)


def doc_chunk_windows(
    docs: ray.data.Dataset, *, window: int = 32, stride: int = 24
) -> ray.data.Dataset:
    """Training-sequence chunking: each document's normalized token stream
    → overlapping windows of ``window`` tokens stepped by ``stride`` (the
    context-packing / embedding-chunk operator). Stateless flat-map-shaped
    ``map_batches``: output ≈ n_tokens/stride rows per doc, built entirely
    from one gather over the flattened token array (no per-chunk Python) —
    the stage streams regardless of corpus size."""
    import pyarrow.compute as pc

    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
    )

    out_schema = pa.schema([
        ("doc_id", pa.int64()),
        ("chunk_idx", pa.int64()),
        ("n_chunk_tokens", pa.int64()),
        ("chunk_text", pa.string()),
    ])

    def batch_fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return out_schema.empty_table()
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        norm = normalize_content_arrow(pc.fill_null(col, ""))
        tok_list = pc.split_pattern(norm, pattern=" ")
        flat = pc.list_flatten(tok_list)
        lens = pc.list_value_length(tok_list).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        empty = np.asarray(
            pc.equal(norm, "").to_numpy(zero_copy_only=False), dtype=bool
        )
        nt = lens.copy()
        nt[empty] = 0
        nchunks = np.where(nt > 0, (nt - 1) // stride + 1, 0)
        total = int(nchunks.sum())
        if total == 0:
            return out_schema.empty_table()
        doc_rep = np.repeat(np.arange(n, dtype=np.int64), nchunks)
        ex = np.concatenate(([0], np.cumsum(nchunks)))[:-1]
        cidx = np.arange(total, dtype=np.int64) - np.repeat(ex, nchunks)
        starts = cidx * stride
        clen = np.minimum(starts + window, nt[doc_rep]) - starts
        # gather indices into the flat token array (lens, not nt: empty
        # rows still occupy one '' slot in `flat` but emit no chunks)
        row_start = np.concatenate(([0], np.cumsum(lens)))[:-1]
        flat_start = row_start[doc_rep] + starts
        ex2 = np.concatenate(([0], np.cumsum(clen)))[:-1]
        gather = (
            np.repeat(flat_start - ex2, clen)
            + np.arange(int(clen.sum()), dtype=np.int64)
        )
        taken = flat.take(pa.array(gather))
        offs = pa.array(
            np.concatenate(([0], np.cumsum(clen))).astype(np.int32)
        )
        chunk_text = pc.binary_join(
            pa.ListArray.from_arrays(offs, taken), " "
        )
        doc_col = batch["doc_id"]
        if isinstance(doc_col, pa.ChunkedArray):
            doc_col = doc_col.combine_chunks()
        return pa.table({
            "doc_id": doc_col.take(pa.array(doc_rep)),
            "chunk_idx": pa.array(cidx, pa.int64()),
            "n_chunk_tokens": pa.array(clen, pa.int64()),
            "chunk_text": chunk_text,
        })

    return docs.map_batches(batch_fn, batch_format="pyarrow", batch_size=4096)


def doc_pack_offsets(
    docs: ray.data.Dataset, *, capacity: int = 2048, n_ranges: int | None = None
) -> ray.data.Dataset:
    """Sequence-packing offsets: every document's global start position in
    the concatenated token stream (doc_id order) plus the first/last
    fixed-``capacity`` training bin it lands in — the "concat everything,
    cut every N tokens" layout LLM training shards use.

    The hard part is a GLOBAL ORDERED PREFIX SUM, which Ray Data has no
    primitive for; this is the classic distributed two-phase scan:

    1. one narrow pass computes per-doc token counts (SQL-exact: count of
       spaces in the whitespace-normalized text + 1, empty → 0) and tags an
       ORDER-PRESERVING doc_id range bucket (``(doc_id - lo) // step`` —
       every id in bucket b sorts before every id in b+1, so local order +
       bucket order = global order);
    2. a |buckets|-row groupby-sum feeds a driver-side exclusive scan of
       bucket base offsets (tiny: bucket_width() values), broadcast once;
    3. per-bucket ``map_groups`` does one local sort + cumsum and adds the
       bucket base — no row ever shuffles twice, the driver never sees
       per-doc rows, and skew is bounded by the id-range split.

    Dense monotone ids keep ranges balanced; a pathological id distribution
    degrades balance but never correctness."""
    import pyarrow.compute as pc

    from localhost_address_matching_ray.config import bucket_width
    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
    )
    from ray.data.aggregate import Sum

    nb = n_ranges or bucket_width()
    out_schema = pa.schema([
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("start_token", pa.int64()),
        ("start_bin", pa.int64()),
        ("end_bin", pa.int64()),
    ])

    def count_tokens(batch: pa.Table) -> pa.Table:
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        norm = normalize_content_arrow(pc.fill_null(col, ""))
        nt = (
            pc.count_substring(norm, pattern=" ")
            .to_numpy(zero_copy_only=False).astype(np.int64) + 1
        )
        nt[np.asarray(pc.equal(norm, "").to_numpy(zero_copy_only=False), bool)] = 0
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": pa.array(nt)})

    tok = docs.map_batches(count_tokens, batch_format="pyarrow").materialize()
    if tok.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    lo = int(tok.min("doc_id"))
    hi = int(tok.max("doc_id"))
    step = max(1, -(-(hi - lo + 1) // nb))  # ceil; avoids mul-overflow bucketing

    def add_range(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "rb", pa.array((did - lo) // step, pa.int64())
        )

    tagged = tok.map_batches(add_range, batch_format="pyarrow").materialize()
    sums = pa.concat_tables([
        b for b in ray.get(
            tagged.groupby("rb").aggregate(Sum("n_tokens", alias_name="s"))
            .materialize().to_arrow_refs()
        ) if b.num_rows > 0
    ])
    per_bucket = np.zeros(nb, dtype=np.int64)
    per_bucket[sums["rb"].to_numpy(zero_copy_only=False)] = (
        sums["s"].to_numpy(zero_copy_only=False)
    )
    base = np.concatenate(([0], np.cumsum(per_bucket)[:-1]))
    base_ref = ray.put(base)

    def local_scan(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return out_schema.empty_table()
        b = ray.get(base_ref)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        nt = g["n_tokens"].to_numpy(zero_copy_only=False)
        rb = int(g["rb"][0].as_py())
        order = np.argsort(did)
        did, nt = did[order], nt[order]
        start = b[rb] + np.cumsum(nt) - nt  # exclusive local prefix + base
        start_bin = start // capacity
        end_bin = np.where(nt > 0, (start + nt - 1) // capacity, start_bin)
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "start_token": pa.array(start, pa.int64()),
            "start_bin": pa.array(start_bin, pa.int64()),
            "end_bin": pa.array(end_bin, pa.int64()),
        })

    return tagged.groupby("rb").map_groups(local_scan, batch_format="pyarrow")
