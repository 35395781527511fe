"""Similarity search over an embedding column (``list<float>``).

Training-data-pipeline operator family: brute-force cosine top-k as the
baseline — the query matrix is broadcast once via ``ray.put``, fetched once
per worker process by stateless tasks (``stages/broadcast.cached_get``), and
every batch does one float64 matmul against it (never re-shipped per batch);
an LSH-bucketed variant (random hyperplane signs → bucket key) is the scale
path, trading exactness for a hash-bucket fold over bucket keys instead of
all-pairs.

Scores are rounded to 6 decimals and ranked on the rounded value with
``vec_id`` tie-break so results are reproducible against a DuckDB
``list_cosine_similarity`` oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from localhost_address_matching_ray.config import PipelineConfig
from localhost_address_matching_ray.functions.similarity import duckdb_round
from localhost_address_matching_ray.stages.broadcast import (
    cached_get,
    fetch_sorted,
    involved_ids,
)
from localhost_address_matching_ray.stages.buckets import bucket_fold
from localhost_address_matching_ray.stages.pairs import distinct_pairs


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """DuckDB list_cosine_similarity semantics in float64:
    dot / (sqrt(norm_a) * sqrt(norm_b)), rounded to 6 decimals."""
    na = np.sqrt((a * a).sum(axis=1))
    nb = np.sqrt((b * b).sum(axis=1))
    return duckdb_round((a @ b.T) / (na[:, None] * nb[None, :]), 6)


def _empty_pairs() -> ray.data.Dataset:
    """0-row (u, v, score) dataset with the pair schema every cosine-pair
    entry point shares — the empty-input early return."""
    return ray.data.from_arrow(pa.table({
        "u": pa.array([], pa.int64()),
        "v": pa.array([], pa.int64()),
        "score": pa.array([], pa.float64()),
    }))


def _emb_matrix(batch: pa.Table, col: str = "embedding", dim: int = 0) -> np.ndarray:
    """Embedding list column → (n, dim) float64 matrix. ``dim`` matters only
    for 0-row batches (a filter can empty a single block mid-dataset; the
    list type carries no width to reshape(-1) against) — per-batch UDFs
    pass their known dimension so the empty matrix still matmuls cleanly."""
    if batch.num_rows == 0:
        return np.empty((0, dim), dtype=np.float64)
    arr = batch[col].combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(batch.num_rows, -1)


def _topk_scorer_factory(query_ref, k: int):
    """Stateless-task scorer over the broadcast query bundle (ids, float64
    matrix), fetched once per worker process: per batch it emits each
    query's top-k *within the batch* (k small, batches large → the
    candidate stream is tiny; a final per-query reduce picks global
    top-k)."""

    def topk_batch(batch: pa.Table) -> pa.Table:
        q = cached_get(query_ref)
        qids, qm = q["ids"], q["matrix"]
        cm = _emb_matrix(batch, dim=qm.shape[1])
        sims = _cosine_matrix(qm, cm)  # (nq, nb)
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        # columns ordered by vec_id so the stable argsort's candidate cut
        # breaks score TIES by vec_id asc — the final reduce's (and the
        # DuckDB oracle's) ranking contract; batch-position tie-breaks
        # would let a duplicate vector's larger ids evict smaller ones
        # before the global reduce ever saw them
        vo = np.argsort(vec_ids, kind="stable")
        sims, vec_ids = sims[:, vo], vec_ids[vo]
        nq, nb = sims.shape
        kk = min(k + 1, nb)  # +1: self-hit may be in-batch
        # per query: candidate top-k within this batch
        idx = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
        qid_out = np.repeat(qids, kk)
        cand = vec_ids[idx.ravel()]
        score = sims[np.repeat(np.arange(nq), kk), idx.ravel()]
        return pa.table({
            "query_id": pa.array(qid_out, pa.int64()),
            "neighbor_id": pa.array(cand, pa.int64()),
            "score": pa.array(score, pa.float64()),
        })

    return topk_batch


def ann_topk(
    embeddings: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
) -> ray.data.Dataset:
    """Global top-k cosine neighbors (self excluded) for each query row.

    Two-stage top-k: per-batch candidates (stateless map_batches tasks,
    broadcast queries) then a per-query ``groupby(query_id).map_groups``
    exact reduce — the partial-aggregate-then-small-shuffle pattern.
    Output: (query_id, neighbor_id, rank, score).
    """
    ref = ray.put({
        "ids": np.asarray(query_ids),
        "matrix": np.asarray(query_matrix).astype(np.float64),
    })
    cands = embeddings.map_batches(
        _topk_scorer_factory(ref, k), batch_format="pyarrow", batch_size=4096,
    )

    return cands.groupby("query_id").map_groups(
        _topk_reduce_factory(k), batch_format="pyarrow"
    )


def _topk_reduce_factory(k: int, dedup_neighbors: bool = False):
    """Final per-query exact reduce over the (tiny) candidate stream:
    drop self-hits, rank by (-score, neighbor_id).

    ``dedup_neighbors`` is ONLY for the multi-probe IVF path, where one
    data row reaches the same query via several probed cells and must
    count once (kept at its max score). The brute path must NOT dedup:
    duplicate vec_ids are distinct rows there, and the ★ ``ann_topk``
    oracle ranks each row separately."""

    def reduce_group(g: pa.Table) -> pa.Table:
        qid = g["query_id"][0].as_py()
        nb = g["neighbor_id"].to_numpy(zero_copy_only=False)
        sc = g["score"].to_numpy(zero_copy_only=False)
        mask = nb != qid  # exclude self
        nb, sc = nb[mask], sc[mask]
        if dedup_neighbors and len(nb):
            # keep each neighbor once at its BEST score (sub-matrix gemms
            # can differ in the last ulp between probes — first-seen would
            # be batch-order-dependent)
            best = np.lexsort((-sc, nb))  # sorted by (nb asc, score desc)
            nb_s, sc_s = nb[best], sc[best]
            keep = np.concatenate(([True], nb_s[1:] != nb_s[:-1]))
            nb, sc = nb_s[keep], sc_s[keep]
        order = np.lexsort((nb, -sc))[:k]
        return pa.table({
            "query_id": pa.array(np.full(len(order), qid), pa.int64()),
            "neighbor_id": pa.array(nb[order], pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
            "score": pa.array(sc[order], pa.float64()),
        })

    return reduce_group


def _ivf_topk_scorer_factory(ref, k: int, n_probe_data: int):
    """Stateless-task scorer over the broadcast IVF bundle (query ids and
    matrix, centroids, per-cell query lists), fetched once per worker
    process: a batch row is scored ONLY against the queries probing one of
    its ``n_probe_data`` cells — per-batch work shrinks by ~
    (n_probe·n_probe_data)/n_cells vs the brute broadcast scorer."""

    def topk_batch(batch: pa.Table) -> pa.Table:
        st = cached_get(ref)
        qids, qm, cent, cell_queries = st["ids"], st["qm"], st["cent"], st["cq"]
        m = _emb_matrix(batch, dim=cent.shape[1])
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        pd_ = min(n_probe_data, cent.shape[0])
        cells = np.argsort(-(mn @ cent.T), axis=1, kind="stable")[:, :pd_]
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        qs, ns, ss = [], [], []
        for c in np.unique(cells):
            qidx = cell_queries.get(int(c))
            if qidx is None or len(qidx) == 0:
                continue
            rows = np.where((cells == c).any(axis=1))[0]
            # vec_id-ordered rows: stable argsort then breaks score ties by
            # vec_id asc — the reduce's ranking contract (see
            # _topk_scorer_factory)
            rows = rows[np.argsort(vec_ids[rows], kind="stable")]
            sims = _cosine_matrix(qm[qidx], m[rows])  # (nq_c, nr)
            kk = min(k + 1, len(rows))
            idx = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
            qs.append(np.repeat(qids[qidx], kk))
            ns.append(vec_ids[rows][idx.ravel()])
            ss.append(sims[np.repeat(np.arange(len(qidx)), kk), idx.ravel()])
        if not qs:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            })
        return pa.table({
            "query_id": pa.array(np.concatenate(qs), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(ns), pa.int64()),
            "score": pa.array(np.concatenate(ss), pa.float64()),
        })

    return topk_batch


def ivf_topk(
    embeddings: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    n_cells: int = 16,
    n_probe: int = 8,
    n_probe_data: int = 2,
    sample_cap: int = 8192,
    seed: int = 211,
) -> ray.data.Dataset:
    """IVF multi-probe top-k — the similarity-SEARCH scale path
    (:func:`ann_topk` is the brute broadcast baseline that scores every
    batch against every query). Data vectors are probed into their
    ``n_probe_data`` nearest spherical-k-means cells, each query into its
    ``n_probe`` nearest; a batch row is scored only against queries
    sharing a cell. Candidates are exactly rescored, so scores are
    bit-identical to brute force; recall is approximate — a true neighbor
    whose cells are all unprobed is missed. On vectors with real cluster
    structure the probed cells prune hard; on unstructured vectors the
    candidate fraction degrades toward ``n_probe·n_probe_data/n_cells``
    (the price of recall without structure). The sandbox embeddings table
    is near-random (rank-1 cosine p90 ≈ 0.43), so the defaults here are
    recall-leaning (16/8/2 → measured 1.0 overlap with brute top-10);
    production configs with clustered data run 1024+ cells at
    ``n_probe≈8, n_probe_data=1``. The registered query is rows-only
    checked, with the recall test in ``tests/test_docs_ops.py``.
    """
    sample_tbl = _centroid_sample(embeddings, sample_cap)
    if sample_tbl.num_rows == 0:  # empty corpus: no cells, no neighbors
        return ray.data.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }))
    cent = _spherical_kmeans(_emb_matrix(sample_tbl), n_cells, seed=seed)
    qm = np.asarray(query_matrix, dtype=np.float64)
    qn = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-12)
    p = min(n_probe, cent.shape[0])
    qcells = np.argsort(-(qn @ cent.T), axis=1, kind="stable")[:, :p]
    cell_queries = {
        int(c): np.where((qcells == c).any(axis=1))[0]
        for c in np.unique(qcells)
    }
    ref = ray.put({
        "ids": np.asarray(query_ids), "qm": qm, "cent": cent, "cq": cell_queries,
    })
    cands = embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        _ivf_topk_scorer_factory(ref, k, n_probe_data),
        batch_format="pyarrow", batch_size=4096,
    )
    return cands.groupby("query_id").map_groups(
        _topk_reduce_factory(k, dedup_neighbors=True), batch_format="pyarrow"
    )


#: cosine_pairs collects the full embedding matrix to the driver — baseline
#: cross-check only; a larger input is a usage error, not a scale path.
COSINE_BASELINE_MAX_ROWS = 200_000


def cosine_pairs(
    embeddings: ray.data.Dataset,
    threshold: float,
    max_rows: int | None = None,
) -> ray.data.Dataset:
    """All pairs (u < v) with round(cosine, 6) ≥ threshold — the BRUTE-FORCE
    BASELINE, used only as the in-test oracle cross-check for
    :func:`lsh_cosine_pairs` (which is what the registered
    ``embedding_dup_pairs`` query runs).

    Block-broadcast pattern: the full matrix is collected once to the driver
    and rides the object store; each batch matmuls against it. O(n²/B) per
    task AND O(n·dim) driver memory — guarded by a hard row cap so it cannot
    silently run at scale.
    """
    all_tbl = embeddings.select_columns(["vec_id", "embedding"]).materialize()
    n_rows = all_tbl.count()
    cap = COSINE_BASELINE_MAX_ROWS if max_rows is None else max_rows
    if n_rows > cap:
        raise ValueError(
            f"cosine_pairs is the O(n²) driver-broadcast baseline and refuses "
            f"{n_rows} rows (cap {cap}); use lsh_cosine_pairs instead."
        )
    full = pa.concat_tables(ray.get(all_tbl.to_arrow_refs()))
    ids = full["vec_id"].to_numpy(zero_copy_only=False)
    mat_ref = ray.put({"ids": ids, "m": _emb_matrix(full)})

    def score(batch: pa.Table) -> pa.Table:
        ref = cached_get(mat_ref)
        bids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = _cosine_matrix(_emb_matrix(batch, dim=ref["m"].shape[1]), ref["m"])
        bi, fj = np.nonzero(sims >= threshold)
        u, v, s = bids[bi], ref["ids"][fj], sims[bi, fj]
        keep = u < v
        return pa.table({
            "u": pa.array(u[keep], pa.int64()),
            "v": pa.array(v[keep], pa.int64()),
            "score": pa.array(s[keep], pa.float64()),
        })

    # map over the ALREADY-materialized selection: re-running the original
    # lineage would execute every upstream op a second time and could score
    # a different row set than the broadcast matrix if any upstream op is
    # nondeterministic
    return all_tbl.map_batches(
        score, batch_format="pyarrow", batch_size=2048
    )


_LSH_P1 = np.uint64(0x9E3779B97F4A7C15)
_LSH_P2 = np.uint64(0xBF58476D1CE4E5B9)
_LSH_P3 = np.uint64(0x94D049BB133111EB)

def _hyperplane_keyer_factory(planes_ref):
    """Stateless-task random-hyperplane LSH bucket keys for cosine
    similarity over the broadcast ``(n_tables, n_planes, dim)`` plane array,
    fetched once per worker process — KEY-ONLY emission (the
    flagship/doc-LSH lesson: vectors never ride the band shuffle; round 2
    shipped the full float32 vector on every one of ``n_tables`` band rows
    — 64× payload amplification at the registered config).

    ``n_planes`` sign bits per table × ``n_tables`` tables (fixed-seed
    hyperplanes built once on the driver). Two vectors with cosine ≥ t
    share a bucket in at least one table with probability
    1 − (1 − (1 − θ/π)^n_planes)^n_tables. Each row emits ``n_tables``
    rows of (vec_id, bucket_key uint64) — 16 B — built in one vectorized
    pass (sign matmul → power-of-two dot → splitmix finalize)."""

    def key_batch(batch: pa.Table) -> pa.Table:
        planes = cached_get(planes_ref)
        n_tables, n_planes, dim = planes.shape
        pw = np.uint64(1) << np.arange(n_planes, dtype=np.uint64)
        m = _emb_matrix(batch, dim=dim)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        n = len(ids)
        keys = np.empty((n_tables, n), dtype=np.uint64)
        with np.errstate(over="ignore"):  # uint64 wraparound is the hash
            for t in range(n_tables):
                signs = ((m @ planes[t].T) > 0).astype(np.uint64)  # (n, n_planes)
                code = signs @ pw
                k = (code + np.uint64(1)) * _LSH_P1 ^ np.uint64(t + 1) * _LSH_P3
                k ^= k >> np.uint64(30)
                k *= _LSH_P2
                k ^= k >> np.uint64(27)
                keys[t] = k
        kh = keys.ravel()
        return pa.table({
            "vec_id": pa.array(np.tile(ids, n_tables), pa.int64()),
            "bucket_key": pa.array(kh, pa.uint64()),
        })

    return key_batch


#: lsh_cosine_pairs broadcasts the (sorted ids, float32 matrix) bundle once
#: via ray.put; above this row count the broadcast no longer fits a worker
#: heap and IVF is the right structure anyway.
LSH_BROADCAST_MAX_ROWS = 2_000_000


def lsh_cosine_pairs(
    embeddings: ray.data.Dataset,
    threshold: float,
    n_planes: int = 12,
    n_tables: int = 8,
    max_rows: int | None = None,
    max_bucket_rows: int = 8192,
) -> ray.data.Dataset:
    """LSH-bucketed cosine near-dup pairs — the scale path for
    :func:`cosine_pairs`: cost is O(rows·tables) key-only emission (20 B per
    band row) + per-key-run pairwise verification against a BROADCAST
    vector bundle (``ray.put`` once, fetched once per worker process — no
    vector bytes ever enter the shuffle), then a bucketed pair-hash
    max-score dedup. Precision is exact (every emitted pair is rescored
    with the exact rounded cosine); recall is the union bound
    1 − (1 − (1 − θ/π)^n_planes)^n_tables.

    Parameter trade (documented, per-query choice): few planes + many tables
    (4×64) drives per-pair miss to ~1e-6 even at low thresholds — the
    recall-tuned config the oracled queries use; more planes (8×32, the
    registered ``embedding_lsh_pairs`` config) bounds bucket sizes for a
    large corpus at the price of recall for low-cosine pairs (~63% AT the
    0.45 threshold, rising fast with cosine).

    Ceilings (the stated-cap philosophy): the vector broadcast refuses
    corpora above ``LSH_BROADCAST_MAX_ROWS`` (n·dim·4 B must fit a worker
    heap) — beyond it use :func:`ivf_cosine_pairs`, whose per-cell
    structure needs no global broadcast; key runs above ``max_bucket_rows``
    are truncated with a warning (a run that large means near-identical
    vectors; the remaining tables cover the ring)."""
    import logging

    logger = logging.getLogger(__name__)
    emb = embeddings.select_columns(["vec_id", "embedding"]).materialize()
    n_rows = emb.count()
    if n_rows == 0:
        return _empty_pairs()
    cap = LSH_BROADCAST_MAX_ROWS if max_rows is None else max_rows
    if n_rows > cap:
        raise ValueError(
            f"lsh_cosine_pairs broadcasts the vector bundle and refuses "
            f"{n_rows} rows (cap {cap}); use ivf_cosine_pairs (per-cell "
            f"structure, no global broadcast) at this scale."
        )
    ids_s, full = fetch_sorted(emb, None, _vec_ids)
    mat = _emb_matrix(full).astype(np.float32)
    bundle_ref = ray.put((ids_s, mat))
    dim = mat.shape[1]

    planes_ref = ray.put(
        np.random.RandomState(97).randn(n_tables, n_planes, dim)
    )
    keyed = emb.map_batches(
        _hyperplane_keyer_factory(planes_ref), batch_format="pyarrow", batch_size=4096,
    )

    def verify_bucket(group: pa.Table) -> pa.Table:
        """One hash bucket of (vec_id, bucket_key) rows: runs of equal key
        are found by numpy diff (no per-key groupby); each run gathers its
        vectors from the broadcast bundle and does one exact cosine matrix."""
        empty = pa.table({
            "u": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
        n = group.num_rows
        if n < 2:
            return empty
        ids_s, m_s = cached_get(bundle_ref)
        kh = group["bucket_key"].to_numpy(zero_copy_only=False)
        vids = group["vec_id"].to_numpy(zero_copy_only=False)
        o = np.lexsort((vids, kh))
        kh, vids = kh[o], vids[o]
        bounds = np.flatnonzero(np.diff(kh)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        chunks = []
        for s0, e0 in zip(starts, ends):
            k = e0 - s0
            if k < 2:
                continue
            if k > max_bucket_rows:
                logger.warning(
                    "lsh_cosine bucket overflow: %d rows > %d — truncated "
                    "(near-identical vectors; remaining tables cover the ring)",
                    k, max_bucket_rows,
                )
                e0 = s0 + max_bucket_rows
                k = max_bucket_rows
            run = vids[s0:e0]
            pos = np.searchsorted(ids_s, run)
            sub = m_s[pos].astype(np.float64)
            sims = _cosine_matrix(sub, sub)
            iu = np.triu_indices(k, 1)
            mask = (sims[iu] >= threshold) & (run[iu[0]] != run[iu[1]])
            if not mask.any():
                continue
            a, b = run[iu[0][mask]], run[iu[1][mask]]
            chunks.append((np.minimum(a, b), np.maximum(a, b), sims[iu][mask]))
        if not chunks:
            return empty
        u = np.concatenate([c[0] for c in chunks])
        v = np.concatenate([c[1] for c in chunks])
        s = np.concatenate([c[2] for c in chunks])
        # in-bucket dedup (same pair via several tables): keep max score
        o2 = np.lexsort((-s, v, u))
        u, v, s = u[o2], v[o2], s[o2]
        keep = np.concatenate(([True], (u[1:] != u[:-1]) | (v[1:] != v[:-1])))
        return pa.table({
            "u": pa.array(u[keep], pa.int64()),
            "v": pa.array(v[keep], pa.int64()),
            "score": pa.array(s[keep], pa.float64()),
        })

    raw = bucket_fold(keyed, "bucket_key", verify_bucket)
    # scores of one pair from different tables can differ in the last ulp
    return distinct_pairs(raw, keep_max="score")


def _centroid_sample(embeddings: ray.data.Dataset, sample_cap: int) -> pa.Table:
    """Deterministic SPREAD sample of (vec_id, embedding) for k-means
    training. A ``limit(sample_cap)`` prefix mirrors file order — a corpus
    sorted by source/time would train centroids on early clusters only and
    silently lose recall on late data. Rows are accepted by a splitmix64
    fold of vec_id under a threshold sized from the row count (≈1.25×
    oversample), then sorted by that hash and cut to ``sample_cap`` — the
    result is independent of block order and of the total row count's
    exact value."""
    slim = embeddings.select_columns(["vec_id", "embedding"])
    n = slim.count()
    if n == 0:
        # empty blocks come back schemaless (and Dataset.schema() is None
        # with no block to infer from); hand callers a TYPED empty table so
        # their num_rows guard (not a KeyError) decides
        return pa.table({
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float64())),
        })
    if n <= sample_cap:
        return pa.concat_tables(
            [t for t in ray.get(slim.to_arrow_refs()) if t.num_rows]
        )
    thr = np.uint64(min(2**64 - 1, int(2**64 * min(1.0, 1.25 * sample_cap / n))))

    def pick(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = v * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        return t.filter(pa.array(h < thr)).append_column(
            "_h", pa.array(h[h < thr], pa.uint64())
        )

    tbl = pa.concat_tables(
        ray.get(slim.map_batches(pick, batch_format="pyarrow").to_arrow_refs())
    )
    if tbl.num_rows > sample_cap:
        tbl = tbl.sort_by("_h").slice(0, sample_cap)
    return tbl.drop_columns(["_h"])


def _spherical_kmeans(sample: np.ndarray, n_cells: int, iters: int = 8,
                      seed: int = 211) -> np.ndarray:
    """Deterministic spherical k-means on a (driver-side) sample — the IVF
    coarse quantizer. Rows are L2-normalized; centroids renormalized each
    Lloyd step; empty cells re-seeded from the sample."""
    rng = np.random.RandomState(seed)
    s = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-12)
    idx = rng.choice(len(s), size=min(n_cells, len(s)), replace=False)
    cent = s[idx].copy()
    for _ in range(iters):
        assign = (s @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            members = s[assign == c]
            if len(members) == 0:
                cent[c] = s[rng.randint(len(s))]
            else:
                m = members.sum(axis=0)
                cent[c] = m / np.maximum(np.linalg.norm(m), 1e-12)
    return cent


def ivf_cosine_pairs(
    embeddings: ray.data.Dataset,
    threshold: float,
    n_cells: int = 32,
    n_probe: int = 4,
    sample_cap: int = 8192,
    seed: int = 211,
    verify_broadcast_max_rows: int = PipelineConfig.verify_broadcast_max_rows,
) -> ray.data.Dataset:
    """IVF-bucketed cosine near-dup pairs — the scale structure for LOW
    thresholds, where hyperplane LSH degenerates (a plane agrees on a
    cos>=0.45 pair only ~65% of the time; see :func:`lsh_cosine_pairs`).

    CANDIDATES-THEN-VERIFY (round-4: the ``stages/pairs.py`` shape — the
    previous version shipped every float32 vector through the cell shuffle
    on each of its ``n_probe`` probed cells, packed by a per-row Python
    ``tobytes`` loop):

    1. **assign** — coarse-quantize with spherical k-means (deterministic
       seed, driver-side spread sample); each row emits ``n_probe`` KEY-ONLY
       (vec_id int64, cell int32) rows — 12 B, no vector bytes in the
       shuffle (multi-probe: a near pair straddling a cell boundary still
       co-occurs in some probed cell — the pair set is EXACTLY the old
       co-occurrence semantics).
    2. **candidates** — per-cell distinct all-pairs (key-only, 16 B/pair),
       then cross-cell dedup via the bucketed pair-hash idiom, so every
       surviving pair is scored exactly once (the old path rescored a
       straddling pair per shared cell and kept the max ulp).
    3. **verify** — vectors are fetched for ONLY the rows that appear in a
       candidate pair: one filtered pass over the embeddings builds a
       (sorted ids, float32 matrix) broadcast bundle below
       ``verify_broadcast_max_rows`` involved rows (the flagship's
       default); above it the same scoring runs
       as two partitioned hash joins on vectorized fixed-size-binary
       vectors (each vector ships once per pair occurrence — stated,
       logged). Scores are the exact rounded float64 cosine of the
       float32-roundtripped vectors, identical to the previous path.

    Cost: O(rows * n_probe) key emission + per-cell pair generation;
    expected cell occupancy rows*n_probe/n_cells — tune n_cells
    proportional to sqrt(rows). Approximate recall (empirically ~1 at
    moderate thresholds; brute cross-check in tests), exact precision.
    """
    import logging

    logger = logging.getLogger(__name__)
    slim = embeddings.select_columns(["vec_id", "embedding"]).materialize()
    if slim.count() == 0:
        return _empty_pairs()
    sample_tbl = _centroid_sample(slim, sample_cap)
    dim = len(sample_tbl["embedding"][0])
    cent = _spherical_kmeans(_emb_matrix(sample_tbl), n_cells, seed=seed)
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = cached_get(cent_ref)
        m = _emb_matrix(batch, dim=c.shape[1])
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = mn @ c.T
        p = min(n_probe, sims.shape[1])
        cells = np.argsort(-sims, axis=1, kind="stable")[:, :p]
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, p), pa.int64()),
            "cell": pa.array(cells.ravel().astype(np.int32), pa.int32()),
        })

    assigned = slim.map_batches(assign, batch_format="pyarrow", batch_size=4096)

    def cell_pairs(group: pa.Table) -> pa.Table:
        """One cell -> distinct key-only candidate pairs (u < v)."""
        ids = np.unique(group["vec_id"].to_numpy(zero_copy_only=False))
        k = len(ids)
        if k < 2:
            return pa.table({
                "u": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
            })
        iu, jv = np.triu_indices(k, 1)
        return pa.table({
            "u": pa.array(ids[iu], pa.int64()),
            "v": pa.array(ids[jv], pa.int64()),
        })

    raw_pairs = assigned.groupby("cell").map_groups(
        cell_pairs, batch_format="pyarrow"
    )
    pairs = distinct_pairs(raw_pairs).materialize()
    involved = involved_ids(pairs)
    if len(involved) == 0:
        return _empty_pairs()
    if len(involved) <= verify_broadcast_max_rows:
        return _score_pairs_broadcast(pairs, slim, involved, threshold)
    logger.info(
        "ivf_cosine_pairs: %d involved rows > broadcast ceiling %d — "
        "partitioned-join scoring", len(involved), verify_broadcast_max_rows,
    )
    return _score_pairs_join(pairs, slim, threshold, dim)


def _vec_ids(t: pa.Table) -> np.ndarray:
    return t["vec_id"].to_numpy(zero_copy_only=False)


def _pair_cosine(u, v, mu: np.ndarray, mv: np.ndarray, threshold: float) -> pa.Table:
    """Rows ``mu[i]``, ``mv[i]`` (float32, as broadcast or joined) → the
    (u, v, score) pairs whose rounded float64 cosine meets ``threshold``."""
    mu, mv = mu.astype(np.float64), mv.astype(np.float64)
    dots = (mu * mv).sum(axis=1)
    nu = np.sqrt((mu * mu).sum(axis=1))
    nv = np.sqrt((mv * mv).sum(axis=1))
    s = duckdb_round(dots / (nu * nv), 6)
    keep = (s >= threshold) & (u != v)
    return pa.table({
        "u": pa.array(u[keep], pa.int64()),
        "v": pa.array(v[keep], pa.int64()),
        "score": pa.array(s[keep], pa.float64()),
    })


def _score_pairs_broadcast(
    pairs: ray.data.Dataset, slim: ray.data.Dataset, involved: np.ndarray,
    threshold: float,
) -> ray.data.Dataset:
    """Exact rounded-cosine scoring of a key-only pair stream against a
    broadcast (sorted ids, float32 matrix) bundle of ONLY the involved
    rows."""
    ids_s, tbl = fetch_sorted(slim, involved, _vec_ids)
    bundle_ref = ray.put((ids_s, _emb_matrix(tbl).astype(np.float32)))

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(dict(_EMPTY_PAIR_COLS))
        ids_s, m32 = cached_get(bundle_ref)
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        return _pair_cosine(
            u, v, m32[np.searchsorted(ids_s, u)], m32[np.searchsorted(ids_s, v)],
            threshold,
        )

    return pairs.map_batches(score, batch_format="pyarrow")


def _fsb_to_mat(col: pa.ChunkedArray | pa.Array, dim: int) -> np.ndarray:
    """FixedSizeBinary(4*dim) column -> (n, dim) float32, zero-copy from the
    value buffer."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    buf = np.frombuffer(arr.buffers()[1], dtype=np.float32)
    start = arr.offset * dim
    return buf[start : start + len(arr) * dim].reshape(len(arr), dim)


def _score_pairs_join(
    pairs: ray.data.Dataset, slim: ray.data.Dataset, threshold: float, dim: int,
) -> ray.data.Dataset:
    """Beyond-broadcast scoring: vectors packed VECTORIZED into
    FixedSizeBinary(4*dim) (one astype + buffer view — no per-row
    ``tobytes``), then two partitioned hash joins attach u's and v's vector
    to each pair. Each vector ships once per pair occurrence — the stated
    beyond-broadcast trade."""
    from localhost_address_matching_ray.stages.cluster import (
        _JOIN_ARGS,
        _partitions_for,
    )

    fsb_type = pa.binary(4 * dim)

    def pack(t: pa.Table) -> pa.Table:
        m = np.ascontiguousarray(_emb_matrix(t, dim=dim).astype(np.float32))
        fsb = pa.FixedSizeBinaryArray.from_buffers(
            fsb_type, t.num_rows, [None, pa.py_buffer(m.tobytes())]
        )
        return pa.table({"vid": t["vec_id"], "vec": fsb})

    vecs = slim.map_batches(pack, batch_format="pyarrow").materialize()
    parts = _partitions_for(max(pairs.count(), 1))
    ju = pairs.join(
        vecs, join_type="inner", num_partitions=parts,
        on=("u",), right_on=("vid",), **_JOIN_ARGS,
    ).map_batches(
        lambda t: pa.table({"u": t["u"], "v": t["v"], "uvec": t["vec"]}),
        batch_format="pyarrow",
    )
    jv = ju.join(
        vecs, join_type="inner", num_partitions=parts,
        on=("v",), right_on=("vid",), **_JOIN_ARGS,
    )

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(dict(_EMPTY_PAIR_COLS))
        return _pair_cosine(
            t["u"].to_numpy(zero_copy_only=False),
            t["v"].to_numpy(zero_copy_only=False),
            _fsb_to_mat(t["uvec"], dim), _fsb_to_mat(t["vec"], dim), threshold,
        )

    return jv.map_batches(score, batch_format="pyarrow")


_EMPTY_PAIR_COLS = {
    "u": pa.array([], pa.int64()),
    "v": pa.array([], pa.int64()),
    "score": pa.array([], pa.float64()),
}
