"""Query registry: every implemented operator/pipeline exposed as a
``name → callable(sf_dir)`` plus (where SQL-expressible) an exactly-matching
DuckDB oracle string. This is the driver's correctness surface
(``__ray_entry__.queries`` / ``oracle_sql``).

Parity rules (so the driver's order-insensitive value-hash matches):

* every computed column is named identically in Ray and SQL;
* integer-derived divisions (Jaccard, ratios) are bit-exact by construction;
* accumulation-order-sensitive floats (sums, cosines) are rounded on BOTH
  sides (money → 2 dp, similarities/means → 6 dp);
* top-k queries sort by (rounded metric, id) on both sides so the selected
  set is identical.

O(block²) pairwise queries here are the oracle-able baselines over the small
sandbox tables; their scale paths (MinHash-LSH, SimHash, LSH-bucketed ANN)
are registered as rows-only-checked queries alongside.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from localhost_address_matching_ray.functions.phonetic import soundex_batch, soundex_sql
from localhost_address_matching_ray.functions.similarity import duckdb_round, levenshtein_batch
from localhost_address_matching_ray.sources.tables import CORPUS_SQL, corpus_from_documents, read_table
from localhost_address_matching_ray.stages.buckets import bucket_fold, keyed_fold


def _round_col(t: pa.Table, col: str, decimals: int) -> pa.Table:
    i = t.schema.get_field_index(col)
    vals = duckdb_round(t[col].to_numpy(zero_copy_only=False), decimals)
    return t.set_column(i, col, pa.array(vals, pa.float64()))

# SQL fragment: whitespace-normalized content / text (mirror of
# functions.normalize.normalize_content)
_NORM = r"trim(regexp_replace(nfc_normalize({col}),'\s+',' ','g'))"


@dataclass(frozen=True)
class QueryDef:
    fn: Callable[[str], ray.data.Dataset]
    sql: str | None       # None → driver records a rows-only check
    doc: str = ""


REGISTRY: dict[str, QueryDef] = {}


def register(name: str, sql: str | None, doc: str = ""):
    def deco(fn):
        REGISTRY[name] = QueryDef(fn, sql, doc)
        return fn

    return deco


def _join_parts(n_left: int) -> int:
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(1, min(max(2, cpus), n_left // 500 + 1))


def _inner_join(left, right, *, n_left: int, on, right_on=None,
                empty_schema: pa.Schema, **kw):
    """``Dataset.join`` wrapper that survives empty sides: Ray's hash-join
    aggregator builds schemaless tables for empty partitions and Acero then
    fails with ``No match ... FieldRef`` — but an INNER join with an empty
    side is empty by definition, so short-circuit to a correctly-typed
    empty joined table. ``empty_schema`` states the join's output schema
    explicitly because an all-empty Dataset's ``schema()`` is None (there is
    no block to infer from)."""
    if n_left == 0 or right.count() == 0:
        return ray.data.from_arrow(empty_schema.empty_table())
    return left.join(
        right, join_type="inner", num_partitions=_join_parts(n_left),
        on=on, right_on=right_on, **kw,
    )


# --------------------------------------------------------------------------
# 1. Corpus linkage family (derived corpus — SQL-reproducible, CORPUS_SQL)
# --------------------------------------------------------------------------

@register(
    "corpus_build",
    f"WITH corpus AS ({CORPUS_SQL}) SELECT repo, path, \"commit\", lang, content FROM corpus",
    "S1/S7 source derivation: documents → corpus(repo,path,commit,lang,content)",
)
def corpus_build(sf_dir: str) -> ray.data.Dataset:
    return corpus_from_documents(sf_dir)


_NORM_CTE = f"""
WITH corpus AS ({CORPUS_SQL}),
norm AS (
  SELECT repo, path, "commit", lang,
    substr(sha256(repo || '|' || path || '|' || "commit"), 1, 16) AS row_id,
    lower(nfc_normalize(path)) AS path_canonical,
    regexp_replace(regexp_replace(regexp_replace(lower(nfc_normalize(path)), '^.*/', ''), '\\.[^.]*$', ''), '[^a-z0-9_]+', '_', 'g') AS stem,
    sha256(content) AS content_sha256,
    sha256({_NORM.format(col='content')}) AS content_sha256_norm,
    CASE WHEN {_NORM.format(col='content')} = '' THEN 0
         ELSE len(string_split({_NORM.format(col='content')}, ' ')) END AS n_tokens,
    content
  FROM corpus)
"""


def _normalized_corpus(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.normalize_stage import normalize_corpus

    return normalize_corpus(corpus_from_documents(sf_dir))


@register(
    "corpus_normalize",
    _NORM_CTE + """
SELECT row_id, path_canonical, stem, content_sha256, content_sha256_norm, n_tokens FROM norm""",
    "M1-M11 normalizer chain + sha256 per-row invariant (map.py:160-166)",
)
def corpus_normalize(sf_dir: str) -> ray.data.Dataset:
    return _normalized_corpus(sf_dir).select_columns(
        ["row_id", "path_canonical", "stem", "content_sha256", "content_sha256_norm", "n_tokens"]
    )


@register(
    "corpus_exact_dedup",
    _NORM_CTE + """
SELECT content_sha256_norm, min(row_id) AS row_id, count(*) AS n_members
FROM norm GROUP BY content_sha256_norm""",
    "D1 exact dedup: hash-partition + per-group first",
)
def corpus_exact_dedup(sf_dir: str) -> ray.data.Dataset:
    ds = _normalized_corpus(sf_dir).select_columns(["content_sha256_norm", "row_id"])
    return ds.groupby("content_sha256_norm").aggregate(
        Min("row_id", alias_name="row_id"), Count(alias_name="n_members")
    )


@register(
    "corpus_dup_groups",
    _NORM_CTE + """
SELECT content_sha256_norm, count(*) AS n_dups FROM norm
GROUP BY content_sha256_norm HAVING count(*) > 1""",
    "G2 duplicate-group histogram (hot-key detection analog, map.py:279-287)",
)
def corpus_dup_groups(sf_dir: str) -> ray.data.Dataset:
    ds = _normalized_corpus(sf_dir).select_columns(["content_sha256_norm"])
    agg = ds.groupby("content_sha256_norm").aggregate(Count(alias_name="n_dups"))
    return agg.filter(expr="n_dups > 1")


@register(
    "corpus_block_stats",
    _NORM_CTE + """
SELECT lang, stem, count(*) AS n FROM norm GROUP BY lang, stem""",
    "blocking-key census (block-size histogram feeding the salting decision)",
)
def corpus_block_stats(sf_dir: str) -> ray.data.Dataset:
    ds = _normalized_corpus(sf_dir).select_columns(["lang", "stem"])
    return ds.groupby(["lang", "stem"]).aggregate(Count(alias_name="n"))


@register(
    "corpus_candidate_pairs",
    _NORM_CTE + """
SELECT a.row_id AS u, b.row_id AS v, a.lang AS lang, a.stem AS stem
FROM norm a JOIN norm b ON a.lang = b.lang AND a.stem = b.stem AND a.row_id < b.row_id""",
    "J1-J4 blocking self-join within (lang, stem) blocks — never a cross join",
)
def corpus_candidate_pairs(sf_dir: str) -> ray.data.Dataset:
    ds = _normalized_corpus(sf_dir).select_columns(["row_id", "lang", "stem"])

    def pairs(group: pa.Table) -> pa.Table:
        ids = np.sort(
            group["row_id"].to_numpy(zero_copy_only=False).astype("U")
        )
        lang = group["lang"][0].as_py()
        stem = group["stem"][0].as_py()
        iu, jv = np.triu_indices(len(ids), 1)
        return pa.table({
            "u": pa.array(ids[iu], pa.string()),
            "v": pa.array(ids[jv], pa.string()),
            "lang": pa.array(np.full(len(iu), lang), pa.string()),
            "stem": pa.array(np.full(len(iu), stem), pa.string()),
        })

    return ds.groupby(["lang", "stem"]).map_groups(pairs, batch_format="pyarrow")


_PAIR_CTE = _NORM_CTE + f""",
toks AS (
  SELECT row_id, lang, content_sha256_norm,
         list_distinct(string_split({_NORM.format(col='content')}, ' ')) AS ts
  FROM norm),
pairs AS (
  SELECT a.row_id AS u, b.row_id AS v,
         round(len(list_intersect(a.ts, b.ts))::DOUBLE / len(list_distinct(a.ts || b.ts)), 6) AS jaccard,
         (a.content_sha256_norm = b.content_sha256_norm) AS sha_equal
  FROM toks a JOIN toks b ON a.lang = b.lang AND a.row_id < b.row_id)
"""


@register(
    "corpus_pair_scores",
    _PAIR_CTE + """
SELECT u, v, jaccard, sha_equal FROM pairs WHERE jaccard >= 0.97 OR sha_equal""",
    "J5 pair scoring: exact token-set Jaccard within lang blocks (oracle baseline; "
    "the LSH pipeline is the scale path)",
)
def corpus_pair_scores(sf_dir: str) -> ray.data.Dataset:
    ds = _normalized_corpus(sf_dir)

    def per_lang(group: pa.Table) -> pa.Table:
        from localhost_address_matching_ray.functions.normalize import normalize_content

        order = pc.sort_indices(group["row_id"])
        group = group.take(order)
        ids = group["row_id"].to_pylist()
        shas = group["content_sha256_norm"].to_pylist()
        sets = [
            set(normalize_content(c).split(" "))
            for c in group["content"].to_pylist()
        ]
        us, vs, js, se = [], [], [], []
        # vectorized screen at 0.97, then exact recompute of survivors
        k = len(ids)
        vocab: dict[str, int] = {}
        rows, cols = [], []
        for i, s in enumerate(sets):
            for t in s:
                j = vocab.setdefault(t, len(vocab))
                rows.append(i); cols.append(j)
        m = np.zeros((k, len(vocab) or 1), dtype=np.float32)
        if rows:
            m[rows, cols] = 1.0
        inter = m @ m.T
        size = m.sum(axis=1)
        union = size[:, None] + size[None, :] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = np.where(union > 0, inter / union, 1.0)
        sha_arr = np.asarray(shas)
        keep = (jac >= 0.969) | (sha_arr[:, None] == sha_arr[None, :])
        iu = np.triu_indices(k, 1)
        for a, b in zip(iu[0][keep[iu]], iu[1][keep[iu]]):
            inter_ab = len(sets[a] & sets[b])
            union_ab = len(sets[a] | sets[b])
            j = float(duckdb_round(inter_ab / union_ab, 6)) if union_ab else 1.0
            eq = shas[a] == shas[b]
            if j >= 0.97 or eq:
                us.append(ids[a]); vs.append(ids[b]); js.append(j); se.append(eq)
        return pa.table({
            "u": pa.array(us, pa.string()), "v": pa.array(vs, pa.string()),
            "jaccard": pa.array(js, pa.float64()),
            "sha_equal": pa.array(se, pa.bool_()),
        })

    return ds.select_columns(
        ["row_id", "lang", "content", "content_sha256_norm"]
    ).groupby("lang").map_groups(per_lang, batch_format="pyarrow")


@register(
    "corpus_fuzzy_pairs",
    _NORM_CTE + """,
fuzzy AS (
  SELECT a.row_id AS u, b.row_id AS v,
         levenshtein(a.path_canonical, b.path_canonical) AS lev,
         greatest(len(a.path_canonical), len(b.path_canonical)) AS maxlen
  FROM norm a JOIN norm b
    ON a.lang = b.lang AND substr(a.stem, 1, 2) = substr(b.stem, 1, 2)
   AND a.row_id < b.row_id)
SELECT u, v, lev, round(1.0 - lev::DOUBLE / maxlen, 6) AS sim
FROM fuzzy WHERE lev <= 2""",
    "typo-tolerant fuzzy verify (the address-matching core move): prefix "
    "blocking on (lang, stem[:2]) then an edit-distance threshold on the "
    "canonical path, scored as normalized similarity. The Levenshtein DP is "
    "vectorized across the whole pair batch (levenshtein_batch — one "
    "cummin per DP column, no per-pair Python) and runs byte-level for "
    "bit-exact DuckDB parity. Scale: block size is bounded by the prefix "
    "census like the flagship's blocking stage; at 100 TB lengthen the "
    "prefix / add a q-gram band key — the verify kernel is unchanged",
)
def corpus_fuzzy_pairs(sf_dir: str) -> ray.data.Dataset:
    ds = _normalized_corpus(sf_dir).select_columns(
        ["row_id", "lang", "stem", "path_canonical"]
    )

    def add_block(t: pa.Table) -> pa.Table:
        return t.append_column("pre2", pc.utf8_slice_codeunits(t["stem"], 0, 2))

    def pairs(group: pa.Table) -> pa.Table:
        ids = group["row_id"].to_numpy(zero_copy_only=False).astype("U")
        paths = group["path_canonical"].to_numpy(zero_copy_only=False).astype("U")
        order = np.argsort(ids)  # bytewise asc = SQL binary collation
        ids, paths = ids[order], paths[order]
        lens = np.char.str_len(paths)  # codepoints, = SQL len()
        iu, jv = np.triu_indices(len(ids), 1)
        # exact prescreen: byte-lev ≥ |codepoint-length diff| (each byte
        # edit changes the non-continuation-byte count — the codepoint
        # count — by at most 1), so diff > 2 can never pass the threshold
        cand = np.abs(lens[iu] - lens[jv]) <= 2
        iu, jv = iu[cand], jv[cand]
        lev = levenshtein_batch(paths[iu], paths[jv])
        keep = lev <= 2
        iu, jv, lev = iu[keep], jv[keep], lev[keep]
        maxlen = np.maximum(lens[iu], lens[jv]).astype(np.float64)
        sim = duckdb_round(1.0 - lev / maxlen, 6)
        return pa.table({
            "u": pa.array(ids[iu], pa.string()),
            "v": pa.array(ids[jv], pa.string()),
            "lev": pa.array(lev, pa.int64()),
            "sim": pa.array(sim, pa.float64()),
        })

    from localhost_address_matching_ray.config import bucket_width

    # map_groups parallelism follows the sort-shuffle's block count, which
    # follows INPUT blocks — a small input coalesces to 1-2 blocks and the
    # O(block²) verify runs serial. Pre-spread the narrow keyed stream
    # (≈60 B/row) to a cluster-relative width so the pair DP parallelizes.
    return (
        ds.map_batches(add_block, batch_format="pyarrow")
        .repartition(bucket_width())
        .groupby(["lang", "pre2"])
        .map_groups(pairs, batch_format="pyarrow")
    )


@register(
    "corpus_stem_jw_pairs",
    _NORM_CTE + """,
jw AS (
  SELECT a.row_id AS u, b.row_id AS v,
         jaro_winkler_similarity(a.stem, b.stem) AS jw
  FROM norm a JOIN norm b
    ON a.lang = b.lang AND substr(a.stem, 1, 2) = substr(b.stem, 1, 2)
   AND a.row_id < b.row_id)
SELECT u, v, jw FROM jw WHERE jw >= 0.9""",
    "the north-star's 'batched Jaro-Winkler on path stems' as a standalone "
    "surface: prefix blocking on (lang, stem[:2]) then jaro_winkler_batch "
    "over every in-block pair — one eligible-mask+argmax numpy pass per DP "
    "column, byte symbols, boost>0.7, BIT-identical to DuckDB "
    "jaro_winkler_similarity (no rounding in this oracle). A lossless "
    "length prescreen (jw ≥ 0.9 needs jaro ≥ 5/6 needs 2·min_len ≥ "
    "max_len since jaro ≤ (min/max + 2)/3) prunes pairs before the DP. "
    "Scale: same bounded-block census story as corpus_fuzzy_pairs",
)
def corpus_stem_jw_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.functions.similarity import jaro_winkler_batch

    ds = _normalized_corpus(sf_dir).select_columns(["row_id", "lang", "stem"])

    def add_block(t: pa.Table) -> pa.Table:
        return t.append_column("pre2", pc.utf8_slice_codeunits(t["stem"], 0, 2))

    def pairs(group: pa.Table) -> pa.Table:
        ids = group["row_id"].to_numpy(zero_copy_only=False).astype("U")
        stems = group["stem"].to_numpy(zero_copy_only=False).astype("U")
        order = np.argsort(ids)  # bytewise asc = SQL binary collation
        ids, stems = ids[order], stems[order]
        lens = np.char.str_len(np.char.encode(stems, "utf-8"))
        iu, jv = np.triu_indices(len(ids), 1)
        lo = np.minimum(lens[iu], lens[jv])
        hi = np.maximum(lens[iu], lens[jv])
        cand = 2 * lo >= hi  # lossless: jw ≥ 0.9 ⇒ min/max ≥ 0.5
        iu, jv = iu[cand], jv[cand]
        jw = jaro_winkler_batch(stems[iu], stems[jv])
        keep = jw >= 0.9
        return pa.table({
            "u": pa.array(ids[iu][keep], pa.string()),
            "v": pa.array(ids[jv][keep], pa.string()),
            "jw": pa.array(jw[keep], pa.float64()),
        })

    from localhost_address_matching_ray.config import bucket_width

    # pre-spread the narrow keyed stream so the O(block²) kernel
    # parallelizes on small inputs (see corpus_fuzzy_pairs)
    return (
        ds.map_batches(add_block, batch_format="pyarrow")
        .repartition(bucket_width())
        .groupby(["lang", "pre2"])
        .map_groups(pairs, batch_format="pyarrow")
    )


_CLUSTERS_SQL = _PAIR_CTE.replace("WITH corpus", "WITH RECURSIVE corpus") + """,
edges AS (
  SELECT u AS src, v AS dst FROM pairs WHERE jaccard >= 0.97 OR sha_equal
  UNION ALL
  SELECT v, u FROM pairs WHERE jaccard >= 0.97 OR sha_equal),
cc(node, reach) AS (
  SELECT row_id, row_id FROM norm
  UNION
  SELECT e.dst, c.reach FROM cc c JOIN edges e ON e.src = c.node)
SELECT node AS row_id, min(reach) AS cluster_id FROM cc GROUP BY node"""


@register(
    "corpus_clusters",
    _CLUSTERS_SQL,
    "transitive clustering: distributed union-find vs a recursive-CTE oracle",
)
def corpus_clusters(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.cluster import connected_components

    edges = corpus_pair_scores(sf_dir).map_batches(
        lambda t: pa.table({"u": t["u"], "v": t["v"]}), batch_format="pyarrow"
    )
    comps = connected_components(edges)
    all_rows = _normalized_corpus(sf_dir).select_columns(["row_id"]).materialize()
    n = all_rows.count()
    if comps.count() == 0:
        return all_rows.map_batches(
            lambda t: pa.table({"row_id": t["row_id"], "cluster_id": t["row_id"]}),
            batch_format="pyarrow",
        )
    return all_rows.join(
        comps, join_type="left_outer", num_partitions=_join_parts(n), on=("row_id",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    ).map_batches(
        lambda t: pa.table({
            "row_id": t["row_id"],
            "cluster_id": pc.coalesce(t["cluster_label"], t["row_id"]),
        }),
        batch_format="pyarrow",
    )


#: the flagship's cluster-id convention differs from corpus_clusters': the
#: canonical id is min(content_sha256) over the component's members (stable
#: under row_id re-derivation; FIXTURES.md §3), singletons = own sha.
_LINKAGE_CLUSTERS_SQL = (
    _PAIR_CTE.replace("WITH corpus", "WITH RECURSIVE corpus") + """,
edges AS (
  SELECT u AS src, v AS dst FROM pairs WHERE jaccard >= 0.97 OR sha_equal
  UNION ALL
  SELECT v, u FROM pairs WHERE jaccard >= 0.97 OR sha_equal),
cc(node, reach) AS (
  SELECT row_id, row_id FROM norm
  UNION
  SELECT e.dst, c.reach FROM cc c JOIN edges e ON e.src = c.node),
m AS (SELECT node, min(reach) AS rep FROM cc GROUP BY node),
canon AS (
  SELECT m.rep, min(n.content_sha256) AS cid
  FROM m JOIN norm n ON n.row_id = m.node GROUP BY m.rep)
SELECT m.node AS row_id, c.cid AS cluster_id
FROM m JOIN canon c ON c.rep = m.rep"""
)


@register(
    "corpus_linkage_clusters",
    _LINKAGE_CLUSTERS_SQL,
    "the REAL flagship (link_corpus: LSH blocking → salted shuffle → "
    "candidates → verify → union-find → assign) in verify_mode='exact', vs "
    "the same recursive-CTE oracle as corpus_clusters. Exact verify makes "
    "the edge predicate SQL-expressible (round-6 token-set Jaccard ≥ 0.97; "
    "sha_equal pairs have identical token sets so J = 1.0 subsumes the OR "
    "branch); candidate recall at this operating point is the LSH band "
    "guarantee — exact dups share every band key, and near-dups at "
    "J ≥ 0.97 miss all 16 bands w.p. ≲ 1e-4 per pair and are additionally "
    "caught by the (lang, stem) key family — so the verified edge set "
    "CONNECTS every oracle component and min-label clustering agrees",
)
def corpus_linkage_clusters(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.pipelines.linkage import link_corpus

    cfg = PipelineConfig(
        jaccard_threshold=0.97,
        rename_jaccard_floor=0.97,  # == threshold: stem-JW assist band empty
        verify_mode="exact",
    )
    return link_corpus(corpus_from_documents(sf_dir), cfg)["clusters"]


# --------------------------------------------------------------------------
# 2. Documents: text analysis / dedup family
# --------------------------------------------------------------------------

_DOCNORM = _NORM.format(col="text")


@register(
    "doc_stats",
    f"""
WITH n AS (SELECT doc_id, text, {_DOCNORM} AS norm FROM documents),
t AS (SELECT doc_id, text, norm,
        CASE WHEN norm = '' THEN [] ELSE string_split(norm, ' ') END AS toks
      FROM n)
SELECT doc_id,
  len(toks) AS n_tokens,
  CASE WHEN len(toks) > 1 THEN length(norm) - (len(toks) - 1) ELSE length(norm) END AS n_chars_norm,
  CASE WHEN len(toks) = 0 THEN 0.0
       ELSE (CASE WHEN len(toks) > 1 THEN length(norm) - (len(toks) - 1) ELSE length(norm) END)::DOUBLE / len(toks) END AS mean_token_len,
  CASE WHEN len(toks) = 0 THEN 0.0
       ELSE len(list_filter(toks, x -> x IN ('the','a','of','and','to','in','is','it')))::DOUBLE / len(toks) END AS stop_ratio,
  length(text) - length(regexp_replace(text, '[^\\w\\s]', '', 'g')) AS punct_cnt,
  len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')) AS bpe_tokens
FROM t""",
    "quality scoring: token counts, char stats, stopword/punct ratios",
)
def doc_stats(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_quality

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_quality(docs).select_columns(
        ["doc_id", "n_tokens", "n_chars_norm", "mean_token_len", "stop_ratio",
         "punct_cnt", "bpe_tokens"]
    )


@register(
    "doc_top_terms",
    f"""
WITH n AS (SELECT doc_id, {_DOCNORM} AS norm FROM documents),
t AS (SELECT doc_id,
        unnest(CASE WHEN norm = '' THEN [] ELSE string_split(norm, ' ') END) AS token
      FROM n),
tf AS (SELECT doc_id, token, count(*) AS tf FROM t GROUP BY doc_id, token),
df AS (SELECT token, count(*) AS df FROM tf GROUP BY token),
nn AS (SELECT count(*) AS n_docs FROM documents),
s AS (SELECT tf.doc_id, tf.token, tf.tf, df.df,
        tf.tf * (nn.n_docs::DOUBLE / df.df) AS score
      FROM tf JOIN df USING (token) CROSS JOIN nn),
r AS (SELECT s.*,
        row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, token ASC)
          AS term_rank
      FROM s)
SELECT doc_id, token, tf, df, score, term_rank FROM r WHERE term_rank <= 3""",
    "per-doc top-3 TF-IDF terms (log-free idf = n_docs/df for bit-exact "
    "Ray/SQL parity; ties by token ASC). Scale shape: two streaming "
    "passes, pre-aggregated token→df groupby, broadcast df map with a "
    "distributed join fallback above the ceiling — no (doc, token) "
    "shuffle on the hot path",
)
def doc_top_terms(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import top_terms

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return top_terms(docs, k=3)


#: the BM25 demo query — terms hit the documents vocabulary mid-frequency
_BM25_TERMS = ("vector", "window", "stream")


def _bm25_sql(terms: tuple[str, ...], k: int) -> str:
    tf_exprs = ",\n        ".join(
        f"CAST(len(list_filter(toks, x -> x = '{t}')) AS BIGINT) AS tf{i}"
        for i, t in enumerate(terms)
    )
    df_exprs = ", ".join(
        f"CAST(sum(CASE WHEN tf{i} > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df{i}"
        for i in range(len(terms))
    )
    # all constants as DOUBLE literals (e0): a bare 2.2 is DECIMAL in DuckDB,
    # and BIGINT*DECIMAL folds exactly to 6.6 — a different double than
    # double(tf)*double(2.2), which is what the numpy kernel computes
    idf = [f"(((nd - df{i}) + 0.5e0) / (df{i} + 0.5e0))" for i in range(len(terms))]
    term_s = [
        f"(({idf[i]} * (tf{i} * 2.2e0)) / (CAST(tf{i} AS DOUBLE) + (1.2e0 * nrm)))"
        for i in range(len(terms))
    ]
    total = term_s[0]
    for s in term_s[1:]:
        total = f"({total} + {s})"
    return f"""
WITH n AS (SELECT doc_id,
             CASE WHEN {_DOCNORM} = '' THEN []
                  ELSE string_split({_DOCNORM}, ' ') END AS toks
           FROM documents),
d AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS dl,
        {tf_exprs}
      FROM n),
g AS (SELECT CAST(count(*) AS DOUBLE) AS nd,
             (CAST(sum(dl) AS DOUBLE) / CAST(count(*) AS DOUBLE)) AS avgdl,
             {df_exprs}
      FROM d),
s AS (SELECT d.doc_id, d.dl,
        (0.25e0 + ((0.75e0 * CAST(d.dl AS DOUBLE)) / g.avgdl)) AS nrm,
        {", ".join(f"d.tf{i}" for i in range(len(terms)))},
        {", ".join(f"g.df{i}" for i in range(len(terms)))}, g.nd
      FROM d CROSS JOIN g)
SELECT doc_id, dl, {total} AS score
FROM s WHERE ({" + ".join(f"tf{i}" for i in range(len(terms)))}) > 0
ORDER BY score DESC, doc_id LIMIT {k}"""


@register(
    "doc_bm25_search",
    _bm25_sql(_BM25_TERMS, 10),
    "BM25 lexical retrieval: top-10 docs for a fixed query-term set — two "
    "streaming passes with an O(|terms|) stats all-reduce (df only for the "
    "query's terms, never a vocabulary groupby) and per-batch top-k "
    "pre-selection before one tiny sort/limit; log-free idf and literal "
    "constants keep the score bit-exact vs DuckDB (stages/docs_ops.bm25_topk)",
)
def doc_bm25_search(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import bm25_topk

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(docs, list(_BM25_TERMS), k=10)


@register(
    "doc_bigram_lift",
    f"""
WITH toks AS (
  SELECT string_split(lower({_DOCNORM}), ' ') AS ts FROM documents),
uni AS (
  SELECT tok, count(*) AS c
  FROM (SELECT unnest(ts) AS tok FROM toks) GROUP BY 1),
tot AS (SELECT sum(c) AS n FROM uni),
bi AS (
  SELECT struct_extract(pr, 1) AS x, struct_extract(pr, 2) AS y, count(*) AS c
  FROM (SELECT unnest(list_zip(ts, ts[2:])) AS pr FROM toks)
  WHERE struct_extract(pr, 2) IS NOT NULL GROUP BY 1, 2),
btot AS (SELECT sum(c) AS n FROM bi)
SELECT b.x, b.y, b.c,
       round((b.c::DOUBLE / bt.n) / ((ux.c::DOUBLE / t.n) * (uy.c::DOUBLE / t.n)), 6) AS lift
FROM bi b
CROSS JOIN tot t CROSS JOIN btot bt
JOIN uni ux ON ux.tok = b.x
JOIN uni uy ON uy.tok = b.y
WHERE b.c >= 5
ORDER BY lift DESC, b.x, b.y
LIMIT 20""",
    "collocation mining: top-20 adjacent bigrams by pointwise lift "
    "p(x,y)/(p(x)p(y)) with count ≥ 5 — PMI without the log (monotone, so "
    "the ranking is PMI's, and the bare ratio is IEEE-exact on both sides). "
    "One text pass emitting pre-aggregated counts; vocab-sized groupby; "
    "distributed joins + sort/limit — no driver collect (stages/docs_ops."
    "bigram_lift)",
)
def doc_bigram_lift(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import bigram_lift

    docs = read_table(sf_dir, "documents", columns=["text"])
    return bigram_lift(docs, min_count=5, k=20)


def _langid_sql() -> str:
    from localhost_address_matching_ray.functions.text import LANG_MARKERS

    cnt_exprs = []
    for lang, markers in LANG_MARKERS:
        lst = ",".join(f"'{m}'" for m in sorted(markers))
        cnt_exprs.append(
            f"len(list_filter(toks, x -> x IN ({lst}))) AS c_{lang}"
        )
    # first-wins argmax in LANG_MARKERS order
    langs = [lang for lang, _ in LANG_MARKERS]
    cond = []
    for i, lang in enumerate(langs):
        others = [f"c_{lang} >= c_{o}" for j, o in enumerate(langs) if j < i] + [
            f"c_{lang} > c_{o}" for j, o in enumerate(langs) if j > i
        ]
        # first-wins: must beat earlier langs strictly? No — earlier wins ties,
        # so lang i wins iff c_i > c_j for all j < i and c_i >= c_j for j > i.
        conds = [f"c_{lang} > c_{o}" for j, o in enumerate(langs) if j < i] + [
            f"c_{lang} >= c_{o}" for j, o in enumerate(langs) if j > i
        ]
        cond.append(f"WHEN {' AND '.join(conds) if conds else 'TRUE'} THEN '{lang}'")
    case = "CASE " + " ".join(cond) + f" ELSE '{langs[0]}' END"
    return f"""
WITH t AS (SELECT doc_id, lang,
             CASE WHEN {_DOCNORM} = '' THEN []
                  ELSE string_split({_DOCNORM}, ' ') END AS toks
           FROM documents),
c AS (SELECT doc_id, lang, {", ".join(cnt_exprs)} FROM t)
SELECT doc_id, lang, {case} AS pred_lang,
       ({case}) = lang AS agree
FROM c"""


@register(
    "doc_langid",
    _langid_sql(),
    "language-ID heuristic (marker-stopword argmax, first-wins ties)",
)
def doc_langid(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.functions.normalize import normalize_content
    from localhost_address_matching_ray.functions.text import predict_lang

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def batch_fn(batch: pa.Table) -> pa.Table:
        preds = []
        for t in batch["text"].to_pylist():
            n = normalize_content(t)
            preds.append(predict_lang(n.split(" ") if n else []))
        langs = batch["lang"].to_pylist()
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "pred_lang": pa.array(preds, pa.string()),
            "agree": pa.array([p == l for p, l in zip(preds, langs)], pa.bool_()),
        })

    return docs.map_batches(batch_fn, batch_format="pyarrow", batch_size=4096)


@register(
    "doc_fingerprint",
    f"SELECT doc_id, sha256({_DOCNORM}) AS fingerprint FROM documents",
    "document fingerprint = sha256 of normalized text",
)
def doc_fingerprint(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_fingerprints

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_fingerprints(docs).select_columns(["doc_id", "fingerprint"])


@register(
    "doc_rolling_fingerprint",
    f"""
SELECT doc_id,
  CASE WHEN length({_DOCNORM}) = 0 THEN 0 ELSE
    list_reduce(
      list_transform(string_split({_DOCNORM}, ''), c -> unicode(c)::HUGEINT),
      (h, ch) -> (h * 1000003 + ch) % 2305843009213693951
    )::BIGINT END AS rolling_fp
FROM documents""",
    "rolling polynomial (Horner) hash over code points, mod 2^61-1",
)
def doc_rolling_fingerprint(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_fingerprints

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_fingerprints(docs).select_columns(["doc_id", "rolling_fp"])


@register(
    "doc_token_jaccard_pairs",
    f"""
WITH toks AS (
  SELECT doc_id, lang, list_distinct(string_split({_DOCNORM}, ' ')) AS ts
  FROM documents)
SELECT a.doc_id AS u, b.doc_id AS v,
       round(len(list_intersect(a.ts, b.ts))::DOUBLE / len(list_distinct(a.ts || b.ts)), 6) AS jaccard
FROM toks a JOIN toks b ON a.lang = b.lang AND a.doc_id < b.doc_id
WHERE len(list_intersect(a.ts, b.ts))::DOUBLE / len(list_distinct(a.ts || b.ts)) >= 0.97""",
    "1-gram Jaccard near-dup pairs within lang (exact oracle baseline)",
)
def doc_token_jaccard_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import token_jaccard_pairs

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return token_jaccard_pairs(docs, threshold=0.97)


_NGRAM_CTES = f"""tk AS (
  SELECT doc_id, lang,
         unnest(string_split({_DOCNORM}, ' ')) AS tok,
         generate_subscripts(string_split({_DOCNORM}, ' '), 1) AS pos
  FROM documents),
sh AS (
  SELECT doc_id, lang,
         tok || ' ' || lead(tok, 1) OVER w || ' ' || lead(tok, 2) OVER w AS shingle
  FROM tk WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
ss AS (SELECT doc_id, lang, list_distinct(list(shingle)) AS ss
       FROM sh WHERE shingle IS NOT NULL GROUP BY doc_id, lang
       UNION ALL
       -- <k-token docs have only NULL lead-window shingles but the engine
       -- (docs_ops._doc_shingles / hashing.shingle_hashes_from) keeps them
       -- as ONE whole-doc shingle — the normalized text itself — so two
       -- identical short docs still count as duplicates; empty docs emit
       -- nothing on both sides
       SELECT doc_id, lang, [{_DOCNORM}] AS ss
       FROM documents
       WHERE length({_DOCNORM}) > 0
         AND len(string_split({_DOCNORM}, ' ')) < 3),
ngram_pairs AS (
  SELECT a.doc_id AS u, b.doc_id AS v,
         round(len(list_intersect(a.ss, b.ss))::DOUBLE / len(list_distinct(a.ss || b.ss)), 6) AS jaccard
  FROM ss a JOIN ss b ON a.lang = b.lang AND a.doc_id < b.doc_id
  WHERE len(list_intersect(a.ss, b.ss))::DOUBLE / len(list_distinct(a.ss || b.ss)) >= 0.5)"""

_NGRAM_PAIRS_SQL = "WITH " + _NGRAM_CTES + "\nSELECT u, v, jaccard FROM ngram_pairs"


@register(
    "doc_ngram_dup_pairs",
    _NGRAM_PAIRS_SQL,
    "3-gram shingle Jaccard near-dup pairs within lang (exact oracle baseline)",
)
def doc_ngram_dup_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import ngram_dup_pairs

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return ngram_dup_pairs(docs, k=3, threshold=0.5)


@register(
    "doc_minhash_lsh_pairs",
    _NGRAM_PAIRS_SQL,
    "MinHash-LSH candidates + exact shingle-Jaccard verify — the scale path; "
    "verified output equals the exact n-gram oracle (bands=64/r=2 recall "
    "≈ 1 − 7.5e-9 at J ≥ 0.5), so it shares doc_ngram_dup_pairs' SQL oracle",
)
def doc_minhash_lsh_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import minhash_lsh_pairs

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return minhash_lsh_pairs(docs, threshold=0.5)


_NEAR_DEDUP_SQL = "WITH RECURSIVE " + _NGRAM_CTES + """,
edges AS (SELECT u AS src, v AS dst FROM ngram_pairs
          UNION ALL SELECT v, u FROM ngram_pairs),
cc(node, reach) AS (
  SELECT src, src FROM edges
  UNION
  SELECT e.dst, c.reach FROM cc c JOIN edges e ON e.src = c.node),
m AS (SELECT node, min(reach) AS rep FROM cc GROUP BY node),
sizes AS (SELECT rep, count(*) AS cluster_size FROM m GROUP BY rep)
SELECT d.doc_id, coalesce(s.cluster_size, 1) AS cluster_size
FROM documents d
LEFT JOIN sizes s ON s.rep = d.doc_id
WHERE d.doc_id NOT IN (SELECT node FROM m WHERE node <> rep)"""


@register(
    "doc_near_dedup_keep",
    _NEAR_DEDUP_SQL,
    "near-dedup that REMOVES: verified MinHash-LSH pairs → connected "
    "components → keep min doc_id per dup cluster (cluster_size = docs it "
    "represents); oracle = recursive CTE over the exact n-gram pair set",
)
def doc_near_dedup_keep(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import near_dedup_keep

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return near_dedup_keep(docs, threshold=0.5)


# Exact SQL replica of the SimHash kernel (functions/hashing.py SimHasher):
# per-token 64-bit hash = first 8 sha256 bytes big-endian (the kernel's
# _token_hash64, chosen sha256 precisely so this oracle exists), per-bit
# ±1 votes over the token MULTISET (duplicates counted; ''.split(' ') ==
# [''] matches string_split('', ' ')), bit set iff vote strictly positive.
# Pairs are same-lang only (the Ray path blocks per lang) at Hamming ≤ 6 —
# brute-force self-join is exact at sf-test scale, where no pigeonhole run
# exceeds max_block_rows (truncation would log a warning).
_SIMHASH_PAIRS_SQL = f"""
WITH toks AS (
  SELECT doc_id, lang, unnest(string_split({_DOCNORM}, ' ')) AS tok
  FROM documents),
th AS (
  SELECT doc_id, lang,
         CAST(concat('0x', substr(sha256(tok), 1, 16)) AS UBIGINT) AS h
  FROM toks),
bits AS (
  SELECT doc_id, lang, b,
         sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS vote
  FROM th CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) g
  GROUP BY doc_id, lang, b),
sh AS (
  SELECT doc_id, lang,
         CAST(sum(CASE WHEN vote > 0 THEN (CAST(1 AS UBIGINT) << b)
                       ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) AS fp
  FROM bits GROUP BY doc_id, lang)
SELECT a.doc_id AS u, b.doc_id AS v,
       CAST(bit_count(xor(a.fp, b.fp)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.lang = b.lang AND a.doc_id < b.doc_id
WHERE bit_count(xor(a.fp, b.fp)) <= 6"""


@register("doc_simhash_pairs", _SIMHASH_PAIRS_SQL,
          "SimHash Hamming-distance near-dup pairs (exact brute-force oracle)")
def doc_simhash_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import simhash_pairs

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return simhash_pairs(docs, max_hamming=6)


@register(
    "doc_lang_distribution",
    "SELECT lang, count(*) AS n, round(avg(n_chars), 6) AS avg_chars FROM documents GROUP BY lang",
    "G3/G4 distribution stats per group",
)
def doc_lang_distribution(sf_dir: str) -> ray.data.Dataset:
    docs = read_table(sf_dir, "documents", columns=["lang", "n_chars"])
    agg = docs.groupby("lang").aggregate(
        Count(alias_name="n"), Mean("n_chars", alias_name="avg_chars")
    )
    return agg.map_batches(lambda t: _round_col(t, "avg_chars", 6), batch_format="pyarrow")


# --------------------------------------------------------------------------
# 3. Embeddings: similarity search family
# --------------------------------------------------------------------------

def _query_vectors(sf_dir: str, max_id: int):
    import pyarrow.parquet as pq
    import os

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    t = t.filter(pc.less(t["vec_id"], max_id))
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    return ids, mat


@register(
    "ann_topk",
    """
WITH q AS (SELECT vec_id AS query_id, embedding AS qv FROM embeddings WHERE vec_id < 10),
s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
             round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv::DOUBLE[]), 6) AS score
      FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.query_id),
r AS (SELECT query_id, neighbor_id, score,
             row_number() OVER (PARTITION BY query_id ORDER BY score DESC, neighbor_id) AS rank
      FROM s)
SELECT query_id, neighbor_id, rank, score FROM r WHERE rank <= 10""",
    "brute-force cosine top-k (broadcast query matrix, two-stage top-k reduce)",
)
def ann_topk(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.ann import ann_topk as _ann

    ids, mat = _query_vectors(sf_dir, 10)
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return _ann(emb, ids, mat, k=10)


@register(
    "embedding_dup_pairs",
    """
SELECT a.vec_id AS u, b.vec_id AS v,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS score
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= 0.45""",
    "embedding-cosine near-dup pairs — served by the LSH-bucketed scale path "
    "with exact-cosine verification (recall-tuned: 4 planes × 64 tables → "
    "per-pair miss ≈ 3.8e-6 at cos 0.45); the brute-force block-broadcast "
    "baseline (stages.ann.cosine_pairs) survives as the in-test cross-check "
    "only — no registered query materializes the full matrix on the driver",
)
def embedding_dup_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.ann import lsh_cosine_pairs

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return lsh_cosine_pairs(emb, threshold=0.45, n_planes=4, n_tables=64)


@register(
    "knn_label_vote",
    """
WITH q AS (SELECT vec_id AS query_id, embedding AS qv, label AS true_label
           FROM embeddings WHERE vec_id % 25 = 0),
s AS (SELECT q.query_id, q.true_label, e.vec_id AS neighbor_id, e.label,
             round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv::DOUBLE[]), 6) AS score
      FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.query_id),
r AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, neighbor_id) AS rnk FROM s),
v AS (SELECT query_id, true_label, label, count(*) AS c FROM r WHERE rnk <= 5 GROUP BY 1, 2, 3),
w AS (SELECT query_id, true_label, label AS pred_label,
             row_number() OVER (PARTITION BY query_id ORDER BY c DESC, label) AS rn
      FROM v)
SELECT query_id, pred_label, true_label FROM w WHERE rn = 1""",
    "kNN majority-vote classification over the embedding column",
)
def knn_label_vote(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.ann import ann_topk as _ann
    import pyarrow.parquet as pq
    import os

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    ids_np = t["vec_id"].to_numpy(zero_copy_only=False)
    qt = t.filter(pa.array(ids_np % 25 == 0))
    ids = qt["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    true_label = dict(zip(ids.tolist(), qt["label"].to_pylist()))
    label_ref = ray.put(dict(zip(
        t["vec_id"].to_pylist(), t["label"].to_pylist()
    )))

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    top5 = _ann(emb, ids, mat, k=5)

    def vote(group: pa.Table) -> pa.Table:
        labels = ray.get(label_ref)
        qid = group["query_id"][0].as_py()
        from collections import Counter

        cnt = Counter(labels[n] for n in group["neighbor_id"].to_pylist())
        pred = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        return pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "pred_label": pa.array([pred], pa.int32()),
            "true_label": pa.array([true_label[qid]], pa.int32()),
        })

    return top5.groupby("query_id").map_groups(vote, batch_format="pyarrow")


# --------------------------------------------------------------------------
# 4. Relational / events operators (engine generality)
# --------------------------------------------------------------------------

@register(
    "q1_pricing_summary",
    """
SELECT l_returnflag, l_linestatus,
  round(sum(l_quantity), 2) AS sum_qty,
  round(sum(l_extendedprice), 2) AS sum_base_price,
  round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
  round(sum(l_quantity) / count(*), 6) AS avg_qty,
  count(*) AS count_order
FROM lineitem WHERE l_shipdate < TIMESTAMP '1995-06-01'
GROUP BY l_returnflag, l_linestatus""",
    "G1/G3 grouped aggregation with computed measures (TPC-H Q1 shape)",
)
def q1_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    li = read_table(sf_dir, "lineitem", columns=[
        "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
        "l_discount", "l_shipdate",
    ])

    def prep(t: pa.Table) -> pa.Table:
        import datetime
        cutoff = pa.scalar(datetime.datetime(1995, 6, 1), type=pa.timestamp("us"))
        t = t.filter(pc.less(t["l_shipdate"], cutoff))
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "l_quantity": t["l_quantity"],
            "l_extendedprice": t["l_extendedprice"],
            "disc_price": disc,
        })

    agg = li.map_batches(prep, batch_format="pyarrow").groupby(
        ["l_returnflag", "l_linestatus"]
    ).aggregate(
        Sum("l_quantity", alias_name="sum_qty"),
        Sum("l_extendedprice", alias_name="sum_base_price"),
        Sum("disc_price", alias_name="sum_disc_price"),
        Count(alias_name="count_order"),
    )

    def finish(t: pa.Table) -> pa.Table:
        sq = t["sum_qty"].to_numpy(zero_copy_only=False)
        co = t["count_order"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": pa.array(duckdb_round(sq, 2)),
            "sum_base_price": pa.array(duckdb_round(t["sum_base_price"].to_numpy(zero_copy_only=False), 2)),
            "sum_disc_price": pa.array(duckdb_round(t["sum_disc_price"].to_numpy(zero_copy_only=False), 2)),
            "avg_qty": pa.array(duckdb_round(sq / co, 6)),
            "count_order": t["count_order"],
        })

    return agg.map_batches(finish, batch_format="pyarrow")


@register(
    "q3_top_orders",
    """
SELECT l.l_orderkey AS o_orderkey,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
WHERE c.c_mktsegment = 'BUILDING'
GROUP BY l.l_orderkey
ORDER BY revenue DESC, o_orderkey LIMIT 10""",
    "dimension broadcast (customer segment keys) + a broadcast SEMI-join of "
    "the filtered-order key set into the lineitem pass (the output needs no "
    "order columns, so no row join exists) + bucketed per-order fold + "
    "top-k; beyond the key-broadcast ceiling it falls back to the "
    "partitioned hash join — neither fact table is ever fully on the driver",
)
def q3_top_orders(
    sf_dir: str, broadcast_keys_max: int = 2_000_000
) -> ray.data.Dataset:
    import pyarrow.parquet as pq
    import os

    # dimension side: BUILDING custkeys, broadcast ONCE as a sorted int64
    # array (searchsorted per batch — no per-batch set rebuild)
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    building = np.sort(
        cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"]
        .to_numpy(zero_copy_only=False)
    )
    if len(building) == 0:  # inner join against nothing → empty result
        return ray.data.from_arrow(pa.schema([
            ("o_orderkey", pa.int64()), ("revenue", pa.float64()),
        ]).empty_table())
    keys_ref = ray.put(building)

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def keep_building(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, ck), len(keys) - 1)
        t = t.filter(pa.array(keys[pos] == ck))
        return t.select(["o_orderkey"])

    orders_b = orders.map_batches(keep_building, batch_format="pyarrow").materialize()
    n_b = orders_b.count()
    if n_b == 0:
        return ray.data.from_arrow(pa.schema([
            ("o_orderkey", pa.int64()), ("revenue", pa.float64()),
        ]).empty_table())

    li = read_table(sf_dir, "lineitem", columns=[
        "l_orderkey", "l_extendedprice", "l_discount",
    ])

    if n_b <= broadcast_keys_max:
        # the filtered-order key set fits a worker heap: broadcast it and
        # fold lineitem straight to per-order revenue — the join vanishes
        bkeys = np.sort(pa.concat_tables(
            [b for b in ray.get(orders_b.to_arrow_refs()) if b.num_columns > 0]
        )["o_orderkey"].to_numpy(zero_copy_only=False))
        bref = ray.put(bkeys)

        def rev(t: pa.Table) -> pa.Table:
            keys = ray.get(bref)
            k = t["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
            t = t.filter(pa.array(keys[pos] == k))
            r = pc.multiply(t["l_extendedprice"],
                            pc.subtract(pa.scalar(1.0), t["l_discount"]))
            return pa.table({"o_orderkey": t["l_orderkey"], "revenue": r})

        agg = keyed_fold(
            li.map_batches(rev, batch_format="pyarrow"), "o_orderkey", ["revenue"]
        ).map_batches(lambda t: _round_col(t, "revenue", 2), batch_format="pyarrow")
        return agg.sort(["revenue", "o_orderkey"], descending=[True, False]).limit(10)

    # beyond-broadcast: per-order pre-aggregate + partitioned hash join
    def rev_all(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "revenue": r})

    li_agg = keyed_fold(
        li.map_batches(rev_all, batch_format="pyarrow"), "o_orderkey", ["revenue"]
    ).materialize()
    agg = _inner_join(
        li_agg, orders_b, n_left=li_agg.count(), on=("o_orderkey",),
        empty_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("revenue", pa.float64())]),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    ).map_batches(lambda t: _round_col(t, "revenue", 2), batch_format="pyarrow")
    return agg.sort(["revenue", "o_orderkey"], descending=[True, False]).limit(10)


@register(
    "q5_region_revenue",
    """
SELECT r.r_name AS r_name,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
       count(*) AS n_items
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name""",
    "multi-dim broadcast join chain (region←nation←customer) + large join + agg",
)
def q5_region_revenue(
    sf_dir: str, broadcast_orders_max: int = 2_000_000
) -> ray.data.Dataset:
    """Broadcasts only the DIMENSION chain customer→nation→region (sorted
    custkey array + region codes); the orders fact table is tagged in a
    streaming pass and joined to the per-order lineitem pre-aggregate with a
    partitioned hash join — no fact table ever builds a driver-side dict."""
    import pyarrow.parquet as pq
    import os

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    r_of_n = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    # inner-join chain: nations without a region, and customers without a
    # mapped nation, drop (degenerate dims must not KeyError)
    n2r = {
        nk: r_of_n[rk]
        for nk, rk in zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist())
        if rk in r_of_n
    }
    region_names = sorted(set(n2r.values()))
    if not region_names:
        return ray.data.from_arrow(pa.schema([
            ("r_name", pa.string()), ("revenue", pa.float64()),
            ("n_items", pa.int64()),
        ]).empty_table())
    rcode_of = {name: i for i, name in enumerate(region_names)}
    ckeys = cust["c_custkey"].to_numpy(zero_copy_only=False)
    cnk = cust["c_nationkey"].to_numpy(zero_copy_only=False)
    cmask = np.array([nk in n2r for nk in cnk], dtype=bool)
    ckeys, cnk = ckeys[cmask], cnk[cmask]
    if len(ckeys) == 0:  # no joinable customers → empty result
        return ray.data.from_arrow(pa.schema([
            ("r_name", pa.string()), ("revenue", pa.float64()),
            ("n_items", pa.int64()),
        ]).empty_table())
    order_c = np.argsort(ckeys)
    c_sorted = ckeys[order_c]
    c_rcode = np.array(
        [rcode_of[n2r[nk]] for nk in cnk], dtype=np.int32
    )[order_c]
    dim_ref = ray.put({"ck": c_sorted, "rc": c_rcode})

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def tag_orders(t: pa.Table) -> pa.Table:
        d = ray.get(dim_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        # clamp + membership mask (mirrors q3's keep_building): an o_custkey
        # missing from customer is dropped — the SQL inner join's semantics —
        # instead of inheriting a neighboring customer's region code
        pos = np.minimum(np.searchsorted(d["ck"], ck), len(d["ck"]) - 1)
        hit = d["ck"][pos] == ck
        return pa.table({
            "o_orderkey": t["o_orderkey"].filter(pa.array(hit)),
            "rcode": pa.array(d["rc"][pos[hit]], pa.int32()),
        })

    orders_r = orders.map_batches(tag_orders, batch_format="pyarrow").materialize()
    n_r = orders_r.count()

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])
    n_regions = len(region_names)

    if 0 < n_r <= broadcast_orders_max:
        # the (orderkey → region-code) map fits a worker heap: broadcast it
        # and reduce lineitem straight to ≤|regions| partial rows per batch
        # — no per-order aggregate, no join, one tiny groupby
        ot = pa.concat_tables(
            [b for b in ray.get(orders_r.to_arrow_refs()) if b.num_columns > 0]
        )
        okeys = ot["o_orderkey"].to_numpy(zero_copy_only=False)
        orc = ot["rcode"].to_numpy(zero_copy_only=False)
        oorder = np.argsort(okeys)
        omap_ref = ray.put({"ok": okeys[oorder], "rc": orc[oorder]})

        def region_partial(t: pa.Table) -> pa.Table:
            d = ray.get(omap_ref)
            k = t["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(d["ok"], k), len(d["ok"]) - 1)
            hit = d["ok"][pos] == k
            rc = d["rc"][pos[hit]].astype(np.int64)
            r = pc.multiply(
                t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
            ).to_numpy(zero_copy_only=False)[hit]
            sums = np.zeros(n_regions, dtype=np.float64)
            np.add.at(sums, rc, r)
            cts = np.bincount(rc, minlength=n_regions)
            return pa.table({
                "rcode": pa.array(np.arange(n_regions), pa.int64()),
                "rev": pa.array(sums, pa.float64()),
                "n_items": pa.array(cts, pa.int64()),
            })

        grouped = (
            li.map_batches(region_partial, batch_format="pyarrow")
            .groupby("rcode")
            .aggregate(Sum("rev", alias_name="rev"), Sum("n_items", alias_name="n_items"))
        )

        def finish_b(t: pa.Table) -> pa.Table:
            rc = t["rcode"].to_numpy(zero_copy_only=False)
            n_it = t["n_items"].to_numpy(zero_copy_only=False)
            keep = n_it > 0  # regions with no joined lineitem don't appear
            return pa.table({
                "r_name": pa.array(
                    np.asarray(region_names, dtype=object)[rc[keep]], pa.string()
                ),
                "revenue": pa.array(
                    duckdb_round(t["rev"].to_numpy(zero_copy_only=False)[keep], 2),
                    pa.float64(),
                ),
                "n_items": pa.array(n_it[keep], pa.int64()),
            })

        return grouped.map_batches(finish_b, batch_format="pyarrow")

    def rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "rev": r})

    # beyond-broadcast: per-order pre-aggregate shrinks the join input from
    # |lineitem| to |orders|, then the partitioned hash join
    li_agg = keyed_fold(
        li.map_batches(rev, batch_format="pyarrow"), "o_orderkey", ["rev"],
        count="n_items",
    ).materialize()
    joined = _inner_join(
        li_agg, orders_r.materialize(), n_left=li_agg.count(), on=("o_orderkey",),
        empty_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("rev", pa.float64()), ("n_items", pa.int64()),
                                ("rcode", pa.int32())]),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )
    names_arr = pa.array(region_names, pa.string())

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "r_name": pc.take(names_arr, t["rcode"]),
            "rev": t["rev"],
            "n_items": t["n_items"],
        })

    return joined.map_batches(finish, batch_format="pyarrow").groupby("r_name").aggregate(
        Sum("rev", alias_name="revenue"), Sum("n_items", alias_name="n_items")
    ).map_batches(lambda t: _round_col(t, "revenue", 2), batch_format="pyarrow")


@register(
    "top_brands_by_revenue",
    """
SELECT p.p_brand AS p_brand,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY p.p_brand ORDER BY revenue DESC, p_brand LIMIT 5""",
    "broadcast dimension join + top-k",
)
def top_brands_by_revenue(sf_dir: str) -> ray.data.Dataset:
    import pyarrow.parquet as pq
    import os

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand"])
    if part.num_rows == 0:  # inner join against nothing → empty result
        return ray.data.from_arrow(pa.schema([
            ("p_brand", pa.string()), ("revenue", pa.float64()),
        ]).empty_table())
    pk = part["p_partkey"].to_numpy(zero_copy_only=False)
    porder = np.argsort(pk)
    brands_arr = np.asarray(part["p_brand"].to_pylist(), dtype=object)[porder]
    ref = ray.put((pk[porder], brands_arr))

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"])

    def tag(t: pa.Table) -> pa.Table:
        keys, bnames = ray.get(ref)
        lk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, lk), len(keys) - 1)
        hit = keys[pos] == lk  # lineitems without a part drop (inner join)
        rev = pc.multiply(
            t["l_extendedprice"].filter(pa.array(hit)),
            pc.subtract(pa.scalar(1.0), t["l_discount"].filter(pa.array(hit))),
        )
        return pa.table({
            "p_brand": pa.array(bnames[pos[hit]], pa.string()), "rev": rev,
        })

    agg = li.map_batches(tag, batch_format="pyarrow").groupby("p_brand").aggregate(
        Sum("rev", alias_name="revenue")
    ).map_batches(lambda t: _round_col(t, "revenue", 2), batch_format="pyarrow")
    return agg.sort(["revenue", "p_brand"], descending=[True, False]).limit(5)


@register(
    "customer_top_balances",
    """
SELECT c_custkey, c_name, c_acctbal FROM customer
WHERE c_acctbal > 0 ORDER BY c_acctbal DESC, c_custkey LIMIT 20""",
    "filter + sort + limit (raw column floats — bit-exact)",
)
def customer_top_balances(sf_dir: str) -> ray.data.Dataset:
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])
    return cust.filter(expr="c_acctbal > 0").sort(
        ["c_acctbal", "c_custkey"], descending=[True, False]
    ).limit(20)


@register(
    "q10_returned_revenue",
    """
SELECT c.c_custkey, c.c_name, n.n_name,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE o.o_orderdate >= TIMESTAMP '1995-01-01'
  AND o.o_orderdate <  TIMESTAMP '1995-07-01'
  AND l.l_returnflag = 'R'
GROUP BY c.c_custkey, c.c_name, n.n_name
ORDER BY revenue DESC, c.c_custkey LIMIT 20""",
    "TPC-H q10 shape — the heaviest relational pattern in the registry: "
    "the date window filters orders to a key-only (orderkey → custkey) map "
    "that is BROADCAST (ray.put once, searchsorted per batch) when it fits "
    "the ceiling, so lineitem is filtered + customer-tagged in one "
    "streaming pass and the ONLY shuffle is the per-customer aggregate; "
    "past the ceiling it falls back to per-order pre-aggregate + "
    "partitioned hash join. Distributed top-k on the rounded metric, then "
    "O(20) dimension decoration — the driver touches exactly the 20 "
    "result rows, never a fact table",
)
def q10_returned_revenue(
    sf_dir: str, broadcast_orders_max: int = 2_000_000
) -> ray.data.Dataset:
    import os
    import pyarrow.parquet as pq

    lo = pa.scalar(np.datetime64("1995-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1995-07-01", "us"), pa.timestamp("us"))
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def window(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["o_orderdate"], lo), pc.less(t["o_orderdate"], hi))
        return t.filter(m).select(["o_orderkey", "o_custkey"])

    ord_f = orders.map_batches(window, batch_format="pyarrow").materialize()
    n_ord = ord_f.count()
    out_schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("n_name", pa.string()), ("revenue", pa.float64()),
    ])
    if n_ord == 0:  # no orders in the window → empty result, typed
        return ray.data.from_arrow(out_schema.empty_table())
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"])

    def rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        r = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "rev": r})

    if n_ord <= broadcast_orders_max:
        # windowed key map fits one worker heap: ship it once, tag lineitem
        # in the same pass that computes revenue — no per-order groupby,
        # no hash join; the per-customer aggregate is the only shuffle
        ok = pa.concat_tables(ray.get(ord_f.to_arrow_refs()))
        okeys = ok["o_orderkey"].to_numpy(zero_copy_only=False)
        ckeys = ok["o_custkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(okeys)
        dim_ref = ray.put({"ok": okeys[order], "ck": ckeys[order]})

        def tag(t: pa.Table) -> pa.Table:
            t = rev(t)
            d = ray.get(dim_ref)
            k = t["o_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(d["ok"], k), len(d["ok"]) - 1)
            hit = d["ok"][pos] == k
            return pa.table({
                "o_custkey": pa.array(d["ck"][pos[hit]], pa.int64()),
                "rev": t["rev"].filter(pa.array(hit)),
            })

        per_cust = li.map_batches(tag, batch_format="pyarrow")
    else:  # beyond-broadcast: pre-aggregate per order, partitioned hash join
        li_agg = li.map_batches(rev, batch_format="pyarrow").groupby(
            "o_orderkey"
        ).aggregate(Sum("rev", alias_name="rev")).materialize()
        per_cust = _inner_join(
            li_agg, ord_f, n_left=li_agg.count(), on=("o_orderkey",),
            empty_schema=pa.schema([
                ("o_orderkey", pa.int64()), ("rev", pa.float64()),
                ("o_custkey", pa.int64()),
            ]),
            aggregator_ray_remote_args={"num_cpus": 0.25},
        )
    agg = (
        keyed_fold(per_cust, "o_custkey", ["rev"])
        .map_batches(
            lambda t: _round_col(t.rename_columns(["o_custkey", "revenue"]),
                                 "revenue", 2),
            batch_format="pyarrow",
        )
        .materialize()
    )
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    n2n = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()))
    # exact degenerate-dim parity: the SQL inner joins drop a top customer
    # whose customer row or nation is missing BEFORE LIMIT 20 and backfill
    # with the next-ranked survivor — so over-fetch the distributed top-k,
    # filter against the dims, truncate to 20, and widen the fetch only in
    # the (adversarial-dims) case where survivors ran short while ranked
    # candidates remain. With intact FKs the first fetch always suffices.
    want, fetch = 20, 100
    while True:
        rows = (
            agg.sort(["revenue", "o_custkey"], descending=[True, False])
            .limit(fetch).take_all()
        )  # bounded: ≤ fetch candidate rows (20 in the intact-FK case… 100)
        if not rows:
            return ray.data.from_arrow(out_schema.empty_table())
        keys = [int(r["o_custkey"]) for r in rows]
        cust = pq.read_table(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name", "c_nationkey"],
            filters=[("c_custkey", "in", keys)],  # row-group pruned dim fetch
        )
        c_info = {
            int(k): (nm, n2n[int(nk)])
            for k, nm, nk in zip(cust["c_custkey"].to_pylist(),
                                 cust["c_name"].to_pylist(),
                                 cust["c_nationkey"].to_pylist())
            if int(nk) in n2n
        }
        kept = [(k, r) for k, r in zip(keys, rows) if k in c_info][:want]
        if len(kept) >= want or len(rows) < fetch:
            break  # filled the top-20, or the candidate set is exhausted
        fetch *= 5
    return ray.data.from_arrow(pa.table({
        "c_custkey": pa.array([k for k, _ in kept], pa.int64()),
        "c_name": pa.array([c_info[k][0] for k, _ in kept], pa.string()),
        "n_name": pa.array([c_info[k][1] for k, _ in kept], pa.string()),
        "revenue": pa.array(
            [float(r["revenue"]) for _, r in kept], pa.float64()
        ),
    }).cast(out_schema))


@register(
    "customer_balance_ranks",
    """
SELECT c_nationkey, c_custkey,
       rank()         OVER w AS rnk,
       dense_rank()   OVER w AS drnk,
       percent_rank() OVER w AS prnk,
       ntile(4) OVER (PARTITION BY c_nationkey
                      ORDER BY c_acctbal DESC, c_custkey) AS quartile
FROM customer
WINDOW w AS (PARTITION BY c_nationkey ORDER BY c_acctbal DESC)""",
    "ranking window functions: per-nation rank / dense_rank / percent_rank "
    "(ties on the raw balance) + ntile(4) over the fully-tiebroken order, "
    "all from ONE lexsort per group — tie runs give rank (first index of "
    "run + 1) and dense_rank (run counter); percent_rank is the exact "
    "integer division (rank-1)/(n-1) so floats match DuckDB bit-for-bit. "
    "Scale: partitions are the natural parallel unit; a partition too big "
    "for one task would use the distributed-sort + per-block offset pass "
    "of events_cumulative_users — same outputs, no driver collect",
)
def customer_balance_ranks(sf_dir: str) -> ray.data.Dataset:
    cust = read_table(sf_dir, "customer",
                      columns=["c_nationkey", "c_custkey", "c_acctbal"])

    def ranks(g: pa.Table) -> pa.Table:
        bal = g["c_acctbal"].to_numpy(zero_copy_only=False)
        key = g["c_custkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, -bal))
        bal_s, key_s = bal[order], key[order]
        n = len(bal_s)
        new = np.concatenate(([True], bal_s[1:] != bal_s[:-1]))
        idx = np.arange(n, dtype=np.int64)
        rnk = idx[new][np.cumsum(new) - 1] + 1  # first index of tie run + 1
        drnk = np.cumsum(new).astype(np.int64)
        sizes = np.full(4, n // 4, dtype=np.int64)
        sizes[: n % 4] += 1
        quart = np.repeat(np.arange(1, 5, dtype=np.int64), sizes)[:n]
        prnk = (rnk - 1) / (n - 1) if n > 1 else np.zeros(n, np.float64)
        return pa.table({
            "c_nationkey": g["c_nationkey"],  # constant within the group
            "c_custkey": pa.array(key_s, pa.int64()),
            "rnk": pa.array(rnk, pa.int64()),
            "drnk": pa.array(drnk, pa.int64()),
            "prnk": pa.array(prnk, pa.float64()),
            "quartile": pa.array(quart, pa.int64()),
        })

    from localhost_address_matching_ray.config import bucket_width

    return (
        cust.repartition(bucket_width())
        .groupby("c_nationkey")
        .map_groups(ranks, batch_format="pyarrow")
    )


@register(
    "supplier_nation_stats",
    """
SELECT n.n_name AS n_name, count(*) AS n_suppliers,
       round(sum(s.s_acctbal), 4) AS total_acctbal
FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
GROUP BY n.n_name""",
    "dimension join + grouped stats",
)
def supplier_nation_stats(sf_dir: str) -> ray.data.Dataset:
    import pyarrow.parquet as pq
    import os

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    if nation.num_rows == 0:  # inner join against nothing → empty result
        return ray.data.from_arrow(pa.schema([
            ("n_name", pa.string()), ("n_suppliers", pa.int64()),
            ("total_acctbal", pa.float64()),
        ]).empty_table())
    nk = nation["n_nationkey"].to_numpy(zero_copy_only=False)
    norder = np.argsort(nk)
    names = np.asarray(nation["n_name"].to_pylist(), dtype=object)[norder]
    ref = ray.put((nk[norder], names))
    sup = read_table(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])

    def tag(t: pa.Table) -> pa.Table:
        keys, nm = ray.get(ref)
        sk = t["s_nationkey"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, sk), len(keys) - 1)
        hit = keys[pos] == sk  # suppliers without a nation drop (inner join)
        return pa.table({
            "n_name": pa.array(nm[pos[hit]], pa.string()),
            "s_acctbal": t["s_acctbal"].filter(pa.array(hit)),
        })

    return sup.map_batches(tag, batch_format="pyarrow").groupby("n_name").aggregate(
        Count(alias_name="n_suppliers"), Sum("s_acctbal", alias_name="total_acctbal")
    ).map_batches(lambda t: _round_col(t, "total_acctbal", 4), batch_format="pyarrow")


@register(
    "orders_priority_share",
    """
WITH g AS (SELECT o_orderpriority, count(*) AS n,
             CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
           FROM orders GROUP BY o_orderpriority)
SELECT o_orderpriority, n, cents,
       (CAST(cents AS DOUBLE) / CAST(sum(cents) OVER () AS DOUBLE)) AS share
FROM g""",
    "percent-of-total window (SUM() OVER () against a grouped aggregate): "
    "one distributed groupby to the key-domain-bounded priority table, then "
    "the total folds over those ≤|priorities| rows — integer cents end to "
    "end, one IEEE division per row, bit-exact vs the SQL window",
)
def orders_priority_share(sf_dir: str) -> ray.data.Dataset:
    orders = read_table(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        prio = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        cents = np.rint(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        uniq, inv = np.unique(prio, return_inverse=True)
        return pa.table({
            "o_orderpriority": pa.array(uniq, pa.string()),
            "n": pa.array(np.bincount(inv, minlength=len(uniq)), pa.int64()),
            "cents": pa.array(
                np.bincount(inv, weights=cents, minlength=len(uniq)).astype(np.int64),
                pa.int64()),
        })

    # key-domain-bounded collect: ≤ |priorities| partial rows per batch,
    # folded on the driver (the distributed groupby between combiner and a
    # fold this small is pure all-to-all overhead)
    parts = [
        t for t in ray.get(
            orders.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
        ) if t.num_columns > 0
    ]
    out_schema = pa.schema([
        ("o_orderpriority", pa.string()), ("n", pa.int64()),
        ("cents", pa.int64()), ("share", pa.float64()),
    ])
    if not parts or sum(t.num_rows for t in parts) == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    t = pa.concat_tables(parts)
    prio = t["o_orderpriority"].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(prio, return_inverse=True)
    n = np.bincount(inv, weights=t["n"].to_numpy(zero_copy_only=False)).astype(np.int64)
    cents = np.bincount(
        inv, weights=t["cents"].to_numpy(zero_copy_only=False)
    ).astype(np.int64)
    total = float(cents.sum())
    return ray.data.from_arrow(pa.table({
        "o_orderpriority": pa.array(uniq, pa.string()),
        "n": pa.array(n, pa.int64()),
        "cents": pa.array(cents, pa.int64()),
        "share": pa.array(cents.astype(np.float64) / total, pa.float64()),
    }))


@register(
    "customers_above_nation_avg",
    """
WITH a AS (SELECT c_nationkey,
             (CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS DOUBLE)
              / CAST(count(*) AS DOUBLE)) AS avg_cents
           FROM customer GROUP BY c_nationkey)
SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(round(c.c_acctbal * 100) AS BIGINT) AS bal_cents, a.avg_cents
FROM customer c
JOIN a ON a.c_nationkey = c.c_nationkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
WHERE CAST(round(c.c_acctbal * 100) AS BIGINT) > a.avg_cents""",
    "decorrelated scalar subquery (customers richer than their nation's "
    "average): the correlated `> (SELECT avg ...)` becomes one per-batch "
    "combiner pass to a |nations|-row aggregate, broadcast via ray.put, and "
    "one streaming filter pass — no row-level join anywhere; averages in "
    "exact integer cents over one IEEE division",
)
def customers_above_nation_avg(sf_dir: str) -> ray.data.Dataset:
    import os

    import pyarrow.parquet as pq

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        cents = np.rint(t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        uniq, inv = np.unique(nk, return_inverse=True)
        return pa.table({
            "nk": pa.array(uniq, pa.int64()),
            "n": pa.array(np.bincount(inv, minlength=len(uniq)), pa.int64()),
            "cents": pa.array(
                np.bincount(inv, weights=cents, minlength=len(uniq)).astype(np.int64),
                pa.int64()),
        })

    # per-batch partials are ≤|nations| rows each, so the collect is
    # key-domain-bounded (nations × blocks) and the final fold is one
    # np pass — a distributed Aggregate here is pure all-to-all overhead
    parts = [
        t for t in ray.get(
            cust.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
        ) if t.num_columns > 0
    ]
    out_schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()), ("n_name", pa.string()),
        ("bal_cents", pa.int64()), ("avg_cents", pa.float64()),
    ])
    if not parts or sum(t.num_rows for t in parts) == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    at = pa.concat_tables(parts)
    # fold the per-batch partials (several rows per nation) to one row per
    # nation, then dense-key LUTs (nation keys are small ints): O(1)
    # vectorized gather per batch instead of a per-row dict probe
    raw_nk = at["nk"].to_numpy(zero_copy_only=False)
    nk_agg, inv = np.unique(raw_nk, return_inverse=True)
    n_sum = np.bincount(inv, weights=at["n"].to_numpy(zero_copy_only=False))
    c_sum = np.bincount(inv, weights=at["cents"].to_numpy(zero_copy_only=False))
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    n_keys = nation["n_nationkey"].to_numpy(zero_copy_only=False)
    width = int(max(nk_agg.max(), n_keys.max() if len(n_keys) else 0)) + 1
    avg_lut = np.full(width, np.nan, np.float64)
    avg_lut[nk_agg] = c_sum / n_sum
    name_lut = np.full(width, "", dtype=object)
    name_lut[n_keys] = np.asarray(nation["n_name"].to_pylist(), dtype=object)
    has_nation = np.zeros(width, dtype=bool)
    has_nation[n_keys] = True  # inner join: keyless customers must drop
    ref = ray.put((avg_lut, name_lut, has_nation))

    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        avg_l, name_l, has_n = ray.get(ref)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        cents = np.rint(t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        avgs = avg_l[nk]
        keep = np.flatnonzero((cents > avgs) & has_n[nk])
        return pa.table({
            "c_custkey": t["c_custkey"].take(pa.array(keep)),
            "c_name": t["c_name"].take(pa.array(keep)),
            "n_name": pa.array(name_l[nk[keep]], pa.string()),
            "bal_cents": pa.array(cents[keep], pa.int64()),
            "avg_cents": pa.array(avgs[keep], pa.float64()),
        })

    return cust.map_batches(pick, batch_format="pyarrow")


@register(
    "part_size_brand_mode",
    """
SELECT p_size, p_brand AS brand_mode, n FROM (
  SELECT p_size, p_brand, count(*) AS n,
         row_number() OVER (PARTITION BY p_size
                            ORDER BY count(*) DESC, p_brand) AS rk
  FROM part GROUP BY p_size, p_brand) t
WHERE rk = 1""",
    "grouped MODE with deterministic ties (max count, then min brand): "
    "per-batch (size, brand) combiners → key-domain-bounded groupby sum → "
    "per-size argmax inside map_groups — the raw part rows never shuffle",
)
def part_size_brand_mode(sf_dir: str) -> ray.data.Dataset:
    part = read_table(sf_dir, "part", columns=["p_size", "p_brand"])

    def partial(t: pa.Table) -> pa.Table:
        sz = t["p_size"].to_numpy(zero_copy_only=False)
        br = t["p_brand"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(np.rec.fromarrays([sz, br], names=["s", "b"]),
                              return_inverse=True)
        return pa.table({
            "p_size": pa.array(uniq["s"], pa.int64()),
            "p_brand": pa.array(uniq["b"], pa.string()),
            "n": pa.array(np.bincount(inv, minlength=len(uniq)), pa.int64()),
        })

    def argmax(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"p_size": pa.array([], pa.int64()),
                             "brand_mode": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        n = g["n"].to_numpy(zero_copy_only=False)
        br = g["p_brand"].to_numpy(zero_copy_only=False)
        best = np.lexsort((br, -n))[0]
        return pa.table({
            "p_size": g["p_size"].slice(best, 1),
            "brand_mode": g["p_brand"].slice(best, 1),
            "n": g["n"].slice(best, 1),
        })

    return (
        part.map_batches(partial, batch_format="pyarrow")
        .groupby(["p_size", "p_brand"])
        .aggregate(Sum("n", alias_name="n"))
        .groupby("p_size")
        .map_groups(argmax, batch_format="pyarrow")
    )


@register(
    "part_unpivot_attrs",
    """
SELECT p_partkey, attr, value FROM (
  SELECT p_partkey, CAST(p_size AS DOUBLE) AS size,
         p_retailprice AS retailprice FROM part) t
UNPIVOT (value FOR attr IN (size, retailprice))""",
    "UNPIVOT (wide → long, the inverse of events_pivot_daily): each batch "
    "emits |attrs| stacked copies keyed by attribute name — a pure per-batch "
    "reshape, zero shuffle, output exactly |rows|×|attrs|",
)
def part_unpivot_attrs(sf_dir: str) -> ray.data.Dataset:
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_size", "p_retailprice"])

    def reshape(t: pa.Table) -> pa.Table:
        n = t.num_rows
        pk = t["p_partkey"]
        return pa.table({
            "p_partkey": pa.concat_arrays(
                [pk.combine_chunks() if isinstance(pk, pa.ChunkedArray) else pk] * 2
            ) if n else pa.array([], pa.int64()),
            "attr": pa.array(["size"] * n + ["retailprice"] * n, pa.string()),
            "value": pa.array(
                np.concatenate([
                    t["p_size"].to_numpy(zero_copy_only=False).astype(np.float64),
                    t["p_retailprice"].to_numpy(zero_copy_only=False),
                ]) if n else np.empty(0, np.float64), pa.float64()),
        })

    return part.map_batches(reshape, batch_format="pyarrow")


@register(
    "lineitem_qty_disc_corr",
    """
WITH m AS (
  SELECT l_returnflag, count(*) AS n,
         sum(CAST(l_quantity AS BIGINT)) AS sq,
         sum(CAST(round(l_discount * 100) AS BIGINT)) AS sd,
         sum(CAST(l_quantity AS BIGINT) * CAST(l_quantity AS BIGINT)) AS sqq,
         sum(CAST(round(l_discount * 100) AS BIGINT)
             * CAST(round(l_discount * 100) AS BIGINT)) AS sdd,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(round(l_discount * 100) AS BIGINT)) AS sqd
  FROM lineitem GROUP BY l_returnflag)
SELECT l_returnflag, n,
  CAST(sq AS DOUBLE) / CAST(n AS DOUBLE) AS avg_qty,
  CAST(sd AS DOUBLE) / CAST(n AS DOUBLE) / 100.0 AS avg_disc,
  sqrt(CAST(n * sqq - sq * sq AS DOUBLE) / CAST(n * (n - 1) AS DOUBLE)) AS std_qty,
  sqrt(CAST(n * sdd - sd * sd AS DOUBLE) / CAST(n * (n - 1) AS DOUBLE)) / 100.0
    AS std_disc,
  CAST(n * sqd - sq * sd AS DOUBLE)
    / (sqrt(CAST(n * sqq - sq * sq AS DOUBLE))
       * sqrt(CAST(n * sdd - sd * sd AS DOUBLE))) AS corr_qd
FROM m""",
    "grouped second-moment statistics (mean / sample stddev / Pearson "
    "correlation) BIT-exact across engines: DuckDB's stddev/corr builtins "
    "use a streaming combine whose float order differs run-to-run, so "
    "both sides instead accumulate EXACT integer moments (quantities are "
    "integral, discounts are 2-dp → basis points) and apply the identical "
    "textbook formula to the identical integers. Ray side: one "
    "dictionary-encode + bincount partial per batch (six int64 moments per "
    "group), a 3-row groupby-sum, floats only in the final tiny stage — "
    "the classic combiner shape, no data-sized shuffle",
)
def lineitem_qty_disc_corr(sf_dir: str) -> ray.data.Dataset:
    li = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_quantity", "l_discount"])

    def moments(t: pa.Table) -> pa.Table:
        enc = t["l_returnflag"].combine_chunks().dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(enc.dictionary)
        q = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = duckdb_round(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        def s(w):  # per-batch sums < 2^53 → bincount floats are exact
            return np.bincount(idx, weights=w, minlength=k).astype(np.int64)
        return pa.table({
            "l_returnflag": enc.dictionary,
            "n": pa.array(np.bincount(idx, minlength=k), pa.int64()),
            "sq": pa.array(s(q), pa.int64()),
            "sd": pa.array(s(d), pa.int64()),
            "sqq": pa.array(s(q * q), pa.int64()),
            "sdd": pa.array(s(d * d), pa.int64()),
            "sqd": pa.array(s(q * d), pa.int64()),
        })

    agg = li.map_batches(moments, batch_format="pyarrow").groupby(
        "l_returnflag"
    ).aggregate(*(Sum(c, alias_name=c) for c in ("n", "sq", "sd", "sqq", "sdd", "sqd")))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        sq, sd, sqq, sdd, sqd = (
            t[c].to_numpy(zero_copy_only=False).astype(np.int64)
            for c in ("sq", "sd", "sqq", "sdd", "sqd")
        )
        nf = n.astype(np.float64)
        vq = (n * sqq - sq * sq).astype(np.float64)
        vd = (n * sdd - sd * sd).astype(np.float64)
        den = (n * (n - 1)).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = pa.table({
                "l_returnflag": t["l_returnflag"],
                "n": t["n"].cast(pa.int64()),
                "avg_qty": pa.array(sq / nf, pa.float64()),
                "avg_disc": pa.array(sd / nf / 100.0, pa.float64()),
                "std_qty": pa.array(np.sqrt(vq / den), pa.float64()),
                "std_disc": pa.array(np.sqrt(vd / den) / 100.0, pa.float64()),
                "corr_qd": pa.array(
                    (n * sqd - sq * sd).astype(np.float64)
                    / (np.sqrt(vq) * np.sqrt(vd)),
                    pa.float64(),
                ),
            })
        return out

    return agg.map_batches(finish, batch_format="pyarrow")


def _priority_cents_hist(t: pa.Table) -> pa.Table:
    """Per-batch (priority, cents) histogram combiner shared by the disc
    and cont grouped-quantile queries: prices are exact 2-dp doubles, so
    the histogram is bounded by distinct cent values, not row count."""
    prio = t["o_orderpriority"].to_numpy(zero_copy_only=False)
    cents = np.rint(t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
    uniq, inv = np.unique(
        np.rec.fromarrays([prio, cents], names=["p", "c"]), return_inverse=True
    )
    cnt = np.bincount(inv, minlength=len(uniq))
    return pa.table({
        "o_orderpriority": pa.array(uniq["p"], pa.string()),
        "cents": pa.array(uniq["c"], pa.int64()),
        "cnt": pa.array(cnt, pa.int64()),
    })


def _hist_cum(g: pa.Table):
    """Collapse a group's partial histograms → (sorted cents, cumulative
    counts at each bin end, total n)."""
    cents = g["cents"].to_numpy(zero_copy_only=False)
    cnt = g["cnt"].to_numpy(zero_copy_only=False)
    order = np.argsort(cents, kind="mergesort")
    cents, cnt = cents[order], cnt[order]
    uniq, start = np.unique(cents, return_index=True)
    csum = np.cumsum(cnt)
    tot = np.concatenate((csum[start[1:] - 1], [csum[-1]]))
    return uniq, tot, int(csum[-1])


@register(
    "orders_priority_quantiles",
    """
SELECT o_orderpriority,
       quantile_disc(o_totalprice, 0.25) AS p25,
       quantile_disc(o_totalprice, 0.50) AS p50,
       quantile_disc(o_totalprice, 0.90) AS p90,
       count(*) AS n
FROM orders GROUP BY o_orderpriority""",
    "grouped EXACT discrete quantiles at scale: per-batch (priority, cents) "
    "histogram combiner (prices are exact 2-dp doubles, so the histogram is "
    "bounded by distinct cent values, not row count) → one tiny groupby → "
    "per-group cumulative-count walk; no group ever needs its raw rows "
    "co-located, unlike a sort-based quantile. Index rule ceil(q*n)-1 = "
    "DuckDB quantile_disc (property-tested in test_rel_ops.py)",
)
def orders_priority_quantiles(sf_dir: str) -> ray.data.Dataset:
    orders = read_table(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    qs = (0.25, 0.50, 0.90)
    hist = _priority_cents_hist

    def quantiles(g: pa.Table) -> pa.Table:
        uniq, tot, n = _hist_cum(g)
        vals = {}
        for q in qs:
            idx = min(max(int(np.ceil(q * n)) - 1, 0), n - 1)
            vals[q] = uniq[np.searchsorted(tot, idx, side="right")] / 100.0
        return pa.table({
            "o_orderpriority": pa.array([g["o_orderpriority"][0].as_py()], pa.string()),
            "p25": pa.array([vals[0.25]], pa.float64()),
            "p50": pa.array([vals[0.50]], pa.float64()),
            "p90": pa.array([vals[0.90]], pa.float64()),
            "n": pa.array([n], pa.int64()),
        })

    return (
        orders.map_batches(hist, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(quantiles, batch_format="pyarrow")
    )


@register(
    "orders_priority_quantiles_cont",
    """
SELECT o_orderpriority,
       quantile_cont(o_totalprice, 0.25) AS p25,
       quantile_cont(o_totalprice, 0.50) AS p50,
       quantile_cont(o_totalprice, 0.90) AS p90,
       count(*) AS n
FROM orders GROUP BY o_orderpriority""",
    "grouped INTERPOLATED quantiles from the same cents-histogram combiner "
    "as the disc variant (no raw-row co-location): rank p = q·(n−1), "
    "result = v[⌊p⌋]·(1−frac) + v[⌈p⌉]·frac — DuckDB quantile_cont's exact "
    "interpolation arithmetic (NOT lo+(hi−lo)·frac, which differs in the "
    "last ulp), reproduced on the cumulative-count walk by fetching the "
    "two bracketing order statistics from the histogram",
)
def orders_priority_quantiles_cont(sf_dir: str) -> ray.data.Dataset:
    orders = read_table(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    qs = (0.25, 0.50, 0.90)

    def quantiles_cont(g: pa.Table) -> pa.Table:
        uniq, tot, n = _hist_cum(g)

        def at_rank(r: int) -> float:
            return uniq[np.searchsorted(tot, r, side="right")] / 100.0

        vals = {}
        for q in qs:
            p = q * (n - 1)
            lo, hi = int(np.floor(p)), int(np.ceil(p))
            vlo = at_rank(lo)
            frac = p - lo
            vals[q] = vlo if hi == lo else vlo * (1.0 - frac) + at_rank(hi) * frac
        return pa.table({
            "o_orderpriority": pa.array([g["o_orderpriority"][0].as_py()], pa.string()),
            "p25": pa.array([vals[0.25]], pa.float64()),
            "p50": pa.array([vals[0.50]], pa.float64()),
            "p90": pa.array([vals[0.90]], pa.float64()),
            "n": pa.array([n], pa.int64()),
        })

    return (
        orders.map_batches(_priority_cents_hist, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(quantiles_cont, batch_format="pyarrow")
    )


@register(
    "orders_priority_mad",
    """
WITH c AS (SELECT o_orderpriority,
             CAST(round(o_totalprice*100) AS BIGINT) AS cents FROM orders),
m AS (SELECT o_orderpriority, median(2*cents) AS med2 FROM c GROUP BY 1),
d AS (SELECT c.o_orderpriority, abs(2*c.cents - m.med2) AS dev2
      FROM c JOIN m USING (o_orderpriority))
SELECT d.o_orderpriority, max(m2.med2)/200.0 AS med,
       median(2*d.dev2)/400.0 AS mad, count(*) AS n
FROM d JOIN m m2 USING (o_orderpriority)
GROUP BY d.o_orderpriority""",
    "robust statistics: grouped median absolute deviation, bit-exact vs "
    "DuckDB by keeping every intermediate an integer-valued double — "
    "2×cents order stats give the median as an exact half-cent, the "
    "deviation histogram derives from the SAME per-group cents histogram "
    "(|4c − 2·med2| ints — no second pass over raw rows, no second "
    "shuffle), and the deviation median interpolates in quarter-cents; "
    "two IEEE divisions at the end. The per-batch combiner bounds shuffle "
    "size by distinct cent values, not row count",
)
def orders_priority_mad(sf_dir: str) -> ray.data.Dataset:
    orders = read_table(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def mad_group(g: pa.Table) -> pa.Table:
        uniq, tot, n = _hist_cum(g)

        def order_stat(vals: np.ndarray, cum: np.ndarray, r: int) -> int:
            return int(vals[np.searchsorted(cum, r, side="right")])

        # med2 = DuckDB median(2*cents): interpolate the two bracketing
        # order statistics of the doubled cents (exact halves as doubles)
        p = 0.5 * (n - 1)
        lo, hi = int(np.floor(p)), int(np.ceil(p))
        v_lo = 2 * order_stat(uniq, tot, lo)
        med2 = float(v_lo) if hi == lo else (
            v_lo * 0.5 + 2 * order_stat(uniq, tot, hi) * 0.5
        )
        # deviation histogram from the same cents histogram: |4c - 2*med2|
        # is integral; duplicate deviations (symmetric around the median)
        # merge their counts
        cnt = np.concatenate((tot[:1], np.diff(tot)))
        dev4 = np.abs(4 * uniq - int(round(2 * med2)))
        du, inv = np.unique(dev4, return_inverse=True)
        dcnt = np.zeros(len(du), dtype=np.int64)
        np.add.at(dcnt, inv, cnt)
        dtot = np.cumsum(dcnt)
        w_lo = order_stat(du, dtot, lo)
        mad_u = float(w_lo) if hi == lo else (
            w_lo * 0.5 + order_stat(du, dtot, hi) * 0.5
        )
        return pa.table({
            "o_orderpriority": pa.array(
                [g["o_orderpriority"][0].as_py()], pa.string()
            ),
            "med": pa.array([med2 / 200.0], pa.float64()),
            "mad": pa.array([mad_u / 400.0], pa.float64()),
            "n": pa.array([n], pa.int64()),
        })

    return (
        orders.map_batches(_priority_cents_hist, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(mad_group, batch_format="pyarrow")
    )


@register(
    "part_soundex_blocks",
    f"""
WITH s AS (SELECT p_name, {soundex_sql('p_name')} AS sdx FROM part)
SELECT sdx, count(*) AS n, count(DISTINCT p_name) AS n_names
FROM s GROUP BY sdx""",
    "phonetic blocking census: American Soundex key per part name (the "
    "classic sounds-alike blocking family, complementing exact-stem and "
    "LSH blocking) → block size + distinct-name count. soundex_batch is a "
    "per-column numpy state machine over the padded byte matrix — no "
    "per-string Python — and the oracle renders the identical algorithm "
    "as an RE2-safe regexp_replace chain (functions/phonetic.py). "
    "Count-distinct is a two-level groupby: per-batch (key,name) dedup "
    "partials, then a key-level fold — the shuffle carries distinct "
    "pairs, not rows",
)
def part_soundex_blocks(sf_dir: str) -> ray.data.Dataset:
    parts = read_table(sf_dir, "part", columns=["p_name"])

    def key(t: pa.Table) -> pa.Table:
        names = t["p_name"].to_numpy(zero_copy_only=False).astype("U")
        sdx = soundex_batch(names)
        uniq, inv = np.unique(
            np.rec.fromarrays([sdx, names], names=["k", "m"]), return_inverse=True
        )
        return pa.table({
            "sdx": pa.array(uniq["k"], pa.string()),
            "p_name": pa.array(uniq["m"], pa.string()),
            "cnt": pa.array(np.bincount(inv, minlength=len(uniq)), pa.int64()),
        })

    return (
        parts.map_batches(key, batch_format="pyarrow")
        .groupby(["sdx", "p_name"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .groupby("sdx")
        .aggregate(Sum("cnt", alias_name="n"), Count(alias_name="n_names"))
    )


@register(
    "part_fuzzy_matches",
    f"""
WITH s AS (SELECT DISTINCT p_name, {soundex_sql('p_name')} AS sdx FROM part)
SELECT a.p_name AS name_a, b.p_name AS name_b,
       levenshtein(a.p_name, b.p_name) AS lev
FROM s a JOIN s b ON a.sdx = b.sdx AND a.p_name < b.p_name
WHERE levenshtein(a.p_name, b.p_name) <= 4""",
    "THE classic record-linkage composition: phonetic blocking (Soundex) "
    "then an edit-distance verify, over the DISTINCT name dictionary "
    "(dedup first — blocks are dictionary-sized, not row-sized, so a "
    "100-TB fact table costs one distinct-groupby before any pairing). "
    "Both kernels vectorized: soundex_batch column state machine + "
    "levenshtein_batch pair-axis DP",
)
def part_fuzzy_matches(sf_dir: str) -> ray.data.Dataset:
    parts = read_table(sf_dir, "part", columns=["p_name"])

    def uniq(t: pa.Table) -> pa.Table:
        names = np.unique(t["p_name"].to_numpy(zero_copy_only=False).astype("U"))
        return pa.table({"p_name": pa.array(names, pa.string())})

    def key(t: pa.Table) -> pa.Table:
        names = t["p_name"].to_numpy(zero_copy_only=False).astype("U")
        return t.append_column("sdx", pa.array(soundex_batch(names), pa.string()))

    def pairs(group: pa.Table) -> pa.Table:
        names = np.sort(group["p_name"].to_numpy(zero_copy_only=False).astype("U"))
        iu, jv = np.triu_indices(len(names), 1)
        lev = levenshtein_batch(names[iu], names[jv])
        keep = lev <= 4
        return pa.table({
            "name_a": pa.array(names[iu[keep]], pa.string()),
            "name_b": pa.array(names[jv[keep]], pa.string()),
            "lev": pa.array(lev[keep], pa.int64()),
        })

    from localhost_address_matching_ray.config import bucket_width

    # same pre-spread as corpus_fuzzy_pairs: the dedup aggregate coalesces
    # the name dictionary to a couple of blocks and map_groups parallelism
    # follows block count, so spread the O(block²) verify cluster-wide
    return (
        parts.map_batches(uniq, batch_format="pyarrow")
        .groupby("p_name")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["p_name"])
        .map_batches(key, batch_format="pyarrow")
        .repartition(bucket_width())
        .groupby("sdx")
        .map_groups(pairs, batch_format="pyarrow")
    )


@register(
    "orders_rollup",
    """
SELECT coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
       count(*) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)""",
    "multi-level aggregation (GROUP BY ROLLUP): ONE distributed shuffle at "
    "the finest (priority, status) grain with per-batch combiners, then the "
    "coarser grouping sets are derived from that aggregate — which is "
    "bounded by |priorities|×|statuses| (the key-domain product, independent "
    "of row count), so the driver fold is O(grouping sets), never O(data). "
    "Money summed in integer cents so accumulation order can't drift",
)
def orders_rollup(sf_dir: str) -> ray.data.Dataset:
    return _orders_grouping_sets(sf_dir, [["p", "s"], ["p"], []])


@register(
    "orders_cube",
    """
SELECT coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
       count(*) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders GROUP BY CUBE(o_orderpriority, o_orderstatus)""",
    "GROUP BY CUBE — all 2^k grouping sets from the SAME single finest-grain "
    "shuffle the ROLLUP uses (per-batch combiners; coarser sets derived from "
    "the key-domain-bounded aggregate, O(grouping sets) driver fold). CUBE "
    "adds the status-only set the ROLLUP lacks; nothing new crosses the wire",
)
def orders_cube(sf_dir: str) -> ray.data.Dataset:
    return _orders_grouping_sets(sf_dir, [["p", "s"], ["p"], ["s"], []])


def _orders_grouping_sets(sf_dir: str, sets: list[list[str]]) -> ray.data.Dataset:
    orders = read_table(
        sf_dir, "orders",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )

    def partial(t: pa.Table) -> pa.Table:
        prio = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        stat = t["o_orderstatus"].to_numpy(zero_copy_only=False)
        cents = np.rint(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        uniq, inv = np.unique(
            np.rec.fromarrays([prio, stat], names=["p", "s"]), return_inverse=True
        )
        n = np.bincount(inv, minlength=len(uniq))
        # integer-valued float64 accumulation is exact below 2^53 cents
        tc = np.bincount(inv, weights=cents, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "o_orderpriority": pa.array(uniq["p"], pa.string()),
            "o_orderstatus": pa.array(uniq["s"], pa.string()),
            "n": pa.array(n, pa.int64()),
            "total_cents": pa.array(tc, pa.int64()),
        })

    # key-domain-bounded collect: each batch's partial is ≤
    # |priorities|×|statuses| rows, so the driver sees ≤ that × blocks and
    # the level() fold below re-aggregates — a distributed groupby between
    # the combiner and a driver fold this small is pure all-to-all overhead
    parts = [
        t for t in ray.get(
            orders.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
        ) if t.num_columns > 0
    ]
    if not parts or sum(t.num_rows for t in parts) == 0:
        # SQL ROLLUP/CUBE over empty input still emits the () grouping set:
        # one grand-total row with count 0 and a NULL sum
        return ray.data.from_arrow(pa.table({
            "o_orderpriority": pa.array(["ALL"], pa.string()),
            "o_orderstatus": pa.array(["ALL"], pa.string()),
            "n": pa.array([0], pa.int64()),
            "total_cents": pa.array([None], pa.int64()),
        }))
    ft = pa.concat_tables(parts)

    def level(keys: list[str]) -> pa.Table:
        p = ft["o_orderpriority"].to_numpy(zero_copy_only=False)
        s = ft["o_orderstatus"].to_numpy(zero_copy_only=False)
        n = ft["n"].to_numpy(zero_copy_only=False)
        tc = ft["total_cents"].to_numpy(zero_copy_only=False)
        gp = p if "p" in keys else np.full(len(p), "ALL")
        gs = s if "s" in keys else np.full(len(p), "ALL")
        uniq, inv = np.unique(
            np.rec.fromarrays([gp, gs], names=["p", "s"]), return_inverse=True
        )
        return pa.table({
            "o_orderpriority": pa.array(uniq["p"], pa.string()),
            "o_orderstatus": pa.array(uniq["s"], pa.string()),
            "n": pa.array(np.bincount(inv, weights=n).astype(np.int64), pa.int64()),
            "total_cents": pa.array(
                np.bincount(inv, weights=tc).astype(np.int64), pa.int64()
            ),
        })

    rolled = pa.concat_tables([level(s) for s in sets])
    return ray.data.from_arrow(rolled)


#: the event-type domain is part of the pivot's schema contract (wide
#: columns are a schema, not data); unknown types still count in n_total
_EVENT_TYPES = ("view", "click", "purchase", "signup", "error")


@register(
    "events_pivot_daily",
    """
SELECT date_trunc('day', ts) AS day,
"""
    + ",\n".join(
        f"       count(*) FILTER (WHERE event_type = '{t}') AS n_{t}"
        for t in _EVENT_TYPES
    )
    + """,
       count(*) AS n_total
FROM events GROUP BY 1""",
    "pivot (long → wide conditional aggregation): per-batch combiner builds "
    "the wide per-day counts, then one tiny groupby(day) sums them — the "
    "shuffle carries |days|×|types| ints per batch, never event rows. The "
    "type domain is declared (a pivot's columns are schema); at 100 TB the "
    "same shape holds because days×types is small regardless of row count",
)
def events_pivot_daily(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        # int64 µs keys end-to-end (no numpy datetime precision coercion)
        day = (
            pc.floor_temporal(t["ts"], unit="day")
            .cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        et = t["event_type"].to_numpy(zero_copy_only=False)
        udays, inv = np.unique(day, return_inverse=True)
        cols: dict[str, pa.Array] = {
            "day": pa.array(udays, pa.int64()).cast(pa.timestamp("us"))
        }
        for name in _EVENT_TYPES:
            cols[f"n_{name}"] = pa.array(
                np.bincount(inv[et == name], minlength=len(udays)), pa.int64()
            )
        cols["n_total"] = pa.array(np.bincount(inv, minlength=len(udays)), pa.int64())
        return pa.table(cols)

    aggs = [Sum(f"n_{t}", alias_name=f"n_{t}") for t in _EVENT_TYPES]
    aggs.append(Sum("n_total", alias_name="n_total"))
    return ev.map_batches(partial, batch_format="pyarrow").groupby("day").aggregate(*aggs)


@register(
    "events_cumulative_users",
    """
WITH f AS (SELECT user_id, min(date_trunc('day', ts)) AS d FROM events GROUP BY 1),
c AS (SELECT d, count(*) AS new_users FROM f GROUP BY 1)
SELECT d AS day, new_users,
       CAST(sum(new_users) OVER (ORDER BY d) AS BIGINT) AS cum_users FROM c""",
    "EXACT running distinct-user count per day — the op that sinks naive "
    "engines (a distinct-set per window) done as first-touch transform: "
    "per-batch (user → min day) partials, one user-keyed Min groupby, a "
    "day-keyed count, then a cumsum over the day-domain-bounded result "
    "(O(days) driver fold, never a per-day set). No user's events need "
    "co-location beyond the Min aggregate",
)
def events_cumulative_users(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def first_touch(t: pa.Table) -> pa.Table:
        day = (
            pc.floor_temporal(t["ts"], unit="day")
            .cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(uid, return_inverse=True)
        mind = np.full(len(uniq), np.iinfo(np.int64).max)
        np.minimum.at(mind, inv, day)
        return pa.table({
            "user_id": pa.array(uniq, pa.int64()),
            "d": pa.array(mind, pa.int64()),
        })

    def bucket_first_days(g: pa.Table) -> pa.Table:
        # each user lives in exactly one hash bucket, so the per-user MIN
        # folds completely here, and the bucket emits per-day new-user
        # partial counts — the groupby sorts nb bucket keys, not |users|
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        d = g["d"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(uid, return_inverse=True)
        mind = np.full(len(uniq), np.iinfo(np.int64).max)
        np.minimum.at(mind, inv, d)
        ud, cts = np.unique(mind, return_counts=True)
        return pa.table({
            "d": pa.array(ud, pa.int64()),
            "new_users": pa.array(cts, pa.int64()),
        })

    daily = (
        bucket_fold(ev.map_batches(first_touch, batch_format="pyarrow"), "user_id",
                    bucket_first_days)
        .groupby("d")
        .aggregate(Sum("new_users", alias_name="new_users"))
    )
    # day-domain-bounded collect (≤ |days| rows) for the running sum
    parts = [t for t in ray.get(daily.to_arrow_refs()) if t.num_columns > 0]
    if not parts or sum(t.num_rows for t in parts) == 0:
        return ray.data.from_arrow(pa.schema([
            ("day", pa.timestamp("us")), ("new_users", pa.int64()),
            ("cum_users", pa.int64()),
        ]).empty_table())
    ft = pa.concat_tables(parts)
    d = ft["d"].to_numpy(zero_copy_only=False)
    nu = ft["new_users"].to_numpy(zero_copy_only=False)
    order = np.argsort(d, kind="mergesort")
    d, nu = d[order], nu[order]
    return ray.data.from_arrow(pa.table({
        "day": pa.array(d, pa.int64()).cast(pa.timestamp("us")),
        "new_users": pa.array(nu, pa.int64()),
        "cum_users": pa.array(np.cumsum(nu), pa.int64()),
    }))


@register(
    "customers_without_big_orders",
    """
SELECT c_custkey, c_name, c_acctbal
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 450000)""",
    "ANTI JOIN (operator Ray Data lacks): customers with no order above "
    "450k, via the bucketed key-membership join — right side reduced to "
    "distinct keys per batch (8 B/key combiner) before the shuffle, one "
    "np.isin per bucket (stages/rel_ops.py)",
)
def customers_without_big_orders(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.rel_ops import anti_join_keys

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])
    big = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 450000.0)).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    return anti_join_keys(cust, big, key="c_custkey", right_key="o_custkey")


@register(
    "events_churned_pairs",
    """
SELECT DISTINCT user_id, event_type FROM events
WHERE ts < TIMESTAMP '2024-01-22'
EXCEPT
SELECT DISTINCT user_id, event_type FROM events
WHERE ts >= TIMESTAMP '2024-01-22'""",
    "set difference (EXCEPT) on a composite key: (user, event_type) "
    "activity pairs seen before the cutoff and never after — the churn "
    "shape. Both sides reduce to per-batch-distinct keys first (a "
    "combiner; the raw stream never shuffles), the left to globally "
    "distinct via groupby; the EXCEPT itself is a left_outer hash join "
    "against the key-only right side + an IS NULL filter — Ray has no "
    "anti join type, and with a keys-only right this ships exactly what "
    "a real anti join would",
)
def events_churned_pairs(sf_dir: str) -> ray.data.Dataset:
    cutoff = pa.scalar(np.datetime64("2024-01-22T00:00:00", "us"),
                       pa.timestamp("us"))
    ev = read_table(sf_dir, "events", columns=["ts", "user_id", "event_type"])

    def side(before: bool):
        def pick(t: pa.Table) -> pa.Table:
            m = pc.less(t["ts"], cutoff) if before else pc.greater_equal(t["ts"], cutoff)
            kept = t.filter(m).select(["user_id", "event_type"])
            return kept.group_by(["user_id", "event_type"]).aggregate([])  # batch-distinct
        return ev.map_batches(pick, batch_format="pyarrow")

    early = (
        side(True).groupby(["user_id", "event_type"]).aggregate(Count(alias_name="c"))
        .map_batches(lambda t: t.select(["user_id", "event_type"]), batch_format="pyarrow")
        .materialize()
    )
    late = side(False).map_batches(
        lambda t: t.append_column("m", pa.array(np.ones(len(t), np.int8))),
        batch_format="pyarrow",
    )
    n = early.count()
    if n == 0:
        return early
    joined = early.join(
        late, join_type="left_outer", num_partitions=_join_parts(n),
        on=("user_id", "event_type"),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )
    return joined.map_batches(
        lambda t: t.filter(pc.is_null(t["m"])).select(["user_id", "event_type"]),
        batch_format="pyarrow",
    )


@register(
    "doc_hash_sample",
    """
SELECT doc_id, lang FROM documents
WHERE substr(sha256(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0', '1', '2', '3')""",
    "deterministic content-addressed sampling (the reproducible-split "
    "primitive every training pipeline needs): keep a row iff the first "
    "hex nibble of sha256(key) falls in the sample band — a pure per-batch "
    "filter, no RNG state, no shuffle, identical membership on any engine "
    "or cluster size. 4/16 nibbles → an exact-in-expectation 25% sample",
)
def doc_hash_sample(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.functions.hashing import sha256_hex_arrow

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def pick(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].cast(pa.string())
        hx = sha256_hex_arrow(ids)
        keep = np.asarray(hx, dtype="U1") < "4"  # first nibble in 0..3
        return t.filter(pa.array(keep))

    return docs.map_batches(pick, batch_format="pyarrow")


@register(
    "doc_stratified_sample",
    """
SELECT doc_id, lang, rk FROM (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang
                            ORDER BY sha256(CAST(doc_id AS VARCHAR)), doc_id) AS rk
  FROM documents) t WHERE rk <= 20""",
    "stratified sampling with a fixed per-stratum quota (balanced eval/train "
    "subsets): rank docs inside each lang by sha256(key) — a deterministic, "
    "engine-independent order — and keep the 20 smallest. Per-batch partial "
    "top-K per lang means the groupby shuffle carries at most K×|langs| rows "
    "per batch, never the corpus; the same two-stage shape as ann_topk",
)
def doc_stratified_sample(sf_dir: str, *, quota: int = 20) -> ray.data.Dataset:
    from localhost_address_matching_ray.functions.hashing import sha256_hex_arrow

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def ranked(t: pa.Table, k: int, with_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            out = {"doc_id": pa.array([], pa.int64()),
                   "lang": pa.array([], pa.string()),
                   "hx": pa.array([], pa.string())}
            if with_rank:
                out["rk"] = pa.array([], pa.int64())
                del out["hx"]
            return pa.table(out)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        hx = (np.asarray(t["hx"]) if "hx" in t.column_names
              else np.asarray(sha256_hex_arrow(t["doc_id"].cast(pa.string()))))
        order = np.lexsort((did, hx, lang))
        lang_s = lang[order]
        starts = np.concatenate(([0], np.flatnonzero(lang_s[1:] != lang_s[:-1]) + 1))
        seg = np.zeros(len(lang_s), np.int64)
        seg[starts[1:]] = 1
        seg = np.cumsum(seg)
        rk = np.arange(len(lang_s), dtype=np.int64) - starts[seg] + 1
        keep = order[rk <= k]
        out = {"doc_id": pa.array(did[keep], pa.int64()),
               "lang": pa.array(lang[keep], pa.string())}
        if with_rank:
            out["rk"] = pa.array(rk[rk <= k], pa.int64())
        else:
            out["hx"] = pa.array(hx[keep], pa.string())
        return pa.table(out)

    return (
        docs.map_batches(lambda t: ranked(t, quota, False), batch_format="pyarrow")
        .groupby("lang")
        .map_groups(lambda g: ranked(g, quota, True), batch_format="pyarrow")
    )


@register(
    "customers_with_urgent_orders",
    """
SELECT c_custkey, c_name, c_mktsegment
FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')""",
    "SEMI JOIN: customers with at least one urgent order — same bucketed "
    "key-membership shuffle as the anti join, mask inverted",
)
def customers_with_urgent_orders(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.rel_ops import semi_join_keys

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_mktsegment"])
    urgent = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    return semi_join_keys(cust, urgent, key="c_custkey", right_key="o_custkey")


@register(
    "orders_by_month",
    """
SELECT date_trunc('month', o_orderdate) AS month, count(*) AS n_orders,
       round(sum(o_totalprice), 2) AS total
FROM orders GROUP BY date_trunc('month', o_orderdate)""",
    "temporal bucketing + agg",
)
def orders_by_month(sf_dir: str) -> ray.data.Dataset:
    orders = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def bucket(t: pa.Table) -> pa.Table:
        return pa.table({
            "month": pc.floor_temporal(t["o_orderdate"], unit="month"),
            "o_totalprice": t["o_totalprice"],
        })

    return orders.map_batches(bucket, batch_format="pyarrow").groupby("month").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total")
    ).map_batches(lambda t: _round_col(t, "total", 2), batch_format="pyarrow")


@register(
    "events_hourly_windows",
    """
SELECT date_trunc('hour', ts) AS window_start, event_type,
       count(*) AS n_events, round(sum(value), 6) AS total_value
FROM events GROUP BY date_trunc('hour', ts), event_type""",
    "tumbling-window aggregate over the event stream (§2.9 streaming analog)",
)
def events_hourly_windows(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def combiner(t: pa.Table) -> pa.Table:
        # per-batch (hour, type) partial counts/sums: the shuffle ships
        # ≤ |hours×types| rows per batch instead of every event (measured
        # 100k → ~4k partial rows, 2.3× on the aggregate at sf0.1)
        h = (
            pc.floor_temporal(t["ts"], unit="hour")
            .cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        enc = pc.dictionary_encode(t["event_type"].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = max(1, len(enc.dictionary))
        hu = np.unique(h)
        code = np.searchsorted(hu, h) * k + codes
        uniq, inv, cts = np.unique(code, return_inverse=True, return_counts=True)
        vals = t["value"].to_numpy(zero_copy_only=False)
        sums = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(sums, inv, vals)
        return pa.table({
            "window_start": pa.array(hu[uniq // k], pa.int64()).cast(pa.timestamp("us")),
            "event_type": pc.take(enc.dictionary, pa.array(uniq % k)),
            "n": pa.array(cts, pa.int64()),
            "v": pa.array(sums, pa.float64()),
        })

    return ev.map_batches(combiner, batch_format="pyarrow").groupby(
        ["window_start", "event_type"]
    ).aggregate(
        Sum("n", alias_name="n_events"), Sum("v", alias_name="total_value")
    ).map_batches(
        lambda t: _round_col(
            t.set_column(
                t.schema.get_field_index("window_start"), "window_start",
                t["window_start"].cast(pa.timestamp("us")),
            ),
            "total_value", 6,
        ),
        batch_format="pyarrow",
    )


#: aggregated (hour, type) rows above which gapfill falls back from the
#: broadcast zero-fill to the distributed left join
GAPFILL_BROADCAST_MAX = 5_000_000


@register(
    "events_gapfill_hourly",
    """
WITH b AS (SELECT date_trunc('hour', ts) AS h, event_type FROM events),
cnt AS (SELECT h, event_type, count(*) AS n FROM b GROUP BY h, event_type),
span AS (SELECT min(h) AS lo, max(h) AS hi FROM cnt),
grid AS (
  SELECT g.window_start, t.event_type
  FROM span,
       LATERAL (SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR))
                AS window_start) g,
       (SELECT DISTINCT event_type FROM cnt) t)
SELECT g.window_start, g.event_type, coalesce(c.n, 0) AS n_events
FROM grid g LEFT JOIN cnt c
  ON c.h = g.window_start AND c.event_type = g.event_type""",
    "gap-filled tumbling windows (the dashboard/training-curve shape: "
    "EVERY hour × type row exists, zeros included): pre-aggregated counts "
    "first (the only data-sized pass), then the span is a 2-scalar "
    "aggregate, the hour grid is ray.data.range(n_hours) cross-expanded "
    "with the (bounded) type list inside map_batches. The zero-fill happens "
    "inside that expansion against the counts, broadcast as a sorted key "
    "array while they number at most GAPFILL_BROADCAST_MAX rows; above that "
    "ceiling it is a distributed left join of grid onto counts. The raw "
    "stream is never re-read",
)
def events_gapfill_hourly(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def combiner(t: pa.Table) -> pa.Table:
        # per-batch (hour, type) partial counts — same combiner shape as
        # events_hourly_windows: the shuffle ships partials, not events
        h = (
            pc.floor_temporal(t["ts"], unit="hour")
            .cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        enc = pc.dictionary_encode(t["event_type"].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = max(1, len(enc.dictionary))
        hu = np.unique(h)
        code = np.searchsorted(hu, h) * k + codes
        uniq, cts = np.unique(code, return_counts=True)
        return pa.table({
            "h": pa.array(hu[uniq // k], pa.int64()).cast(pa.timestamp("us")),
            "event_type": pc.take(enc.dictionary, pa.array(uniq % k)),
            "n": pa.array(cts, pa.int64()),
        })

    cnt = (
        ev.map_batches(combiner, batch_format="pyarrow")
        .groupby(["h", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        # Ray's sort-aggregate narrows the hour key to timestamp[s]
        # (lossless for hour floors) — restore [us] for the grid join
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("h"), "h",
                t["h"].cast(pa.timestamp("us")),
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    out_schema = pa.schema([
        ("window_start", pa.timestamp("us")),
        ("event_type", pa.string()),
        ("n_events", pa.int64()),
    ])
    if cnt.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    span = cnt.map_batches(
        lambda t: pa.table({"hus": t["h"].cast(pa.int64())}),
        batch_format="pyarrow",
    ).aggregate(Min("hus"), Max("hus"))
    lo_us, hi_us = int(span["min(hus)"]), int(span["max(hus)"])
    hour_us = 3_600_000_000
    n_hours = (hi_us - lo_us) // hour_us + 1
    types = sorted(cnt.unique("event_type"))  # bounded: distinct event types

    k_types = len(types)
    n_cnt = cnt.count()
    if n_cnt <= GAPFILL_BROADCAST_MAX:
        # the aggregated counts are (hours × types)-domain-bounded; under
        # the usual broadcast ceiling, ship them once as a sorted
        # (hour_idx·K + type_code) key array and zero-fill inside the grid
        # expansion itself — the left join's aggregator spin-up cost more
        # than this whole pass (the join remains as the beyond-ceiling path)
        ct = pa.concat_tables(
            [b for b in ray.get(cnt.to_arrow_refs()) if b.num_columns > 0]
        )
        types_arr = pa.array(types, pa.string())
        hidx = (
            (ct["h"].cast(pa.int64()).to_numpy(zero_copy_only=False) - lo_us)
            // hour_us
        )
        tcode = pc.index_in(
            ct["event_type"], value_set=types_arr
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        code = hidx * k_types + tcode
        corder = np.argsort(code)
        cref = ray.put((
            code[corder],
            ct["n"].to_numpy(zero_copy_only=False)[corder],
        ))

        def expand_fill(t: pa.Table) -> pa.Table:
            codes_s, ns = ray.get(cref)
            ids = t["id"].to_numpy(zero_copy_only=False)
            gcode = (ids[:, None] * k_types
                     + np.arange(k_types)[None, :]).ravel()
            pos = np.minimum(np.searchsorted(codes_s, gcode), len(codes_s) - 1)
            hit = codes_s[pos] == gcode
            ws = np.repeat(lo_us + ids * hour_us, k_types)
            return pa.table({
                "window_start": pa.array(ws, pa.int64()).cast(pa.timestamp("us")),
                "event_type": pa.array(np.tile(np.asarray(types, "U"), len(ids))),
                "n_events": pa.array(np.where(hit, ns[pos], 0), pa.int64()),
            })

        return ray.data.range(n_hours).map_batches(
            expand_fill, batch_format="pyarrow"
        )

    def expand(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy(zero_copy_only=False)
        ws = np.repeat(lo_us + ids * hour_us, k_types)
        return pa.table({
            "window_start": pa.array(ws, pa.int64()).cast(pa.timestamp("us")),
            "event_type": pa.array(np.tile(np.asarray(types, "U"), len(ids))),
        })

    grid = ray.data.range(n_hours).map_batches(expand, batch_format="pyarrow")
    joined = grid.join(
        cnt, join_type="left_outer",
        num_partitions=_join_parts(n_hours * k_types),
        on=("window_start", "event_type"), right_on=("h", "event_type"),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": t["window_start"],
            "event_type": t["event_type"],
            "n_events": pc.coalesce(t["n"], pa.scalar(0, pa.int64())),
        })

    return joined.map_batches(fill, batch_format="pyarrow")


@register(
    "repo_lang_profile",
    f"""
WITH corpus AS ({CORPUS_SQL})
SELECT repo, string_agg(DISTINCT lang, ',' ORDER BY lang) AS langs,
       count(*) AS n_files
FROM corpus GROUP BY repo""",
    "ordered string aggregation (string_agg DISTINCT … ORDER BY): each "
    "repo's language profile as a deterministic comma-joined sorted list. "
    "Per-batch (repo, lang) partial counts are the combiner (the shuffle "
    "carries the repo×lang vocabulary, never file rows); the join/concat "
    "runs per hash(repo) bucket on that vocabulary-sized table",
)
def repo_lang_profile(sf_dir: str) -> ray.data.Dataset:
    ds = corpus_from_documents(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        return (
            t.select(["repo", "lang"])
            .group_by(["repo", "lang"]).aggregate([([], "count_all")])
            .rename_columns(["repo", "lang", "c"])
        )

    cnt = ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["repo", "lang"]
    ).aggregate(Sum("c", alias_name="c"))

    def concat(g: pa.Table) -> pa.Table:
        repo = g["repo"].to_numpy(zero_copy_only=False).astype("U")
        lang = g["lang"].to_numpy(zero_copy_only=False).astype("U")
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((lang, repo))
        repo, lang, c = repo[order], lang[order], c[order]
        starts = np.flatnonzero(
            np.concatenate(([True], repo[1:] != repo[:-1]))
        ) if len(repo) else np.empty(0, np.int64)
        ends = np.concatenate((starts[1:], [len(repo)])) if len(repo) else starts
        # vocabulary-sized loop (repo×lang rows, never file rows)
        langs = [",".join(lang[a:b]) for a, b in zip(starts, ends)]
        return pa.table({
            "repo": pa.array(repo[starts], pa.string()),
            "langs": pa.array(langs, pa.string()),
            "n_files": pa.array(np.add.reduceat(c, starts) if len(c) else [], pa.int64()),
        })

    return bucket_fold(cnt, "repo", concat)


@register(
    "user_top_event_type",
    """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n_events
  FROM events GROUP BY user_id, event_type),
r AS (
  SELECT user_id, event_type, n_events,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n_events DESC, event_type) AS rn
  FROM c)
SELECT user_id, event_type AS top_type, n_events FROM r WHERE rn = 1""",
    "grouped mode (deterministic): each user's most frequent event type, "
    "ties broken lexicographically. One data-sized groupby builds the "
    "(user, type) counts; the per-user argmax then runs on the counts "
    "table only — bucketed hash(user) groupby + one lexsort per bucket "
    "with first-of-run selection, so no per-user group floor and no "
    "second pass over raw events",
)
def user_top_event_type(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    cnt = ev.groupby(["user_id", "event_type"]).aggregate(Count(alias_name="n_events"))

    def top1(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ty = g["event_type"].to_numpy(zero_copy_only=False).astype("U")
        n = g["n_events"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ty, -n, uid))  # user, then count desc, then type
        uid, ty, n = uid[order], ty[order], n[order]
        first = (
            np.concatenate(([True], uid[1:] != uid[:-1]))
            if len(uid) else np.empty(0, bool)
        )
        return pa.table({
            "user_id": pa.array(uid[first], pa.int64()),
            "top_type": pa.array(ty[first], pa.string()),
            "n_events": pa.array(n[first], pa.int64()),
        })

    return bucket_fold(cnt, "user_id", top1)


@register(
    "events_props_extract",
    """
SELECT event_type, count(*) AS n,
       sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS sum_k,
       min(CAST(json_extract(props, '$.k') AS BIGINT)) AS min_k,
       max(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k
FROM events GROUP BY event_type""",
    "semi-structured extraction: pull the integer field out of the JSON "
    "props column with ONE vectorized RE2 pass (pc.extract_regex) — no "
    "per-row json.loads — then an ordinary grouped integer aggregate "
    "(bit-exact). The oracle uses real json_extract; the Ray regex is "
    "exact for this flat single-key shape, and the docstring contract is "
    "explicit: nested/escaped JSON belongs to a per-actor parser stage "
    "(stages pattern A1), not this fast path",
)
def events_props_extract(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        st = pc.extract_regex(t["props"], pattern=r'"k":\s*(?P<k>-?\d+)')
        k = pc.struct_field(st, "k").cast(pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    return ev.map_batches(extract, batch_format="pyarrow").groupby(
        "event_type"
    ).aggregate(
        Count(alias_name="n"),
        Sum("k", alias_name="sum_k"),
        Min("k", alias_name="min_k"),
        Max("k", alias_name="max_k"),
    )


@register(
    "events_user_sessions",
    """
WITH e AS (
  SELECT user_id, ts,
    CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
           OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) > INTERVAL 30 MINUTES
         THEN 1 ELSE 0 END AS brk
  FROM events)
SELECT user_id, CAST(sum(brk) AS BIGINT) AS n_sessions, count(*) AS n_events
FROM e GROUP BY user_id""",
    "sessionization (30-min gap) via BUCKETED groupby — hash(user) mod a "
    "cluster-relative bucket_width() (Ray's per-key groupby floor bites at real "
    "user counts); per-user session runs are detected vectorized inside the "
    "bucket (one lexsort + diff/reduceat pass, no per-user Python)",
)
def events_user_sessions(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id"])
    gap_us = 30 * 60 * 1_000_000

    def sessions_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "n_sessions": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
            })
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        new_user = np.concatenate(([True], uid[1:] != uid[:-1]))
        gap = np.concatenate(([0], np.diff(ts)))
        brk = (new_user | (gap > gap_us)).astype(np.int64)
        starts = np.flatnonzero(new_user)
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "n_sessions": pa.array(np.add.reduceat(brk, starts), pa.int64()),
            "n_events": pa.array(
                np.diff(np.concatenate((starts, [len(uid)]))), pa.int64()
            ),
        })

    return bucket_fold(ev, "user_id", sessions_bucket)


@register(
    "events_asof_join",
    """
WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
c1 AS (SELECT user_id, ts, max_by(value, event_id) AS v
       FROM events WHERE event_type = 'click' GROUP BY user_id, ts)
SELECT p.event_id, p.user_id, p.ts,
       coalesce(c1.ts, TIMESTAMP '1970-01-01') AS click_ts,
       coalesce(c1.v, 0.0) AS click_value,
       coalesce(date_diff('microsecond', c1.ts, p.ts), -1) AS lag_us
FROM p ASOF LEFT JOIN c1 ON p.user_id = c1.user_id AND p.ts >= c1.ts""",
    "as-of join (custom operator Ray Data lacks): each purchase joined to the "
    "user's most recent click at-or-before it, ties by max event_id; bucketed "
    "per-user groupby + one composite-key searchsorted per bucket — no "
    "all-to-all sort, no per-row Python; unmatched lefts carry sentinels so "
    "the LEFT semantics hash deterministically",
)
def events_asof_join(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.events_ops import asof_join_events

    ev = read_table(
        sf_dir, "events",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    return asof_join_events(ev)


@register(
    "events_range_join",
    """
SELECT a.user_id, a.event_id AS eid_a, b.event_id AS eid_b,
       date_diff('microsecond', a.ts, b.ts) AS gap_us
FROM events a JOIN events b
  ON a.user_id = b.user_id AND b.ts > a.ts
 AND b.ts <= a.ts + INTERVAL 2 HOUR""",
    "range self-join (band join): every ordered same-user event pair within "
    "a 2-hour window, resolved per bucket with two searchsorted passes and "
    "repeat/cumsum pair materialization (no nested-loop join)",
)
def events_range_join(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.events_ops import range_join_events

    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return range_join_events(ev)


@register(
    "events_user_running_stats",
    """
SELECT event_id, user_id, ts,
       row_number() OVER w AS rn,
       sum(CAST(round(value*100) AS BIGINT)) OVER w AS run_cents,
       coalesce(date_diff('microsecond', lag(ts) OVER w, ts), -1) AS since_prev_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)""",
    "window functions (row_number / running sum / lag) per user, ordered by "
    "(ts, event_id): bucketed hash(user) groupby + one lexsort + segment "
    "cumsum per bucket; running sum carried in integer cents so int64 "
    "addition order can't drift from SQL's windowed SUM",
)
def events_user_running_stats(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.events_ops import running_stats_events

    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    return running_stats_events(ev)


@register(
    "events_user_moving_avg",
    """
SELECT event_id, user_id, ts,
       CAST(count(*) OVER w AS BIGINT) AS frame_n,
       avg(CAST(round(value*100) AS BIGINT)) OVER w AS mavg_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)""",
    "bounded window FRAME (ROWS BETWEEN 3 PRECEDING AND CURRENT ROW): "
    "per-user moving average over the last 4 events — bucketed hash(user) "
    "groupby, one lexsort + prefix-sum difference with a segment-clamped "
    "frame start per bucket; sum carried in integer cents so the single "
    "IEEE division is bit-exact against DuckDB's segment-tree window",
)
def events_user_moving_avg(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.events_ops import moving_avg_events

    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    return moving_avg_events(ev, preceding=3)


#: seed gazetteer over the documents vocabulary (the Turkey.add analog —
#: a user-supplied token→type map); the SQL mirror lives in the
#: doc_learned_vocab oracle. Anchored alternations = EntityTagger rules.
_VOCAB_RULES: list[tuple[str, str]] = [
    ("OP", r"^(?:join|scan|filter|merge|sort|agg|group|query)$"),
    ("STRUCT", r"^(?:row|column|table|batch|vector|window|line|part|key|value)$"),
    ("QUAL", r"^(?:small|big|slow|fast)$"),
]


@register(
    "doc_learned_vocab",
    r"""
WITH toks AS (
  SELECT regexp_extract_all(text, '\S+') AS tl FROM documents),
tok AS (SELECT unnest(tl) AS token FROM toks),
typ AS (
  SELECT token,
    CASE WHEN token IN ('join','scan','filter','merge','sort','agg','group','query') THEN 'OP'
         WHEN token IN ('row','column','table','batch','vector','window','line','part','key','value') THEN 'STRUCT'
         WHEN token IN ('small','big','slow','fast') THEN 'QUAL'
         ELSE 'O' END AS type
  FROM tok)
SELECT token, type, CAST(count(*) AS BIGINT) AS n
FROM typ WHERE type <> 'O' GROUP BY token, type HAVING count(*) >= 2""",
    "training analog, self-labeling iteration (pipelines/train.py): label "
    "every token with the gazetteer rule set inside actor-pool combiners "
    "(unique tokens classified once per batch), count (token, type) — the "
    "shuffle carries vocabulary, not occurrences — keep support >= 2; "
    "fit_tagger_rules turns the same counts from an ANNOTATED corpus into "
    "the EntityTagger rule set via a purity vote",
)
def doc_learned_vocab(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.pipelines.train import doc_token_type_counts

    docs = read_table(sf_dir, "documents", columns=["text"])
    return doc_token_type_counts(docs, rules=_VOCAB_RULES, min_count=2)


@register(
    "doc_bpe_merges", None,
    "tokenizer training (Sennrich et al. BPE) over the word-frequency "
    "table: per merge iteration, hash(pair)-bucketed exact pair totals "
    "emit ONE candidate row per bucket and the driver holds only the "
    "ranked merge list (the model artifact) — iterative distributed "
    "argmax+rewrite, not SQL-expressible (rows-only; the pytest "
    "cross-check pins it against the single-process textbook loop)",
)
def doc_bpe_merges(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.pipelines.train import bpe_learn

    docs = read_table(sf_dir, "documents", columns=["text"])
    merges, _ = bpe_learn(docs, n_merges=12)
    return ray.data.from_arrow(pa.table({
        "rank": pa.array(np.arange(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64()),
    }))


@register(
    "doc_bpe_token_counts", None,
    "BPE apply path: learn 12 merges, broadcast the vocab-sized "
    "(word → segment-length) map with a stated ceiling, and count each "
    "document's BPE tokens in one pc.index_in pass (unseen words fall "
    "back to chars+1, BPE's no-merges segmentation) — rows-only; the "
    "pytest cross-check pins per-doc counts against the textbook "
    "single-process segmentation",
)
def doc_bpe_token_counts(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.pipelines.train import bpe_token_counts

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return bpe_token_counts(docs, n_merges=12)


@register(
    "events_funnel",
    """
WITH f AS (
  SELECT user_id,
         min(ts) FILTER (WHERE event_type = 'view') AS t0,
         min(ts) FILTER (WHERE event_type = 'click') AS t1,
         min(ts) FILTER (WHERE event_type = 'purchase') AS t2
  FROM events GROUP BY user_id)
SELECT count(*) AS n_users,
       count(*) FILTER (WHERE t0 IS NOT NULL) AS n_step1,
       count(*) FILTER (WHERE t0 IS NOT NULL AND t1 IS NOT NULL
                        AND t0 < t1) AS n_step2,
       count(*) FILTER (WHERE t0 IS NOT NULL AND t1 IS NOT NULL
                        AND t2 IS NOT NULL AND t0 < t1 AND t1 < t2) AS n_step3
FROM f""",
    "first-touch conversion funnel view→click→purchase: per-batch per-user "
    "min-ts partials (the shuffle carries users, not events), bucketed "
    "re-min + strict-order counts, one W-row final sum — SQL's "
    "two-level FILTERed aggregate without any per-event shuffle",
)
def events_funnel(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.events_ops import funnel_events

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return funnel_events(ev)


@register(
    "events_value_histogram",
    """
SELECT event_type, CAST(floor(value/25) AS BIGINT) AS bin,
       count(*) AS n,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY event_type, bin""",
    "distribution histogram (G4's sanity stats as a first-class op): "
    "per-batch (type, bin) partial counts + integer-cent sums, then one "
    "tiny two-key groupby — bins, not rows, cross the wire",
)
def events_value_histogram(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["event_type", "value"])

    def hist(t: pa.Table) -> pa.Table:
        etype = t["event_type"].to_numpy(zero_copy_only=False)
        val = t["value"].to_numpy(zero_copy_only=False)
        bins = np.floor(val / 25.0).astype(np.int64)
        cents = np.rint(val * 100.0).astype(np.int64)
        uniq, inv = np.unique(
            np.rec.fromarrays([etype, bins], names=["t", "b"]), return_inverse=True
        )
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        # float64 bincount sums are exact below 2^53 — cents fit easily
        sums = np.bincount(inv, weights=cents, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "event_type": pa.array(uniq["t"], pa.string()),
            "bin": pa.array(uniq["b"], pa.int64()),
            "n": pa.array(n, pa.int64()),
            "sum_cents": pa.array(sums, pa.int64()),
        })

    return (
        ev.map_batches(hist, batch_format="pyarrow")
        .groupby(["event_type", "bin"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_cents", alias_name="sum_cents"))
    )


# --------------------------------------------------------------------------
# 5. Flagship (fixture corpus) + multimodal — rows-only checks
# --------------------------------------------------------------------------

@register(
    "events_daily_approx_users", None,
    "HyperLogLog distinct: per-day approximate user count via mergeable "
    "p=12 sketches — per-batch partial registers (one 4 KiB "
    "FixedSizeBinary value per day per batch, never the raw keys cross "
    "the wire), groupby(day) elementwise-max merge, estimate at the end. "
    "Approximate by construction (no SQL oracle; ~1.6% rse): exact "
    "mergeability, linear-counting range and measured error are pinned in "
    "tests/test_sketch.py; events_cumulative_users is the exact sibling",
)
def events_daily_approx_users(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.functions.sketch import (
        HLL_M,
        hll_estimate,
        hll_from_hashes,
        hll_pack,
        hll_unpack,
        splitmix64,
    )

    ev = read_table(sf_dir, "events", columns=["ts", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "day": pa.array([], pa.int64()),
                "hll": pa.array([], pa.binary(HLL_M)),
            })
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[D]")
        day = ts.astype(np.int64)
        h = splitmix64(t["user_id"].to_numpy(zero_copy_only=False))
        order = np.argsort(day, kind="stable")
        day_s, h_s = day[order], h[order]
        starts = np.concatenate(([0], np.flatnonzero(day_s[1:] != day_s[:-1]) + 1))
        ends = np.append(starts[1:], len(day_s))
        regs = np.stack([
            hll_from_hashes(h_s[a:b]) for a, b in zip(starts, ends)
        ])
        return pa.table({
            "day": pa.array(day_s[starts], pa.int64()),
            "hll": hll_pack(regs),
        })

    def merge(g: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            ("day", pa.timestamp("us")), ("n_users_approx", pa.int64()),
        ])
        if g.num_rows == 0:
            return out_schema.empty_table()
        day = g["day"].to_numpy(zero_copy_only=False)
        regs = hll_unpack(g["hll"])
        merged = regs.max(axis=0)
        est = int(round(hll_estimate(merged)))
        return pa.table({
            "day": pa.array(day[:1].astype("datetime64[D]").astype("datetime64[us]")),
            "n_users_approx": pa.array([est], pa.int64()),
        })

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .map_groups(merge, batch_format="pyarrow")
    )


_DAY_US = 86_400_000_000


def _user_days(t: pa.Table) -> pa.Table:
    """Batch-local distinct (user_id, day) pairs of an events batch, days
    counted from the epoch: a user fold ships at most one row per user-day
    per batch, not one per event."""
    uid = t["user_id"].to_numpy(zero_copy_only=False)
    ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
    day = ts.astype(np.int64) // _DAY_US
    order = np.lexsort((day, uid))
    uid, day = uid[order], day[order]
    keep = np.concatenate(
        ([True], (uid[1:] != uid[:-1]) | (day[1:] != day[:-1]))
    ) if len(uid) else np.empty(0, dtype=bool)
    return pa.table({
        "user_id": pa.array(uid[keep], pa.int64()),
        "day": pa.array(day[keep], pa.int64()),
    })


@register(
    "events_daily_distinct_users",
    """
SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
       count(DISTINCT user_id) AS n_users
FROM events GROUP BY 1""",
    "EXACT grouped count-distinct at scale (the ground truth the p=12 HLL "
    "sibling events_daily_approx_users estimates): batches pre-shrink to "
    "distinct (user, day) pairs, one hash(user)-bucketed shuffle dedups "
    "across batches, buckets emit per-day partial counts (disjoint user "
    "sets by construction) into a |days|-row final groupby — raw events "
    "never shuffle and the driver never sees per-user rows",
)
def events_daily_distinct_users(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def count_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({
                "day": pa.array([], pa.timestamp("us")),
                "n": pa.array([], pa.int64()),
            })
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        # cross-batch dedup of (user, day), then per-day partial counts
        code = day * (1 << 40) + (
            uid & ((1 << 40) - 1)
        ) if uid.size and uid.max() < (1 << 40) and uid.min() >= 0 else None
        if code is not None:
            uniq_days, counts = np.unique(
                np.unique(code) >> 40, return_counts=True
            )
        else:  # ids beyond 40 bits: pairwise lexsort dedup
            order = np.lexsort((uid, day))
            uid, day = uid[order], day[order]
            keep = np.concatenate(
                ([True], (uid[1:] != uid[:-1]) | (day[1:] != day[:-1]))
            )
            uniq_days, counts = np.unique(day[keep], return_counts=True)
        return pa.table({
            "day": pa.array(
                (uniq_days * _DAY_US).astype("datetime64[us]")
            ),
            "n": pa.array(counts, pa.int64()),
        })

    return (
        bucket_fold(ev.map_batches(_user_days, batch_format="pyarrow"), "user_id",
                    count_bucket)
        .groupby("day").aggregate(Sum("n", alias_name="n_users"))
    )


@register("linkage_fixture_clusters", None,
          "flagship LSH linkage pipeline on the planted-cluster fixture corpus")
def linkage_fixture_clusters(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.fixtures import CorpusSpec, generate_corpus
    from localhost_address_matching_ray.pipelines.linkage import link_corpus

    tables = generate_corpus(CorpusSpec(n_base=300, seed=42))
    res = link_corpus(
        ray.data.from_arrow(tables["corpus"]),
        PipelineConfig(feature_concurrency=2),
    )
    return res["clusters"]


@register("multimodal_media_features", None,
          "multimodal decode + features — REAL pure-numpy decode for each "
          "modality's interchange format (netpbm + PNG image — PNG via the "
          "stdlib zlib codec — / PCM WAV audio / y4m video); remaining "
          "codec formats honestly stubbed")
def multimodal_media_features(sf_dir: str) -> ray.data.Dataset:
    import os
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages.multimodal import (
        extract_media_features,
        synthesize_media_table,
    )

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    media = ray.data.from_arrow(synthesize_media_table(docs))
    return extract_media_features(media)


@register("multimodal_resize_frames", None,
          "multimodal resize (REAL netpbm + PNG paths) + video frame "
          "sampling (row-expanding actor stage; y4m streams decode REAL "
          "frames, codec video honestly stubbed) — features over the "
          "resized stream")
def multimodal_resize_frames(sf_dir: str) -> ray.data.Dataset:
    import os
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages.multimodal import (
        extract_media_features,
        resize_media,
        synthesize_media_table,
    )

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    media = ray.data.from_arrow(synthesize_media_table(docs))
    return extract_media_features(resize_media(media, 8, 6))


# --------------------------------------------------------------------------
# 6. Goldset-prep analogs: regex masks, priority bucketing, splits, distincts
# --------------------------------------------------------------------------

#: first-match-wins bucket rules — the goldset priority classes A–J analog
#: (``prepare_goldset.ipynb`` cells 1-9: regex masks → mutually-exclusive
#: priority groups). Kept tiny so Ray and SQL express the identical rule.
_BUCKET_RULES = [
    ("A", "dup"),           # contains the dup marker token
    ("B", "spark|stream"),  # streaming-ish docs
    ("C", None),            # long docs (n_chars > 400)
    ("D", None),            # zh/fr
]


@register(
    "doc_priority_buckets",
    """
SELECT doc_id,
  CASE
    WHEN regexp_matches(text, 'dup') THEN 'A'
    WHEN regexp_matches(text, 'spark|stream') THEN 'B'
    WHEN n_chars > 400 THEN 'C'
    WHEN lang IN ('zh', 'fr') THEN 'D'
    ELSE 'E'
  END AS bucket
FROM documents""",
    "M17/M18 regex predicate masks + first-match-wins priority bucketing "
    "(prepare_goldset.ipynb cells 1-9)",
)
def doc_priority_buckets(sf_dir: str) -> ray.data.Dataset:
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang", "n_chars"])

    def bucketize(t: pa.Table) -> pa.Table:
        is_a = pc.match_substring_regex(t["text"], "dup")
        is_b = pc.match_substring_regex(t["text"], "spark|stream")
        is_c = pc.greater(t["n_chars"], 400)
        is_d = pc.is_in(t["lang"], value_set=pa.array(["zh", "fr"]))
        bucket = pc.if_else(
            is_a, "A",
            pc.if_else(is_b, "B", pc.if_else(is_c, "C", pc.if_else(is_d, "D", "E"))),
        )
        return pa.table({"doc_id": t["doc_id"], "bucket": bucket})

    return docs.map_batches(bucketize, batch_format="pyarrow", batch_size=4096)


@register(
    "event_types_distinct",
    "SELECT DISTINCT event_type FROM events",
    "G5 global distinct (label-set build analog, training nb cell 7)",
)
def event_types_distinct(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["event_type"])
    return ev.groupby("event_type").aggregate(Count(alias_name="_n")).select_columns(
        ["event_type"]
    )


@register(
    "doc_train_val_split",
    """
SELECT CASE WHEN doc_id % 10 < 8 THEN 'train' ELSE 'val' END AS split,
       count(*) AS n, min(doc_id) AS min_id, max(doc_id) AS max_id
FROM documents GROUP BY 1""",
    "O5 deterministic train/val split (hash-stable, not positional — the "
    "scale-safe analog of the seeded shuffle+slice in training nb cell 11)",
)
def doc_train_val_split(sf_dir: str) -> ray.data.Dataset:
    docs = read_table(sf_dir, "documents", columns=["doc_id"])

    def tag(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        split = np.where(ids % 10 < 8, "train", "val")
        return pa.table({"split": pa.array(split, pa.string()), "doc_id": t["doc_id"]})

    return docs.map_batches(tag, batch_format="pyarrow").groupby("split").aggregate(
        Count(alias_name="n"),
        Min("doc_id", alias_name="min_id"),
        Max("doc_id", alias_name="max_id"),
    )


@register(
    "corpus_repo_stats",
    _NORM_CTE + """
SELECT repo, count(*) AS n_files, count(DISTINCT lang) AS n_langs,
       CAST(sum(n_tokens) AS BIGINT) AS total_tokens
FROM norm GROUP BY repo""",
    "per-repo rollup via two-level pre-aggregation (partial combine inside "
    "map_batches semantics: groupby(repo,lang) → groupby(repo))",
)
def corpus_repo_stats(sf_dir: str) -> ray.data.Dataset:
    ds = _normalized_corpus(sf_dir).select_columns(["repo", "lang", "n_tokens"])
    # level 1: (repo, lang) partials — shrinks the data before the wide rollup
    partial = ds.groupby(["repo", "lang"]).aggregate(
        Count(alias_name="n_files"), Sum("n_tokens", alias_name="total_tokens")
    )
    # level 2: per-repo rollup; distinct langs = rows per repo in the partial
    return partial.groupby("repo").aggregate(
        Sum("n_files", alias_name="n_files"),
        Count(alias_name="n_langs"),
        Sum("total_tokens", alias_name="total_tokens"),
    ).select_columns(["repo", "n_files", "n_langs", "total_tokens"])


def _lsh_pairs_oracle_sql(
    threshold: float, n_planes: int, n_tables: int, dim: int = 64, seed: int = 97
) -> str:
    """Exact DuckDB oracle for :func:`lsh_cosine_pairs`: the seeded
    hyperplanes (``RandomState(seed).randn(n_tables, n_planes, dim)`` —
    identical to the planes ``lsh_cosine_pairs`` broadcasts) are embedded as DOUBLE[] literals
    (shortest-roundtrip repr = exact float64 recovery), sign bits are packed
    into per-table codes, and the candidate set is the self-join on
    (table, code) — the same bucket semantics as the Ray stage modulo a
    ~2^-64 uint64 key collision. Both sides compute the signs in float64, so
    a sign flip needs |dot| within summation-order noise (~1e-15 relative)
    of zero. Scores are the same round-6 exact cosine the brute oracle uses."""
    planes = np.random.RandomState(seed).randn(n_tables, n_planes, dim)
    rows = []
    for t in range(n_tables):
        for p in range(n_planes):
            lit = "[" + ",".join(repr(x) for x in planes[t, p]) + "]::DOUBLE[]"
            rows.append(f"({t},{p},{lit})")
    values = ",\n".join(rows)
    return f"""
WITH planes(t, pl, w) AS (VALUES {values}),
codes AS (
  SELECT e.vec_id, p.t,
         CAST(sum(CASE WHEN list_inner_product(CAST(e.embedding AS DOUBLE[]), p.w) > 0
                       THEN 1 << p.pl ELSE 0 END) AS BIGINT) AS code
  FROM embeddings e, planes p
  GROUP BY e.vec_id, p.t),
cand AS (
  SELECT DISTINCT a.vec_id AS u, b.vec_id AS v
  FROM codes a JOIN codes b ON a.t = b.t AND a.code = b.code AND a.vec_id < b.vec_id)
SELECT c.u, c.v,
       round(list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]), CAST(eb.embedding AS DOUBLE[])), 6) AS score
FROM cand c
JOIN embeddings ea ON ea.vec_id = c.u
JOIN embeddings eb ON eb.vec_id = c.v
WHERE round(list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]), CAST(eb.embedding AS DOUBLE[])), 6) >= {threshold}"""


@register("embedding_lsh_pairs",
          _lsh_pairs_oracle_sql(threshold=0.45, n_planes=8, n_tables=32),
          "bucket-bounded LSH config (8 planes × 32 tables = 256 buckets/"
          "table): the selectivity-first configuration a large corpus would "
          "run — ~63% recall AT the 0.45 threshold (union bound, rising fast "
          "with cosine) for strictly bounded bucket sizes; oracle = the "
          "seeded hyperplanes as SQL literals + (table, sign-code) self-join "
          "— EXACT, including which pairs LSH misses")
def embedding_lsh_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.ann import lsh_cosine_pairs

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return lsh_cosine_pairs(emb, threshold=0.45, n_planes=8, n_tables=32)


@register("ann_ivf_topk", None,
          "IVF dual-side multi-probe top-k — the similarity-search scale "
          "path: candidates exactly rescored, recall approximate by "
          "construction → rows-only; ann_topk is the oracled brute "
          "baseline and tests assert ≥0.9 top-k overlap")
def ann_ivf_topk(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.ann import ivf_topk

    ids, mat = _query_vectors(sf_dir, 10)
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(emb, ids, mat, k=10)


@register("embedding_ivf_pairs", None,
          "IVF (spherical k-means cells + multi-probe) cosine near-dup pairs "
          "— the scale structure for low thresholds where hyperplane LSH "
          "degenerates; exact precision, approximate recall → rows-only")
def embedding_ivf_pairs(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.ann import ivf_cosine_pairs

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_cosine_pairs(emb, threshold=0.45, n_cells=32, n_probe=4)


_EMB_DEDUP_SQL = """
WITH RECURSIVE cos_pairs AS (
  SELECT a.vec_id AS u, b.vec_id AS v
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= 0.45),
edges AS (SELECT u AS src, v AS dst FROM cos_pairs
          UNION ALL SELECT v, u FROM cos_pairs),
cc(node, reach) AS (
  SELECT src, src FROM edges
  UNION
  SELECT e.dst, c.reach FROM cc c JOIN edges e ON e.src = c.node),
m AS (SELECT node, min(reach) AS rep FROM cc GROUP BY node),
sizes AS (SELECT rep, count(*) AS cluster_size FROM m GROUP BY rep)
SELECT e.vec_id, coalesce(s.cluster_size, 1) AS cluster_size
FROM embeddings e
LEFT JOIN sizes s ON s.rep = e.vec_id
WHERE e.vec_id NOT IN (SELECT node FROM m WHERE node <> rep)"""


@register(
    "embedding_near_dedup_keep",
    _EMB_DEDUP_SQL,
    "embedding-cosine near-dedup that REMOVES: recall-tuned verified LSH "
    "pairs (4 planes × 64 tables, per-pair miss ≈ 3.8e-6 at cos 0.45) → "
    "connected components → keep min vec_id per cluster; oracle = recursive "
    "CTE over the exact cosine pair set",
)
def embedding_near_dedup_keep(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.ann import lsh_cosine_pairs
    from localhost_address_matching_ray.stages.docs_ops import keep_representatives

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = lsh_cosine_pairs(emb, threshold=0.45, n_planes=4, n_tables=64)
    return keep_representatives(emb, pairs, id_col="vec_id")


@register(
    "corpus_parse_paths",
    _NORM_CTE + r"""
SELECT row_id,
  regexp_extract(path_canonical, '^([^/]+)', 1) AS top_dir,
  regexp_extract(path_canonical, '([^/]+)$', 1) AS filename,
  stem,
  CASE WHEN regexp_matches(regexp_extract(path_canonical, '([^/]+)$', 1), '\.')
       THEN regexp_extract(path_canonical, '\.([^./]*)$', 1) ELSE '' END AS ext
FROM norm""",
    "the static-parser analog (static_parser.py:55-97): parse the free-text "
    "key into the fixed nullable struct of canonical fields — Address("
    "province, district, neighbourhood) ↔ PathParts(top_dir, filename, stem, ext)",
)
def corpus_parse_paths(sf_dir: str) -> ray.data.Dataset:
    import re

    ds = _normalized_corpus(sf_dir).select_columns(["row_id", "path_canonical", "stem"])
    ext_re = re.compile(r"\.([^./]*)$")

    def parse(t: pa.Table) -> pa.Table:
        paths = t["path_canonical"].to_pylist()
        top, fname, ext = [], [], []
        for p in paths:
            top.append(p.split("/", 1)[0])
            name = p.rsplit("/", 1)[-1]
            fname.append(name)
            m = ext_re.search(name)
            ext.append(m.group(1) if m else "")
        return pa.table({
            "row_id": t["row_id"],
            "top_dir": pa.array(top, pa.string()),
            "filename": pa.array(fname, pa.string()),
            "stem": t["stem"],
            "ext": pa.array(ext, pa.string()),
        })

    return ds.map_batches(parse, batch_format="pyarrow", batch_size=4096)


@register(
    "doc_token_spans",
    r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS tl,
         string_split_regex(text, '\S+') AS wl
  FROM documents),
tok AS (
  SELECT doc_id, tl, wl, unnest(tl) AS tok, generate_subscripts(tl, 1) AS pos
  FROM toks),
off AS (
  SELECT doc_id, pos, tok,
    CAST(coalesce(list_sum(list_transform(wl[1:pos], x -> length(x))), 0)
       + coalesce(list_sum(list_transform(tl[1:pos-1], x -> length(x))), 0)
       AS BIGINT) AS start
  FROM tok)
SELECT doc_id, CAST(pos AS BIGINT) AS pos, tok, start,
       start + length(tok) AS "end"
FROM off""",
    "M12 analog: whitespace tokens with char offsets, one flat row per token "
    "(SQL mirror reconstructs offsets from the inter-token whitespace chunks "
    "via prefix sums — string_split_regex gives the whitespace segments)",
)
def doc_token_spans(sf_dir: str) -> ray.data.Dataset:
    import re

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    tok_re = re.compile(r"\S+")

    def spans(t: pa.Table) -> pa.Table:
        dids, poss, toks, starts, ends = [], [], [], [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for i, m in enumerate(tok_re.finditer(text), 1):
                dids.append(did); poss.append(i); toks.append(m.group(0))
                starts.append(m.start()); ends.append(m.end())
        return pa.table({
            "doc_id": pa.array(dids, pa.int64()),
            "pos": pa.array(poss, pa.int64()),
            "tok": pa.array(toks, pa.string()),
            "start": pa.array(starts, pa.int64()),
            "end": pa.array(ends, pa.int64()),
        })

    return docs.map_batches(spans, batch_format="pyarrow", batch_size=4096)


@register(
    "doc_entity_tags",
    r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS tl FROM documents),
tok AS (
  SELECT doc_id, unnest(tl) AS tok, generate_subscripts(tl, 1) AS pos FROM toks),
typ AS (
  SELECT doc_id, pos, tok,
    CASE WHEN regexp_matches(tok, '^[0-9]+$') THEN 'NUM'
         WHEN regexp_matches(tok, '^https?://') THEN 'URL'
         WHEN regexp_matches(tok, '^[^@\s]+@[^@\s]+\.[^@\s]+$') THEN 'EMAIL'
         WHEN regexp_matches(tok, '^[A-Z][A-Z0-9_]{2,}$') THEN 'CONST'
         WHEN regexp_matches(tok, '^[a-z]+([A-Z][a-z0-9]*)+$') THEN 'CAMEL'
         ELSE 'O' END AS typ
  FROM tok),
bio AS (
  SELECT doc_id, pos, tok, typ,
    CASE WHEN typ = 'O' THEN 'O'
         WHEN lag(typ) OVER w IS NOT DISTINCT FROM typ THEN 'I-' || typ
         ELSE 'B-' || typ END AS tag,
    CASE WHEN typ <> 'O' AND (lag(typ) OVER w IS DISTINCT FROM typ)
         THEN 1 ELSE 0 END AS is_b
  FROM typ WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
ent AS (
  SELECT doc_id, pos, tok, typ,
         sum(is_b) OVER (PARTITION BY doc_id ORDER BY pos) AS eid
  FROM bio),
ents AS (
  SELECT doc_id, eid, min(typ) AS typ,
         string_agg(tok, ' ' ORDER BY pos) AS etext, min(pos) AS fpos
  FROM ent WHERE typ <> 'O' GROUP BY doc_id, eid),
agg1 AS (
  SELECT doc_id, string_agg(tag, ' ' ORDER BY pos) AS pred_tags,
         CAST(sum(is_b) AS BIGINT) AS n_entities
  FROM bio GROUP BY doc_id),
agg2 AS (
  SELECT doc_id, string_agg(typ || '=' || etext, ' | ' ORDER BY fpos) AS entities_flat
  FROM ents GROUP BY doc_id)
SELECT d.doc_id,
  coalesce(a1.pred_tags, '') AS pred_tags,
  CAST(coalesce(a1.n_entities, 0) AS BIGINT) AS n_entities,
  coalesce(a2.entities_flat, '') AS entities_flat
FROM documents d
LEFT JOIN agg1 a1 USING (doc_id) LEFT JOIN agg2 a2 USING (doc_id)""",
    "M13/M14/M15: rule-based entity tagger (actor-pool heavy-state stage — "
    "the NER CLI analog, ner_address_parser.py:44-128): token classify → "
    "span aggregate → span→BIO overlap join → flat projection, all with an "
    "exact SQL mirror",
)
def doc_entity_tags(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.tagger import tag_documents

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return tag_documents(docs).select_columns(
        ["doc_id", "pred_tags", "n_entities", "entities_flat"]
    )


@register(
    "doc_entity_spans",
    r"""
WITH toks AS (
  SELECT doc_id, text, regexp_extract_all(text, '\S+') AS tl,
         string_split_regex(text, '\S+') AS wl
  FROM documents),
tok AS (
  SELECT doc_id, text, tl, wl, unnest(tl) AS tok,
         generate_subscripts(tl, 1) AS pos
  FROM toks),
off AS (
  SELECT doc_id, text, pos, tok,
    CAST(coalesce(list_sum(list_transform(wl[1:pos], x -> length(x))), 0)
       + coalesce(list_sum(list_transform(tl[1:pos-1], x -> length(x))), 0)
       AS BIGINT) AS tstart
  FROM tok),
typ AS (
  SELECT doc_id, text, pos, tok, tstart, tstart + length(tok) AS tend,
    CASE WHEN regexp_matches(tok, '^[0-9]+$') THEN 'NUM'
         WHEN regexp_matches(tok, '^https?://') THEN 'URL'
         WHEN regexp_matches(tok, '^[^@\s]+@[^@\s]+\.[^@\s]+$') THEN 'EMAIL'
         WHEN regexp_matches(tok, '^[A-Z][A-Z0-9_]{2,}$') THEN 'CONST'
         WHEN regexp_matches(tok, '^[a-z]+([A-Z][a-z0-9]*)+$') THEN 'CAMEL'
         WHEN regexp_matches(tok, '^[a-z]{6,}$') THEN 'LONGW'
         ELSE 'O' END AS typ
  FROM off),
bio AS (
  SELECT doc_id, text, pos, tstart, tend, typ,
    CASE WHEN typ <> 'O' AND (lag(typ) OVER w IS DISTINCT FROM typ)
         THEN 1 ELSE 0 END AS is_b
  FROM typ WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
ent AS (
  SELECT doc_id, text, pos, tstart, tend, typ,
         sum(is_b) OVER (PARTITION BY doc_id ORDER BY pos) AS eid
  FROM bio)
SELECT doc_id, CAST(eid AS BIGINT) AS ent_idx, min(typ) AS type,
       substr(any_value(text), CAST(min(tstart) + 1 AS BIGINT),
              CAST(max(tend) - min(tstart) AS BIGINT)) AS text,
       min(tstart) AS start, max(tend) AS "end"
FROM ent WHERE typ <> 'O'
GROUP BY doc_id, eid""",
    "M14 entity spans exploded to one flat row per entity (type, raw text "
    "slice, char offsets) with an exact SQL mirror — the doc_entity_tags "
    "rule CASE extended with a LONGW rule via the tagger's custom-rules "
    "surface (the synthetic docs contain no default-rule tokens), plus the "
    "token-offset prefix-sum reconstruction",
)
def doc_entity_spans(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.tagger import (
        DEFAULT_RULES,
        tag_documents,
    )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    rules = DEFAULT_RULES + [("LONGW", r"^[a-z]{6,}$")]
    tagged = tag_documents(docs, rules=rules).select_columns(
        ["doc_id", "entities"]
    )

    def explode(t: pa.Table) -> pa.Table:
        col = t["entities"].combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        vals = col.values  # struct array, entity order within doc = list order
        dids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), lens)
        ent_idx = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(
            offs[:-1], lens
        ) + 1
        return pa.table({
            "doc_id": pa.array(dids, pa.int64()),
            "ent_idx": pa.array(ent_idx, pa.int64()),
            "type": vals.field("type"),
            "text": vals.field("text"),
            "start": vals.field("start").cast(pa.int64()),
            "end": vals.field("end").cast(pa.int64()),
        })

    return tagged.map_batches(explode, batch_format="pyarrow", batch_size=4096)


@register(
    "events_sliding_windows",
    """
WITH w AS (
  SELECT time_bucket(INTERVAL 30 MINUTES, ts) AS window_start, value FROM events
  UNION ALL
  SELECT time_bucket(INTERVAL 30 MINUTES, ts) - INTERVAL 30 MINUTES, value FROM events
)
SELECT window_start, count(*) AS n_events, round(sum(value), 6) AS total_value
FROM w GROUP BY window_start""",
    "sliding windows (1h length, 30min slide): each event feeds two window "
    "starts — flat_map-style explode then groupby (§2.9 streaming analog)",
)
def events_sliding_windows(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["ts", "value"])

    def explode(t: pa.Table) -> pa.Table:
        w1 = pc.floor_temporal(t["ts"], multiple=30, unit="minute")
        w0 = pc.subtract(w1, pa.scalar(1_800_000_000, pa.duration("us")))
        return pa.table({
            "window_start": pa.concat_arrays(
                [w1.combine_chunks(), w0.combine_chunks().cast(pa.timestamp("us"))]
            ),
            "value": pa.concat_arrays(
                [t["value"].combine_chunks(), t["value"].combine_chunks()]
            ),
        })

    return ev.map_batches(explode, batch_format="pyarrow").groupby(
        "window_start"
    ).aggregate(
        Count(alias_name="n_events"), Sum("value", alias_name="total_value")
    ).map_batches(lambda t: _round_col(t, "total_value", 6), batch_format="pyarrow")


@register(
    "doc_quality_filter",
    f"""
WITH n AS (SELECT doc_id, {_DOCNORM} AS norm FROM documents),
t AS (SELECT doc_id,
        CASE WHEN norm = '' THEN [] ELSE string_split(norm, ' ') END AS toks
      FROM n)
SELECT doc_id FROM t
WHERE len(toks) >= 5 AND len(toks) <= 100000
  AND (CASE WHEN len(toks) = 0 THEN 0.0
       ELSE len(list_filter(toks, x -> x IN ('the','a','of','and','to','in','is','it')))::DOUBLE / len(toks) END) <= 0.6""",
    "quality filter: the keep/drop decision applied as a dataset filter "
    "(the training-data pipeline's document gate)",
)
def doc_quality_filter(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_quality

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    scored = doc_quality(docs)
    return scored.map_batches(
        lambda t: t.filter(t["keep"].combine_chunks()), batch_format="pyarrow"
    ).select_columns(["doc_id"])


@register(
    "doc_repetition_filter",
    f"""
WITH n AS (SELECT doc_id, {_DOCNORM} AS norm FROM documents),
t AS (SELECT doc_id, CASE WHEN norm='' THEN [] ELSE string_split(norm,' ') END AS toks FROM n),
tok AS (SELECT doc_id, unnest(toks) AS tk, generate_subscripts(toks,1) AS i FROM t),
stats AS (SELECT doc_id, count(*) AS nt, count(DISTINCT tk) AS ndt FROM tok GROUP BY doc_id),
bg AS (SELECT a.doc_id, a.tk || ' ' || b.tk AS b2
       FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
bgc AS (SELECT doc_id, b2, count(*) AS c FROM bg GROUP BY doc_id, b2),
bgt AS (SELECT doc_id, max(c) AS topc, sum(c) AS nb FROM bgc GROUP BY doc_id),
f AS (SELECT t.doc_id, coalesce(s.nt,0) AS n_tokens,
  round(CASE WHEN coalesce(s.nt,0)=0 THEN 0.0 ELSE 1.0 - s.ndt::DOUBLE/s.nt END, 6) AS dup_token_frac,
  round(CASE WHEN coalesce(g.nb,0)=0 THEN 0.0 ELSE g.topc::DOUBLE/g.nb END, 6) AS top_bigram_frac
  FROM t LEFT JOIN stats s USING(doc_id) LEFT JOIN bgt g USING(doc_id))
SELECT doc_id, n_tokens, dup_token_frac, top_bigram_frac,
  (n_tokens >= 20 AND dup_token_frac <= 0.55 AND top_bigram_frac <= 0.06) AS keep
FROM f""",
    "Gopher-style repetition quality rules: duplicate-token fraction + "
    "top-bigram fraction per doc with the combined keep verdict — the "
    "repetition gate of a training-data pipeline, fully vectorized "
    "(dictionary codes + one lexsort, no hashes)",
)
def doc_repetition_filter(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_repetition

    return doc_repetition(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )


@register(
    "doc_decontaminate",
    f"""
WITH n AS (SELECT doc_id, {_DOCNORM} AS norm FROM documents),
bench AS (SELECT DISTINCT array_to_string((string_split(norm,' '))[3:10], ' ') AS snippet
          FROM n WHERE doc_id % 53 = 0 AND len(string_split(norm,' ')) >= 10),
hits AS (SELECT d.doc_id, count(*) AS n_hits
         FROM n d JOIN bench b ON contains(d.norm, b.snippet) GROUP BY d.doc_id)
SELECT n.doc_id, coalesce(h.n_hits,0) AS n_hits, coalesce(h.n_hits,0) > 0 AS contaminated
FROM n LEFT JOIN hits h USING(doc_id)""",
    "benchmark decontamination: deterministic snippet set (8-token span of "
    "every doc_id % 53 == 0 doc) broadcast once, every doc scanned for "
    "containment — the eval-leakage gate of a training-data pipeline "
    "(broadcast small side + C-level substring scans, capped collect)",
)
def doc_decontaminate(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_decontaminate

    return doc_decontaminate(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )


@register(
    "doc_chunk_windows",
    f"""
WITH n AS (SELECT doc_id, {_DOCNORM} AS norm FROM documents),
t AS (SELECT doc_id, CASE WHEN norm='' THEN [] ELSE string_split(norm,' ') END AS toks FROM n),
c AS (SELECT doc_id, toks, len(toks) AS nt FROM t),
k AS (SELECT doc_id, toks, nt,
        unnest(range(0, CASE WHEN nt=0 THEN 0 ELSE (nt-1)//24 + 1 END)) AS chunk_idx
      FROM c)
SELECT doc_id, chunk_idx,
  least(chunk_idx*24 + 32, nt) - chunk_idx*24 AS n_chunk_tokens,
  array_to_string(toks[chunk_idx*24 + 1 : least(chunk_idx*24 + 32, nt)], ' ') AS chunk_text
FROM k""",
    "training-sequence chunking: overlapping 32-token windows at stride 24 "
    "over each doc's token stream (context packing for embedding/training) "
    "— flat-map-shaped, one gather per batch, no per-chunk Python",
)
def doc_chunk_windows(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_chunk_windows

    return doc_chunk_windows(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )


# --------------------------------------------------------------------------
# 12. Heavy multi-join shapes + retention analytics (session 7)
# --------------------------------------------------------------------------

@register(
    "q7_nation_trade",
    """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
       round(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
             / 10000.0, 2) AS revenue
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation ns ON ns.n_nationkey = s.s_nationkey
JOIN nation nc ON nc.n_nationkey = c.c_nationkey
WHERE ns.n_name <> nc.n_name
GROUP BY supp_nation, cust_nation, l_year""",
    "TPC-H q7 shape — the widest join tree in the registry (6 tables, two "
    "independent dimension chains). The fact table streams ONCE: order→"
    "customer→nation and supplier→nation resolve through sorted-key numpy "
    "maps broadcast via ray.put when the key sides fit the stated ceiling "
    "(searchsorted per batch, no fact-side shuffle), and each batch "
    "pre-aggregates to (supp_nation, cust_nation, year) partials, so the "
    "only shuffle is a ≤|nations|²×|years| groupby. Past the ceiling: "
    "partitioned hash joins on the key-only sides + the same "
    "partial-combine. Revenue sums in exact int64 1e-4 units (prices are "
    "cents, discounts hundredths) so the result is bit-identical under any "
    "summation order — float partials would drift a cent across partition "
    "layouts",
)
def q7_nation_trade(
    sf_dir: str, broadcast_keys_max: int = 2_000_000
) -> ray.data.Dataset:
    import os
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nat_keys = nation["n_nationkey"].to_numpy(zero_copy_only=False)
    nat_names = np.asarray(nation["n_name"].to_pylist(), dtype=object)
    nat_order = np.argsort(nat_keys)
    nat_keys, nat_names = nat_keys[nat_order], nat_names[nat_order]
    n_nat = len(nat_keys)

    # materialize the three key-map tables once: count(), and (on the
    # broadcast path) the _sorted_map collects, reuse the same blocks
    # instead of re-executing each read pipeline
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey"]
    ).materialize()
    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    ).materialize()
    supp = read_table(
        sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
    ).materialize()
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
    )

    counts = [orders.count(), cust.count(), supp.count(), li.count(), n_nat]
    if min(counts) == 0:  # inner-join chain: any empty table → empty result
        return ray.data.from_arrow(pa.schema([
            ("supp_nation", pa.string()), ("cust_nation", pa.string()),
            ("l_year", pa.int64()), ("revenue", pa.float64()),
        ]).empty_table())

    def _sorted_map(ds: ray.data.Dataset, kcol: str, vcol: str):
        t = pa.concat_tables(
            [b for b in ray.get(ds.to_arrow_refs()) if b.num_columns > 0]
        )
        k = t[kcol].to_numpy(zero_copy_only=False)
        v = t[vcol].to_numpy(zero_copy_only=False)
        order = np.argsort(k)
        return k[order], v[order]

    def _lookup(keys: np.ndarray, sk: np.ndarray, sv: np.ndarray):
        """Clamp + membership mask: a fact key absent from the dimension is
        dropped (inner-join semantics), matching the partitioned-join
        fallback path exactly — degenerate FKs never crash or mis-slice."""
        if len(sk) == 0:
            return np.zeros(len(keys), dtype=sv.dtype), np.zeros(len(keys), bool)
        pos = np.minimum(np.searchsorted(sk, keys), len(sk) - 1)
        hit = sk[pos] == keys
        return sv[pos], hit

    def _nat_code(nationkeys: np.ndarray):
        """nationkey → dense 0..n_nat-1 code with a membership mask; a
        nationkey absent from a non-empty nation table is masked out (the
        SQL inner join drops it), never wrapped or aliased to a neighbor."""
        pos = np.minimum(np.searchsorted(nat_keys, nationkeys), n_nat - 1)
        return pos, nat_keys[pos] == nationkeys

    def _rev4(t: pa.Table) -> np.ndarray:
        """Exact revenue in int64 1e-4 units: price is cents, discount is
        hundredths, so price_c * (100 - disc_c) is an integer — summation
        order can't change the answer."""
        price_c = np.rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.rint(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return price_c * (100 - disc_c)

    def _partial(rev4: np.ndarray, snat: np.ndarray, cnat: np.ndarray,
                 year: np.ndarray) -> pa.Table:
        keep = snat != cnat
        rev4, snat, cnat, year = rev4[keep], snat[keep], cnat[keep], year[keep]
        code = (snat.astype(np.int64) * n_nat + cnat) * 4096 + year
        uniq, inv = np.unique(code, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, rev4)
        u_year = uniq % 4096
        u_cn = (uniq // 4096) % n_nat
        u_sn = uniq // (4096 * n_nat)
        return pa.table({
            "supp_nation": pa.array(nat_names[u_sn], pa.string()),
            "cust_nation": pa.array(nat_names[u_cn], pa.string()),
            "l_year": pa.array(u_year, pa.int64()),
            "rev4": pa.array(sums, pa.int64()),
        })

    n_keys = max(counts[0], counts[1], counts[2])
    if n_keys <= broadcast_keys_max:
        ok, ov = _sorted_map(orders, "o_orderkey", "o_custkey")
        ck, cv = _sorted_map(cust, "c_custkey", "c_nationkey")
        sk, sv = _sorted_map(supp, "s_suppkey", "s_nationkey")
        # customer/supplier nation keys → dense 0..n_nat-1 codes; rows whose
        # nationkey is missing from nation are dropped here (inner join)
        cv, chit = _nat_code(cv)
        ck, cv = ck[chit], cv[chit]
        sv, shit = _nat_code(sv)
        sk, sv = sk[shit], sv[shit]
        maps_ref = ray.put({"ok": ok, "ov": ov, "ck": ck, "cv": cv,
                            "sk": sk, "sv": sv})

        def tag(t: pa.Table) -> pa.Table:
            m = ray.get(maps_ref)
            okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
            skey = t["l_suppkey"].to_numpy(zero_copy_only=False)
            ckey, hit_o = _lookup(okey, m["ok"], m["ov"])
            cnat, hit_c = _lookup(ckey, m["ck"], m["cv"])
            snat, hit_s = _lookup(skey, m["sk"], m["sv"])
            keep = hit_o & hit_c & hit_s
            year = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False)
            return _partial(_rev4(t)[keep], snat[keep], cnat[keep], year[keep])

        grouped = li.map_batches(tag, batch_format="pyarrow")
    else:
        # beyond-broadcast: key-only partitioned hash joins. customer and
        # supplier reduce to (key, nation-code); orders joins customer once
        # to become the (o_orderkey → cust-nation) map; lineitem pre-reduces
        # per (l_orderkey, snat, l_year) before its join so the join's left
        # is already combined.
        def cust_code(t: pa.Table) -> pa.Table:
            nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
            code, hit = _nat_code(nk)
            return pa.table({
                "c_custkey": t["c_custkey"].filter(pa.array(hit)),
                "cnat": pa.array(code[hit], pa.int64()),
            })

        cust_n = cust.map_batches(cust_code, batch_format="pyarrow")
        ord_n = _inner_join(
            orders, cust_n, n_left=orders.count(), on=("o_custkey",),
            right_on=("c_custkey",),
            empty_schema=pa.schema([
                ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                ("cnat", pa.int64()),
            ]),
        ).select_columns(["o_orderkey", "cnat"])

        sk, sv = _sorted_map(supp, "s_suppkey", "s_nationkey")
        sv, shit = _nat_code(sv)
        sk, sv = sk[shit], sv[shit]
        s_ref = ray.put({"sk": sk, "sv": sv})

        def li_partial(t: pa.Table) -> pa.Table:
            m = ray.get(s_ref)
            snat, hit = _lookup(
                t["l_suppkey"].to_numpy(zero_copy_only=False), m["sk"], m["sv"]
            )
            year = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False)
            okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
            rev4 = _rev4(t)[hit]
            snat, year, okey = snat[hit], year[hit], okey[hit]
            code = (okey * n_nat + snat) * 4096 + year
            uniq, inv = np.unique(code, return_inverse=True)
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inv, rev4)
            return pa.table({
                "l_orderkey": pa.array(uniq // (4096 * n_nat), pa.int64()),
                "snat": pa.array((uniq // 4096) % n_nat, pa.int64()),
                "l_year": pa.array(uniq % 4096, pa.int64()),
                "rev4": pa.array(sums, pa.int64()),
            })

        li_agg = li.map_batches(li_partial, batch_format="pyarrow").materialize()
        joined = _inner_join(
            li_agg, ord_n, n_left=li_agg.count(), on=("l_orderkey",),
            right_on=("o_orderkey",),
            empty_schema=pa.schema([
                ("l_orderkey", pa.int64()), ("snat", pa.int64()),
                ("l_year", pa.int64()), ("rev4", pa.int64()),
                ("cnat", pa.int64()),
            ]),
        )

        def decode(t: pa.Table) -> pa.Table:
            snat = t["snat"].to_numpy(zero_copy_only=False)
            cnat = t["cnat"].to_numpy(zero_copy_only=False)
            keep = snat != cnat
            return pa.table({
                "supp_nation": pa.array(nat_names[snat[keep]], pa.string()),
                "cust_nation": pa.array(nat_names[cnat[keep]], pa.string()),
                "l_year": t["l_year"].filter(pa.array(keep)),
                "rev4": t["rev4"].filter(pa.array(keep)),
            })

        grouped = joined.map_batches(decode, batch_format="pyarrow")

    def finish(t: pa.Table) -> pa.Table:
        rev = t["rev4"].to_numpy(zero_copy_only=False) / 10000.0
        return pa.table({
            "supp_nation": t["supp_nation"],
            "cust_nation": t["cust_nation"],
            "l_year": t["l_year"],
            "revenue": pa.array(duckdb_round(rev, 2), pa.float64()),
        })

    return (
        grouped.groupby(["supp_nation", "cust_nation", "l_year"])
        .aggregate(Sum("rev4", alias_name="rev4"))
        .map_batches(finish, batch_format="pyarrow")
    )


@register(
    "events_cohort_retention",
    """
WITH ft AS (SELECT user_id, min(date_trunc('day', ts)) AS cohort_day
            FROM events GROUP BY user_id),
act AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS act_day FROM events)
SELECT CAST(f.cohort_day AS TIMESTAMP) AS cohort_day,
       CAST(date_diff('day', f.cohort_day, a.act_day) AS BIGINT) AS day_offset,
       count(*) AS n_users
FROM act a JOIN ft f USING (user_id)
GROUP BY 1, 2""",
    "cohort retention matrix (classic product-analytics triangle): each "
    "user's first-touch day × active-day offset → distinct-user counts. "
    "Each batch pre-shrinks to distinct (user, day) pairs before the only "
    "fact-sized shuffle — a hash(user)-bucketed groupby sized by "
    "bucket_width() — and the per-bucket pass is one lexsort + reduceat "
    "(first-touch = first row of each user run); buckets emit "
    "(cohort, offset) partial counts so the final groupby is "
    "|days|²/2-sized, driver never sees per-user rows",
)
def events_cohort_retention(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def retention_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({
                "cohort_day": pa.array([], pa.timestamp("us")),
                "day_offset": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            })
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        # cross-batch dedup of (user, day), then first row of each user run
        # IS the cohort day (sorted ascending within the user)
        keep = np.concatenate(
            ([True], (uid[1:] != uid[:-1]) | (day[1:] != day[:-1]))
        )
        uid, day = uid[keep], day[keep]
        new_user = np.concatenate(([True], uid[1:] != uid[:-1]))
        user_idx = np.cumsum(new_user) - 1
        cohort = day[np.flatnonzero(new_user)][user_idx]
        off = day - cohort
        code = cohort * (1 << 20) + off  # offsets < 2^20 days (~2.8k years)
        uniq, counts = np.unique(code, return_counts=True)
        return pa.table({
            "cohort_day": pa.array(
                ((uniq >> 20) * _DAY_US).astype("datetime64[us]")
            ),
            "day_offset": pa.array(uniq & ((1 << 20) - 1), pa.int64()),
            "n": pa.array(counts, pa.int64()),
        })

    return (
        bucket_fold(ev.map_batches(_user_days, batch_format="pyarrow"), "user_id",
                    retention_bucket)
        .groupby(["cohort_day", "day_offset"])
        .aggregate(Sum("n", alias_name="n_users"))
    )


#: sentinel for a null event_type riding a sort-shuffle (Ray's groupby
#: can't order null keys); \x00 can't occur in a real event_type string
_NULL_TYPE = "\x00"


@register(
    "events_type_transitions",
    """
WITH s AS (
  SELECT event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type
  FROM events)
SELECT prev_type, event_type AS next_type, count(*) AS n_transitions
FROM s WHERE prev_type IS NOT NULL GROUP BY prev_type, next_type""",
    "per-user event-type transition (Markov bigram) matrix — the sequence "
    "statistic behind next-action models. hash(user)-bucketed groupby; "
    "inside each bucket one lexsort orders every user's stream, adjacent "
    "rows within a user form the transitions (no per-user Python), and "
    "pairs pre-count via dictionary codes so buckets emit "
    "≤|types|² partials into a tiny final groupby",
)
def events_type_transitions(sf_dir: str) -> ray.data.Dataset:
    ev = read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def trans_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "prev_type": pa.array([], pa.string()),
            "next_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        })
        if g.num_rows < 2:
            return empty
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            g["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid = uid[order]
        enc = pc.dictionary_encode(
            pc.take(g["event_type"].combine_chunks(), pa.array(order))
        )
        types = enc.dictionary
        k = len(types)
        # sentinel-collision guard: a real event_type containing NUL would
        # be silently rewritten to null after the shuffle — fail loud
        # instead (one vectorized check over the ≤k distinct values)
        if k and pc.any(
            pc.match_substring(types.cast(pa.string()), _NULL_TYPE)
        ).as_py():
            raise ValueError(
                "event_type contains the \\x00 null sentinel; "
                "events_type_transitions cannot encode it"
            )
        # null event_type rows: the SQL keeps a null NEXT group but the
        # WHERE drops null PREV rows — encode null as code k so the pair
        # math stays integral, decode through a null-suffixed dictionary
        codes = enc.indices.fill_null(k).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        same_user = uid[1:] == uid[:-1]
        prev, nxt = codes[:-1][same_user], codes[1:][same_user]
        keep = prev != k  # WHERE prev_type IS NOT NULL
        prev, nxt = prev[keep], nxt[keep]
        if len(prev) == 0:
            return empty
        # Ray's sort-based groupby can't order null keys, so a null NEXT
        # rides the shuffle as the \x00 sentinel (impossible in a real
        # event_type) and is restored to null after the aggregate
        decode = pa.concat_arrays([
            types.cast(pa.string()), pa.array([_NULL_TYPE], pa.string()),
        ])
        uniq, counts = np.unique(prev * (k + 1) + nxt, return_counts=True)
        return pa.table({
            "prev_type": pc.take(decode, pa.array(uniq // (k + 1))),
            "next_type": pc.take(decode, pa.array(uniq % (k + 1))),
            "n": pa.array(counts, pa.int64()),
        })

    def unsentinel(t: pa.Table) -> pa.Table:
        nxt = t["next_type"]
        if isinstance(nxt, pa.ChunkedArray):
            nxt = nxt.combine_chunks()
        mask = pc.equal(nxt, _NULL_TYPE)
        return pa.table({
            "prev_type": t["prev_type"],
            "next_type": pc.if_else(mask, pa.scalar(None, pa.string()), nxt),
            "n_transitions": t["n_transitions"],
        })

    return (
        bucket_fold(ev, "user_id", trans_bucket)
        .groupby(["prev_type", "next_type"])
        .aggregate(Sum("n", alias_name="n_transitions"))
        .map_batches(unsentinel, batch_format="pyarrow")
    )


@register(
    "q18_big_orders",
    """
SELECT c.c_name AS c_name, o.o_orderkey AS o_orderkey,
       o.o_orderdate AS o_orderdate, o.o_totalprice AS o_totalprice,
       CAST(sum(l.l_quantity) AS BIGINT) AS total_qty
FROM orders o
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY c_name, o_orderkey, o_orderdate, o_totalprice
HAVING sum(l.l_quantity) > 300""",
    "TPC-H q18 shape (HAVING over a fact aggregate, then join back): "
    "lineitem pre-sums quantity per order inside each batch (exact int64 — "
    "quantities are integral), one groupby reduces to per-order totals, and "
    "the HAVING filter leaves only the few giant orders BY CONSTRUCTION — "
    "that tiny survivor set broadcasts as sorted key arrays so the orders "
    "and customer streams are membership-filtered in one pass each, never "
    "shuffled. Collects are the post-HAVING sets only, with a guard ceiling",
)
def q18_big_orders(
    sf_dir: str, qty_threshold: int = 300, survivors_max: int = 5_000_000
) -> ray.data.Dataset:
    out_schema = pa.schema([
        ("c_name", pa.string()), ("o_orderkey", pa.int64()),
        ("o_orderdate", pa.timestamp("us")), ("o_totalprice", pa.float64()),
        ("total_qty", pa.int64()),
    ])
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty(t: pa.Table) -> pa.Table:
        # exact int64 per-order totals: quantities are integral
        q = np.rint(t["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"], "total_qty": q})

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["total_qty"], int(qty_threshold)))

    per_order = (
        keyed_fold(li.map_batches(qty, batch_format="pyarrow"), "l_orderkey",
                   ["total_qty"])
        .map_batches(having, batch_format="pyarrow")
        .materialize()
    )
    n_big = per_order.count()
    if n_big == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    if n_big > survivors_max:
        # beyond-broadcast: the post-HAVING survivor set no longer fits the
        # driver, so switch to partitioned hash joins — orders joins the
        # survivor key table, then customer joins that result. Same output
        # as the broadcast path (pinned by the tiny-ceiling test below).
        logging.getLogger(__name__).info(
            "q18_big_orders: %d survivors > ceiling %d — partitioned-join "
            "path", n_big, survivors_max,
        )
        orders_ds = read_table(sf_dir, "orders", columns=[
            "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice",
        ])
        o_join = _inner_join(
            orders_ds, per_order, n_left=orders_ds.count(),
            on=("o_orderkey",), right_on=("l_orderkey",),
            empty_schema=pa.schema([
                ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_totalprice", pa.float64()), ("total_qty", pa.int64()),
            ]),
        ).materialize()
        cust_ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
        full = _inner_join(
            o_join, cust_ds, n_left=o_join.count(),
            on=("o_custkey",), right_on=("c_custkey",),
            empty_schema=pa.schema([
                ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_totalprice", pa.float64()), ("total_qty", pa.int64()),
                ("c_name", pa.string()),
            ]),
        )
        return full.map_batches(
            lambda t: pa.table({
                "c_name": t["c_name"], "o_orderkey": t["o_orderkey"],
                "o_orderdate": t["o_orderdate"],
                "o_totalprice": t["o_totalprice"],
                "total_qty": t["total_qty"],
            }).cast(out_schema),
            batch_format="pyarrow",
        )
    big = pa.concat_tables(
        [b for b in ray.get(per_order.to_arrow_refs()) if b.num_rows > 0]
    )
    bk = big["l_orderkey"].to_numpy(zero_copy_only=False)
    bq = big["total_qty"].to_numpy(zero_copy_only=False)
    bord = np.argsort(bk)
    bk, bq = bk[bord], bq[bord]
    keys_ref = ray.put(bk)

    def match_orders(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, ok), len(keys) - 1)
        return t.filter(pa.array(keys[pos] == ok))

    o_tbls = [
        b for b in ray.get(
            read_table(sf_dir, "orders", columns=[
                "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice",
            ]).map_batches(match_orders, batch_format="pyarrow")
            .materialize().to_arrow_refs()
        ) if b.num_rows > 0
    ]
    if not o_tbls:  # no surviving order exists in the orders table
        return ray.data.from_arrow(out_schema.empty_table())
    orders_hit = pa.concat_tables(o_tbls)
    ck = np.unique(orders_hit["o_custkey"].to_numpy(zero_copy_only=False))
    cust_ref = ray.put(ck)

    def match_cust(t: pa.Table) -> pa.Table:
        keys = ray.get(cust_ref)
        k = t["c_custkey"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return t.filter(pa.array(keys[pos] == k))

    c_tbls = [
        b for b in ray.get(
            read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
            .map_batches(match_cust, batch_format="pyarrow")
            .materialize().to_arrow_refs()
        ) if b.num_rows > 0
    ]
    if not c_tbls:  # inner join: no matching customers → empty result
        return ray.data.from_arrow(out_schema.empty_table())
    cust_hit = pa.concat_tables(c_tbls)
    # assemble the tiny survivor set driver-side: order → qty and → c_name.
    # Every o_orderkey is in bk by construction (match_orders filtered on
    # it); custkeys need the clamp + hit mask — an order whose customer is
    # absent drops, the SQL inner join's semantics
    ok = orders_hit["o_orderkey"].to_numpy(zero_copy_only=False)
    qty = bq[np.searchsorted(bk, ok)]
    ckeys = cust_hit["c_custkey"].to_numpy(zero_copy_only=False)
    corder = np.argsort(ckeys)
    ckeys = ckeys[corder]
    cnames = np.asarray(cust_hit["c_name"].to_pylist(), dtype=object)[corder]
    ocust = orders_hit["o_custkey"].to_numpy(zero_copy_only=False)
    cpos = np.minimum(np.searchsorted(ckeys, ocust), len(ckeys) - 1)
    hit = ckeys[cpos] == ocust
    keep = pa.array(hit)
    return ray.data.from_arrow(pa.table({
        "c_name": pa.array(cnames[cpos[hit]], pa.string()),
        "o_orderkey": orders_hit["o_orderkey"].filter(keep),
        "o_orderdate": orders_hit["o_orderdate"].filter(keep),
        "o_totalprice": orders_hit["o_totalprice"].filter(keep),
        "total_qty": pa.array(qty[hit], pa.int64()),
    }).cast(out_schema))


@register(
    "doc_pack_offsets",
    f"""
WITH n AS (SELECT doc_id, {_NORM.format(col="text")} AS norm FROM documents),
t AS (SELECT doc_id,
        CASE WHEN norm = '' THEN 0
             ELSE len(string_split(norm, ' ')) END AS n_tokens
      FROM n),
s AS (SELECT doc_id, n_tokens,
        coalesce(sum(n_tokens) OVER (ORDER BY doc_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS start_token
      FROM t)
SELECT doc_id, n_tokens, CAST(start_token AS BIGINT) AS start_token,
       CAST(start_token // 2048 AS BIGINT) AS start_bin,
       CAST(CASE WHEN n_tokens = 0 THEN start_token // 2048
                 ELSE (start_token + n_tokens - 1) // 2048 END AS BIGINT)
         AS end_bin
FROM s""",
    "sequence packing for training shards: each doc's global start offset "
    "in the concatenated doc_id-ordered token stream + the fixed-2048-token "
    "bins it spans. The global ordered prefix sum — no Ray Data primitive — "
    "runs as a distributed two-phase scan: order-preserving doc_id range "
    "buckets, |buckets|-row sum → driver exclusive scan of bucket bases "
    "(broadcast once), then one local sort+cumsum per bucket; rows shuffle "
    "once and the driver never sees per-doc data",
)
def doc_pack_offsets(sf_dir: str) -> ray.data.Dataset:
    from localhost_address_matching_ray.stages.docs_ops import doc_pack_offsets

    return doc_pack_offsets(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )
