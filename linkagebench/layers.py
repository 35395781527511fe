"""The traced run: per-layer metrics from calls into each layer's public
functions, made from here. Nothing inside the package is instrumented.

Every traced run reports every per-layer metric (``per_layer_names``):

* a stage-by-stage replay of the workload's linkage (``link_corpus``'s own
  sequence of stage calls, each materialized and timed), cross-checked
  against the untraced job and the expected clusters;
* the hot kernels, single process and without Ray, on a fixed batch of the
  replayed corpus;
* one traced pass over the query list, each query timed alone, with
  ``Dataset.stats()`` totals for ``STATS_QUERIES``.

For ``query_mix`` the replayed linkage is the one inside
``corpus_linkage_clusters`` and the traced pass is the traced job; for the
linkage workloads the replay is the traced job.
"""

from __future__ import annotations

import re
import time

import numpy as np
import pyarrow as pa

import workloads as W

#: The slowest queries of a pass at sf0.01 on 4 CPUs, whose operator stats
#: are reported (fixed by name, so the metric set does not change per run).
STATS_QUERIES = ["q7_nation_trade", "corpus_fuzzy_pairs", "ann_topk"]

STAGE_METRICS = {
    "normalize_stage.normalize_corpus.s": "s",
    "feature_stage.extract_features.s": "s",
    "blocking.block_size_census.s": "s",
    "blocking.emit_block_rows.s": "s",
    "blocking.multi_keys": "count",
    "blocking.hot_keys": "count",
    "blocking.hot_rows": "count",
    "blocking.block_rows": "count",
    "pairs.candidate_pairs.s": "s",
    "pairs.verify_edges.s": "s",
    "pairs.candidates": "count",
    "pairs.edges": "count",
    "pairs.edges_per_candidate": "ratio",
    "cluster.connected_components.s": "s",
    "cluster.assign_clusters.s": "s",
    "cluster.components_nodes": "count",
}

KERNEL_METRICS = {
    "functions.normalize_content_arrow.mb_per_s": "MB/s",
    "functions.sha256_hex_arrow.mb_per_s": "MB/s",
    "functions.row_id_arrow.rows_per_s": "rows/s",
    "functions.canonicalize_path_array.rows_per_s": "rows/s",
    "functions.TokenHasher.hash_token_array.rows_per_s": "rows/s",
    "functions.shingle_hashes_flat.rows_per_s": "rows/s",
    "functions.MinHasher.oph_signature_batch.rows_per_s": "rows/s",
    "feature_stage.FeatureExtractor.rows_per_s": "rows/s",
    "functions.jaro_winkler_batch.pairs_per_s": "pairs/s",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = dict(STAGE_METRICS)
    names.update(KERNEL_METRICS)
    names.update({f"queries.{q}.s": "s" for q in W.QUERIES})
    for q in STATS_QUERIES:
        names.update({
            f"queries.{q}.op_max_s": "s",
            f"queries.{q}.cpu_s": "s",
            f"queries.{q}.udf_s": "s",
        })
    names.update({"trace.total_s": "s", "trace.overhead_s": "s"})
    return names


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def replay_linkage(corpus, config) -> tuple[dict, pa.Table, dict, pa.Table]:
    """``link_corpus``'s default (fused, uncheckpointed) path, one public
    stage call at a time, each materialized: returns (metrics, clusters,
    row counts, the first normalized batch). Materializing between stages
    gives up the fusion of normalize into features; ``trace.overhead_s``
    shows that cost."""
    import ray

    from localhost_address_matching_ray.stages.blocking import (
        block_size_census,
        census_hot_and_multi,
        emit_block_rows,
    )
    from localhost_address_matching_ray.stages.cluster import (
        assign_clusters,
        connected_components,
    )
    from localhost_address_matching_ray.stages.feature_stage import (
        KEEP_COLUMNS,
        extract_features,
    )
    from localhost_address_matching_ray.stages.normalize_stage import normalize_corpus
    from localhost_address_matching_ray.stages.pairs import candidate_pairs, verify_edges

    m: dict[str, float] = {}
    rows = {"input": corpus.count()}
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nblocks = max(8, cpus * 2, 4 * config.feature_concurrency)

    normalized, m["normalize_stage.normalize_corpus.s"] = _timed(
        lambda: normalize_corpus(corpus, config.batch_size).materialize()
    )
    rows["normalized"] = normalized.count()
    batch = normalized.take_batch(4096, batch_format="pyarrow")
    if normalized.num_blocks() < nblocks:
        normalized = normalized.repartition(nblocks)
    features, m["feature_stage.extract_features.s"] = _timed(
        lambda: extract_features(normalized, config).materialize()
    )
    rows["features"] = features.count()

    def census():
        sizes = block_size_census(features, config, sample_div=1).materialize()
        return census_hot_and_multi(sizes, config)

    (hot, multi), m["blocking.block_size_census.s"] = _timed(census)
    m["blocking.multi_keys"] = len(multi)
    m["blocking.hot_keys"] = len(hot)
    m["blocking.hot_rows"] = sum(hot.values())
    blocks, m["blocking.emit_block_rows.s"] = _timed(
        lambda: emit_block_rows(features, config, hot, multi).materialize()
    )
    m["blocking.block_rows"] = blocks.count()

    pairs, m["pairs.candidate_pairs.s"] = _timed(
        lambda: candidate_pairs(blocks, config).materialize()
    )
    edges, m["pairs.verify_edges.s"] = _timed(
        lambda: verify_edges(pairs, features, config).materialize()
    )
    m["pairs.candidates"] = pairs.count()
    m["pairs.edges"] = edges.count()
    m["pairs.edges_per_candidate"] = m["pairs.edges"] / max(1, m["pairs.candidates"])

    components, m["cluster.connected_components.s"] = _timed(
        lambda: connected_components(
            edges, driver_max_edges=config.driver_cc_max_edges
        ).materialize()
    )
    m["cluster.components_nodes"] = components.count()
    names = features.schema().names
    rows_view = features.select_columns([c for c in KEEP_COLUMNS if c in names])
    clusters, m["cluster.assign_clusters.s"] = _timed(
        lambda: assign_clusters(
            rows_view, components, broadcast_max=config.broadcast_components_max
        ).materialize()
    )
    rows["assigned"] = clusters.count()
    return m, W.collect(clusters), rows, batch


def _rate(fn, units: float, min_s: float = 0.25) -> float:
    """Units per second of ``fn()``, repeated until ``min_s`` has passed
    (after one untimed call)."""
    fn()
    n, t0 = 0, time.perf_counter()
    while True:
        fn()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= min_s:
            return units * n / dt


def kernels(batch: pa.Table, config) -> dict[str, float]:
    """The hot kernels alone, in this process, on one normalized batch."""
    import pyarrow.compute as pc

    from localhost_address_matching_ray.functions.hashing import (
        MinHasher,
        TokenHasher,
        row_id_arrow,
        sha256_hex_arrow,
        shingle_hashes_flat,
    )
    from localhost_address_matching_ray.functions.normalize import (
        canonicalize_path_array,
        normalize_content_arrow,
    )
    from localhost_address_matching_ray.functions.similarity import jaro_winkler_batch
    from localhost_address_matching_ray.stages.feature_stage import FeatureExtractor

    n = batch.num_rows
    content = batch.column("content").combine_chunks()
    mb = pc.sum(pc.binary_length(content)).as_py() / 1e6
    paths = batch.column("path").to_pylist()
    tok_list = pc.split_pattern(normalize_content_arrow(content), pattern=" ")
    tokens = pc.list_flatten(tok_list)
    lens = pc.list_value_length(tok_list).to_numpy(zero_copy_only=False).astype(np.int64)
    hasher = TokenHasher()
    th = hasher.hash_token_array(tokens)
    ks = np.full(n, config.shingle_k, np.int64)
    sh, n_sh = shingle_hashes_flat(th, lens, ks)
    minhasher = MinHasher(num_perm=config.num_perm)
    extractor = FeatureExtractor(config)
    stems = np.array(batch.column("stem").to_pylist(), dtype=object)
    other = np.roll(stems, 1)

    return {
        "functions.normalize_content_arrow.mb_per_s": _rate(
            lambda: normalize_content_arrow(content), mb),
        "functions.sha256_hex_arrow.mb_per_s": _rate(
            lambda: sha256_hex_arrow(content), mb),
        "functions.row_id_arrow.rows_per_s": _rate(
            lambda: row_id_arrow(batch["repo"], batch["path"], batch["commit"]), n),
        "functions.canonicalize_path_array.rows_per_s": _rate(
            lambda: canonicalize_path_array(paths), n),
        "functions.TokenHasher.hash_token_array.rows_per_s": _rate(
            lambda: hasher.hash_token_array(tokens), len(tokens)),
        "functions.shingle_hashes_flat.rows_per_s": _rate(
            lambda: shingle_hashes_flat(th, lens, ks), n),
        "functions.MinHasher.oph_signature_batch.rows_per_s": _rate(
            lambda: minhasher.oph_signature_batch(sh, n_sh), n),
        "feature_stage.FeatureExtractor.rows_per_s": _rate(
            lambda: extractor(batch), n),
        "functions.jaro_winkler_batch.pairs_per_s": _rate(
            lambda: jaro_winkler_batch(stems, other), n),
    }


_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _total(pattern: str, text: str) -> float:
    return sum(float(v) * _UNIT_S[u] for v, u in re.findall(pattern, text))


def stats_totals(stats: str) -> dict[str, float]:
    """From ``Dataset.stats()`` text: the slowest operator's wall, and the
    remote CPU and UDF time summed over operators."""
    walls = [float(v) for v in re.findall(r"(?:produced|executed) in ([\d.]+)s", stats)]
    return {
        "op_max_s": max(walls, default=0.0),
        "cpu_s": _total(r"Remote cpu time:[^\n]*?([\d.]+)(us|ms|s) total", stats),
        "udf_s": _total(r"UDF time:[^\n]*?([\d.]+)(us|ms|s) total", stats),
    }


def traced_queries(qwl: W.QueryWorkload) -> tuple[dict, list[str], float, int]:
    """One pass over the query list, each query timed alone; returns
    (metrics, problems, wall, failed queries)."""
    m: dict[str, float] = {}
    problems: list[str] = []
    failed = 0
    t0 = time.perf_counter()
    for q in W.QUERIES:
        t = time.perf_counter()
        try:
            result, df = qwl.run_query(q)
        except Exception as e:  # noqa: BLE001 — counted as a failed query
            failed += 1
            problems.append(f"traced {q} raised {e!r}")
            continue
        m[f"queries.{q}.s"] = time.perf_counter() - t
        diff = W.compare(df, qwl.oracle[q])
        if diff:
            problems.append(f"traced {q}: {diff}")
        if q in STATS_QUERIES:
            for k, v in stats_totals(result.stats()).items():
                m[f"queries.{q}.{k}"] = v
    return m, problems, time.perf_counter() - t0, failed


#: ``corpus_linkage_clusters``'s own configuration (pipelines/queries.py)
EXACT_CONFIG = dict(jaccard_threshold=0.97, rename_jaccard_floor=0.97, verify_mode="exact")


def traced_run(wl, qwl: W.QueryWorkload, untraced, job_s: float) -> tuple[dict, int, int, list[str]]:
    """Every per-layer metric for workload ``wl``, whose untraced job took
    ``job_s`` and returned ``untraced``; ``qwl`` serves the traced query
    pass. Returns (metrics, attempted, failed, problems)."""
    import ray.data

    from localhost_address_matching_ray.config import PipelineConfig

    problems: list[str] = []
    if isinstance(wl, W.LinkWorkload):
        config = PipelineConfig()
        corpus = ray.data.read_parquet(wl.path)
    else:
        from localhost_address_matching_ray.sources.tables import corpus_from_documents

        config = PipelineConfig(**EXACT_CONFIG)
        corpus = corpus_from_documents(W.TESTDATA)
    m, clusters, rows, batch = replay_linkage(corpus, config)
    replay_s = sum(v for k, v in m.items() if k.endswith(".s"))

    # cross-checks of the replay, each by another path
    if len(set(rows.values())) != 1:
        problems.append(f"row counts not conserved across stages: {rows}")
    if m["pairs.edges"] > m["pairs.candidates"]:
        problems.append("more verified edges than candidate pairs")
    if isinstance(wl, W.LinkWorkload):
        if rows["input"] != wl.rows:
            problems.append(f"read {rows['input']} rows of {wl.rows}")
        problems += [f"replay: {p}" for p in wl.check_clusters(clusters)]
        diff = W.compare(clusters.to_pandas(), W.canon(untraced.to_pandas()))
        if diff:
            problems.append(f"replay vs the untraced job: {diff}")
    else:
        diff = W.compare(clusters.to_pandas(), qwl.oracle["corpus_linkage_clusters"])
        if diff:
            problems.append(f"replay vs corpus_linkage_clusters oracle: {diff}")
        diff = W.compare(clusters.to_pandas(), W.canon(untraced["corpus_linkage_clusters"]))
        if diff:
            problems.append(f"replay vs the untraced corpus_linkage_clusters: {diff}")

    m.update(kernels(batch, config))
    qm, qproblems, pass_s, failed = traced_queries(qwl)
    m.update(qm)
    problems += qproblems
    total = replay_s if isinstance(wl, W.LinkWorkload) else pass_s
    m["trace.total_s"] = total
    m["trace.overhead_s"] = total - job_s
    return m, 1 + len(W.QUERIES), failed, problems
