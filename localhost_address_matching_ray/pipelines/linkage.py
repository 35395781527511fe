"""The flagship record-linkage pipeline (SURVEY.md §7.0):

read corpus → re-plan a coarse Parquet read as one task per row group, or
split any other coarse source once (``_split_source``) → normalize +
features as ONE stateless map, one task per block, no barrier between them
(``normalize_and_extract_features``; over row groups it runs inside the
read task) → block (salted keys) → key-only candidate shuffle → verify →
connected components → clusters(row_id, cluster_id).

``collapse_exact_first`` inserts an exact-group shuffle on
``content_sha256_norm`` between normalize and features (features then run
on distinct-content reps, plus exact star edges); a checkpointed run
persists normalize and features as separate stages.

The reference's end-to-end flow is normalize → parse → match
(``README.md:16-19``); each arrow above cites its stage module for the
file-level analogs. Checkpointing (``PipelineConfig.checkpoint_dir``) makes
every stage boundary resumable via manifest-validated Parquet
(``state/checkpoint.py``).
"""

from __future__ import annotations

import ray.data

from localhost_address_matching_ray.config import PipelineConfig
from localhost_address_matching_ray.sources.readers import parquet_row_groups, read_row_groups
from localhost_address_matching_ray.stages.blocking import (
    block_size_census,
    census_hot_and_multi,
    emit_block_rows,
    find_hot_keys,
)
from localhost_address_matching_ray.stages.cluster import assign_clusters, connected_components
from localhost_address_matching_ray.stages.dedup import split_reps_and_edges, tag_exact_groups
from localhost_address_matching_ray.stages.feature_stage import (
    extract_features,
    normalize_and_extract_features,
)
from localhost_address_matching_ray.stages.normalize_stage import normalize_corpus
from localhost_address_matching_ray.state.checkpoint import load_or_compute
from localhost_address_matching_ray.state.metrics import StageMetrics


def _source_blocks(ds: ray.data.Dataset) -> int | None:
    """Best-effort block count of a possibly-lazy source WITHOUT executing
    it: reads honor an explicit ``override_num_blocks`` (the logical Read
    op's requested parallelism — file count would under-report a read the
    caller already split finer than its file list), else report their file
    list; materialized datasets report blocks; otherwise unknown (treated
    as already-fine)."""
    try:
        dag = ds._logical_plan.dag
        n = getattr(dag, "_parallelism", None)
        if isinstance(n, int) and n > 0:
            return n
    except Exception:
        pass
    try:
        files = ds.input_files()
        if files:
            return len(files)
    except Exception:
        pass
    try:
        return ds.num_blocks()
    except Exception:
        return None


def _split_source(
    corpus: ray.data.Dataset, batch_size: int, cpus: int, floor: int
) -> tuple[ray.data.Dataset, bool]:
    """The source the fused front end maps over, and whether each of its
    blocks is to be one batch (``normalize_and_extract_features``'s
    ``per_block``).

    A source of ``floor`` blocks or more is returned as it is, re-bundled
    into ``batch_size``-row batches. A coarser plain Parquet read with at
    least ``cpus`` row groups is re-planned as one read task per row group
    (``sources/readers.read_row_groups``), each yielding blocks of at most
    ``batch_size`` rows: the map then fuses into the read task, so no task
    waits on a serial read and the wide ``content`` column never enters the
    object store. Any other coarse source (one block per file, or fewer row
    groups than CPUs) is split here, BEFORE normalize, into the smallest
    multiple of ``cpus`` blocks that is at least ``floor`` and keeps every
    block at or under ``batch_size`` rows, so each block is one task and
    every wave fills every CPU. The row count comes from the source's
    metadata (the Parquet footers, or a materialized dataset's block
    metadata) and never runs the source; when it is unknown, the split is
    ``floor`` blocks and the map re-bundles them."""
    if (_source_blocks(corpus) or floor) >= floor:
        return corpus, False
    planned = parquet_row_groups(corpus)
    if planned is not None and len(planned[0]) >= cpus:
        return read_row_groups(*planned, batch_size), True
    rows = corpus._meta_count()
    if rows is None:
        return corpus.repartition(floor), False
    k = max(floor, -(-rows // batch_size))
    return corpus.repartition(-(-k // cpus) * cpus), True


def link_corpus(
    corpus: ray.data.Dataset,
    config: PipelineConfig | None = None,
    input_fingerprint: str = "",
    metrics: StageMetrics | None = None,
) -> dict[str, ray.data.Dataset]:
    """Run the full pipeline; returns the named intermediate Datasets plus
    the final ``clusters`` (row_id, cluster_id)."""
    import ray

    config = config or PipelineConfig()
    metrics = metrics or StageMetrics()
    metrics.phase("start")  # arm the per-barrier wall clock
    ckpt = config.checkpoint_dir
    ver = config.pipeline_version
    # signature-family flips invalidate every feature-derived checkpoint
    # (OPH and classic values are not comparable); the EFFECTIVE mode —
    # OPH falls back to classic for non-power-of-two num_perm — keeps the
    # version string and the kernel choice in lockstep
    # th256: the token-hash family (sha256-prefix since round 4, was sha1)
    # — a different family yields incomparable signatures, so it must
    # invalidate feature-derived checkpoints just like a minhash-mode flip
    # fs2: feature-schema generation (the dead flagship simhash column was
    # dropped) — old feature checkpoints carry a column the pipeline no
    # longer writes, so they must not be resumed into this code
    fver = f"{ver}+mh-{config.effective_minhash_mode}+th256+fs2"
    if config.verify_mode != "estimate":
        # exact mode changes the feature schema (tok64) AND the edge
        # predicate — features/edges/clusters checkpoints are incomparable
        fver += f"+vf-{config.verify_mode}"

    cpus = int(ray.cluster_resources().get("CPU", 8))
    # parallelism floor of the feature map: ≥2 blocks per CPU AND ≥4 per
    # unit of feature_concurrency. A source coarser than this is re-planned
    # by row group or split (_split_source), so no wave leaves a CPU idle
    # while one task reads or featurizes the whole source.
    nblocks = max(8, cpus * 2, 4 * config.feature_concurrency)

    normalized = load_or_compute(
        ckpt, input_fingerprint, "normalized", ver,
        lambda: normalize_corpus(corpus, config.batch_size, config.extra_rules),
    )

    if config.collapse_exact_first:
        tagged = load_or_compute(
            ckpt, input_fingerprint, "exact_tagged", ver,
            lambda: tag_exact_groups(normalized),
        )
        if ckpt is None:
            # tagged has three consumers (reps→features, exact edges, final
            # cluster assignment) — pin it once instead of re-running the
            # normalize+shuffle lineage per consumer. With checkpointing on,
            # the durable Parquet copy plays this role.
            tagged = tagged.materialize()
        reps, exact_edges = split_reps_and_edges(tagged)
        rows_view = tagged
    else:
        # exact dups cluster via identical MinHash signatures — no content
        # join; the wide column never rides any shuffle
        if ckpt is None:
            # FUSED fast path: normalize flows lazily into the feature
            # map, so the wide content column never materializes as a full
            # object-store copy — only the narrow feature table does, and
            # it keeps row_id / content_sha256* / stem / n_tokens, which
            # serves every downstream consumer (assign, exact_dedup,
            # explain). The source is re-planned or split first
            # (_split_source; the checkpointed path persists per stage and
            # needs none of this).
            reps, exact_edges, rows_view = normalized, None, None
        else:
            reps, exact_edges, rows_view = normalized, None, normalized

    if ckpt is None and not config.collapse_exact_first:
        # normalize and features as one map over the re-planned or split
        # source: no barrier between them, one task per block or row group
        # (``reps`` stays the lazy, never-run normalize of the source)
        source, per_block = _split_source(corpus, config.batch_size, cpus, nblocks)
        features = normalize_and_extract_features(source, config, per_block)
    else:
        features = load_or_compute(
            ckpt, input_fingerprint, "features", fver,
            lambda: extract_features(
                # the collapse path's reps inherit the join's partitioning
                # (often < CPUs) — resplit; the default path is already split
                reps.repartition(nblocks) if config.collapse_exact_first else reps,
                config,
            ),
        )
    if ckpt is None:
        # blocking reads features twice (census + payload): pin the
        # (content-free, rep-only) feature table instead of recomputing it.
        features = features.materialize()
    metrics.phase("features")
    schema = features.schema()
    if schema is None:
        # ALL-empty input: no block carries a schema (Dataset.schema() is
        # None — the known Ray trap), so every select/groupby below would
        # fail. The linkage of nothing is nothing: return the canonical
        # empty result set with explicit schemas.
        import pyarrow as pa

        empty_edges = ray.data.from_arrow(pa.table({
            "u": pa.array([], pa.string()), "v": pa.array([], pa.string()),
            "score": pa.array([], pa.float64()),
        }))
        empty_components = ray.data.from_arrow(pa.table({
            "row_id": pa.array([], pa.string()),
            "cluster_label": pa.array([], pa.string()),
        }))
        empty_clusters = ray.data.from_arrow(pa.table({
            "row_id": pa.array([], pa.string()),
            "cluster_id": pa.array([], pa.string()),
        }))
        for ph in ("census", "edges", "cc", "assign", "metrics"):
            metrics.phase(ph)
        if ckpt is not None:
            metrics.write(ckpt)
        return {
            "normalized": features, "reps": reps, "features": features,
            "edges": empty_edges, "components": empty_components,
            "clusters": empty_clusters, "metrics": metrics,  # type: ignore[dict-item]
        }
    if rows_view is None:
        # fused fast path: the feature table doubles as the row view, minus
        # the feature payload columns — list/binary columns must not reach
        # downstream joins (Arrow hash join rejects list non-key fields)
        from localhost_address_matching_ray.stages.feature_stage import KEEP_COLUMNS

        schema_names = schema.names
        rows_view = features.select_columns(
            [c for c in KEEP_COLUMNS if c in schema_names]
        )

    if config.singleton_suppression:
        # exact census: doubles as the multi-row-key finder, so singleton
        # emissions (the vast majority) never enter the blocking shuffle;
        # ONE collect serves both consumers (census_hot_and_multi)
        sizes = block_size_census(features, config, sample_div=1).materialize()
        hot, multi = census_hot_and_multi(sizes, config)
        metrics.count("blocking", "multi_keys", len(multi))
    else:
        sizes = block_size_census(features, config)
        hot = find_hot_keys(sizes, config)
        multi = None
    metrics.count("blocking", "hot_keys", len(hot))
    metrics.count("blocking", "hot_rows", sum(hot.values()))
    metrics.phase("census")

    blocks = emit_block_rows(features, config, hot, multi)

    from localhost_address_matching_ray.stages.pairs import candidate_edges

    def _edges() -> ray.data.Dataset:
        e = candidate_edges(blocks, features, config)
        return e.union(exact_edges) if exact_edges is not None else e

    near_edges = load_or_compute(ckpt, input_fingerprint, "edges", fver, _edges)
    if ckpt is None:
        # edges are read by CC iterations and metrics — pin the (small) table
        near_edges = near_edges.materialize()

    metrics.phase("edges")
    components = connected_components(
        near_edges, driver_max_edges=config.driver_cc_max_edges
    )
    metrics.phase("cc")
    clusters = load_or_compute(
        ckpt, input_fingerprint, "clusters", fver,
        lambda: assign_clusters(
            rows_view, components, broadcast_max=config.broadcast_components_max
        ),
    )
    if ckpt is None:
        # the result is consumed more than once (count, eval, writes) — pin
        # it so the assign joins run exactly once
        clusters = clusters.materialize()
    metrics.phase("assign")
    # per-stage lineage metrics (north_rule: row counts + score histograms).
    # rows_view is a pure projection of features (same row count) — counting
    # the materialized table is a metadata lookup, not a projection job
    # (in the fused path rows_view projects features; in the collapse path
    # rows_view is the materialized tagged table — metadata either way)
    n_features = features.count()
    metrics.count("normalize", "rows",
                  rows_view.count() if config.collapse_exact_first else n_features)
    metrics.count("features", "rows", n_features)
    metrics.count("edges", "rows", near_edges.count())
    metrics.count("clusters", "rows", clusters.count())
    metrics.dataset_hist("edges", "score", near_edges, "score")
    metrics.phase("metrics")
    if ckpt is not None:
        metrics.write(ckpt)

    return {
        "normalized": rows_view,
        "reps": reps,
        "features": features,
        "edges": near_edges,
        "components": components,
        "clusters": clusters,
        "metrics": metrics,  # type: ignore[dict-item]
    }
