"""Cluster job entrypoint for the flagship linkage pipeline.

On a real multi-node cluster this is launched as::

    ray job submit --working-dir . -- \
        python scripts/run_linkage_job.py \
            --input  s3://bucket/corpus/          \
            --output s3://bucket/clusters/        \
            --checkpoint-dir s3://bucket/ckpt/run1 \
            --input-fingerprint <corpus-manifest-sha>

(north_rule: "run via ray job submit on a fixed-size multi-node Ray
cluster"). In this sandbox it runs standalone against local paths — the
code path is identical; only the ``ray.init`` address differs (``ray job
submit`` provides the cluster address via RAY_ADDRESS).

Resumability: with ``--checkpoint-dir`` set, every stage writes a
manifest-validated Parquet checkpoint; re-submitting the same job after a
failure skips completed stages (see state/checkpoint.py). The final
clusters land in ``--output`` as a directory of part files plus the stage
metrics sidecar.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="corpus path(s): parquet dir/file, csv, jsonl")
    ap.add_argument("--output", required=True, help="output dir for clusters parquet")
    ap.add_argument("--format", default="parquet", choices=["parquet", "csv", "json"])
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument("--input-fingerprint", default="", help="corpus version id for checkpoint validation")
    ap.add_argument("--jaccard-threshold", type=float, default=None)
    ap.add_argument("--max-block-rows", type=int, default=None)
    ap.add_argument("--collapse-exact-first", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=None, help="local mode only; ignored under ray job submit")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster; standalone
        # falls back to a local session
        kwargs = {"ignore_reinit_error": True, "logging_level": "ERROR"}
        if os.environ.get("RAY_ADDRESS", "local") == "local":
            from localhost_address_matching_ray.config import object_store_args

            kwargs.update(address="local", include_dashboard=False, **object_store_args())
            if args.num_cpus:
                kwargs.update(num_cpus=args.num_cpus)
        ray.init(**kwargs)

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.pipelines.linkage import link_corpus
    from localhost_address_matching_ray.sources.readers import (
        read_corpus_csv,
        read_corpus_json,
        read_corpus_parquet,
    )

    reader = {
        "parquet": read_corpus_parquet, "csv": read_corpus_csv, "json": read_corpus_json,
    }[args.format]
    corpus = reader(args.input)

    overrides = {"checkpoint_dir": args.checkpoint_dir,
                 "collapse_exact_first": args.collapse_exact_first}
    if args.jaccard_threshold is not None:
        overrides["jaccard_threshold"] = args.jaccard_threshold
    if args.max_block_rows is not None:
        overrides["max_block_rows"] = args.max_block_rows
    config = PipelineConfig(**overrides)

    t0 = time.time()
    result = link_corpus(corpus, config, input_fingerprint=args.input_fingerprint)
    clusters = result["clusters"]
    os.makedirs(args.output, exist_ok=True)
    clusters.write_parquet(args.output)
    n = clusters.count()
    metrics = result["metrics"]
    metrics.write(args.output)

    print(json.dumps({
        "rows": n,
        "sec": round(time.time() - t0, 2),
        "output": args.output,
        "checkpoint_dir": args.checkpoint_dir,
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
