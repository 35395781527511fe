"""Manifest-validated Parquet stage checkpoints.

Exact generalization of the reference's gazetteer pickle cache
(``data/ptt_data/map.py:159-203``): the cache is keyed by an input
fingerprint (there: ``{path,size,sha256}``) plus a pipeline-version hint
(there: ``norm_hint``, ``map.py:175``) so stale caches self-invalidate, and
the commit is atomic. The reference commits with tmp + ``os.replace``
(``map.py:200-203``); object stores have no atomic directory rename, so here
the commit marker is the manifest itself: ``_manifest.json`` is written LAST,
after every part file and the row-count pass, and validation requires it —
a crashed half-written checkpoint never validates and is overwritten on the
next run.

All filesystem access routes through ``pyarrow.fs.FileSystem.from_uri`` so a
checkpoint dir may be a local path or an object-store URI (``s3://...``) —
one code path for both (the driver contract's ``--checkpoint-dir``).
"""

from __future__ import annotations

import json
import os
import posixpath
from collections.abc import Callable

import ray.data
from pyarrow import fs as pafs

MANIFEST = "_manifest.json"


def resolve_fs(path: str) -> tuple[pafs.FileSystem, str]:
    """(filesystem, fs-internal path) for a local path or URI."""
    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), os.path.abspath(path)


def _join(fs_path: str, name: str) -> str:
    return posixpath.join(fs_path, name)


def checkpoint_valid(ckpt_dir: str, input_fingerprint: str, stage: str, version: str) -> bool:
    """True iff a completed checkpoint for (input, stage, version) exists."""
    try:
        fs, p = resolve_fs(str(ckpt_dir))
        with fs.open_input_stream(_join(p, MANIFEST)) as f:
            m = json.loads(f.read().decode("utf-8"))
    except (OSError, ValueError):
        return False
    return (
        m.get("input_fingerprint") == input_fingerprint
        and m.get("stage") == stage
        and m.get("pipeline_version") == version
    )


def write_checkpoint(
    ds: ray.data.Dataset,
    ckpt_dir: str,
    input_fingerprint: str,
    stage: str,
    version: str,
    metrics: dict | None = None,
) -> ray.data.Dataset:
    """Write ``ds`` to ``ckpt_dir`` with manifest-last commit semantics;
    returns a Dataset reading the checkpoint back (so downstream stages
    consume the durable copy, and a retry re-reads instead of recomputing)."""
    ckpt_dir = str(ckpt_dir)
    fs, p = resolve_fs(ckpt_dir)
    try:  # clear any stale (uncommitted or invalidated) checkpoint
        fs.delete_dir(p)
    except (OSError, FileNotFoundError):
        pass
    fs.create_dir(p, recursive=True)
    ds.write_parquet(ckpt_dir)
    row_count = ray.data.read_parquet(ckpt_dir, file_extensions=["parquet"]).count()
    with fs.open_output_stream(_join(p, MANIFEST)) as f:  # commit marker
        f.write(json.dumps(
            {
                "input_fingerprint": input_fingerprint,
                "stage": stage,
                "pipeline_version": version,
                "row_count": row_count,
                "metrics": metrics or {},
            },
        ).encode("utf-8"))
    return ray.data.read_parquet(ckpt_dir, file_extensions=["parquet"])


def load_or_compute(
    ckpt_dir: str | None,
    input_fingerprint: str,
    stage: str,
    version: str,
    compute: Callable[[], ray.data.Dataset],
    metrics: dict | None = None,
) -> ray.data.Dataset:
    """Resume point: return the checkpointed Dataset if its manifest
    validates, else compute, checkpoint, and return. ``ckpt_dir=None``
    disables checkpointing entirely (pure streaming run)."""
    if ckpt_dir is None:
        return compute()
    stage_dir = posixpath.join(str(ckpt_dir), stage) if "://" in str(ckpt_dir) \
        else os.path.join(str(ckpt_dir), stage)
    if checkpoint_valid(stage_dir, input_fingerprint, stage, version):
        return ray.data.read_parquet(stage_dir, file_extensions=["parquet"])
    return write_checkpoint(compute(), stage_dir, input_fingerprint, stage, version, metrics)
