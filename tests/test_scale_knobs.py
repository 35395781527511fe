"""Cluster-relative bucket widths + the per-value width guards (round-3
VERDICT asks #3 and ADVICE fixes): bucket groupby widths must grow with the
cluster, and the zero-copy hex/fixed-width fast paths must reject
mixed-width columns instead of silently mis-slicing."""

import numpy as np
import pyarrow as pa

from localhost_address_matching_ray.config import PipelineConfig, bucket_width
from localhost_address_matching_ray.functions.arrowbuf import (
    hex16_col_to_u64 as _hex16_col_to_u64,
)
from localhost_address_matching_ray.stages.cluster import _fixed_width_bytes


def test_bucket_width_scales_with_cpus(monkeypatch):
    import ray

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 8})
    assert bucket_width() == 64          # floor wins on a small box
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 256})
    assert bucket_width() == 1024        # 4 × CPUs on a 256-core cluster
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert bucket_width() == 64          # pre-init: the floor


def test_census_buckets_resolved_at_construction(monkeypatch):
    """The block-size census resolves its bucket count when it is built, on
    the driver, from the session then up (1,024 on a 256-CPU cluster), and
    its counts stay exact when the plan later runs on a smaller session."""
    from collections import Counter

    import ray
    import ray.data

    from localhost_address_matching_ray.stages import buckets
    from localhost_address_matching_ray.stages.blocking import block_size_census

    hashes = [[7777, 1000 + i % 50] for i in range(200)]
    feats = ray.data.from_arrow(pa.table({
        "row_id": pa.array([format(i + 1, "016x") for i in range(200)], pa.string()),
        "block_hashes": pa.array(hashes, pa.list_(pa.uint64())),
    }))
    widths = []

    def spy(*a, **kw):
        widths.append(bucket_width(*a, **kw))
        return widths[-1]

    monkeypatch.setattr(buckets, "bucket_width", spy)
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 256})
    census = block_size_census(feats, PipelineConfig(), sample_div=1)
    assert widths == [1024]  # resolved once, at construction
    monkeypatch.undo()  # run on the real (4-CPU) session
    sizes = {r["kh"]: r["n"] for r in census.take_all()}
    assert sizes == dict(Counter(k for row in hashes for k in row))


def test_census_buckets_pre_init_sentinel_resolves_lazily(monkeypatch):
    """A config built BEFORE ray.init() pins no width: a fold (the census's,
    or any other) built once a 256-CPU session is up uses its 1,024
    buckets, not the floor of 64 (the 256-CPU-cluster-capped-at-64 trap).
    The width is captured when the fold is built, so the fold still runs
    with it after the session shrinks."""
    import pandas as pd
    import ray
    import ray.data

    from localhost_address_matching_ray.stages.buckets import bucket_fold

    src = ray.data.from_arrow(pa.table({"k": np.arange(4000, dtype=np.int64)}))
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    PipelineConfig()  # the caller's config, built before the session
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 256})
    groups = bucket_fold(src, "k", lambda g: pa.table({"n": [g.num_rows]}))
    monkeypatch.undo()  # run on the real (4-CPU) session
    sizes = pd.DataFrame(groups.take_all())["n"]
    assert sizes.sum() == 4000
    assert 64 < len(sizes) <= 1024  # one call per non-empty bucket


def test_hex16_col_rejects_mixed_widths():
    ok = pa.chunked_array([pa.array(["00" * 8, "ff" * 8])])
    out = _hex16_col_to_u64(ok)
    assert out is not None and out[1] == np.uint64(0xFFFFFFFFFFFFFFFF)
    # 8 + 24 hex chars sum to 2×16 — the old total-length check passed this
    mixed = pa.chunked_array([pa.array(["ab" * 4, "cd" * 12])])
    assert _hex16_col_to_u64(mixed) is None


def test_fixed_width_bytes_rejects_mixed_widths():
    ok = pa.chunked_array([pa.array(["a" * 64, "b" * 64])])
    out = _fixed_width_bytes(ok, 64)
    assert out is not None and out[0] == b"a" * 64
    mixed = pa.chunked_array([pa.array(["a" * 63, "b" * 65])])  # sums to 2×64
    assert _fixed_width_bytes(mixed, 64) is None


def test_payload_emitter_rejects_mixed_width_row_ids():
    import pytest
    import ray.data

    from localhost_address_matching_ray.stages.blocking import emit_block_rows

    tbl = pa.table({
        "row_id": pa.array(["ab" * 4, "cd" * 12]),  # 8 + 24 hex = 2×16
        "sig8": pa.array([b"x" * 16, b"y" * 16], pa.binary()),
        "block_hashes": pa.array([[1], [2]], pa.list_(pa.uint64())),
    })
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(Exception, match="16-hex"):
        emit_block_rows(ds, PipelineConfig()).materialize()
