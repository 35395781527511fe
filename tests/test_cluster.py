"""Clustering unit tests: driver union-find vs distributed label propagation
must produce identical partitions; blocking census/salting invariants."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from localhost_address_matching_ray.stages.cluster import (
    _distributed_label_prop,
    _driver_union_find,
    assign_clusters,
    connected_components,
)


def _edges_ds(pairs):
    return ray.data.from_arrow(pa.table({
        "u": pa.array([a for a, _ in pairs], pa.string()),
        "v": pa.array([b for _, b in pairs], pa.string()),
        "score": pa.array([1.0] * len(pairs), pa.float64()),
    }))


EDGE_CASES = [
    # (name, edges, expected components as frozensets)
    ("two_pairs", [("a", "b"), ("c", "d")], [{"a", "b"}, {"c", "d"}]),
    ("chain", [("a", "b"), ("b", "c"), ("c", "d")], [{"a", "b", "c", "d"}]),
    ("star", [("a", "b"), ("a", "c"), ("a", "d")], [{"a", "b", "c", "d"}]),
    ("merge_late", [("c", "d"), ("a", "b"), ("b", "c")], [{"a", "b", "c", "d"}]),
    ("cycle", [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y")],
     [{"a", "b", "c"}, {"x", "y"}]),
]


def _partition(rows):
    comp = {}
    for r in rows:
        comp.setdefault(r["cluster_label"], set()).add(r["row_id"])
    return sorted(frozenset(s) for s in comp.values())


@pytest.mark.parametrize("name,pairs,expected", EDGE_CASES)
def test_driver_union_find(name, pairs, expected):
    out = _partition(_driver_union_find(_edges_ds(pairs)).take_all())
    assert out == sorted(frozenset(s) for s in expected)


@pytest.mark.parametrize("name,pairs,expected", EDGE_CASES)
def test_distributed_label_prop_matches(name, pairs, expected):
    out = _partition(
        _distributed_label_prop(_edges_ds(pairs).materialize(), 25, None).take_all()
    )
    assert out == sorted(frozenset(s) for s in expected)


def test_distributed_path_on_chain_graph():
    """Long chain (worst-case diameter for label propagation) through the
    full connected_components API with the driver path disabled."""
    n = 40
    pairs = [(f"n{i:03d}", f"n{i + 1:03d}") for i in range(n)]
    out = connected_components(_edges_ds(pairs), driver_max_edges=0)
    rows = out.take_all()
    labels = {r["cluster_label"] for r in rows}
    assert len(rows) == n + 1 and labels == {"n000"}


def test_labels_are_component_min():
    rows = _driver_union_find(_edges_ds([("b", "z"), ("a", "z")])).take_all()
    assert {r["cluster_label"] for r in rows} == {"a"}


def test_assign_clusters_broadcast_vs_join_paths():
    all_rows = ray.data.from_arrow(pa.table({
        "row_id": pa.array(["a", "b", "c", "d", "e"], pa.string()),
        "content_sha256": pa.array([f"sha_{x}" for x in "abcde"], pa.string()),
    }))
    comps = ray.data.from_arrow(pa.table({
        "row_id": pa.array(["a", "b"], pa.string()),
        "cluster_label": pa.array(["a", "a"], pa.string()),
    }))
    broadcast = sorted(
        (r["row_id"], r["cluster_id"])
        for r in assign_clusters(all_rows, comps, broadcast_max=10).take_all()
    )
    joined = sorted(
        (r["row_id"], r["cluster_id"])
        for r in assign_clusters(all_rows, comps, broadcast_max=0).take_all()
    )
    assert broadcast == joined
    d = dict(broadcast)
    assert d["a"] == d["b"] == "sha_a"     # canonical min-sha of the cluster
    assert d["c"] == "sha_c"               # singleton = own sha


def test_blocking_census_and_salting():
    """Census counts match a python reference; salting splits a hot key into
    bounded sub-blocks plus a rep block."""
    from collections import Counter

    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.stages.blocking import (
        block_size_census,
        emit_block_rows,
        find_hot_keys,
    )

    cfg = PipelineConfig(max_block_rows=8, salt_buckets=4)
    n = 60
    # 60 rows sharing one block hash + unique hashes
    hashes = [[7777, 1000 + i] for i in range(n)]
    feats = ray.data.from_arrow(pa.table({
        # blocking requires 16-hex row_ids (sha256[:16] pipeline contract)
        "row_id": pa.array([format(i + 1, "016x") for i in range(n)], pa.string()),
        "sig8": pa.array([bytes([i % 256]) * 128 for i in range(n)], pa.binary()),
        "block_hashes": pa.array(hashes, pa.list_(pa.uint64())),
    }))
    # exact census (sample_div=1): counts match the python reference
    sizes = {r["kh"]: r["n"] for r in block_size_census(feats, cfg, sample_div=1).take_all()}
    assert sizes[7777] == n
    assert all(v == 1 for k, v in sizes.items() if k != 7777)

    # sampled census (default): the hot key still surfaces, scaled estimate
    est = {r["kh"]: r["n"] for r in block_size_census(feats, cfg).take_all()}
    assert est.get(7777, 0) > cfg.max_block_rows

    hot = find_hot_keys(block_size_census(feats, cfg, sample_div=1), cfg)
    assert hot == {7777: n}

    rows = emit_block_rows(feats, cfg, hot).take_all()
    keys = Counter(r["block_key"] for r in rows)
    # the hot key itself is gone — replaced by salted sub-keys
    assert 7777 not in keys
    # ring-overlapped sub-blocks: each well below the hot size (~2x ideal
    # bucket fill), and every row appears in exactly two sub-blocks
    multi = {k: c for k, c in keys.items() if c > 1}
    assert multi and max(multi.values()) < n // 2
    hot_emissions = sum(c for c in multi.values())
    assert hot_emissions == 2 * n
    # deterministic: same inputs → same emission
    rows2 = emit_block_rows(feats, cfg, hot).take_all()
    assert Counter(r["block_key"] for r in rows2) == keys


def test_sbytes_to_arrow_and_hex_roundtrip():
    """Buffer-built Arrow string arrays equal the per-value decode path,
    including sliced/odd lengths; a2b_hex id decode round-trips."""
    import numpy as np
    import pyarrow as pa

    from localhost_address_matching_ray.functions.arrowbuf import (
        hex16_col_to_u64 as _hex16_col_to_u64,
        s16_to_arrow as _s16_to_arrow,
        sbytes_to_arrow as _sbytes_to_arrow,
        u64_to_hex16 as _u64_to_hex16,
    )

    vals = np.array([0, 1, 0xDEADBEEF, 2**64 - 1, 123456789], dtype=np.uint64)
    hexs = _u64_to_hex16(vals)
    arr = _s16_to_arrow(hexs)
    assert arr.to_pylist() == [f"{v:016x}" for v in vals.tolist()]
    back = _hex16_col_to_u64(pa.chunked_array([arr]))
    assert np.array_equal(back, vals)
    # width-64 variant (sha-sized)
    s64 = np.array([b"a" * 64, b"f" * 64], dtype="S64")
    assert _sbytes_to_arrow(s64, 64).to_pylist() == ["a" * 64, "f" * 64]
    # non-hex must return None, not garbage
    bad = pa.chunked_array([pa.array(["zz" * 8, "00" * 8])])
    assert _hex16_col_to_u64(bad) is None


def test_metrics_phase_wall():
    from localhost_address_matching_ray.state.metrics import StageMetrics

    m = StageMetrics()
    m.phase("start")
    m.phase("a")
    m.phase("b")
    p = m.phases()
    assert set(p) == {"a", "b"}
    assert all(v >= 0 for v in p.values())
