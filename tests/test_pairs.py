"""Candidates-then-verify pair stage: windowed candidate generation with
spanning chain, broadcast vs join signature fetch, and the Jaro-Winkler
stem-assist band (north-star kernel: batched JW on path stems)."""

import numpy as np
import pyarrow as pa
import ray.data

from localhost_address_matching_ray.config import PipelineConfig
from localhost_address_matching_ray.stages.pairs import (
    candidate_edges,
    candidate_pairs,
    distinct_pairs,
    verify_edges,
)


def _rid(i: int) -> str:
    return format(i + 1, "016x")


def _sig(eq_frac: float, seed: int, base: int = 7) -> bytes:
    """sig8 sharing ``eq_frac`` of 128 bytes with the base signature."""
    n_eq = int(round(eq_frac * 128))
    rng = np.random.RandomState(seed)
    tail = (rng.randint(100, 200, 128 - n_eq)).astype(np.uint8)
    return bytes([base] * n_eq) + tail.tobytes()


def _features(rows):
    return ray.data.from_arrow(pa.table({
        "row_id": pa.array([r[0] for r in rows], pa.string()),
        "sig8": pa.array([r[1] for r in rows], pa.binary()),
        "stem": pa.array([r[2] for r in rows], pa.string()),
    }))


def _blocks(pairs_of_ids, equal_sigp: bool = False):
    """One block per (key, ids) entry. Default: distinct sigp/sigf per row
    (no dup-run chain suppression); equal_sigp=True makes every row an
    "exact dup" (equal prefix AND equal full-sig fingerprint) for the
    suppression tests."""
    ks, ids, sps = [], [], []
    for key, members in pairs_of_ids:
        for j, m in enumerate(members):
            ks.append(key)
            ids.append(m)
            sps.append(0 if equal_sigp else int(m, 16))
    kh = np.array(ks, dtype=np.uint64)
    # mix so distinct rows get random-looking sig bytes (zeros would make
    # every pair "similar" to the 16-byte screen)
    sp = np.array(sps, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    sp2 = np.array(sps, dtype=np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    sf = np.array(sps, dtype=np.uint64) * np.uint64(0xFF51AFD7ED558CCD)
    return ray.data.from_arrow(pa.table({
        "block_key": pa.array(kh, pa.uint64()),
        "rid": pa.array([int(m, 16) for m in ids], pa.uint64()),
        "sigp": pa.array(sp, pa.uint64()),
        "sigp2": pa.array(sp2, pa.uint64()),
        "sigf": pa.array(sf, pa.uint64()),
    }))


def test_jw_stem_assist_band():
    """est in [rename_floor, threshold): similar stems → edge, dissimilar
    stems → no edge; est ≥ threshold needs no stem help."""
    cfg = PipelineConfig(jaccard_threshold=0.60, rename_jaccard_floor=0.45,
                         stem_sim_threshold=0.90)
    base = bytes([7] * 128)
    rows = [
        (_rid(0), base, "utils_v1"),
        (_rid(1), _sig(0.55, 1), "utils_v2"),   # borderline + similar stem
        (_rid(2), base, "alpha"),
        (_rid(3), _sig(0.55, 2), "zzz_other"),  # borderline + unrelated stem
        (_rid(4), base, "anything"),
        (_rid(5), _sig(0.80, 3), "unrelated"),  # above threshold
    ]
    feats = _features(rows)
    blocks = _blocks([
        (101, [_rid(0), _rid(1)]),
        (202, [_rid(2), _rid(3)]),
        (303, [_rid(4), _rid(5)]),
    ])
    edges = {(r["u"], r["v"]): r["score"]
             for r in candidate_edges(blocks, feats, cfg).take_all()}
    assert (_rid(0), _rid(1)) in edges          # JW-assisted
    assert (_rid(2), _rid(3)) not in edges      # stem too different
    assert (_rid(4), _rid(5)) in edges          # plain threshold
    assert 0.45 <= edges[(_rid(0), _rid(1))] < 0.60


def test_broadcast_and_join_fetch_agree():
    """verify_edges via broadcast fetch == via partitioned-join fetch."""
    cfg_b = PipelineConfig()
    cfg_j = PipelineConfig(verify_broadcast_max_rows=0)  # force join path
    rng = np.random.RandomState(5)
    rows = []
    members = []
    n = 17  # == candidate_window + 1 → all pairs
    for i in range(n):
        eq = 1.0 if i % 3 == 0 else (0.7 if i % 3 == 1 else 0.1)
        rows.append((_rid(i), _sig(eq, 10 + i), f"stem{i}"))
        members.append(_rid(i))
    feats = _features(rows)
    blocks = _blocks([(999, members)])
    pairs = candidate_pairs(blocks, cfg_b).materialize()
    assert pairs.count() == n * (n - 1) // 2  # small block → all pairs
    e_b = sorted((r["u"], r["v"], round(r["score"], 9))
                 for r in verify_edges(pairs, feats, cfg_b).take_all())
    e_j = sorted((r["u"], r["v"], round(r["score"], 9))
                 for r in verify_edges(pairs, feats, cfg_j).take_all())
    assert e_b == e_j
    assert e_b  # the eq=1.0/0.7-vs-each-other pairs score above threshold


def test_window_includes_spanning_chain():
    """A block larger than the all-pairs cutoff still yields a connected
    candidate graph: every consecutive pair in sigp-sorted order is a
    candidate."""
    cfg = PipelineConfig()
    n = 80  # > candidate_window + 1
    members = [_rid(i) for i in range(n)]
    blocks = _blocks([(777, members)])
    cand = {(r["pu"], r["pv"]) for r in candidate_pairs(blocks, cfg).take_all()}
    by_sigp = sorted(
        (int(m, 16) for m in members),
        key=lambda x: (x * 0x9E3779B97F4A7C15) & (2**64 - 1),
    )
    for a, b in zip(by_sigp, by_sigp[1:]):
        assert (min(a, b), max(a, b)) in cand
    # degree-capped + screen-rejected: sigp-far dissimilar pairs are absent
    a, b = by_sigp[0], by_sigp[-1]
    assert (min(a, b), max(a, b)) not in cand
    assert len(cand) < n * (n - 1) // 2


def test_screen_recovers_far_similar_pair():
    """The large-block sig screen: a similar pair (shares 8 of 16 folded
    sig bytes) sitting far apart in sigp-sorted order — beyond the window —
    still becomes a candidate; dissimilar far pairs do not."""
    cfg = PipelineConfig()
    n = 60
    rng = np.random.RandomState(7)
    ids = [_rid(i) for i in range(n)]
    sp = rng.randint(1, 1 << 62, n).astype(np.uint64)
    sp2 = rng.randint(1, 1 << 62, n).astype(np.uint64)
    # rows 0 and n-1: same FIRST u64 (8 shared bytes ≥ screen_min=5),
    # different second u64 (not full-equal); sp values chosen at the sort
    # extremes so they're > window apart
    sp[0] = np.uint64(1); sp[n - 1] = np.uint64(1)
    # keep them far apart in the (sigp, id) sort: equal sigp sorts them
    # adjacent — so give row n-1 the MAX sigp instead and share sigp2
    sp[n - 1] = np.uint64((1 << 63) + 5)
    sp2[n - 1] = sp2[0]
    sp2[0] = sp2[n - 1]
    kh = np.full(n, 4242, dtype=np.uint64)
    sf = rng.randint(1, 1 << 62, n).astype(np.uint64)  # all full-sigs distinct
    blocks = ray.data.from_arrow(pa.table({
        "block_key": pa.array(kh, pa.uint64()),
        "rid": pa.array([int(m, 16) for m in ids], pa.uint64()),
        "sigp": pa.array(sp, pa.uint64()),
        "sigp2": pa.array(sp2, pa.uint64()),
        "sigf": pa.array(sf, pa.uint64()),
    }))
    cand = {(r["pu"], r["pv"]) for r in candidate_pairs(blocks, cfg).take_all()}
    a, b = int(ids[0], 16), int(ids[n - 1], 16)
    assert (min(a, b), max(a, b)) in cand


def test_equal_sigp_chain_suppression():
    """Rows with identical FULL signatures (exact-dup runs: equal sigf, not
    just the 16-byte prefix) emit ONLY the spanning chain — connectivity
    preserved, candidate count linear not quadratic. Prefix-only collisions
    keep their window candidates (test_exact_verify covers that side)."""
    cfg = PipelineConfig()
    n = 30
    members = [_rid(i) for i in range(n)]
    blocks = _blocks([(555, members)], equal_sigp=True)
    cand = {(r["pu"], r["pv"]) for r in candidate_pairs(blocks, cfg).take_all()}
    ids = sorted(int(m, 16) for m in members)
    assert cand == {(a, b) for a, b in zip(ids, ids[1:])}


def test_cross_bucket_pair_dedup():
    """The same pair arising in two blocks that land in different buckets
    is collapsed to ONE edge in candidate_edges: after scoring on the
    broadcast path, before the joins on the join path."""
    m = [_rid(0), _rid(1)]
    blocks = _blocks([(100, m), (101, m)])  # two buckets at width 64
    base = bytes([9] * 128)
    feats = _features([(_rid(0), base, "s"), (_rid(1), base, "s")])
    for cfg in (PipelineConfig(), PipelineConfig(verify_broadcast_max_rows=0)):
        assert candidate_pairs(blocks, cfg).count() == 2  # cross-bucket dup
        edges = candidate_edges(blocks, feats, cfg).take_all()
        assert len(edges) == 1 and edges[0]["score"] == 1.0
        assert {edges[0]["u"], edges[0]["v"]} == set(m)


def test_distinct_pairs_fold():
    """Copies of a pair split across blocks collapse to one row; with
    ``keep_max`` the copy with the largest value survives."""
    blocks = [
        pa.table({"u": [1, 2, 1], "v": [2, 3, 2], "score": [0.5, 0.9, 0.7]}),
        pa.table({"u": [1, 4], "v": [2, 5], "score": [0.6, 0.1]}),
        pa.table({"u": [2], "v": [3], "score": [0.8]}),
    ]
    raw = ray.data.from_arrow(blocks)
    rows = distinct_pairs(raw, 8).take_all()
    assert sorted((r["u"], r["v"]) for r in rows) == [(1, 2), (2, 3), (4, 5)]
    best = {(r["u"], r["v"]): r["score"]
            for r in distinct_pairs(raw, 8, keep_max="score").take_all()}
    assert best == {(1, 2): 0.7, (2, 3): 0.9, (4, 5): 0.1}
