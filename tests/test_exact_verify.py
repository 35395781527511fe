"""verify_mode="exact": the flagship with exact token-set-Jaccard verify.

The exact mode's spec is the corpus_linkage_clusters SQL oracle: edges are
same-lang pairs whose DuckDB-rounded Jaccard over
``list_distinct(string_split(normalized_content, ' '))`` meets the
threshold, clusters are connected components canonicalized to
min(content_sha256). These tests pin the three load-bearing pieces:

* the feature stage's ``tok64`` set equals the SQL token-set spec;
* the signature is built over that SAME set (permutation-invariant —
  the textbook LSH contract sketch ∼ verifier);
* end-to-end clusters equal a brute-force all-pairs reference.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from localhost_address_matching_ray.config import PipelineConfig
from localhost_address_matching_ray.pipelines.linkage import link_corpus
from localhost_address_matching_ray.stages.feature_stage import FeatureExtractor


def _cfg(**kw) -> PipelineConfig:
    base = dict(verify_mode="exact", jaccard_threshold=0.97,
                rename_jaccard_floor=0.97, feature_concurrency=2)
    base.update(kw)
    return PipelineConfig(**base)


def _ref_tok_hashes(content: str) -> set[int]:
    """Independent re-statement of the SQL token-set spec."""
    import re
    import unicodedata

    norm = re.sub(r"\s+", " ", unicodedata.normalize("NFC", content)).strip()
    return {
        int.from_bytes(hashlib.sha256(t.encode()).digest()[:8], "big")
        for t in norm.split(" ")
    }


def _feature_batch(contents, langs=None, extractor=None):
    n = len(contents)
    batch = pa.table({
        "row_id": pa.array([f"{i:016x}" for i in range(n)]),
        "lang": pa.array(langs or ["python"] * n),
        # one shared stem: the last block_hashes entry is the (lang, stem)
        # key, and the permutation test compares whole key lists
        "stem": pa.array(["s"] * n),
        "content": pa.array(contents),
    })
    fx = extractor or FeatureExtractor(_cfg())
    return fx(batch)


def test_tok64_matches_sql_token_set_spec():
    contents = [
        "def alpha beta gamma",
        "  def   alpha beta\tgamma ",   # whitespace noise, same set
        "",                             # empty → {''}
        "solo",
    ]
    out = _feature_batch(contents)
    for i, c in enumerate(contents):
        got = set(out["tok64"][i].as_py())
        assert got == _ref_tok_hashes(c), f"row {i}: {c!r}"


def test_exact_mode_signature_is_permutation_invariant():
    """Token permutations are set-identical → identical signatures and band
    keys in exact mode (the estimate mode's shingle basis is order-
    sensitive by design)."""
    a = "zeta alpha beta gamma delta epsilon omega kappa"
    b = "kappa omega epsilon delta gamma beta alpha zeta"
    out = _feature_batch([a, b])
    assert out["sig"][0].as_py() == out["sig"][1].as_py()
    assert out["block_hashes"][0].as_py() == out["block_hashes"][1].as_py()
    est_out = _feature_batch(
        [a, b], extractor=FeatureExtractor(PipelineConfig(feature_concurrency=2))
    )
    assert "tok64" not in est_out.column_names
    assert est_out["sig"][0].as_py() != est_out["sig"][1].as_py()


def _brute_clusters(tbl: pa.Table, threshold: float) -> dict[str, str]:
    """All-pairs token-set-Jaccard reference: same-lang edges at
    round6(J) ≥ threshold, components, cluster_id = min content_sha256."""
    from localhost_address_matching_ray.functions.normalize import normalize_content
    from localhost_address_matching_ray.functions.similarity import duckdb_round

    rows = tbl.to_pylist()
    for r in rows:
        r["row_id"] = hashlib.sha256(
            f"{r['repo']}|{r['path']}|{r['commit']}".encode()
        ).hexdigest()[:16]
        r["sha"] = hashlib.sha256(r["content"].encode()).hexdigest()
        r["toks"] = set(normalize_content(r["content"]).split(" "))
    parent = {r["row_id"]: r["row_id"] for r in rows}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if a["lang"] != b["lang"]:
                continue
            inter = len(a["toks"] & b["toks"])
            union = len(a["toks"] | b["toks"])
            j = duckdb_round(inter / union, 6) if union else 1.0
            if j >= threshold:
                ra, rb = find(a["row_id"]), find(b["row_id"])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    by_root: dict[str, list] = {}
    for r in rows:
        by_root.setdefault(find(r["row_id"]), []).append(r)
    out = {}
    for members in by_root.values():
        cid = min(m["sha"] for m in members)
        for m in members:
            out[m["row_id"]] = cid
    return out


def test_exact_linkage_equals_brute_force(small_fixture_tables):
    corpus = small_fixture_tables["corpus"]
    res = link_corpus(ray.data.from_arrow(corpus), _cfg())
    got = {r["row_id"]: r["cluster_id"] for r in res["clusters"].take_all()}
    want = _brute_clusters(corpus, 0.97)
    assert got == want


def test_exact_join_path_matches_broadcast(small_fixture_tables):
    """Above the broadcast ceiling — of involved rows, or of total token
    volume — exact mode fetches token sets via partitioned hash joins
    (binary-packed u64 sets); the clusters must be identical to the
    broadcast path's."""
    corpus = ray.data.from_arrow(small_fixture_tables["corpus"])
    want = _brute_clusters(small_fixture_tables["corpus"], 0.97)
    for knob in ({"verify_broadcast_max_rows": 3}, {"exact_broadcast_max_tokens": 0}):
        via_join = link_corpus(corpus, _cfg(**knob))
        got = {r["row_id"]: r["cluster_id"] for r in via_join["clusters"].take_all()}
        assert got == want, knob


def test_exact_mode_checkpoint_resume(small_fixture_tables, tmp_path):
    """tok64 (list<uint64>) must survive the Parquet checkpoint round-trip:
    the resumed run reads features back from disk and its verify bundle is
    built off the re-read column's offsets/values buffers."""
    corpus = ray.data.from_arrow(small_fixture_tables["corpus"])
    cfg = _cfg(checkpoint_dir=str(tmp_path))
    c1 = link_corpus(corpus, cfg, input_fingerprint="f1")["clusters"]
    m1 = {r["row_id"]: r["cluster_id"] for r in c1.take_all()}
    c2 = link_corpus(corpus, cfg, input_fingerprint="f1")["clusters"]
    m2 = {r["row_id"]: r["cluster_id"] for r in c2.take_all()}
    assert m1 == m2 and len(m1) == small_fixture_tables["corpus"].num_rows


def test_tok_binary_pack_roundtrip():
    """list<uint64> → packed binary → (offsets, flat u64) round-trips,
    including sliced columns (absolute list offsets) and empty sets."""
    from localhost_address_matching_ray.stages.pairs import (
        _binary_u64_parts,
        _tok_list_to_binary,
    )

    lists = [[1, 5, 9], [], [2 ** 63, 7], [42]]
    col = pa.array(lists, pa.list_(pa.uint64()))
    offs, flat = _binary_u64_parts(_tok_list_to_binary(col))
    got = [flat[offs[i]:offs[i + 1]].tolist() for i in range(len(lists))]
    assert got == lists
    offs2, flat2 = _binary_u64_parts(_tok_list_to_binary(col.slice(1, 2)))
    got2 = [flat2[offs2[i]:offs2[i + 1]].tolist() for i in range(2)]
    assert got2 == lists[1:3]


def test_verify_mode_validated():
    with pytest.raises(ValueError, match="verify_mode"):
        PipelineConfig(verify_mode="exactly")


def test_shared_prefix_runs_still_emit_window_candidates():
    """Regression for the sigp-prefix chain-skip trap: rows that share the
    16-byte signature PREFIX but differ in the full signature must still get
    off>1 window candidates (their chain edges may fail verify, so skipping
    would splinter true clusters)."""
    from localhost_address_matching_ray.stages.pairs import _candidate_pairs_factory

    cfg = PipelineConfig.__new__(PipelineConfig)
    object.__setattr__(cfg, "candidate_window", 16)
    object.__setattr__(cfg, "screen_min_matches", 5)
    object.__setattr__(cfg, "screen_degree_cap", 4)
    object.__setattr__(cfg, "verify_mode", "estimate")
    fn = _candidate_pairs_factory(cfg)
    n = 5
    g = pa.table({
        "block_key": pa.array([7] * n, pa.uint64()),
        "sigp": pa.array([11] * n, pa.uint64()),
        "sigp2": pa.array([22] * n, pa.uint64()),
        "sigf": pa.array([100 + i for i in range(n)], pa.uint64()),
        "rid": pa.array(range(1, n + 1), pa.uint64()),
    })
    got = set(zip(*(c.to_pylist() for c in fn(g).columns)))
    want = {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)}
    assert got == want  # all 10 pairs: full window, no prefix skip
    # equal FULL signatures (sigf too) still collapse to the spanning chain
    g_dup = g.set_column(3, "sigf", pa.array([100] * n, pa.uint64()))
    got_dup = set(zip(*(c.to_pylist() for c in fn(g_dup).columns)))
    assert got_dup == {(i, i + 1) for i in range(1, n)}
    # interleaving regression: two equal-full-sig rows separated in id order
    # by a same-prefix DIFFERENT-sig row — the skip must not suppress their
    # (guaranteed-est-1.0) pair, so sigf is part of the sort key and the
    # equal-sigf run is contiguous with its chain edge emitted
    g_mix = pa.table({
        "block_key": pa.array([7] * 3, pa.uint64()),
        "sigp": pa.array([11] * 3, pa.uint64()),
        "sigp2": pa.array([22] * 3, pa.uint64()),
        "sigf": pa.array([100, 200, 100], pa.uint64()),
        "rid": pa.array([1, 2, 3], pa.uint64()),
    })
    got_mix = set(zip(*(c.to_pylist() for c in fn(g_mix).columns)))
    assert (1, 3) in got_mix, got_mix
