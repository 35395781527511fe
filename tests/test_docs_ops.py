"""Documents-table operator tests: quality features, lang-id, fingerprints,
near-dup families (exact jaccard / MinHash-LSH / SimHash) — agreement
between the exact baseline and the LSH scale path on the sandbox table."""

import pyarrow as pa
import pytest
import ray.data


@pytest.fixture(scope="module")
def docs():
    return ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")


def test_doc_quality_schema(docs):
    from localhost_address_matching_ray.stages.docs_ops import doc_quality

    out = doc_quality(docs).take(5)
    for row in out:
        assert row["n_tokens"] > 0
        assert 0 <= row["stop_ratio"] <= 1
        assert row["pred_lang"] in {"en", "de", "fr", "es", "zh"}


def test_fingerprints_deterministic(docs):
    from localhost_address_matching_ray.stages.docs_ops import doc_fingerprints

    a = {r["doc_id"]: (r["fingerprint"], r["rolling_fp"]) for r in doc_fingerprints(docs).take_all()}
    b = {r["doc_id"]: (r["fingerprint"], r["rolling_fp"]) for r in doc_fingerprints(docs).take_all()}
    assert a == b and len(a) == 500


def test_lsh_finds_exact_jaccard_pairs(docs):
    """MinHash-LSH (bands=64, r=2) recall ≈ 1 at J ≥ 0.5: every exact
    3-gram-Jaccard pair must be found by the LSH path."""
    from localhost_address_matching_ray.stages.docs_ops import minhash_lsh_pairs, ngram_dup_pairs

    exact = {(r["u"], r["v"]) for r in ngram_dup_pairs(docs, k=3, threshold=0.5).take_all()}
    lsh = {(r["u"], r["v"]) for r in minhash_lsh_pairs(docs, threshold=0.5).take_all()}
    assert exact, "fixture should contain planted near-dups"
    missed = exact - lsh
    assert len(missed) <= max(1, len(exact) // 10), f"LSH missed {missed}"


def test_near_dedup_keep_removes_non_reps(docs):
    """Kept set = all docs minus non-representative dup-cluster members;
    each kept rep carries its cluster size; total docs are conserved."""
    from localhost_address_matching_ray.stages.docs_ops import (
        near_dedup_keep,
        ngram_dup_pairs,
    )

    n_docs = docs.count()
    pairs = [(r["u"], r["v"]) for r in ngram_dup_pairs(docs, k=3, threshold=0.5).take_all()]
    assert pairs, "fixture should contain planted near-dups"
    # reference union-find over the exact pair set
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members: dict[int, set] = {}
    for x in list(parent):
        members.setdefault(find(x), set()).add(x)

    out = {r["doc_id"]: r["cluster_size"] for r in near_dedup_keep(docs).take_all()}
    # conservation: every doc is represented exactly once
    assert sum(out.values()) == n_docs
    for rep, mem in members.items():
        assert out[rep] == len(mem)
        for m in mem - {rep}:
            assert m not in out
    # docs outside any dup cluster are kept with size 1
    n_singletons = n_docs - sum(len(m) for m in members.values())
    assert sum(1 for v in out.values() if v == 1) >= n_singletons


def test_simhash_pairs_subset_of_same_lang(docs):
    from localhost_address_matching_ray.stages.docs_ops import simhash_pairs

    lang_of = {
        r["doc_id"]: r["lang"]
        for r in docs.select_columns(["doc_id", "lang"]).take_all()
    }
    for r in simhash_pairs(docs, max_hamming=6).take_all():
        assert lang_of[r["u"]] == lang_of[r["v"]]
        assert r["hamming"] <= 6


def test_multimodal_plumbing():
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages.multimodal import (
        MediaFeatureExtractor,
        extract_media_features,
        real_decode,
        synthesize_media_table,
    )

    docs_tbl = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    media = synthesize_media_table(docs_tbl)
    assert media.num_rows == 500
    out = extract_media_features(ray.data.from_arrow(media)).take_all()
    assert len(out) == 500
    assert all(len(r["features"]) == 16 for r in out[:10])
    # codec formats (jpeg/mp3) still raise and say so; corrupt payloads in
    # a native interchange format fail loudly as ValueError
    with pytest.raises(NotImplementedError):
        real_decode(b"xx", "image")
    with pytest.raises(NotImplementedError):
        real_decode(b"\xff\xfbmp3-ish", "audio")
    with pytest.raises(ValueError):
        real_decode(b"RIFF....", "audio")  # RIFF prefix but no WAVE header
    # deterministic: same payload → same features (real + fake paths)
    ex = MediaFeatureExtractor()
    t = media.slice(0, 3)
    f1 = ex(t)["features"].to_pylist()
    f2 = ex(t)["features"].to_pylist()
    assert f1 == f2
    # image rows went through the REAL netpbm decode: feature[0..1] are the
    # normalized height/width of the synthesized 16x12 image
    by_id = {r["media_id"]: r for r in out}
    img_row = next(r for k, r in by_id.items() if k % 3 == 0)
    assert abs(img_row["features"][0] - 12 / 255) < 1e-6
    assert abs(img_row["features"][1] - 16 / 255) < 1e-6
    # audio rows went through the REAL WAV decode: duration = 512/16000 s,
    # 1 channel, and a pure sine's peak ≈ 0.45
    aud_row = next(r for k, r in by_id.items() if k % 3 == 1 and k % 15 != 1)
    assert abs(aud_row["features"][0] - 512 / 16000) < 1e-6
    assert aud_row["features"][1] == 1.0
    assert 0.2 < aud_row["features"][3] <= 0.46
    # video rows went through the REAL y4m decode: 5 frames of 12x16
    vid_row = next(r for k, r in by_id.items() if k % 3 == 2 and k % 15 != 2)
    assert vid_row["features"][:4] == [5.0, 12.0, 16.0, 25.0]
    # codec stand-in rows still flow through the fake path (no raise)
    standin = next(r for k, r in by_id.items() if k % 15 == 1)
    assert len(standin["features"]) == 16


def test_multimodal_resize_and_frame_sample():
    import numpy as np
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages.multimodal import (
        FrameSampler,
        MediaResizer,
        decode_netpbm,
        resize_image,
        resize_media,
        sample_frames,
        synthesize_media_table,
    )

    # pure-numpy nearest-neighbor resize: exact index-gather semantics
    img = np.arange(12 * 16 * 3, dtype=np.uint8).reshape(12, 16, 3)
    small = resize_image(img, 6, 8)
    assert small.shape == (6, 8, 3)
    assert np.array_equal(small[0, 0], img[0, 0])
    assert np.array_equal(small[5, 7], img[(5 * 12) // 6, (7 * 16) // 8])

    docs_tbl = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    media = synthesize_media_table(docs_tbl)
    resized = resize_media(ray.data.from_arrow(media), 8, 6).take_all()
    assert len(resized) == media.num_rows
    for r in resized:
        if r["kind"] == "image" and r["payload"][:2] in (b"P5", b"P6"):
            assert (r["width"], r["height"]) == (8, 6)
            assert decode_netpbm(r["payload"]).shape == (6, 8, 3)
        else:  # non-decodable kinds pass through untouched
            assert r["payload"][:2] not in (b"P5", b"P6")
    # strict mode refuses codec formats instead of passing them through
    with pytest.raises(NotImplementedError):
        MediaResizer(4, 4, strict=True)(media.slice(1, 1))

    frames = sample_frames(ray.data.from_arrow(media), n_frames=3).take_all()
    n_videos = sum(1 for k in media["kind"].to_pylist() if k == "video")
    assert n_videos > 0
    assert {r["media_id"] % 3 for r in frames} == {2}  # videos only
    per_media: dict = {}
    for r in frames:
        per_media.setdefault(r["media_id"], []).append(r)
    assert all(1 <= len(v) <= 3 for v in per_media.values())
    assert len(per_media) == n_videos
    # deterministic stand-in frames; strict mode raises
    f2 = FrameSampler(3)(media)
    assert sorted(f2["frame"].to_pylist()) == sorted(r["frame"] for r in frames)
    with pytest.raises(NotImplementedError):
        FrameSampler(3, strict=True)(media)


def test_netpbm_roundtrip_and_features():
    import numpy as np

    from localhost_address_matching_ray.stages.multimodal import (
        decode_netpbm,
        encode_netpbm,
        image_features,
    )

    rng = np.random.RandomState(3)
    rgb = rng.randint(0, 256, (9, 7, 3), dtype=np.uint8)
    assert np.array_equal(decode_netpbm(encode_netpbm(rgb)), rgb)
    gray = rng.randint(0, 256, (5, 11), dtype=np.uint8)
    assert np.array_equal(decode_netpbm(encode_netpbm(gray)), gray)
    # header comments are skipped per the netpbm spec
    with_comment = b"P5\n# a comment\n11 5\n255\n" + gray.tobytes()
    assert np.array_equal(decode_netpbm(with_comment), gray)
    f = image_features(rgb)
    assert f.shape == (16,)
    assert abs(f[2] * 255 - rgb.mean()) < 1e-3  # global mean channel


def test_wav_roundtrip_and_audio_features():
    import numpy as np
    import pytest

    from localhost_address_matching_ray.stages.multimodal import (
        audio_features,
        decode_wav,
        encode_wav,
    )

    # 16-bit PCM round-trip is exact at int16 resolution, mono and stereo
    x = (np.arange(-50, 50, dtype=np.float32) / 64.0).clip(-1, 1)
    got, rate = decode_wav(encode_wav(x, 8000))
    assert rate == 8000 and got.shape == (100, 1)
    assert np.allclose(got[:, 0], x, atol=1.0 / 32767)
    st = np.stack([x, -x], axis=1)
    got2, _ = decode_wav(encode_wav(st, 44100))
    assert got2.shape == (100, 2)
    assert np.allclose(got2, st, atol=1.0 / 32767)
    # golden header bytes: RIFF/WAVE + fmt(PCM,1ch,8kHz,16bit) + data
    payload = encode_wav(np.zeros(2, np.float32), 8000)
    assert payload[:4] == b"RIFF" and payload[8:12] == b"WAVE"
    assert payload[12:16] == b"fmt " and int.from_bytes(payload[16:20], "little") == 16
    assert int.from_bytes(payload[20:22], "little") == 1  # PCM tag
    assert int.from_bytes(payload[24:28], "little") == 8000
    assert payload[36:40] == b"data" and payload[40:44] == (4).to_bytes(4, "little")
    # 8-bit unsigned PCM decodes too (hand-built)
    pcm8 = bytes([128, 255, 0, 128])
    fmt = (1).to_bytes(2, "little") + (1).to_bytes(2, "little") + \
        (4000).to_bytes(4, "little") + (4000).to_bytes(4, "little") + \
        (1).to_bytes(2, "little") + (8).to_bytes(2, "little")
    wav8 = b"RIFF" + (28 + len(pcm8)).to_bytes(4, "little") + b"WAVE" + \
        b"fmt " + (16).to_bytes(4, "little") + fmt + \
        b"data" + len(pcm8).to_bytes(4, "little") + pcm8
    s8, r8 = decode_wav(wav8)
    assert r8 == 4000
    assert np.allclose(s8[:, 0], [0.0, 127 / 128, -1.0, 0.0])
    # compressed WAV (format tag != 1) is an honest NotImplementedError
    bad = bytearray(wav8)
    bad[20] = 85  # format tag 85 = MP3-in-WAV
    with pytest.raises(NotImplementedError):
        decode_wav(bytes(bad))
    # feature vector: duration, channels, rms, peak, zcr all real
    f = audio_features(*decode_wav(encode_wav(x, 8000)))
    assert f.shape == (16,) and f.dtype == np.float32
    assert abs(f[0] - 100 / 8000) < 1e-6 and f[1] == 1.0
    assert abs(f[2] - np.sqrt(np.mean(x * x))) < 1e-3
    assert abs(f[3] - np.abs(x).max()) < 1e-3
    assert abs(f[5] + f[6] + f[7] - 1.0) < 1e-6  # band fractions sum to 1


def test_y4m_roundtrip_frames_and_video_features():
    import numpy as np
    import pytest

    from localhost_address_matching_ray.stages.multimodal import (
        FrameSampler,
        decode_netpbm,
        decode_y4m,
        encode_y4m,
        image_features,
        video_features,
    )

    rng = np.random.RandomState(7)
    luma = rng.randint(0, 256, (4, 6, 8), dtype=np.uint8)
    payload = encode_y4m(luma, fps=(30, 1))
    got, fps = decode_y4m(payload)
    assert fps == (30, 1)
    assert np.array_equal(got, luma)
    # C444 and mono frame sizes parse too (hand-built, single frame)
    mono = b"YUV4MPEG2 W4 H2 F25:1 Cmono\nFRAME\n" + bytes(range(8))
    gm, _ = decode_y4m(mono)
    assert np.array_equal(gm[0], np.arange(8, dtype=np.uint8).reshape(2, 4))
    with pytest.raises(ValueError):
        decode_y4m(b"YUV4MPEG2 W4 H2 C999\nFRAME\n" + bytes(8))
    # video features: frame count / dims / fps real, grid from mean frame
    vf = video_features(luma, (30, 1))
    assert vf[:4].tolist() == [4.0, 6.0, 8.0, 30.0]
    assert abs(vf[4] * 255 - luma.mean()) < 1e-2
    # frame sampling composes with the REAL image path: sampled frames are
    # P5 netpbm images of the exact luma planes at evenly-spaced indices
    import pyarrow as pa

    media = pa.table({
        "media_id": pa.array([9], pa.int64()),
        "kind": pa.array(["video"], pa.string()),
        "payload": pa.array([payload], pa.large_binary()),
    })
    frames = FrameSampler(2, strict=True)(media)  # strict OK: y4m is real
    assert frames["frame_idx"].to_pylist() == [0, 2]
    for fi, fb in zip(frames["frame_idx"].to_pylist(),
                      frames["frame"].to_pylist()):
        img = decode_netpbm(fb)
        assert np.array_equal(img, luma[fi])
        assert image_features(img).shape == (16,)


def test_top_terms_fallback_matches_broadcast():
    """The beyond-broadcast join fallback produces exactly the broadcast
    path's rows (forced via broadcast_df_max=0), including tie-breaks."""
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages.docs_ops import top_terms

    docs_tbl = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).slice(0, 120)
    docs = ray.data.from_arrow(docs_tbl)
    key = lambda r: (r["doc_id"], r["term_rank"])
    a = sorted(top_terms(docs, k=3).take_all(), key=key)
    b = sorted(top_terms(docs, k=3, broadcast_df_max=0).take_all(), key=key)
    assert len(a) > 0
    assert a == b
    # per-doc contract: ranks are 1..min(k, n_distinct_tokens), scores
    # non-increasing within a doc
    per_doc: dict = {}
    for r in a:
        per_doc.setdefault(r["doc_id"], []).append(r)
    for rows in per_doc.values():
        assert [r["term_rank"] for r in rows] == list(range(1, len(rows) + 1))
        scores = [r["score"] for r in rows]
        assert all(x >= y for x, y in zip(scores, scores[1:]))


def test_ivf_topk_recall_vs_brute():
    """IVF dual-side multi-probe top-k overlaps the brute-force top-k
    ≥ 0.9 at the default (n_cells=16, n_probe=8, n_probe_data=2) on the
    sf0.001 embeddings — near-random vectors, the worst case for IVF —
    and scores for shared neighbors are identical (exact rescoring)."""
    import numpy as np
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages.ann import ann_topk, ivf_topk

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    qt = t.filter(pa.array(ids < 10))
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    qm = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    emb = ray.data.from_arrow(t)
    brute = {(r["query_id"], r["neighbor_id"]): r["score"]
             for r in ann_topk(emb, qids, qm, k=10).take_all()}
    ivf = {(r["query_id"], r["neighbor_id"]): r["score"]
           for r in ivf_topk(emb, qids, qm, k=10).take_all()}
    assert brute, "brute top-k must be non-empty"
    overlap = len(set(brute) & set(ivf)) / len(brute)
    assert overlap >= 0.9, f"IVF top-k recall {overlap:.2f} < 0.9"
    for key in set(brute) & set(ivf):
        # exact rescoring up to gemm summation order: brute scores come
        # from one (nq, N) matmul, IVF from per-cell submatrices — BLAS
        # may reduce the K dimension in a different order per shape
        assert abs(brute[key] - ivf[key]) < 1e-9


def test_ann_topk_self_excluded_and_ranked():
    import numpy as np
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages.ann import ann_topk

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    ids = t["vec_id"].to_numpy()[:3]
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[:3]
    out = ann_topk(emb, ids, mat, k=5).take_all()
    assert len(out) == 15
    by_q = {}
    for r in out:
        assert r["neighbor_id"] != r["query_id"]
        by_q.setdefault(r["query_id"], []).append((r["rank"], r["score"]))
    for q, rows in by_q.items():
        rows.sort()
        scores = [s for _, s in rows]
        assert scores == sorted(scores, reverse=True)


#: run in a child process with its own 1-CPU Ray session; argv[1] is the
#: tables directory
_ANN_ONE_CPU = """
import sys
import ray
from localhost_address_matching_ray.config import object_store_args
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", **object_store_args())
ray.data.DataContext.get_current().enable_progress_bars = False
from localhost_address_matching_ray.pipelines.queries import REGISTRY
print("rows", REGISTRY["ann_topk"].fn(sys.argv[1]).count())
ray.shutdown()
"""


def test_ann_topk_finishes_on_one_cpu(docs):
    """On a 1-CPU session the actor pool must not hold the only CPU: the
    read that feeds it would never be scheduled and the query would hang."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root, RAY_ADDRESS="local")
    sf_dir = os.path.dirname(docs.input_files()[0])
    proc = subprocess.run(
        [sys.executable, "-c", _ANN_ONE_CPU, sf_dir], cwd=root, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "rows 100" in proc.stdout, proc.stdout


def test_centroid_sample_spread_and_deterministic():
    """IVF k-means training sample is a SPREAD over the id range (a prefix
    would mirror file order — sorted corpora would train on early clusters
    only), block-order independent, and exactly sample_cap rows."""
    import numpy as np

    from localhost_address_matching_ray.stages.ann import _centroid_sample

    rng = np.random.RandomState(0)
    n = 20000
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([rng.randn(8).tolist() for _ in range(n)]),
    })
    s1 = _centroid_sample(ray.data.from_arrow(t), 2048)
    s2 = _centroid_sample(ray.data.from_arrow(t).repartition(7), 2048)
    ids1 = sorted(s1["vec_id"].to_pylist())
    assert s1.num_rows == 2048 and s1.column_names == ["vec_id", "embedding"]
    assert ids1 == sorted(s2["vec_id"].to_pylist())
    assert 0.3 * n < np.mean(ids1) < 0.7 * n  # spread, not a prefix
    # small inputs pass through whole
    assert _centroid_sample(ray.data.from_arrow(t.slice(0, 100)), 2048).num_rows == 100


def test_simhash_recursive_pigeonhole_exact():
    """Skewed-fingerprint corpus: runs far above max_block_rows must be
    recursively re-split (pigeonhole on the unconstrained bits) with NO
    recall loss — output equals brute-force Hamming pairs."""
    import numpy as np

    from localhost_address_matching_ray.functions.hashing import (
        SimHasher,
        hamming64_arrays,
    )
    from localhost_address_matching_ray.stages.docs_ops import simhash_pairs

    # 6 families × 10 docs: 40 shared family tokens + 3 per-doc tokens →
    # within-family Hamming ≤ 6 (84 true pairs), family runs of 10 > the
    # max_block_rows=8 cap, so every family run must recurse
    texts = []
    for f in range(6):
        fam = [f"fam{f}_tok{i}" for i in range(40)]
        for j in range(10):
            texts.append(" ".join(
                fam + [f"doc{f}_{j}_a", f"doc{f}_{j}_b", f"doc{f}_{j}_c"]
            ))
    n = len(texts)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "lang": pa.array(["en"] * n, pa.string()),
        "text": pa.array(texts, pa.string()),
    }))
    # brute-force reference over the same simhash values
    sh = SimHasher()
    hs = np.array(
        [sh.simhash(t.split(" ")) for t in texts], dtype=np.uint64
    )
    iu, jv = np.triu_indices(n, 1)
    d = hamming64_arrays(hs[iu], hs[jv])
    want = {
        (int(min(a, b)), int(max(a, b)), int(dd))
        for a, b, dd in zip(iu[d <= 6], jv[d <= 6], d[d <= 6])
    }
    got = {
        (r["u"], r["v"], r["hamming"])
        for r in simhash_pairs(docs, max_hamming=6, max_block_rows=8).take_all()
    }
    assert len(want) > 50, "fixture should produce close fingerprints"
    assert got == want


def test_keep_representatives_join_fallback(docs):
    """components_collect_max=0 forces the partitioned-join fallback; output
    must equal the broadcast path exactly."""
    from localhost_address_matching_ray.stages.docs_ops import (
        keep_representatives,
        ngram_dup_pairs,
    )

    pairs = ngram_dup_pairs(docs, k=3, threshold=0.5).materialize()
    broad = {
        r["doc_id"]: r["cluster_size"]
        for r in keep_representatives(docs, pairs, "doc_id").take_all()
    }
    joined = {
        r["doc_id"]: r["cluster_size"]
        for r in keep_representatives(
            docs, pairs, "doc_id", components_collect_max=0
        ).take_all()
    }
    assert joined == broad


def test_degenerate_docs_match_ngram_and_token_oracles():
    """Short (<k-token) and empty docs are where the lead-window SQL and the
    whole-doc-shingle kernel historically diverged: the oracle now carries
    the short-doc UNION branch and the kernel excludes empty-vs-empty pairs,
    so all three surfaces (exact ngram, LSH, token jaccard) must agree with
    their registered SQL on this fixture."""
    import duckdb

    from localhost_address_matching_ray.pipelines.queries import REGISTRY
    from localhost_address_matching_ray.stages.docs_ops import (
        minhash_lsh_pairs,
        ngram_dup_pairs,
        token_jaccard_pairs,
    )

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 9], pa.int64()),
        "lang": pa.array(["en"] * 9, pa.string()),
        "text": pa.array(
            ["a b", "a b", "", "", "x", "x",
             "one two three four", "one two three four", "a  b"],
            pa.string(),
        ),
    })
    docs = ray.data.from_arrow(tbl)
    con = duckdb.connect()
    con.register("documents", tbl)

    def pairs(ds):
        return sorted((r["u"], r["v"], r["jaccard"]) for r in ds.take_all())

    oracle_ngram = sorted(map(tuple, con.execute(
        REGISTRY["doc_ngram_dup_pairs"].sql).fetchall()))
    assert oracle_ngram, "fixture must produce oracle pairs"
    assert pairs(ngram_dup_pairs(docs, k=3, threshold=0.5)) == oracle_ngram
    assert pairs(minhash_lsh_pairs(docs, threshold=0.5)) == oracle_ngram
    # empty docs: NOT ngram dups (no shingles) but ARE token-jaccard dups
    # (DuckDB string_split('', ' ') = [''] — both sides pair them at 1.0)
    oracle_tok = sorted(map(tuple, con.execute(
        REGISTRY["doc_token_jaccard_pairs"].sql).fetchall()))
    assert (3, 4, 1.0) in oracle_tok
    assert pairs(token_jaccard_pairs(docs, threshold=0.97)) == oracle_tok


def test_ann_topk_tie_break_by_vec_id_across_batch_cut():
    """Duplicate vectors tie on score; the per-batch candidate cut must keep
    the SMALLEST vec_ids (the reduce's and the oracle's tie-break), not the
    first by batch position — ids stored descending expose the difference."""
    import numpy as np

    from localhost_address_matching_ray.stages.ann import ann_topk

    n, dim, k = 15, 4, 10
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    tbl = pa.table({
        # descending insertion order: a batch-position cut would keep
        # ids 114..104 and silently drop 100..103 before the reduce
        "vec_id": pa.array(np.arange(n - 1, -1, -1) + 100, pa.int64()),
        "embedding": pa.array([vec.tolist()] * n, pa.list_(pa.float64())),
    })
    emb = ray.data.from_arrow(tbl)
    out = ann_topk(emb, np.array([100]), vec[None, :], k=k).take_all()
    got = [r["neighbor_id"] for r in sorted(out, key=lambda r: r["rank"])]
    assert got == list(range(101, 101 + k))


def _logical_map_ops(ds):
    """Every map operator (map_batches, map_groups' map) in the logical
    plan behind ``ds``."""
    from ray.data._internal.logical.operators.map_operator import AbstractMap

    ops, stack, seen = [], [ds._logical_plan.dag], set()
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if isinstance(op, AbstractMap):
            ops.append(op)
        stack.extend(op.input_dependencies)
    return ops


def test_ann_entry_points_plan_no_actor_pools():
    """The ANN scorers hold only a few KB of broadcast state, so they run as
    stateless tasks: no map operator in the plans of ann_topk, ivf_topk or
    lsh_cosine_pairs is an actor pool (a pool starts and tears down actors
    inside every query)."""
    import numpy as np
    import pyarrow.parquet as pq
    from ray.data import ActorPoolStrategy

    from localhost_address_matching_ray.stages.ann import (
        ann_topk,
        ivf_topk,
        lsh_cosine_pairs,
    )

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    qt = t.slice(0, 5)
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    qm = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    emb = ray.data.from_arrow(t)
    plans = {
        "ann_topk": ann_topk(emb, qids, qm, k=5),
        "ivf_topk": ivf_topk(emb, qids, qm, k=5),
        "lsh_cosine_pairs": lsh_cosine_pairs(emb, 0.45, n_planes=4, n_tables=4),
    }
    for name, ds in plans.items():
        ops = _logical_map_ops(ds)
        assert ops, name
        pools = [op.name for op in ops if isinstance(op._compute, ActorPoolStrategy)]
        assert not pools, (name, pools)


def _brute_bm25(texts, terms, k):
    """Independent BM25 (k1=1.2, b=0.75, log-free idf) over python lists."""
    toks = [t.split() for t in texts]
    nd = float(len(texts))
    avgdl = float(sum(len(x) for x in toks)) / nd
    dfs = [float(sum(1 for x in toks if term in x)) for term in terms]
    out = []
    for doc_id, x in enumerate(toks):
        dl = len(x)
        nrm = 0.25 + ((0.75 * float(dl)) / avgdl)
        score, hit = 0.0, False
        for term, df in zip(terms, dfs):
            tf = float(x.count(term))
            idf = ((nd - df) + 0.5) / (df + 0.5)
            score = score + ((idf * (tf * 2.2)) / (tf + (1.2 * nrm)))
            hit = hit or tf > 0
        if hit:
            out.append((-score, doc_id, dl, score))
    out.sort()
    return [(d, dl, s) for (_, d, dl, s) in out[:k]]


def test_bm25_matches_bruteforce():
    import numpy as np

    from localhost_address_matching_ray.stages.docs_ops import bm25_topk

    rng = np.random.default_rng(11)
    vocab = ["scan", "join", "vector", "table", "sort", "batch"]
    texts = [
        " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=int(n)))
        for n in rng.integers(3, 30, size=40)
    ]
    terms = ["vector", "sort"]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    got = bm25_topk(ds, terms, k=5).to_pandas()
    want = _brute_bm25(texts, terms, 5)
    assert [tuple(r) for r in got[["doc_id", "dl", "score"]].itertuples(index=False)] == want


def test_bm25_absent_term_and_empty_corpus():
    from localhost_address_matching_ray.stages.docs_ops import bm25_topk

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["scan join", "sort sort"], pa.string()),
    }))
    # one term never occurs: its contribution must be exactly 0 for all docs
    got = bm25_topk(ds, ["sort", "nosuchterm"], k=10).to_pandas()
    assert list(got.doc_id) == [2]
    empty = ds.filter(expr="doc_id < 0")
    assert bm25_topk(empty, ["sort"], k=3).to_pandas().empty


def test_repetition_hand_computed():
    """Fractions on a tiny fixture match the by-hand SQL expressions
    (1 - ndist/nt, top_bigram/nb) including the empty/one-token edges."""
    from localhost_address_matching_ray.stages.docs_ops import doc_repetition

    ds = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "a a b",          # nt=3 ndist=2 dup=1-2/3; bigrams: 'a a','a b' top=1 nb=2
            "x x x x",        # nt=4 ndist=1 dup=0.75; bigram 'x x'×3 top=3 nb=3
            "",               # nt=0 → fractions 0, keep False
            "solo",           # nt=1 → nb=0 → big 0
        ],
    }))
    rows = {r["doc_id"]: r for r in doc_repetition(ds, min_tokens=3).take_all()}
    assert rows[1]["n_tokens"] == 3
    assert rows[1]["dup_token_frac"] == round(1 - 2 / 3, 6)
    assert rows[1]["top_bigram_frac"] == 0.5
    assert rows[2]["dup_token_frac"] == 0.75
    assert rows[2]["top_bigram_frac"] == 1.0
    assert rows[3]["n_tokens"] == 0 and rows[3]["dup_token_frac"] == 0.0
    assert not rows[3]["keep"]
    assert rows[4]["n_tokens"] == 1 and rows[4]["top_bigram_frac"] == 0.0
    # doc 1: nt>=3, dup 0.333<=0.55, big 0.5>0.06 → dropped by bigram rule
    assert not rows[1]["keep"]


def test_decontaminate_cross_match():
    """A document that embeds a benchmark doc's snippet is flagged even
    though it is not itself in the benchmark sample."""
    from localhost_address_matching_ray.stages.docs_ops import doc_decontaminate

    bench_text = "t0 t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11"
    snippet = "t2 t3 t4 t5 t6 t7 t8 t9"  # tokens [2:10)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": [53, 1, 2],
        "text": [
            bench_text,                       # benchmark member (53 % 53 == 0)
            f"pre {snippet} post",            # contaminated
            "clean other words here",         # clean
        ],
    }))
    rows = {r["doc_id"]: r for r in doc_decontaminate(ds).take_all()}
    assert rows[53]["contaminated"] and rows[53]["n_hits"] == 1
    assert rows[1]["contaminated"] and rows[1]["n_hits"] == 1
    assert not rows[2]["contaminated"] and rows[2]["n_hits"] == 0


def test_decontaminate_snippet_cap():
    from localhost_address_matching_ray.stages.docs_ops import doc_decontaminate

    ds = ray.data.from_arrow(pa.table({
        "doc_id": [0, 2, 4],
        "text": [" ".join(f"w{i}{j}" for j in range(12)) for i in range(3)],
    }))
    with pytest.raises(ValueError, match="snippet set"):
        doc_decontaminate(ds, modulus=2, max_snippets=1).take_all()


def test_chunk_windows_reconstruct():
    """Chunk rows reconstruct each doc's token stream: chunk k covers
    tokens [k*stride, min(k*stride+window, nt)); the union of chunk-start
    slices equals the full stream; counts match ceil((nt-1)/stride)+1."""
    from localhost_address_matching_ray.stages.docs_ops import doc_chunk_windows

    texts = {
        1: " ".join(f"t{i}" for i in range(70)),
        2: " ".join(f"u{i}" for i in range(32)),
        3: "one two",
        4: "",
    }
    ds = ray.data.from_arrow(pa.table({
        "doc_id": list(texts), "text": list(texts.values()),
    }))
    out = doc_chunk_windows(ds, window=32, stride=24).take_all()
    by_doc: dict[int, list] = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert 4 not in by_doc                      # empty doc emits nothing
    assert len(by_doc[1]) == 3 and len(by_doc[2]) == 2 and len(by_doc[3]) == 1
    for doc_id, chunks in by_doc.items():
        toks = texts[doc_id].split()
        for r in sorted(chunks, key=lambda r: r["chunk_idx"]):
            k = r["chunk_idx"]
            want = toks[k * 24 : min(k * 24 + 32, len(toks))]
            assert r["chunk_text"].split() == want
            assert r["n_chunk_tokens"] == len(want)


def test_pack_offsets_matches_serial_scan():
    """Distributed two-phase prefix scan == the serial numpy cumsum, under a
    tiny range-bucket width (forces many bucket boundaries), sparse
    non-contiguous doc_ids, empty docs, and docs spanning multiple bins."""
    import numpy as np

    from localhost_address_matching_ray.stages.docs_ops import doc_pack_offsets

    rng = np.random.default_rng(3)
    ids = np.unique(rng.integers(0, 10_000, size=80))
    texts = []
    for i, d in enumerate(ids):
        if i % 7 == 0:
            texts.append("")                       # zero-token doc
        else:
            texts.append(" ".join(f"w{j}" for j in range(int(rng.integers(1, 13)))))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()), "text": texts,
    }))
    out = doc_pack_offsets(ds, capacity=5, n_ranges=3).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)

    nt = np.array([0 if t == "" else len(t.split()) for t in texts], np.int64)
    start = np.cumsum(nt) - nt
    assert list(out.doc_id) == list(ids)
    assert list(out.n_tokens) == list(nt)
    assert list(out.start_token) == list(start)
    assert list(out.start_bin) == list(start // 5)
    end = np.where(nt > 0, (start + nt - 1) // 5, start // 5)
    assert list(out.end_bin) == list(end)


def test_bigram_lift_fallback_join_path_matches_broadcast(monkeypatch):
    """VOCAB ceiling 0 forces the partitioned-join count-attach; output
    must equal the broadcast pc.index_in path."""
    import pandas as pd
    import pyarrow.parquet as pq

    from localhost_address_matching_ray.stages import docs_ops

    docs = ray.data.from_arrow(
        pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["text"])
    )
    fast = docs_ops.bigram_lift(docs, min_count=5, k=20).to_pandas()
    monkeypatch.setattr(docs_ops, "BIGRAM_VOCAB_BROADCAST_MAX", 0)
    slow = docs_ops.bigram_lift(docs, min_count=5, k=20).to_pandas()
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) == 20


def test_pairwise_jaccard_sparse_matches_dense_randomized():
    """The postings-run sparse path must agree with the dense-matmul path
    (forced via threshold<=0 + post-filter) on random blocks, including
    empty sets, ties at the threshold boundary, and near-clique blocks."""
    import numpy as np

    from localhost_address_matching_ray.stages.docs_ops import (
        _pairwise_jaccard_block,
    )

    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        vocab = [f"tok{i}" for i in range(int(rng.integers(4, 30)))]
        sets = [
            set(rng.choice(
                vocab,
                size=int(rng.integers(0, min(12, len(vocab) + 1))),
                replace=False,
            ))
            for _ in range(n)
        ]
        ids = np.arange(n, dtype=np.int64) * 7
        thr = float(rng.choice([0.2, 0.5, 2 / 3, 0.8, 0.97, 1.0]))
        sparse = sorted(zip(*_pairwise_jaccard_block(ids, sets, thr)))
        dense_all = zip(*_pairwise_jaccard_block(ids, sets, 0.0))
        dense = sorted((u, v, s) for u, v, s in dense_all if s >= thr)
        assert sparse == dense, (trial, thr, sparse[:3], dense[:3])
