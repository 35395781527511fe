"""Source readers: CSV / JSONL corpus ingestion with the reference's
string-typed, null-free semantics (ner_address_parser.py:138-153), and the
LSH ANN scale path vs the brute-force baseline."""

import os

import pyarrow as pa
import ray.data

from localhost_address_matching_ray.sources.readers import (
    read_corpus_csv,
    read_corpus_json,
    read_corpus_parquet,
)


def _write_sample(tmp_path):
    import csv
    import json

    rows = [
        {"repo": "r1", "path": "a/B.py", "commit": "c1", "lang": "python",
         "content": "x = 1\ny = 2\n"},
        {"repo": "r2", "path": "a/b.py", "commit": "c2", "lang": "python",
         "content": ""},  # empty content must stay '' not NaN/null
    ]
    csv_p = os.path.join(tmp_path, "corpus.csv")
    with open(csv_p, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    jsonl_p = os.path.join(tmp_path, "corpus.jsonl")
    with open(jsonl_p, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    return csv_p, jsonl_p, rows


def test_csv_and_json_corpus_round_trip(tmp_path):
    csv_p, jsonl_p, rows = _write_sample(str(tmp_path))
    for reader, path in [(read_corpus_csv, csv_p), (read_corpus_json, jsonl_p)]:
        out = sorted(reader(path).take_all(), key=lambda r: r["repo"])
        assert len(out) == 2
        assert out[0]["content"] == "x = 1\ny = 2\n"
        assert out[1]["content"] == ""  # null→'' coercion
        assert all(isinstance(r["path"], str) for r in out)


def test_csv_corpus_runs_through_pipeline(tmp_path):
    csv_p, _, _ = _write_sample(str(tmp_path))
    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.pipelines.linkage import link_corpus

    res = link_corpus(read_corpus_csv(csv_p), PipelineConfig(feature_concurrency=2))
    assert res["clusters"].count() == 2


def test_ivf_cosine_pairs_matches_bruteforce():
    """IVF multi-probe: exact precision (subset of brute force, identical
    scores) and full recall on the sandbox embeddings."""
    from localhost_address_matching_ray.sources.tables import read_table
    from localhost_address_matching_ray.stages.ann import cosine_pairs, ivf_cosine_pairs

    emb = read_table("/root/testdata/sf0.001", "embeddings",
                     columns=["vec_id", "embedding"])
    exact = {(r["u"], r["v"]): r["score"] for r in cosine_pairs(emb, 0.45).take_all()}
    ivf = {(r["u"], r["v"]): r["score"]
           for r in ivf_cosine_pairs(emb, 0.45, n_cells=16, n_probe=4).take_all()}
    assert set(ivf) <= set(exact)
    for k, s in ivf.items():
        assert s == exact[k]
    assert len(ivf) >= 0.9 * len(exact)


def test_ivf_join_fallback_matches_broadcast():
    """verify_broadcast_max_rows=0 forces the beyond-broadcast partitioned-
    join scoring path — it must produce the identical pair set and scores
    as the broadcast path (same candidates, same float32-roundtrip
    cosines)."""
    from localhost_address_matching_ray.sources.tables import read_table
    from localhost_address_matching_ray.stages.ann import ivf_cosine_pairs

    emb = read_table("/root/testdata/sf0.001", "embeddings",
                     columns=["vec_id", "embedding"])
    bcast = {(r["u"], r["v"]): r["score"]
             for r in ivf_cosine_pairs(emb, 0.45, n_cells=16, n_probe=4).take_all()}
    joined = {(r["u"], r["v"]): r["score"]
              for r in ivf_cosine_pairs(
                  emb, 0.45, n_cells=16, n_probe=4, verify_broadcast_max_rows=0
              ).take_all()}
    assert joined == bcast and len(bcast) > 0


def test_lsh_cosine_pairs_matches_bruteforce():
    from localhost_address_matching_ray.stages.ann import cosine_pairs, lsh_cosine_pairs

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    exact = {(r["u"], r["v"]): r["score"] for r in cosine_pairs(emb, 0.45).take_all()}
    # low-cosine regime needs short signatures for recall:
    # p = 1-(1-(1-θ/π)^planes)^tables ≈ 0.96 at cos=0.45, 4 planes, 16 tables
    lsh = {
        (r["u"], r["v"]): r["score"]
        for r in lsh_cosine_pairs(emb, 0.45, n_planes=4, n_tables=16).take_all()
    }
    # precision exact (verified candidates), recall = LSH union bound
    assert set(lsh) <= set(exact)
    for k, v in lsh.items():
        assert v == exact[k]
    if exact:
        assert len(lsh) >= len(exact) * 0.5, (len(lsh), len(exact))


def test_gzip_compressed_csv_and_jsonl_sources(tmp_path):
    """Real-world corpus dumps arrive gzipped; the readers must stream
    .csv.gz / .jsonl.gz transparently (Arrow infers the codec from the
    extension) with the same string-typed, null-free coercion."""
    import gzip
    import json

    rows = [
        {"repo": "r1", "path": "a/B.py", "commit": "c1", "lang": "python",
         "content": "x = 1\n"},
        {"repo": "r2", "path": "a/b.py", "commit": "c2", "lang": "go",
         "content": ""},
    ]
    csv_gz = str(tmp_path / "corpus.csv.gz")
    with gzip.open(csv_gz, "wt", newline="") as f:
        f.write("repo,path,commit,lang,content\n")
        for r in rows:
            f.write(",".join(
                '"' + r[c].replace('"', '""').replace("\n", "\\n") + '"'
                if c == "content" else r[c]
                for c in ["repo", "path", "commit", "lang", "content"]
            ) + "\n")
    jsonl_gz = str(tmp_path / "corpus.jsonl.gz")
    with gzip.open(jsonl_gz, "wt") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    out = sorted(read_corpus_json(jsonl_gz).take_all(), key=lambda r: r["repo"])
    assert [r["repo"] for r in out] == ["r1", "r2"]
    assert out[0]["content"] == "x = 1\n"
    assert out[1]["content"] == ""  # null→'' coercion survives the codec
    out_csv = sorted(read_corpus_csv(csv_gz).take_all(), key=lambda r: r["repo"])
    assert [r["lang"] for r in out_csv] == ["python", "go"]


def test_read_table_blocks_carry_no_schema_metadata():
    """Every sf table is written with ``pandas`` schema metadata, which
    pyarrow 16.1 cannot hash; ``read_table`` drops it inside the read task,
    so neither the dataset schema nor any block carries it."""
    from localhost_address_matching_ray.sources.tables import read_table

    sf_dir = "/root/testdata/sf0.001"
    names = sorted(f[: -len(".parquet")] for f in os.listdir(sf_dir) if f.endswith(".parquet"))
    assert names
    reads = [(n, None) for n in names] + [("documents", ["text", "doc_id"])]
    for name, columns in reads:
        ds = read_table(sf_dir, name, columns=columns)
        assert not ds.schema().base_schema.metadata, name
        for block in ray.get(ds.to_arrow_refs()):
            assert not block.schema.metadata, name
            hash(block.schema)  # raises TypeError with metadata
