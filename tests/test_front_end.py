"""The fused linkage front end: a coarse source is split once, then
normalize and features run as one map (``normalize_and_extract_features``).

Its feature table must equal the two-stage
``extract_features(normalize_corpus(corpus), config)`` row for row, its
clusters must equal those of the checkpointed path (which runs the two
stages apart), and a coarse source must come out split one block per task,
every block within ``batch_size`` rows."""

import os
from dataclasses import replace

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from localhost_address_matching_ray.config import DEFAULT_LANG_CONFIGS, PipelineConfig
from localhost_address_matching_ray.fixtures import CorpusSpec, generate_corpus
from localhost_address_matching_ray.pipelines.linkage import link_corpus
from localhost_address_matching_ray.stages.feature_stage import extract_features
from localhost_address_matching_ray.stages.normalize_stage import normalize_corpus

#: rows that leave the all-ASCII fast paths, plus empty and blank content
EDGE_CONTENTS = [
    "",
    "  \n\t ",
    "café def f(x):\n    return x + 1  # nähe",
    "int a;\x1c int b; // tail\x1f\nint c;",
    "é 　 wide space /* block */ v7",
    "x\x1d\x1ey import os",
    "plain v12 text v3 return",
]


@pytest.fixture(scope="module")
def corpus_table() -> pa.Table:
    base = generate_corpus(CorpusSpec(n_base=60, seed=7))["corpus"]
    langs = sorted(DEFAULT_LANG_CONFIGS) + ["cobol"]  # "cobol": no lang config
    rows = {c: [] for c in base.column_names}
    for li, lang in enumerate(langs):
        for ci, content in enumerate(EDGE_CONTENTS):
            # each edge content appears under two repos, so it also clusters
            for copy in range(2):
                rows["repo"].append(f"edge{copy}/r{li}")
                rows["path"].append(f"src/m{ci}.x")
                rows["commit"].append(f"edge-{li}-{ci}-{copy}")
                rows["lang"].append(lang)
                rows["content"].append(content)
    edge = pa.table(rows).cast(base.schema)
    return pa.concat_tables([base, edge])


def _write_files(table: pa.Table, directory: str, n_files: int) -> str:
    os.makedirs(directory)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step), os.path.join(directory, f"part{i:03d}.parquet"))
    return directory


def _source(kind: str, table: pa.Table, tmp_path) -> ray.data.Dataset:
    if kind == "one_block":
        return ray.data.from_arrow(table)
    n_files = {"three_files": 3, "many_files": 24}[kind]
    return ray.data.read_parquet(_write_files(table, str(tmp_path / kind), n_files))


def _rows_by_id(ds: ray.data.Dataset) -> dict[str, dict]:
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    rows = pa.concat_tables(tables).to_pylist()
    out = {r["row_id"]: r for r in rows}
    assert len(out) == len(rows), "repeated row ids"
    return out


CONFIGS = {
    "default": PipelineConfig(feature_concurrency=2),
    "extra_rules": PipelineConfig(feature_concurrency=2, extra_rules=((r"v\d+", "vN"),)),
    "exact": PipelineConfig(feature_concurrency=2, verify_mode="exact"),
}


@pytest.mark.parametrize("kind,config_name", [
    ("one_block", "default"),
    ("one_block", "extra_rules"),
    ("one_block", "exact"),
    ("three_files", "default"),
    ("many_files", "extra_rules"),
])
def test_fused_front_end_matches_two_stage(kind, config_name, corpus_table, tmp_path):
    config = CONFIGS[config_name]
    corpus = _source(kind, corpus_table, tmp_path)
    fused = link_corpus(corpus, config)

    two_stage = extract_features(
        normalize_corpus(corpus, config.batch_size, config.extra_rules), config
    )
    got, want = _rows_by_id(fused["features"]), _rows_by_id(two_stage)
    assert got.keys() == want.keys()
    assert len(got) == corpus_table.num_rows
    for rid, row in want.items():
        assert got[rid] == row, rid

    staged = link_corpus(corpus, replace(config, checkpoint_dir=str(tmp_path / "ckpt")))
    clusters = {r["row_id"]: r["cluster_id"] for r in fused["clusters"].take_all()}
    staged_clusters = {r["row_id"]: r["cluster_id"] for r in staged["clusters"].take_all()}
    assert clusters == staged_clusters
    # every edge content's two copies land in one cluster
    rid_of = {row["commit"]: rid for rid, row in want.items()}
    for commit, rid in rid_of.items():
        if commit.startswith("edge-") and commit.endswith("-0"):
            assert clusters[rid] == clusters[rid_of[commit[:-1] + "1"]], commit


@pytest.mark.parametrize("batch_size", [64, 16])
def test_coarse_source_is_split_one_block_per_task(batch_size, tmp_path):
    """A one-file source of 192 rows (3 × batch_size at 64): the feature
    table has at least one block per CPU, a multiple of the CPUs, and no
    block above ``batch_size`` rows (at batch_size 16 the row bound, not the
    parallelism floor, sets the count)."""
    table = generate_corpus(CorpusSpec(n_base=160, seed=3))["corpus"].slice(0, 192)
    path = str(tmp_path / "one.parquet")
    pq.write_table(table, path)
    corpus = ray.data.read_parquet(path)
    config = PipelineConfig(feature_concurrency=2, batch_size=batch_size)
    res = link_corpus(corpus, config)

    cpus = int(ray.cluster_resources()["CPU"])
    sizes = [t.num_rows for t in ray.get(res["features"].to_arrow_refs())]
    assert sum(sizes) == 192
    assert len(sizes) >= cpus and len(sizes) % cpus == 0, sizes
    assert max(sizes) <= batch_size, sizes
    assert res["clusters"].count() == 192
