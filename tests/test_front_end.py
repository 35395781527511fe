"""The fused linkage front end: normalize and features run as one map
(``normalize_and_extract_features``) over a source that a plain Parquet read
of enough row groups turns into one read task per row group, the map fused
into it, and that any other coarse source gets split once.

Its feature table must equal the two-stage
``extract_features(normalize_corpus(corpus), config)`` row for row, its
clusters must equal those of the checkpointed path (which runs the two
stages apart). A row-group source must run one read-and-feature task per row
group with no split or repartition; any other coarse source must come out
split one block per task, every block within ``batch_size`` rows; and reads
the row-group planner cannot reproduce (a row filter, partition columns,
``include_paths``, too few row groups) must keep that split."""

import os
import re
from dataclasses import replace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from localhost_address_matching_ray.config import DEFAULT_LANG_CONFIGS, PipelineConfig
from localhost_address_matching_ray.fixtures import CorpusSpec, generate_corpus
from localhost_address_matching_ray.pipelines.linkage import link_corpus
from localhost_address_matching_ray.sources.readers import (
    CORPUS_COLUMNS,
    parquet_row_groups,
    read_corpus_parquet,
    read_row_groups,
)
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


def _write_row_groups(table: pa.Table, path: str) -> str:
    """One file of at least 2 × CPUs row groups."""
    groups = 2 * int(ray.cluster_resources()["CPU"])
    pq.write_table(table, path, row_group_size=table.num_rows // groups)
    assert pq.read_metadata(path).num_row_groups >= groups
    return path


def _source(kind: str, table: pa.Table, tmp_path) -> ray.data.Dataset:
    if kind == "one_block":
        return ray.data.from_arrow(table)
    if kind == "row_groups":
        return ray.data.read_parquet(_write_row_groups(table, str(tmp_path / "rg.parquet")))
    n_files = {"three_files": 3, "many_files": 24}[kind]
    return ray.data.read_parquet(_write_files(table, str(tmp_path / kind), n_files))


def _rows_by_id(ds: ray.data.Dataset) -> dict[str, dict]:
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    rows = pa.concat_tables(tables).to_pylist() if tables else []
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
    ("row_groups", "default"),
    ("row_groups", "exact"),
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


def _operators(ds: ray.data.Dataset) -> dict[str, int]:
    """{operator name: tasks} of every operator ``ds.stats()`` lists."""
    stats = ds.stats()
    ops = dict(re.findall(r"Operator \d+ (\S+): (\d+) tasks executed", stats))
    for name in re.findall(r"Operator \d+ (\S+): executed in", stats):
        ops.setdefault(name, 0)
    return {k: int(v) for k, v in ops.items()}


def test_row_group_source_reads_inside_the_feature_task(corpus_table, tmp_path):
    """A one-file source of 2 × CPUs row groups or more runs as one fused
    read-and-feature operator, one task per row group, with no SplitBlocks
    or Repartition in front of it."""
    path = _write_row_groups(corpus_table, str(tmp_path / "rg.parquet"))
    groups = pq.read_metadata(path).num_row_groups
    res = link_corpus(ray.data.read_parquet(path), PipelineConfig(feature_concurrency=2))

    ops = _operators(res["features"])
    assert ops == {"ReadParquetRowGroups->MapBatches(normalize_and_extract)": groups}, ops
    assert res["features"].count() == corpus_table.num_rows
    assert res["clusters"].count() == corpus_table.num_rows


def _edge_source(kind: str, table: pa.Table, tmp_path) -> ray.data.Dataset:
    path = str(tmp_path / f"{kind}.parquet")
    if kind == "zero_rows":
        pq.write_table(table.slice(0, 0), path)
        return ray.data.read_parquet(path)
    if kind == "filtered":
        return ray.data.read_parquet(
            _write_row_groups(table, path), filter=pc.field("lang") != "python"
        )
    # a file with a column the corpus reader projects away
    extra = table.append_column("extra", pa.array(range(table.num_rows), pa.int64()))
    return read_corpus_parquet(_write_row_groups(extra, path))


@pytest.mark.parametrize("kind,replanned", [
    ("zero_rows", False), ("filtered", False), ("projected", True),
])
def test_edge_sources_match_two_stage(kind, replanned, corpus_table, tmp_path):
    """A zero-row file and a ``filter=`` read keep today's split; a
    ``read_corpus_parquet`` projection is re-planned by row group. Each
    gives the two-stage path's features row for row, and a zero-row file
    gives the canonical empty result."""
    config = PipelineConfig(feature_concurrency=2)
    corpus = _edge_source(kind, corpus_table, tmp_path)
    res = link_corpus(corpus, config)

    two_stage = extract_features(
        normalize_corpus(corpus, config.batch_size, config.extra_rules), config
    )
    got, want = _rows_by_id(res["features"]), _rows_by_id(two_stage)
    assert got == want
    assert res["clusters"].count() == len(want)
    if kind == "zero_rows":
        assert not want
        assert res["clusters"].schema().names == ["row_id", "cluster_id"]
    else:
        assert want
        names = "".join(_operators(res["features"]))
        assert ("ParquetRowGroups" in names) == replanned, names


def test_row_group_planner_declines_what_it_cannot_reproduce(corpus_table, tmp_path):
    """``parquet_row_groups`` plans a plain read and a column projection
    (which the row-group read keeps), and returns None for every source it
    cannot reproduce exactly. Nothing here runs a read."""
    path = _write_row_groups(corpus_table, str(tmp_path / "rg.parquet"))
    groups = pq.read_metadata(path).num_row_groups
    hive = tmp_path / "hive" / "lang=python"
    hive.mkdir(parents=True)
    pq.write_table(corpus_table.drop_columns(["lang"]), str(hive / "p.parquet"), row_group_size=50)

    pieces, columns = parquet_row_groups(ray.data.read_parquet(path))
    assert columns is None
    assert [(p, i) for p, i, _, _ in pieces] == [(path, i) for i in range(groups)]
    assert sum(rows for _, _, rows, _ in pieces) == corpus_table.num_rows
    projected = parquet_row_groups(read_corpus_parquet(path))
    assert projected[1] == CORPUS_COLUMNS
    assert read_row_groups(*projected, 4096).schema().names == CORPUS_COLUMNS

    declined = {
        "filter": ray.data.read_parquet(path, filter=pc.field("lang") != "python"),
        "include_paths": ray.data.read_parquet(path, include_paths=True),
        "schema": ray.data.read_parquet(path, schema=pq.read_schema(path)),
        "hive": ray.data.read_parquet(str(tmp_path / "hive")),
        "map": ray.data.read_parquet(path).map_batches(lambda b: b, batch_format="pyarrow"),
        "from_arrow": ray.data.from_arrow(corpus_table),
    }
    for name, ds in declined.items():
        assert parquet_row_groups(ds) is None, name
