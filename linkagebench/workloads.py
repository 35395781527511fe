"""The benchmark's workloads: their inputs, one job each, and the checks of
every job's output against answers computed here, apart from the package.

``link_long`` and ``link_hot`` run ``link_corpus`` over a planted-cluster
corpus written to Parquet. Its expected answers are recomputed with
``hashlib`` from the corpus columns and the planted cluster membership:
row ids, cluster ids (the minimum content sha256 of each planted cluster)
and pairwise F1 on the labeled pairs.

``query_mix`` makes one pass over ``QUERIES`` on the shared sf0.01 tables.
Each result is compared exactly with DuckDB running the query's registered
oracle SQL, as ``scripts/check_oracles.py`` compares them.
"""

from __future__ import annotations

import hashlib
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq

#: The project's shared sf0.01 tables (TESTDATA.md), on which the oracle
#: gate runs; read-only.
TESTDATA = "/root/testdata/sf0.01"

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]

#: One ``query_mix`` job is one pass over this list, in this order.
QUERIES = [
    "q1_pricing_summary", "q3_top_orders", "q7_nation_trade",
    "q18_big_orders", "orders_rollup", "events_asof_join",
    "events_hourly_windows", "events_gapfill_hourly", "corpus_exact_dedup",
    "doc_ngram_dup_pairs", "doc_bigram_lift", "corpus_fuzzy_pairs",
    "corpus_linkage_clusters", "ann_topk",
]

#: ``fixtures.CorpusSpec`` fields per linkage workload; the seed is added.
LINK_SPECS = {
    # long files, no hot cluster: normalize and features dominate
    "link_long": dict(n_base=20000, min_lines=25, max_lines=75),
    # short files, many exact / rename / minor-edit copies and one hot
    # cluster far above max_block_rows: blocking, pairs and verify dominate
    "link_hot": dict(
        n_base=20000, min_lines=4, max_lines=10, p_exact=0.20,
        p_rename=0.20, p_minor_edit=0.20, hot_cluster_size=3000,
    ),
}


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def collect(ds) -> pa.Table:
    """Every block of a Dataset, concatenated on this process."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


class LinkWorkload:
    """``link_corpus(read_parquet(corpus), PipelineConfig())`` over the
    seed's planted-cluster corpus."""

    ops_per_job = 1

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        from localhost_address_matching_ray.fixtures import CorpusSpec, generate_corpus

        tables = generate_corpus(CorpusSpec(seed=seed, **LINK_SPECS[name]))
        corpus = tables["corpus"]
        self.path = os.path.join(workdir, f"{name}.parquet")
        pq.write_table(corpus, self.path, row_group_size=4096)
        self.rows = corpus.num_rows

        cols = corpus.to_pydict()
        row_ids = [
            sha256_hex(f"{r}|{p}|{c}")[:16]
            for r, p, c in zip(cols["repo"], cols["path"], cols["commit"])
        ]
        if len(set(row_ids)) != len(row_ids):
            raise ValueError("the generated corpus repeats a row id")
        # the fixture's own cluster ids serve only as planted-group labels;
        # each group's expected id is recomputed here
        planted = tables["clusters_expected"].column("cluster_id").to_pylist()
        group_id: dict[str, str] = {}
        for label, content in zip(planted, cols["content"]):
            h = sha256_hex(content)
            if label not in group_id or h < group_id[label]:
                group_id[label] = h
        self.expected = {rid: group_id[g] for rid, g in zip(row_ids, planted)}
        lp = tables["labeled_pairs"].to_pydict()
        self.pairs = list(zip(lp["left_id"], lp["right_id"], lp["is_match"]))

    def job(self) -> pa.Table:
        import ray.data

        from localhost_address_matching_ray.config import PipelineConfig
        from localhost_address_matching_ray.pipelines.linkage import link_corpus

        res = link_corpus(ray.data.read_parquet(self.path), PipelineConfig())
        return collect(res["clusters"])

    def check(self, clusters: pa.Table) -> tuple[int, list[str]]:
        """(failed operations, problems) of one job's ``(row_id,
        cluster_id)`` output."""
        return 0, self.check_clusters(clusters)

    def check_clusters(self, clusters: pa.Table) -> list[str]:
        if clusters.num_rows == 0:
            return ["no output rows"]
        got = dict(zip(
            clusters.column("row_id").to_pylist(),
            clusters.column("cluster_id").to_pylist(),
        ))
        problems = []
        if len(got) != clusters.num_rows:
            problems.append(f"{clusters.num_rows - len(got)} repeated row ids")
        if got.keys() != self.expected.keys():
            problems.append(
                f"row-id sets differ: {len(got.keys() - self.expected.keys())} "
                f"unexpected, {len(self.expected.keys() - got.keys())} missing"
            )
        wrong = sum(got.get(r) != c for r, c in self.expected.items())
        if wrong:
            problems.append(f"{wrong} rows not in their planted cluster's id")
        tp = fp = fn = 0
        for a, b, is_match in self.pairs:
            same = got.get(a) is not None and got.get(a) == got.get(b)
            tp += same and is_match
            fp += same and not is_match
            fn += is_match and not same
        if fp or fn:
            f1 = 2 * tp / (2 * tp + fp + fn)
            problems.append(f"pairwise F1 {f1:.4f} (fp {fp}, fn {fn})")
        return problems


def to_pandas(obj):
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df):
    """Columns by name, rows by every value: an order-insensitive compare."""
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(mine, oracle) -> str | None:
    """None when equal (exactly, order-insensitive), else what differs."""
    import pandas as pd

    mine = canon(mine)
    if len(mine) != len(oracle):
        return f"{len(mine)} rows, oracle {len(oracle)}"
    if list(mine.columns) != list(oracle.columns):
        return f"columns {list(mine.columns)}, oracle {list(oracle.columns)}"
    try:
        pd.testing.assert_frame_equal(mine, oracle, check_dtype=False, check_exact=True)
    except AssertionError as e:
        return "values: " + str(e).split("\n")[0]
    return None


def query_tables(sql: str) -> list[str]:
    return [t for t in TABLES if re.search(rf"\b{t}\b", sql)]


class QueryWorkload:
    """One pass over ``QUERIES``; each result is checked against DuckDB."""

    ops_per_job = len(QUERIES)

    def __init__(self) -> None:
        import duckdb

        from localhost_address_matching_ray.pipelines.queries import REGISTRY

        con = duckdb.connect()
        for t in TABLES:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{TESTDATA}/{t}.parquet')"
            )
        table_rows = {
            t: pq.ParquetFile(f"{TESTDATA}/{t}.parquet").metadata.num_rows
            for t in TABLES
        }
        self.oracle = {q: canon(con.execute(REGISTRY[q].sql).df()) for q in QUERIES}
        con.close()
        self.rows = sum(
            table_rows[t] for q in QUERIES for t in query_tables(REGISTRY[q].sql)
        )

    def run_query(self, name: str):
        from localhost_address_matching_ray.pipelines.queries import REGISTRY

        result = REGISTRY[name].fn(TESTDATA)
        return result, to_pandas(result)

    def job(self) -> dict:
        """{query: its result as a DataFrame, or the exception it raised}."""
        out: dict = {}
        for q in QUERIES:
            try:
                out[q] = self.run_query(q)[1]
            except Exception as e:  # noqa: BLE001 — counted as a failed query
                out[q] = e
        return out

    def check(self, results: dict) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for q in QUERIES:
            r = results[q]
            if isinstance(r, Exception):
                failed += 1
                problems.append(f"{q} raised {r!r}")
                continue
            diff = compare(r, self.oracle[q])
            if diff:
                problems.append(f"{q}: {diff}")
        return failed, problems


def make(name: str, seed: int, workdir: str):
    if name in LINK_SPECS:
        return LinkWorkload(name, seed, workdir)
    if name == "query_mix":
        return QueryWorkload()
    raise ValueError(f"unknown workload {name!r}")

