"""The hash-bucket fold (``stages/buckets.py``): every key reaches exactly
one ``fn`` call whatever the width, ``fn`` never sees the tag column, and
the registry queries built on the fold return the same rows at any width."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from localhost_address_matching_ray.functions.hashing import TokenHasher
from localhost_address_matching_ray.stages import buckets
from localhost_address_matching_ray.stages.buckets import bucket_fold, keyed_fold

SF_DIR = "/root/testdata/sf0.001"


def _blocks():
    """Three copies of each of 20 keys, one copy per block."""
    return [
        pa.table({"k": list(range(20)), "s": [f"w{i % 13}" for i in range(20)],
                  "x": [1] * 20})
        for _ in range(3)
    ]


def _per_key(key):
    """One output row per key of the group: the key, its row count, the
    columns the group arrived with and the keys that shared the group."""
    keys = [key] if isinstance(key, str) else key

    def fn(g: pa.Table) -> pa.Table:
        out = g.group_by(keys).aggregate([("x", "sum")])
        n = out.num_rows
        peers = str(sorted(zip(*[out[c].to_pylist() for c in keys])))
        out = out.append_column("cols", pa.array([",".join(g.column_names)] * n))
        return out.append_column("peers", pa.array([peers] * n))

    return fn


@pytest.mark.parametrize("key", ["k", "s", ["k", "s"]])
def test_bucket_fold_folds_each_key_once(key):
    keys = [key] if isinstance(key, str) else key
    ds = ray.data.from_arrow(_blocks())
    whole = pa.concat_tables(_blocks())
    want = whole.group_by(keys).aggregate([("x", "sum")])
    want = sorted(map(tuple, want.to_pandas().values.tolist()))
    runs, got = {}, {}
    for nb in (None, 1, 7):
        got[nb] = pd.DataFrame(bucket_fold(ds, key, _per_key(key), nb).take_all())
        # the tag column never reaches fn
        assert set(got[nb]["cols"]) == {"k,s,x"}
        rows = sorted(map(tuple, got[nb].drop(columns=["cols", "peers"]).values.tolist()))
        # a key split over two buckets would come out as two rows
        assert rows == want
        runs[nb] = rows
    assert runs[1] == runs[7] == runs[None]
    # the workers bucket every key as this process does: the hash has no
    # per-process salt
    mine = buckets._bucket_of(whole, keys, 7, TokenHasher())
    by_bucket: dict = {}
    for b, k in zip(mine, zip(*[whole[c].to_pylist() for c in keys])):
        by_bucket.setdefault(b, set()).add(k)
    assert set(got[7]["peers"]) == {str(sorted(ks)) for ks in by_bucket.values()}


def test_bucket_fold_empty_input_and_union():
    empty = pa.table({"k": pa.array([], pa.int64()), "x": pa.array([], pa.int64())})
    assert bucket_fold(ray.data.from_arrow(empty), "k", _per_key("k"), 7).take_all() == []
    left = ray.data.from_arrow(pa.table({"k": [1, 2], "x": [1, 1]}))
    right = ray.data.from_arrow(pa.table({"k": [2, 3], "x": [1, 1]}))
    rows = bucket_fold([left, right], "k", _per_key("k"), 3).take_all()
    assert sorted((r["k"], r["x_sum"]) for r in rows) == [(1, 1), (2, 2), (3, 1)]


def test_keyed_fold_keeps_dtypes_and_counts():
    ds = ray.data.from_arrow([
        pa.table({"k": [1, 2, 1], "q": [5, 7, 1], "f": [0.5, 0.25, 0.125]}),
        pa.table({"k": [2, 1], "q": [3, 2], "f": [1.0, 2.0]}),
    ])
    out = pa.concat_tables([
        t for t in ray.get(keyed_fold(ds, "k", ["q", "f"], count="n").to_arrow_refs())
        if t.num_columns
    ]).sort_by("k")
    assert out.schema.field("q").type == pa.int64()
    assert out.schema.field("f").type == pa.float64()
    assert out.to_pydict() == {
        "k": [1, 2], "q": [8, 10], "f": [2.625, 1.25], "n": [3, 2],
    }


#: registry queries whose bucketed groupbys run through the fold
FOLDED_QUERIES = [
    "q3_top_orders", "q5_region_revenue", "q10_returned_revenue", "q18_big_orders",
    "events_cumulative_users", "repo_lang_profile", "user_top_event_type",
    "events_user_sessions", "events_asof_join", "events_range_join",
    "events_user_running_stats", "events_user_moving_avg", "events_funnel",
    "customers_without_big_orders", "customers_with_urgent_orders",
    "events_daily_distinct_users", "events_cohort_retention",
    "events_type_transitions", "doc_minhash_lsh_pairs", "doc_simhash_pairs",
    "doc_bigram_lift", "doc_bpe_merges", "embedding_lsh_pairs",
    "embedding_ivf_pairs", "corpus_linkage_clusters",
]


def _sorted_rows(ds) -> list:
    df = ds.to_pandas()
    df = df[sorted(df.columns)]
    return sorted(map(tuple, df.astype(str).values.tolist()))


@pytest.mark.parametrize("name", FOLDED_QUERIES)
def test_registry_rows_do_not_depend_on_fold_width(name, monkeypatch):
    from localhost_address_matching_ray.pipelines.queries import REGISTRY

    fn = REGISTRY[name].fn
    default = _sorted_rows(fn(SF_DIR))
    for width in (1, 7):
        monkeypatch.setattr(buckets, "bucket_width", lambda width=width: width)
        assert _sorted_rows(fn(SF_DIR)) == default, (name, width)
