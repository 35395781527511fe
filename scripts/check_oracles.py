"""Replicates the driver's correctness gate locally: run every query in the
registry against its DuckDB oracle and report row-count / schema / value
matches.

Usage: python scripts/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    if isinstance(obj, pd.DataFrame):
        return obj
    raise TypeError(type(obj))


def canon(df):
    """Sort columns by name, rows by all values — the driver's
    order-insensitive compare."""
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main() -> int:
    import duckdb
    import pandas as pd
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    from localhost_address_matching_ray.config import object_store_args

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        **object_store_args(),
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from localhost_address_matching_ray.pipelines.queries import REGISTRY

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    n_pass = n_fail = n_rowsonly = 0
    for name, qd in REGISTRY.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            result = qd.fn(sf_dir)
            if qd.sql is None:
                import ray.data as _rd
                n = result.count() if isinstance(result, _rd.Dataset) else len(result)
                print(f"rows  {name}: {n} rows (no oracle) [{time.time()-t0:.1f}s]")
                n_rowsonly += 1
                continue
            mine = canon(to_pandas(result))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: ray query raised: {e!r}")
            n_fail += 1
            continue
        try:
            oracle = canon(con.execute(qd.sql).df())
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: oracle SQL raised: {e!r}")
            n_fail += 1
            continue
        status = []
        if len(mine) != len(oracle):
            status.append(f"rowcount {len(mine)} vs {len(oracle)}")
        if list(mine.columns) != list(oracle.columns):
            status.append(f"schema {list(mine.columns)} vs {list(oracle.columns)}")
        if not status:
            try:
                pd.testing.assert_frame_equal(
                    mine, oracle, check_dtype=False, check_exact=True
                )
            except AssertionError as e:
                status.append("values: " + str(e).split("\n")[0])
                # show first diff rows
                neq = (mine != oracle).any(axis=1)
                if neq.any():
                    i = neq.idxmax()
                    status.append(f"first diff row {i}: mine={mine.loc[i].to_dict()} oracle={oracle.loc[i].to_dict()}")
        if status:
            print(f"FAIL  {name}: {'; '.join(status)}")
            n_fail += 1
        else:
            print(f"PASS  {name}: {len(mine)} rows [{time.time()-t0:.1f}s]")
            n_pass += 1

    print(f"\n{n_pass} pass, {n_rowsonly} rows-only, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
