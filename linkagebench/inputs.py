"""Rebuild one workload's inputs and expected answers from scratch, into a
directory, for inspection outside a benchmark run:

    python3 linkagebench/inputs.py --workload link_hot --seed 7 --out /tmp/link_hot_7

Linkage workloads write the corpus (``<workload>.parquet``), the expected
``(row_id, cluster_id)`` of every row (``expected_clusters.parquet``) and
the labeled pairs (``labeled_pairs.parquet``). ``query_mix`` writes each
query's DuckDB oracle answer (``oracle_<query>.parquet``); its input tables
are the read-only ``workloads.TESTDATA``. Run it from a checkout's root.
"""

import argparse
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

import workloads as W


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*W.LINK_SPECS, "query_mix"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    sys.path.insert(0, os.getcwd())
    os.makedirs(args.out, exist_ok=True)
    wl = W.make(args.workload, args.seed, args.out)
    if isinstance(wl, W.LinkWorkload):
        pq.write_table(pa.table({
            "row_id": list(wl.expected), "cluster_id": list(wl.expected.values()),
        }), os.path.join(args.out, "expected_clusters.parquet"))
        left, right, is_match = zip(*wl.pairs)
        pq.write_table(pa.table({
            "left_id": left, "right_id": right, "is_match": is_match,
        }), os.path.join(args.out, "labeled_pairs.parquet"))
    else:
        for q, df in wl.oracle.items():
            pq.write_table(pa.Table.from_pandas(df), os.path.join(args.out, f"oracle_{q}.parquet"))


if __name__ == "__main__":
    main()
