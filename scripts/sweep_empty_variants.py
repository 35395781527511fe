"""One-table-at-a-time empty sweep: for each input table, run EVERY
registered query against a copy of the sf dir where only that table is
zero-row. Catches the class of bug the all-empty pytest can't: a query
whose early-return guards on one table but crashes when a DIFFERENT
table it joins against comes back empty (q18's orders-empty ArrowInvalid
was exactly this).

Usage: python scripts/sweep_empty_variants.py [sf_dir] [table ...]
Prints one line per (table, query) failure; exits 0 iff the sweep is clean.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def main() -> int:
    import pyarrow.parquet as pq
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only_tables = sys.argv[2:] or TABLES

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

    failures: list[tuple[str, str, str]] = []
    n_runs = 0
    for table in only_tables:
        variant = tempfile.mkdtemp(prefix=f"empty_{table}_")
        for t in TABLES:
            src = os.path.join(sf_dir, f"{t}.parquet")
            dst = os.path.join(variant, f"{t}.parquet")
            if t == table:
                pq.write_table(pq.read_table(src).slice(0, 0), dst)
            else:
                shutil.copy(src, dst)
        for name, qd in sorted(REGISTRY.items()):
            if name == "linkage_fixture_clusters":
                continue  # generates its own corpus; ignores sf_dir
            n_runs += 1
            try:
                res = qd.fn(variant)
                import ray.data as rd

                n = res.count() if isinstance(res, rd.Dataset) else len(res)
                assert n >= 0
            except Exception as ex:  # noqa: BLE001 - report every failure mode
                failures.append((table, name, f"{type(ex).__name__}: {ex}"))
                print(f"FAIL empty[{table}] {name}: "
                      f"{type(ex).__name__}: {str(ex)[:200]}", flush=True)
        shutil.rmtree(variant, ignore_errors=True)
        print(f"# swept empty[{table}]: "
              f"{len([f for f in failures if f[0] == table])} failures",
              flush=True)
    print(f"{n_runs} runs, {len(failures)} failures")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
