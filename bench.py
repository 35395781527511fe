"""Benchmark harness.

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line::

    {"metric": "linkage_wall_sec", "value": <headline seconds>,
     "unit": "sec", "queries": {...per-pipeline seconds...},
     "rows_per_sec": ..., "sf": ..., "num_cpus": N}

``--scaling`` runs the headline pipeline in two FRESH processes
(default num_cpus=4 then 16 — the N vs 4N pair; override via
GRAFT_SCALING_LO/HI) on the same input — the sandbox proxy for the
north_rule's cluster-size criterion — and prints throughput at both plus
scaling efficiency.

The linkage corpus is the deterministic fixture generator at bench scale
(FIXTURES.md), generated once and cached as Parquet under /tmp (generation
is excluded from timing; an untimed warm-read precedes measurement).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_ROWS = int(os.environ.get("GRAFT_BENCH_ROWS", "250000"))
#: realistic source-file sizes (~3 KB) — the domain the 100 TB target implies;
#: tiny synthetic docs under-weight compute vs coordination
BENCH_MIN_LINES = 25
BENCH_MAX_LINES = 75
SEED = 42


def _bench_corpus_path() -> str:
    return f"/tmp/linkage_bench/corpus_v2_n{BENCH_ROWS}_s{SEED}"


def ensure_bench_corpus() -> str:
    """Generate-and-cache the planted-cluster corpus (untimed)."""
    import pyarrow.parquet as pq

    path = _bench_corpus_path()
    marker = os.path.join(path, "_done")
    if not os.path.exists(marker):
        from localhost_address_matching_ray.fixtures import CorpusSpec, generate_corpus

        os.makedirs(path, exist_ok=True)
        tables = generate_corpus(
            CorpusSpec(
                n_base=BENCH_ROWS, seed=SEED,
                hot_cluster_size=max(600, BENCH_ROWS // 50),
                min_lines=BENCH_MIN_LINES, max_lines=BENCH_MAX_LINES,
            )
        )
        # many part files: Ray's parquet read parallelizes per file — one
        # giant file means one decode task (and isn't resumable either)
        corpus = tables["corpus"]
        os.makedirs(os.path.join(path, "corpus"), exist_ok=True)
        n_parts = 32
        step = -(-corpus.num_rows // n_parts)
        for i in range(n_parts):
            part = corpus.slice(i * step, step)
            if part.num_rows:
                pq.write_table(
                    part, os.path.join(path, "corpus", f"part-{i:03d}.parquet"),
                    row_group_size=8192,
                )
        pq.write_table(tables["labeled_pairs"], os.path.join(path, "labeled_pairs.parquet"))
        with open(marker, "w") as f:
            f.write("ok")
    return path


def run_linkage() -> dict:
    import pyarrow.parquet as pq
    import ray.data

    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.pipelines.eval import pairwise_f1
    from localhost_address_matching_ray.pipelines.linkage import link_corpus

    path = ensure_bench_corpus()
    corpus_dir = os.path.join(path, "corpus")
    files = sorted(os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir))
    # warm OS page cache (untimed)
    n_rows = sum(pq.read_table(f).num_rows for f in files)
    cfg = PipelineConfig(feature_concurrency=max(2, NUM_CPUS - 2))
    # split the read into ≥4 blocks per feature actor: finer blocks cost a
    # read-task each (no shuffle — parquet row groups are the split points)
    # and remove the last-wave actor-idle tail in every downstream stage
    onb = max(32, 4 * cfg.feature_concurrency)
    t0 = time.time()
    corpus = ray.data.read_parquet(corpus_dir, override_num_blocks=onb)
    res = link_corpus(corpus, cfg)
    n_out = res["clusters"].count()
    sec = time.time() - t0

    lp = pq.read_table(os.path.join(path, "labeled_pairs.parquet"))
    report = pairwise_f1(res["clusters"], lp)
    return {
        "sec": sec, "rows": n_rows, "rows_out": n_out,
        "rows_per_sec": n_rows / sec, "f1": report.f1,
    }


def run_query(name: str) -> float:
    from localhost_address_matching_ray.pipelines.queries import REGISTRY

    t0 = time.time()
    ds = REGISTRY[name].fn(SF_DIR)
    import ray.data

    if isinstance(ds, ray.data.Dataset):
        ds.count()
    return time.time() - t0


SIDE_QUERIES = [
    "q1_pricing_summary", "events_hourly_windows", "doc_ngram_dup_pairs",
    "doc_minhash_lsh_pairs", "ann_topk", "corpus_exact_dedup",
    # round-4 operator families: temporal joins, window stats, anti join
    "events_asof_join", "events_user_running_stats",
    "customers_without_big_orders",
    # round-4 session-3 families: fuzzy edit-distance verify, rollup,
    # pivot, collocations
    "corpus_fuzzy_pairs", "orders_rollup", "events_pivot_daily",
    "doc_bigram_lift", "part_soundex_blocks", "part_fuzzy_matches",
    "orders_priority_quantiles_cont", "events_cumulative_users",
    # round-4 session-4 families: heavy relational top-k, bit-exact
    # Jaro-Winkler pair kernel, gap-filled windows, moment-exact stats
    "q10_returned_revenue", "corpus_stem_jw_pairs",
    "events_gapfill_hourly", "lineitem_qty_disc_corr",
    # round-4 session-5 families: window frames, CUBE, BM25 retrieval,
    # stratified sampling
    "events_user_moving_avg", "orders_cube", "doc_bm25_search",
    "doc_stratified_sample", "orders_priority_share",
    "customers_above_nation_avg", "part_size_brand_mode",
    "events_daily_approx_users",
    # round-4 session-6 families: repetition gate, decontamination,
    # sequence chunking
    "doc_repetition_filter", "doc_decontaminate", "doc_chunk_windows",
    # round-4 session-7 families: widest join tree (q7), cohort retention,
    # Markov transitions, HAVING-then-join-back (q18)
    "q7_nation_trade", "events_cohort_retention",
    "events_type_transitions", "q18_big_orders", "doc_pack_offsets",
    "events_daily_distinct_users", "orders_priority_mad",
    # round-5: broadcast-semi-join q3 / join-free q5 (bucketed-fold +
    # key-broadcast rewrites; see BASELINE.md round-5 session 1)
    "q3_top_orders", "q5_region_revenue",
]


def calibration_sec() -> float:
    """Fixed single-thread probe (~1 s nominal): host-level co-tenancy on
    this virtualized box is INVISIBLE to guest loadavg and steal accounting
    (measured: fixed-work wall swings ~1.6× while loadavg reads 0.2 and
    /proc/stat steal stays 0), so every bench JSON carries this probe's wall
    time — a slow headline with a slow probe is box weather, not code. The
    work is BLAS-free (sort + hash-mix) so thread-pool config can't skew it."""
    import numpy as np

    rng = np.random.RandomState(7)
    x = rng.randint(0, 2**62, size=1 << 21).astype(np.uint64)

    def rep(v):
        y = np.sort(v)
        return (y ^ (y >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)

    with np.errstate(over="ignore"):
        x = rep(x)  # untimed warm-up: first rep pays page faults
        t0 = time.time()
        for _ in range(24):
            x = rep(x)
    return round(time.time() - t0, 3)


def calibration_par_sec(n_threads: int = 16) -> float:
    """Aggregate-throughput probe: the same fixed work fanned across
    ``n_threads`` GIL-releasing numpy sorts. The single-thread probe can read
    normal while the HOST caps aggregate guest CPU (parallel wall inflates) —
    the failure mode that actually moves this repo's 32-way numbers."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    rng = np.random.RandomState(11)
    arrays = [rng.randint(0, 2**62, size=1 << 21).astype(np.uint64)
              for _ in range(n_threads)]

    def work(x):
        with np.errstate(over="ignore"):
            for _ in range(6):
                y = np.sort(x)
                x = (y ^ (y >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        return x[0]

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(work, arrays))  # untimed warm-up
        t0 = time.time()
        list(pool.map(work, arrays))
    return round(time.time() - t0, 3)


def wait_quiet() -> None:
    """Bounded wait for a quiet co-tenant window: this shared box's external
    load (sampled at 7-15 of 32 cores during round-3/4 campaigns, arriving in
    ~10-20 min episodes) suppresses any single timing by up to ~2.7×. Waiting
    (≤4 min by default, bounded so an unattended run never stalls) for 1-min
    loadavg below GRAFT_QUIET_LOAD measures the system under test, not the
    co-tenant; disable with GRAFT_SCALING_WAIT_QUIET=0. The loadavg brackets
    in the output JSON make a weather-skewed number diagnosable either way."""
    if os.environ.get("GRAFT_SCALING_WAIT_QUIET", "1") == "0":
        return
    thr = float(os.environ.get("GRAFT_QUIET_LOAD", "2.5"))
    # co-tenant episodes on this box last 10-20 min (measured): a 4-min cap
    # timed out inside most episodes, so the bound is one episode length
    deadline = time.time() + float(os.environ.get("GRAFT_QUIET_MAX_WAIT", "900"))
    while time.time() < deadline and os.getloadavg()[0] > thr:
        time.sleep(15)
    # loadavg only sees GUEST load; host-level co-tenancy shows up solely in
    # the fixed-work probes (measured: calib_par_sec swings 0.35 → 1.14 on
    # this box while guest loadavg reads ~0). Extend the bounded wait while
    # the parallel probe reads a slow window — the headline measures the
    # engine, not the neighbor. Threshold 0.90 sits between the nominal band
    # (0.68-0.82) and the measured slow episodes (≥1.0).
    pthr = float(os.environ.get("GRAFT_QUIET_CALIB_PAR", "0.90"))
    while time.time() < deadline and calibration_par_sec() > pthr:
        time.sleep(15)


def main() -> None:
    import ray

    from localhost_address_matching_ray.config import object_store_args

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR", **object_store_args(),
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    ensure_bench_corpus()  # untimed generation/caching before the quiet gate
    wait_quiet()
    load0 = os.getloadavg()[0]
    calib = calibration_sec()
    calib_par = calibration_par_sec()
    link = run_linkage()
    load1 = os.getloadavg()[0]
    queries = {"linkage": round(link["sec"], 3)}
    # scaling children time the headline only — side queries just add noise
    if os.environ.get("GRAFT_LINKAGE_ONLY", "0").lower() in ("", "0", "false"):
        for q in SIDE_QUERIES:
            queries[q] = round(run_query(q), 3)

    out = {
        "metric": "linkage_wall_sec",
        "value": round(link["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "rows": link["rows"],
        "rows_per_sec": round(link["rows_per_sec"], 1),
        "f1": round(link["f1"], 4),
        "sf": SF_DIR.rstrip("/").split("sf")[-1],
        "num_cpus": NUM_CPUS,
        # co-tenant load brackets (1-min loadavg before/after the headline):
        # this box carries external load episodes; a skewed number is
        # diagnosable from the JSON alone
        "loadavg": [round(load0, 2), round(load1, 2)],
        # fixed-work box-speed probes (see calibration_sec /
        # calibration_par_sec): compare across JSONs before comparing
        # headline seconds
        "calib_sec": calib,
        "calib_par_sec": calib_par,
    }
    ray.shutdown()
    print(json.dumps(out))


def scaling() -> None:
    """Fresh-process runs at 8 and 32 CPUs on the same input."""
    ensure_bench_corpus()  # shared, cached, warmed by each child

    def run_once(ncpu: int) -> dict:
        # children must start back-to-back (the pairing rationale below), so
        # the round-level quiet gate runs in the parent, not in each child
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_LINKAGE_ONLY="1",
                   GRAFT_SCALING_WAIT_QUIET="0")
        last_err = ""
        for attempt in range(2):  # one retry: raylet startup is flaky under load
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__)], env=env,
                capture_output=True, text=True,
            )
            if res.returncode == 0:
                return json.loads(res.stdout.strip().splitlines()[-1])
            last_err = res.stderr[-2000:]
            print(f"# run_once(num_cpus={ncpu}) attempt {attempt} failed:\n{last_err}",
                  file=sys.stderr)
        raise RuntimeError(f"bench subprocess failed twice at {ncpu} CPUs:\n{last_err}")

    lo = int(os.environ.get("GRAFT_SCALING_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALING_HI", "16"))
    # INTERLEAVED rounds of (lo, hi): shared-box throughput drifts over tens
    # of minutes (measured same-code swings of ±35%-50% within one day), so
    # running all-lo then all-hi aliases that drift straight into the ratio.
    # A (lo, hi) pair runs back-to-back inside one round — drift cancels
    # within the pair — and the reported efficiency is the MEDIAN of the
    # per-round ratios (a best-of estimator would let each level pick its
    # luckiest run independently and bias the ratio).
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "3"))
    # the module-level wait_quiet gates each round: external load suppresses
    # the hi-CPU leg proportionally more than the lo leg, biasing every
    # measured ratio down

    rounds = []
    for i in range(repeats):
        wait_quiet()
        # co-tenant load sample (1-min loadavg) brackets each round so a
        # weather-skewed ratio is diagnosable from the JSON alone
        load0 = os.getloadavg()[0]
        # ALTERNATE the within-round order: drift is often monotone across
        # a round (a co-tenant waking up mid-round always lands on whichever
        # level runs second) — alternating lo-hi / hi-lo symmetrizes it
        if i % 2 == 0:
            r_lo, r_hi = run_once(lo), run_once(hi)
            order = "lo-hi"
        else:
            r_hi, r_lo = run_once(hi), run_once(lo)
            order = "hi-lo"
        load1 = os.getloadavg()[0]
        eff = (r_hi["rows_per_sec"] / r_lo["rows_per_sec"]) / (hi / lo)
        rounds.append({
            "r_lo": r_lo, "r_hi": r_hi, "eff": eff, "order": order,
            "loadavg": [round(load0, 2), round(load1, 2)],
        })
        print(f"# round {i} ({order}): lo={r_lo['value']}s hi={r_hi['value']}s "
              f"eff={eff:.3f} loadavg={load0:.1f}->{load1:.1f} "
              f"calib={r_lo.get('calib_sec')}/{r_hi.get('calib_sec')}",
              file=sys.stderr)
    # lower-middle for even N (rounds[n//2] would be the MAX of two — the
    # best-of bias again); report efficiencies in RUN order so box-weather
    # drift stays diagnosable from the JSON
    med = sorted(rounds, key=lambda r: r["eff"])[(len(rounds) - 1) // 2]
    # Secondary, noise-floor estimate: co-tenant interference is strictly
    # additive (it can only slow a leg down), so the MIN over each leg
    # population is the least-contended observation of that leg — the
    # standard timeit rationale. Pairing min(lo) with min(hi) estimates the
    # calm-box efficiency. It is reported ALONGSIDE the per-round median
    # (which stays the primary, pairing-honest number), never instead of it:
    # the best-of bias warned about above applies to presenting a lucky
    # PAIRED round as representative, not to bracketing the noise floor.
    min_lo = min(r["r_lo"]["value"] for r in rounds)
    min_hi = min(r["r_hi"]["value"] for r in rounds)
    print(json.dumps({
        "metric": "scaling_efficiency",
        "cpus_lo": lo, "cpus_hi": hi,
        "sec_lo": med["r_lo"]["value"], "sec_hi": med["r_hi"]["value"],
        "rows_per_sec_lo": med["r_lo"]["rows_per_sec"],
        "rows_per_sec_hi": med["r_hi"]["rows_per_sec"],
        "scaling_efficiency": round(med["eff"], 3),
        "round_efficiencies": [round(r["eff"], 3) for r in rounds],
        "round_loadavg": [r["loadavg"] for r in rounds],
        "round_order": [r["order"] for r in rounds],
        # per-leg fixed-work box-speed probes [lo, hi] (see calibration_sec):
        # a round whose two probes differ ran through a weather change — its
        # ratio measures the box, not the code
        "round_calib": [[r["r_lo"].get("calib_sec"), r["r_hi"].get("calib_sec")]
                        for r in rounds],
        "round_calib_par": [[r["r_lo"].get("calib_par_sec"),
                             r["r_hi"].get("calib_par_sec")] for r in rounds],
        "min_sec_lo": min_lo, "min_sec_hi": min_hi,
        "min_pairing_efficiency": round(min_lo / ((hi / lo) * min_hi), 3),
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
