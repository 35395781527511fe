"""Mid-pipeline resume demonstration at the 1M soak (BASELINE.md evidence).

The checkpoint machinery (state/checkpoint.py — manifest-last commit, the
reference's pickle-cache semantics at ``data/ptt_data/map.py:159-203``
generalized to Parquet stage snapshots) is unit-tested; this script proves
the failure-recovery story END TO END at bench scale:

1. **cold**: a full checkpointed run over the cached 1M-row bench corpus
   (fresh process, 32 CPUs) — the reference wall time.
2. **killed**: the same run in a fresh process, SIGKILLed the moment the
   ``features`` stage manifest commits (i.e. mid-pipeline, after the
   dominant ~60% of wall but before edges/CC/assign).
3. **resume**: the same command again with the same ``--checkpoint-dir`` —
   must skip the normalized+features stages via their manifests, recompute
   only edges→clusters, and land the same F1 = 1.0.

Prints one JSON line: cold/resume wall seconds, wall saved, the kill point,
and the resumed run's F1.

Usage:  python scripts/resume_demo.py            # parent orchestrator
        python scripts/resume_demo.py --child    # one measured run (internal)
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CKPT = os.environ.get("GRAFT_RESUME_CKPT", "/tmp/linkage_resume_demo_ckpt")
# Pin the corpus size INTO the environment so bench.ensure_bench_corpus
# (whose own default is 250k) and every child process build the same corpus
# the FINGERPRINT below describes — a split default here once stamped 1M
# checkpoints over a 250k run.
os.environ.setdefault("GRAFT_BENCH_ROWS", "1000000")
ROWS = int(os.environ["GRAFT_BENCH_ROWS"])
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
FINGERPRINT = f"bench_corpus_v2_n{ROWS}_s42"


def child() -> None:
    """One checkpointed linkage run; prints JSON {sec, rows, f1}."""
    import ray

    from localhost_address_matching_ray.config import object_store_args

    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR", **object_store_args())
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq
    import ray.data

    from bench import ensure_bench_corpus
    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.pipelines.eval import pairwise_f1
    from localhost_address_matching_ray.pipelines.linkage import link_corpus

    path = ensure_bench_corpus()
    corpus_dir = os.path.join(path, "corpus")
    # warm page cache untimed (matches bench.py methodology)
    n_rows = sum(pq.read_table(f).num_rows
                 for f in (os.path.join(corpus_dir, f) for f in os.listdir(corpus_dir))
                 if f.endswith(".parquet"))
    cfg = PipelineConfig(checkpoint_dir=CKPT,
                         feature_concurrency=max(2, CPUS - 2))
    t0 = time.time()
    res = link_corpus(ray.data.read_parquet(corpus_dir), cfg,
                      input_fingerprint=FINGERPRINT)
    res["clusters"].count()
    sec = time.time() - t0
    rep = pairwise_f1(res["clusters"],
                      pq.read_table(os.path.join(path, "labeled_pairs.parquet")))
    print(json.dumps({"sec": round(sec, 1), "rows": n_rows,
                      "f1": round(rep.f1, 4)}))
    ray.shutdown()


def run_child(timeout: float = 1800) -> dict:
    res = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                         capture_output=True, text=True, timeout=timeout)
    if res.returncode != 0:
        raise RuntimeError(f"child failed:\n{res.stderr[-3000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def killed_run() -> float:
    """Start a child and SIGKILL its whole process group (driver + raylet)
    the moment the features-stage manifest lands. Returns seconds ran."""
    marker = os.path.join(CKPT, "features", "_manifest.json")
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    t0 = time.time()
    try:
        while proc.poll() is None:
            if os.path.exists(marker):
                break
            time.sleep(0.5)
        ran = time.time() - t0
        if proc.poll() is not None:
            raise RuntimeError("child finished before the features manifest "
                               "appeared — kill point never reached")
    finally:
        try:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    time.sleep(3)  # let the object store / raylet sockets die
    return ran


def main() -> None:
    import shutil

    shutil.rmtree(CKPT, ignore_errors=True)
    cold = run_child()
    print(f"# cold checkpointed run: {cold['sec']}s f1={cold['f1']}",
          file=sys.stderr)

    shutil.rmtree(CKPT, ignore_errors=True)
    t_killed = killed_run()
    print(f"# killed after features manifest at {t_killed:.1f}s", file=sys.stderr)

    resume = run_child()
    print(f"# resumed run: {resume['sec']}s f1={resume['f1']}", file=sys.stderr)

    print(json.dumps({
        "metric": "checkpoint_resume",
        "rows": cold["rows"],
        "num_cpus": CPUS,
        "cold_sec": cold["sec"],
        "killed_after_sec": round(t_killed, 1),
        "resume_sec": resume["sec"],
        "wall_saved_sec": round(cold["sec"] - resume["sec"], 1),
        "f1_cold": cold["f1"],
        "f1_resume": resume["f1"],
    }))


if __name__ == "__main__":
    if "--child" in sys.argv:
        child()
    else:
        main()
