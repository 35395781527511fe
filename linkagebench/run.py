"""Benchmark of the linkage engine: one workload and one seed per process.

    python3 linkagebench/run.py --workload link_long --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the package is imported from the
directory above this one. It makes the seed's inputs, starts a local Ray
session with the test fixture's arguments and a fixed 1 GiB object store,
runs one untimed warm-up job and then whole jobs, one at a time, until the
jobs have taken ``--seconds``. It checks every job's output against answers
computed apart from the package and prints one JSON object as the last line
of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run (``layers.py``) with ``--trace 1``.
README.md describes workloads and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "localhost_address_matching_ray"
#: as in tests/conftest.py; at 1 CPU ``ann_topk`` does not finish
NUM_CPUS = 4
#: Ray's object store, the same in every run (see ``object_store_bytes``)
OBJECT_STORE_BYTES = 2**30

END_TO_END = {
    "setup_s": "s", "job_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB",
}

class PeakRss:
    """This process's peak resident memory over a ``with`` block, sampled
    every 5 ms from /proc/self/statm."""

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20

    def _sample(self) -> None:
        while True:
            with open("/proc/self/statm") as f:
                rss = int(f.read().split()[1]) * self._page_mb
            self.peak_mb = max(self.peak_mb, rss)
            if self._stop.wait(0.005):
                return

    def __enter__(self):
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def descendants() -> list[int]:
    """Every live process below this one (Ray's GCS, raylet, agents and
    workers), read from /proc."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(d))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def reap() -> None:
    """Collect this process's exited children."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def stop_ray() -> None:
    """Shut the Ray session down and return only when every process it
    started has ended: SIGTERM after 10 s, SIGKILL after 15 s."""
    if "ray" not in sys.modules:
        return
    import ray

    pids = descendants()
    ray.shutdown()
    for grace, sig in ((10.0, signal.SIGTERM), (5.0, signal.SIGKILL), (5.0, None)):
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            reap()
            pids = [p for p in pids if alive(p)]
            if not pids:
                return
            time.sleep(0.05)
        if sig is None:
            raise RuntimeError(f"processes still running after shutdown: {pids}")
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass


def object_store_bytes() -> int:
    """``OBJECT_STORE_BYTES``, or 80% of the file-size limit (``ulimit -f``)
    if that is less. The store is one file in /dev/shm, sized when the
    raylet starts; past the limit, SIGXFSZ kills the raylet, and ``ray.init``
    times out after 30 s without saying why. Ray's default, 30% of the free
    memory, is about 4.9 GB on a 16 GB machine."""
    import resource

    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    if limit == resource.RLIM_INFINITY or 0.8 * limit >= OBJECT_STORE_BYTES:
        return OBJECT_STORE_BYTES
    store = int(0.8 * limit)
    print(
        f"linkagebench: object store of {store / 2**20:.0f} MiB, 80% of the "
        f"file-size limit, not {OBJECT_STORE_BYTES / 2**20:.0f} MiB",
        file=sys.stderr,
    )
    return store


def start_ray() -> None:
    """``ray.init`` with the test fixture's arguments and a fixed object
    store (``object_store_bytes``)."""
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        object_store_memory=object_store_bytes(),
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def measure(args, workdir: str, status: dict) -> dict:
    """The run itself; returns the result object. ``status["step"]`` names
    the step in progress."""
    status["step"] = "importing the package"
    import ray.data  # noqa: F401

    import layers
    import workloads as W
    from localhost_address_matching_ray.pipelines import linkage, queries  # noqa: F401

    status["step"] = "making inputs"
    t = time.perf_counter()
    wl = W.make(args.workload, args.seed, workdir)
    qwl = None
    if args.trace:
        qwl = wl if isinstance(wl, W.QueryWorkload) else W.QueryWorkload()
    inputs_s = time.perf_counter() - t

    status["step"] = "starting Ray"
    start_ray()
    attempted = failed = 0
    problems: list[str] = []

    def run_job():
        nonlocal attempted, failed
        out = wl.job()
        f, p = wl.check(out)
        attempted += wl.ops_per_job
        failed += f
        problems.extend(p)
        return out

    status["step"] = "warm-up job"
    run_job()
    setup_s = time.perf_counter() - T0 - inputs_s

    if args.trace:
        status["step"] = "untraced job"
        t = time.perf_counter()
        out = run_job()
        job_s = time.perf_counter() - t
        status["step"] = "traced run"
        metrics, n, f, p = layers.traced_run(wl, qwl, out, job_s)
        attempted += n
        failed += f
        problems += p
        units = layers.per_layer_names()
    else:
        jobs: list[float] = []
        rss = PeakRss()
        while not jobs or sum(jobs) < args.seconds:
            status["step"] = f"timed job {len(jobs) + 1}"
            t = time.perf_counter()
            if jobs:
                run_job()
            else:
                with rss:  # the peak is read at the first timed job only
                    run_job()
            jobs.append(time.perf_counter() - t)
        print(f"linkagebench: job seconds {[round(j, 3) for j in jobs]}", file=sys.stderr)
        metrics = {
            "setup_s": setup_s,
            "job_s": statistics.median(jobs),
            "rows_per_s": wl.rows * len(jobs) / sum(jobs),
            "peak_rss_mb": rss.peak_mb,
        }
        units = END_TO_END

    for p in problems:
        print(f"linkagebench: check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def report_failure(status: dict) -> None:
    print(f"linkagebench: failed while {status['step']}", file=sys.stderr)
    traceback.print_exc()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["link_long", "link_hot", "query_mix"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / PACKAGE / "__init__.py").is_file():
        print(
            f"linkagebench: the package {PACKAGE} is missing from {ROOT}; "
            "run this from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Ray's workers import the package from the driver's working directory
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT))
    signal.signal(signal.SIGTERM, on_sigterm)
    status = {"step": "starting"}
    workdir = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        result = measure(args, workdir, status)
    except Exception:
        report_failure(status)
        return 1
    except BaseException:  # SIGTERM or Ctrl-C: report, then exit as asked
        report_failure(status)
        raise
    finally:
        try:
            stop_ray()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
