"""divstab benchmark: one command, every metric by name and unit, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src with no
install.  Each measurement runs in a fresh interpreter (perfbench/worker.py),
because the threshold cache and the bundled models are process-global, with
the BLAS thread pools pinned to one thread.

A run makes the number of blocks that takes --seconds at the nominal speed
of the reference box (see worker.py), so what it runs depends only on the
seed and --seconds.
--trace 0: timed processes and set-up-only ones, SETUP_SAMPLES in all;
prints the end-to-end metrics.  setup_s is the median of their set-up
times.  A workload in REPEATS times its blocks in that many processes and
counts each case at its median time.
--trace 1: the same blocks once untraced and once traced; prints the
per-layer metrics and the tracing overhead.

Earlier stdout lines hold a readable report (environment, input properties,
tail percentile, failures); the last line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import timing

WORKLOADS = ("cli_configs", "surface_sweep", "norm_sweep", "toric_sweep")
# seconds per block at the nominal speed of the reference box: a run makes
# seconds / BLOCK_SECONDS blocks, so its case count, and with it the tail
# percentile and the call counts, depends only on (seed, seconds)
BLOCK_SECONDS = {"cli_configs": 0.89, "surface_sweep": 0.046, "norm_sweep": 1.77, "toric_sweep": 1.6}
END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
# processes that time the same blocks; each case counts at its median time.
# surface_sweep cases take 1-10 ms, shorter than the slow spells of a shared
# host, so in one process its tail percentile measures those spells.  Each
# process makes 1/REPEATS of the blocks, so a run still times about
# --seconds of cases.
REPEATS = {"surface_sweep": 3}
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
TRACE_DIR = Path(".perfbench")


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def worker(root: Path, args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args))
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: " + " ".join(args)) from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root: Path) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "divstab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def blocks(a) -> list[str]:
    per_process = BLOCK_SECONDS[a.workload] * REPEATS.get(a.workload, 1)
    return ["--blocks", str(max(1, round(a.seconds / per_process)))]


def median_times(runs: list[dict]) -> dict:
    """One report from processes that ran the same cases: each case at its
    median time, passing only if it passed in every process."""
    per_case = [
        [statistics.median(c) for c in zip(*(r.pop(key) for r in runs))]
        for key in ("case_times", "raw_case_times")
    ]
    ok = [all(c) for c in zip(*(r.pop("case_ok") for r in runs))]
    run = dict(runs[0])
    run.update(timing(per_case[0], per_case[1], ok))
    run.update(
        processes=len(runs),
        failed=len(ok) - sum(ok),
        failed_frac=(len(ok) - sum(ok)) / len(ok),
        failures=[f for r in runs for f in r["failures"]][:20],
        wall_s=sum(r["wall_s"] for r in runs),
        peak_rss_mb=max(r["peak_rss_mb"] for r in runs),
    )
    return run


def timed(root: Path, a, deadline: float):
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    n = REPEATS.get(a.workload, 1)
    runs = [worker(root, common + blocks(a), deadline) for _ in range(n)]
    samples = runs + [
        worker(root, common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - n)
    ]
    run = median_times(runs)
    setups = [s["setup_s"] for s in samples]
    run["setup_samples_s"] = setups
    run["raw_setup_samples_s"] = [s["raw_setup_s"] for s in samples]
    values = {
        "setup_s": statistics.median(setups),
        "cases_per_s": run["cases_per_s"],
        "case_p50_ms": run["case_p50_ms"],
        "case_tail_ms": run["case_tail_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return run, metrics


def traced(root: Path, a, deadline: float):
    common = ["--workload", a.workload, "--seed", str(a.seed)] + blocks(a)
    plain = median_times([worker(root, common, deadline)])
    spans = TRACE_DIR / f"spans_{a.workload}_{a.seed}.tsv.gz"
    run = median_times([worker(root, common + ["--trace", str(spans)], deadline)])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.pop("per_layer").items()}
    # both walls at nominal speed, so a drift between the two processes cancels
    overhead = (run["wall_s"] / run["speed"]) / (plain["wall_s"] / plain["speed"])
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    metrics["workload.cases"] = {"value": run["attempted"], "unit": "count"}
    metrics["workload.distinct_model_L"] = {"value": run["inputs"]["distinct_model_L"], "unit": "count"}
    run["untraced_wall_s"] = plain["wall_s"]
    run["spans_file"] = str(spans)
    # an untraced pass that fails where the traced one passes is still a failure
    run["failed"] = max(run["failed"], plain["failed"])
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "divstab" / "__init__.py").is_file():
        print("perfbench: run from a divstab checkout (src/divstab not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        run, metrics = (traced if a.trace else timed)(root, a, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    run["environment"] = environment(root)
    print(json.dumps(run, indent=1, sort_keys=True))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
