"""One benchmark process: set up, run blocks of cases, check them, report.

Runs in a fresh interpreter started by run.py, from the checkout root with
PYTHONPATH=src, so process-global caches (threshold cache, bundled-model
singletons) start empty.  Prints one JSON object on its last stdout line.

Time metrics come twice: raw wall-clock values (``raw_*``) and values at the
nominal speed of the reference box.  The CPU speed of a shared box switches
between regimes up to twice apart, each lasting a fraction of a second to
minutes, which would swamp any change worth measuring.  So the worker runs a
short fixed reference pass (`reference_pass`: the benchmark's own reference
computations on fixed inputs, no program code) between cases, whenever
PASS_EVERY_S of case time has gone by since the last one, and scales each
case's time by NOMINAL_PASS_S over the mean of the two passes around it.
Set-up is gauged the same way: three passes after the numpy and scipy
imports, after importing divstab and building the models, and after the
warm-up, and each stage is scaled by the medians at its two ends.  Passes
are not part of any case or set-up time.

    python3 perfbench/worker.py --workload NAME --seed N
        (--blocks B | --setup-only) [--trace PATH]
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# seconds per `reference_pass` on the reference box (2-core Xeon, 2.0 GHz)
NOMINAL_PASS_S = 0.0064
PASS_EVERY_S = 0.1


def reference_pass() -> float:
    """Seconds for a fixed slice of the reference computations, short
    enough to run every PASS_EVERY_S and so follow the speed regimes."""
    import cases
    import oracle

    start = time.perf_counter()
    for c in cases.surface_block(0, 0):
        oracle.surface_S(c["model"], c["L"], c["support"], c["t"])
        oracle.surface_zariski(c["model"], c["L"])
    for c in cases.toric_block(0, 0)[:3]:
        oracle.toric_S(c["model"], c["L"], c["support"], c["t"])
        oracle.jumping_values(c["model"], c["L"], c["support"], c["t"], c["k"])
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """(time at the highest percentile with at least ten cases beyond it,
    that percentile); the slowest case when there are ten cases or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timing(scaled: list[float], raw: list[float], ok: list[bool]) -> dict:
    """Time metrics from per-case times, at nominal speed and raw, and the
    cases that passed the check."""
    passed = sum(ok)
    tail_s, tail_pct = tail(scaled)
    return {
        "cases_per_s": passed / sum(scaled),
        "case_p50_ms": 1e3 * statistics.median(scaled),
        "case_tail_ms": 1e3 * tail_s,
        "case_tail_percentile": tail_pct,
        "case_tail_count": len(scaled),
        "speed": sum(raw) / sum(scaled),
        "raw_cases_per_s": passed / sum(raw),
        "raw_case_p50_ms": 1e3 * statistics.median(raw),
        "raw_case_tail_ms": 1e3 * tail(raw)[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--blocks", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import cases
    import check

    def gauge() -> float:
        # a stage lasts up to a second, so its ends get three passes each
        return statistics.median(reference_pass() for _ in range(3))

    # set-up stages, each followed by a gauge: imports of numpy, scipy and
    # the benchmark; divstab and the models; the cli warm-up
    stages = [time.perf_counter() - T_START]
    reference_pass()  # the first pass in a process runs slow; discard it
    passes = [gauge()]
    t0 = time.perf_counter()
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.Workload(args.workload)
    stages.append(time.perf_counter() - t0)
    passes.append(gauge())
    if args.workload == "cli_configs":
        # untimed warm-up pass; the cold path is measured by surface_sweep
        t0 = time.perf_counter()
        for case in wl.make_block(args.seed, -1):
            wl.run(case)
        stages.append(time.perf_counter() - t0)
        passes.append(gauge())
    raw_setup_s = sum(stages)
    setup_s = sum(
        dt * NOMINAL_PASS_S / (0.5 * (passes[max(i - 1, 0)] + passes[i]))
        for i, dt in enumerate(stages)
    )
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    times: list[float] = []  # raw case times
    around: list[int] = []  # passes run before each case
    failures: list[dict] = []
    ok: list[bool] = []
    inexact_thresholds = 0
    pairs = set()
    since_pass = 0.0
    case_id = 0
    for block in range(args.blocks):
        batch = wl.make_block(args.seed, block)
        results = []
        for case in batch:
            if tracer:
                tracer.case_id = case_id
            before = len(passes)
            c0 = time.perf_counter()
            try:
                out, error = wl.run(case), None
            except Exception:
                out, error = None, traceback.format_exc(limit=4)
            dt = time.perf_counter() - c0
            results.append((case, out, error))
            times.append(dt)
            around.append(before)
            case_id += 1
            since_pass += dt
            if since_pass >= PASS_EVERY_S:
                passes.append(reference_pass())
                since_pass = 0.0
        if tracer:
            tracer.case_id = -1
        for case, out, error in results:
            pairs.add(cases.model_L_pair(case, wl.configs))
            if error is None:
                try:
                    rep = check.check_case(case, out)
                    problems = rep.problems
                    inexact_thresholds += rep.inexact_thresholds
                except Exception:
                    problems = ["check raised: " + traceback.format_exc(limit=4)]
            else:
                problems = ["raised: " + error]
            if problems:
                failures.append({"case": repr(case), "problems": problems[:5]})
            ok.append(not problems)

    passes.append(reference_pass())
    scaled = [
        dt * NOMINAL_PASS_S / (0.5 * (passes[k - 1] + passes[k]))
        for dt, k in zip(times, around)
    ]
    attempted = len(times)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "blocks": args.blocks,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(times),
        "attempted": attempted,
        "failed": attempted - sum(ok),
        "failed_frac": (attempted - sum(ok)) / attempted,
        **timing(scaled, times, ok),
        # per case, for run.py to combine processes that ran the same cases
        "case_times": scaled,
        "raw_case_times": times,
        "case_ok": ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": {"cases": attempted, "distinct_model_L": len(pairs)},
        "inexact_thresholds": inexact_thresholds,
        "failures": failures[:20],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        tracer.uninstall()
        report["per_layer"] = tracer.metrics(attempted)
        report["inputs"]["gamma_repeat_share"] = report["per_layer"][
            "core.gamma_threshold.repeat_share"][0]
        os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
        tracer.write(args.trace)
        report["spans"] = len(tracer.span_name)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
