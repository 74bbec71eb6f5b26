"""Benchmark entry point for the one-shot inversion library.

    python3 bench/run.py --workload {noise_free,mesh,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
The run sets up the workload seven times (``setup_s`` is the median),
then repeats timed passes until ``--seconds`` have elapsed (at least one).
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics; every traced pass must write byte-identical
outputs to the untraced pass before it.  Every pass is checked (see
``workloads.py``); a failed check is a failed operation.

The next-to-last line of standard output is a JSON object with the
machine facts and the raw samples; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "bench", "_work")
REFERENCE = os.path.join(ROOT, "bench", "reference.json")

#: One BLAS thread: on a shared 2-CPU machine two threads made small
#: factorizations slower and far noisier than one.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("noise_free", "mesh", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout():
    """Fix the BLAS thread count, then make ``src/`` importable.

    The BLAS reads the thread variables when numpy is first imported, so
    this runs before anything imports numpy.
    """
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, entry, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, entry, "size")) as fh:
                    caches[f"L{level} {kind}"] = fh.read().strip()
            except OSError:
                continue
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cache_per_cpu": caches}


class Tally:
    """Attempted and failed operations, with the first few faults."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults = []

    def add(self, label, results):
        for op, fault in results:
            self.attempted += 1
            if fault is not None:
                self.failed += 1
                self.faults.append(f"{label} {op}: {fault}")


def checked_pass(workload, state, out_dir, reference, tally, label):
    """Time one pass, then check it; an exception fails every operation."""
    start = time.perf_counter()
    try:
        outputs = workload.run_pass(state, out_dir)
    except Exception:
        seconds = time.perf_counter() - start
        traceback.print_exc()
        tally.add(label, [("pass", "raised")] * workload.ops_per_pass)
        return seconds, None
    seconds = time.perf_counter() - start
    try:
        tally.add(label, workload.check(outputs, reference))
    except Exception:
        traceback.print_exc()
        tally.add(label, [("check", "raised")] * workload.ops_per_pass)
        return seconds, None
    return seconds, outputs


def same_tree(left, right):
    """True when two output directories hold byte-identical files."""
    if not (os.path.isdir(left) and os.path.isdir(right)):
        return False
    cmp = filecmp.dircmp(left, right)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(left, right, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(same_tree(os.path.join(left, d), os.path.join(right, d))
               for d in cmp.common_dirs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, state, args, reference, tally, work_dir, detail):
    """Untraced passes: the end-to-end metrics."""
    times, work = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        out_dir = os.path.join(work_dir, f"pass{index}")
        seconds, outputs = checked_pass(workload, state, out_dir, reference,
                                        tally, f"pass{index}")
        times.append(seconds)
        if outputs is not None:
            work.append(workload.work(outputs))
            for name, value in outputs.get("phases", {}).items():
                detail.setdefault("phases_s", {}).setdefault(name, []).append(value)
        # drop this pass's arrays before the next pass, so the peak RSS
        # does not depend on how many passes fit in the run
        del outputs
        shutil.rmtree(out_dir, ignore_errors=True)
        index += 1
        if time.perf_counter() >= deadline:
            break
    detail["pass_samples_s"] = times
    detail["work_per_pass"] = work
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"pass_s": metric(statistics.median(times), "s"),
            "peak_rss_mb": metric(rss_mb, "MB")}


def measure_traced(workload, state, args, reference, tally, work_dir, detail):
    """Alternate untraced and traced passes: the per-layer metrics."""
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        plain_dir = os.path.join(work_dir, f"pass{index}-plain")
        traced_dir = os.path.join(work_dir, f"pass{index}-traced")
        plain.append(checked_pass(workload, state, plain_dir, reference,
                                  tally, f"pass{index}-plain")[0])
        tracer.begin_pass(index)
        try:
            spans.install(tracer)
            traced.append(checked_pass(workload, state, traced_dir, reference,
                                       tally, f"pass{index}-traced")[0])
        finally:
            tracer.restore()
        identical = same_tree(plain_dir, traced_dir)
        tally.add(f"pass{index}", [("traced_output_identical", None if identical else
                                    "traced pass wrote different bytes")])
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
        index += 1
        if time.perf_counter() >= deadline:
            break
    tracer.write_spans(os.path.join(WORK, f"spans-{workload.name}-seed{args.seed}.jsonl"))

    counts = [{name: tracer.counts[i][name] for name in spans.COUNT_METRICS}
              for i in range(index)]
    tally.add("trace", [("counts_repeat", None if all(c == counts[0] for c in counts)
                         else "counts differ between traced passes")])
    per_pass = [spans.layer_times(tracer.spans, i) for i in range(index)]
    metrics = {name: metric(statistics.median(p[name] for p in per_pass), "s")
               for name in per_pass[0]}
    for name, value in counts[0].items():
        metrics[name] = metric(value, "B" if "bytes" in name else "count")
    plain_s = statistics.median(plain)
    metrics["descent.outer_iter_per_s"] = metric(
        counts[0]["descent.outer_iters"] / plain_s, "1/s")
    metrics["trace_overhead_s"] = metric(statistics.median(traced) - plain_s, "s")
    detail["pass_samples_s"] = plain
    detail["traced_pass_samples_s"] = traced
    detail["unwrapped"] = tracer.missing
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isdir(os.path.join(ROOT, "src", "oneshot"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print("bench: run from a checkout holding src/oneshot and configs/",
              file=sys.stderr)
        return 2
    use_checkout()
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[workload.name]

    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts()}
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    detail["setup_samples_s"] = setup_times

    tally = Tally()
    work_dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            metrics = measure_traced(workload, state, args, reference, tally,
                                     work_dir, detail)
        else:
            metrics = {"setup_s": metric(statistics.median(setup_times), "s")}
            metrics.update(measure(workload, state, args, reference, tally,
                                   work_dir, detail))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    detail["faults"] = tally.faults[:20]
    print(json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
