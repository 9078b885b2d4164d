"""Wall-clock benchmark of the SweepExecutor: jobs and cache effects.

Run directly (not collected by pytest, which only looks in ``tests/``)::

    PYTHONPATH=src:benchmarks python benchmarks/bench_executor.py [--scale X]

Measures three things on the Figure 3 pipeline (the heaviest sweep):

1. serial (``jobs=1``) wall-clock,
2. parallel (``jobs=N``) wall-clock for N = 2 and 4,
3. warm-cache wall-clock (second run over an identical configuration).

The parallel speedup is bounded by the machine: on a box with C cores,
``jobs=4`` cannot beat ~C x, and on a single-core container the fork and
pickle overhead makes ``jobs>1`` *slower* — the executor buys wall-clock
time on real multi-core hardware, determinism and caching everywhere.
The script prints ``os.cpu_count()`` alongside the numbers so a reader
can judge the speedup against what the hardware allows.  The warm-cache
run is hardware-independent: it should evaluate nothing and take a
fraction of a second regardless of core count.
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time

from repro.harness import ExperimentContext, SweepExecutor, run_scenario1
from repro.harness.executor import ResultCache
from repro.workloads import workload_by_name

CORE_COUNTS = (1, 2, 4, 8, 16)
APPS = ("FMM", "LU", "Ocean", "Cholesky", "Radix")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def sleepy_point(seconds: float) -> float:
    """A latency-bound stand-in evaluator (pure wait, no CPU)."""
    time.sleep(seconds)
    return seconds


def overlap_probe() -> None:
    """Show the fan-out overlaps waiting even when cores do not multiply.

    Sixteen 100 ms latency-bound points take ~1.6 s serially; with
    ``jobs=4`` the farm overlaps the waits, so the wall-clock gain here
    is pure executor machinery, independent of how many cores the CPU
    governor grants this container.
    """
    points = [0.1] * 16
    serial, t1 = timed(lambda: SweepExecutor(jobs=1).map(sleepy_point, points))
    parallel, t4 = timed(lambda: SweepExecutor(jobs=4).map(sleepy_point, points))
    assert [o.value for o in serial] == [o.value for o in parallel]
    print(
        "overlap probe (16 x 100 ms latency-bound points): "
        f"jobs=1 {t1:5.2f} s, jobs=4 {t4:5.2f} s ({t1 / t4:4.2f}x)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--apps", nargs="+", default=list(APPS))
    args = parser.parse_args()

    print(f"machine: os.cpu_count() = {os.cpu_count()}")
    overlap_probe()
    print(f"workload scale: {args.scale}, apps: {' '.join(args.apps)}")
    context = ExperimentContext(workload_scale=args.scale)
    models = [workload_by_name(app) for app in args.apps]

    baseline, t_serial = timed(
        lambda: run_scenario1(
            context, models, CORE_COUNTS, executor=SweepExecutor(jobs=1)
        )
    )
    print(f"jobs=1 (serial):        {t_serial:7.2f} s")

    for jobs in (2, 4):
        result, t_par = timed(
            lambda jobs=jobs: run_scenario1(
                context, models, CORE_COUNTS, executor=SweepExecutor(jobs=jobs)
            )
        )
        match = "identical rows" if result == baseline else "ROWS DIFFER!"
        print(
            f"jobs={jobs}:                 {t_par:7.2f} s "
            f"({t_serial / t_par:4.2f}x, {match})"
        )

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        executor = SweepExecutor(jobs=1, cache=ResultCache(cache_dir))
        _, t_cold = timed(
            lambda: run_scenario1(context, models, CORE_COUNTS, executor=executor)
        )
        warm_executor = SweepExecutor(jobs=1, cache=ResultCache(cache_dir))
        warm, t_warm = timed(
            lambda: run_scenario1(
                context, models, CORE_COUNTS, executor=warm_executor
            )
        )
        match = "identical rows" if warm == baseline else "ROWS DIFFER!"
        print(f"cold cache:             {t_cold:7.2f} s")
        print(
            f"warm cache:             {t_warm:7.2f} s "
            f"({t_cold / t_warm:4.2f}x, {warm_executor.stats.evaluated} "
            f"evaluated, {warm_executor.stats.cache_hits} hits, {match})"
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
