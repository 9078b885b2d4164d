"""Campaign benchmark: the paper's Scenario I/II campaigns, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig4-cold --seed 1 --seconds 25 --trace 0

Each campaign is one fresh ``python`` process driving ``repro.cli.main``
at the default ``--scale 0.25`` (``campaign.py``).  A run repeats the
workload's campaign until ``--seconds`` have passed and reports medians.
Every campaign's stdout is checked against the hash recorded in
``expected.json`` and its ``[executor]`` counts must repeat exactly.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds two
traced campaigns and prints the per-layer metrics and the layer ledger
instead.  Metric names and units come from ``BENCHMARK.json``.  The
last stdout line is the JSON result.  Raw samples and the host-stability
record go to ``.bench_build/perfbench/records/``.

The campaigns are fixed: they are the paper's default experiments.
``--seed`` names the run's scratch directory and is recorded; every
seed gives the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from host import HostRecord
from ledger import SELF_TIME_ROWS
from outcheck import executor_counts, output_hash

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> (campaign argv, workload whose campaign fills the cache first).
WORKLOADS = {
    "fig3-cold": (["fig3", "--jobs", "1"], None),
    "fig4-cold": (["fig4", "--jobs", "1"], None),
    "optimize-after-fig4": (["optimize", "--budget", "30", "--jobs", "2"], "fig4-cold"),
}

#: Traced campaigns per ``--trace 1`` run; their counts must agree.
TRACED_CAMPAIGNS = 2
#: No timed campaign starts this many seconds after the run began, so a
#: run with its traced campaigns ends well within 180 s.
RUN_BUDGET_S = 100.0
CAMPAIGN_TIMEOUT_S = 120.0


class Campaign:
    """One campaign process: its measurements and output-check verdict."""

    def __init__(self, record: dict, problems: List[str], counts) -> None:
        self.record = record
        self.problems = problems
        self.counts = counts

    @property
    def ok(self) -> bool:
        return not self.problems


def run_campaign(
    argv: List[str], cache: Path, trace: bool, workdir: Path, env: dict,
    expected_hash: str,
) -> Campaign:
    """Run one campaign in a fresh process and check its output."""
    result_path = workdir / "result.json"
    stdout_path = workdir / "stdout.txt"
    stderr_path = workdir / "stderr.txt"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "campaign.py"), str(result_path),
        "1" if trace else "0", *argv, "--cache", str(cache),
    ]
    problems: List[str] = []
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        # Its own session, so a timeout also kills its pool workers.
        process = subprocess.Popen(
            command, stdout=out, stderr=err, env=env, cwd=ROOT,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            code = None
    stdout = stdout_path.read_text()
    if code != 0:
        tail = stderr_path.read_text().strip().splitlines()[-3:]
        problems.append(f"exit code {code}: {' / '.join(tail)}")
    digest = output_hash(stdout)
    if digest != expected_hash:
        problems.append(f"output hash {digest[:12]} != recorded {expected_hash[:12]}")
    counts = executor_counts(stdout)
    if counts is None:
        problems.append("no [executor] line")
    elif counts[2]:
        problems.append(f"[executor] reports {counts[2]} failures")
    record = {}
    if result_path.exists():
        record = json.loads(result_path.read_text())
    elif not problems:
        problems.append("no measurements written")
    return Campaign(record, problems, counts)


def flag_unrepeated(campaigns: List[Campaign], key) -> None:
    """Fail every good campaign whose ``key`` differs from the first one's."""
    good = [c for c in campaigns if c.ok]
    for campaign in good[1:]:
        if key(campaign) != key(good[0]):
            campaign.problems.append(
                f"counts {key(campaign)} do not repeat {key(good[0])}"
            )


def median_of(campaigns: List[Campaign], name: str) -> float:
    return statistics.median(c.record[name] for c in campaigns)


def print_ledger(layers: Dict[str, float]) -> None:
    wall_s = layers["trace.wall_s"]
    print(f"layer ledger: traced wall_s {wall_s:.4f} s "
          f"(median of {TRACED_CAMPAIGNS} traced campaigns)")
    for name in [row for row, _ in SELF_TIME_ROWS] + ["unattributed_s"]:
        print(f"  {name:<22} {layers[name]:9.4f} s {100 * layers[name] / wall_s:7.2f} %")
    print(f"  {'trace.overhead_ratio':<22} {layers['trace.overhead_ratio']:9.4f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    layer_counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    expected = json.loads((HERE / "expected.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Byte-compile first, so no campaign's import pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )

    invoked = time.perf_counter()
    campaign_argv, fill_workload = WORKLOADS[args.workload]
    build = ROOT / ".bench_build" / "perfbench"
    workdir = build / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    host = HostRecord()
    host.start()
    try:
        fill = None
        if fill_workload is not None:
            fill = workdir / "filled-cache"
            filled = run_campaign(
                WORKLOADS[fill_workload][0], fill, False, workdir, env,
                expected[fill_workload]["hash"],
            )
            if not filled.ok:
                print(f"perfbench: cache fill failed: {filled.problems}", file=sys.stderr)
                return 1

        def campaign(trace: bool) -> Campaign:
            cache = workdir / "cache"
            shutil.rmtree(cache, ignore_errors=True)
            if fill is not None:
                shutil.copytree(fill, cache)
            return run_campaign(
                campaign_argv, cache, trace, workdir, env,
                expected[args.workload]["hash"],
            )

        timed: List[Campaign] = []
        started = time.perf_counter()
        while not timed or (
            time.perf_counter() - started < args.seconds
            and time.perf_counter() - invoked < RUN_BUDGET_S
        ):
            timed.append(campaign(False))
        traced = [campaign(True) for _ in range(TRACED_CAMPAIGNS if args.trace else 0)]
    finally:
        host_fields = host.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    flag_unrepeated(timed + traced, lambda c: c.counts)
    flag_unrepeated(traced, lambda c: [c.record["layers"][n] for n in layer_counts])
    campaigns = timed + traced
    good = [c for c in timed if c.ok]
    good_traced = [c for c in traced if c.ok]

    for index, c in enumerate(campaigns):
        kind = "traced" if c in traced else "timed"
        status = "ok" if c.ok else "FAILED: " + "; ".join(c.problems)
        sample = " ".join(
            f"{name}={c.record[name]:.4f}"
            for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
            if name in c.record
        )
        print(f"{kind} campaign {index}: {sample} counts={c.counts} {status}")
    recorded = expected[args.workload]["executor_counts"]
    if good and list(good[0].counts) != recorded:
        print(f"note: [executor] counts {good[0].counts} differ from the "
              f"{recorded} recorded in expected.json (not an error)")
    print("host:", json.dumps(host_fields, sort_keys=True))

    values: Dict[str, float] = {}
    if good and args.trace and good_traced:
        values = {
            name: statistics.median(c.record["layers"][name] for c in good_traced)
            for name in good_traced[0].record["layers"]
        }
        values["trace.wall_s"] = median_of(good_traced, "wall_s")
        values["trace.overhead_ratio"] = values["trace.wall_s"] / median_of(good, "wall_s")
        values["setup.import_s"] = median_of(good, "import_s")
        values["setup.context_s"] = median_of(good, "context_s")
        print_ledger(values)
    elif good and not args.trace:
        values = {name: median_of(good, name) for name in units}
    metrics = (
        {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        if values
        else {}
    )

    records = build / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = records / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    )
    record_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fields,
        "samples": [
            {"traced": c in traced, "ok": c.ok, "problems": c.problems,
             "counts": c.counts, **c.record}
            for c in campaigns
        ],
        "metrics": metrics,
    }, indent=1))
    print(f"record: {record_path.relative_to(ROOT)}")
    failed = sum(1 for c in campaigns if not c.ok)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(campaigns),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
