"""Run one campaign in this fresh process and write its measurements.

Usage (``run.py`` starts it with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/campaign.py RESULT_JSON TRACE ARG...

drives ``repro.cli.main([ARG...])`` with its table going to this
process's stdout, and writes to ``RESULT_JSON``:

* ``import_s``: ``import repro.cli``;
* ``context_s``: ``ExperimentContext`` construction (calibration);
* ``setup_s``: the sum of the two, what every command pays first;
* ``wall_s`` / ``cpu_s``: the campaign, less ``context_s`` and its CPU
  time; CPU time counts this process and its reaped worker children;
* ``peak_rss_mb``: the larger peak of this process and any worker;
* ``exit_code``;
* with ``TRACE`` = 1, ``layers``: the ledger's per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from ledger import Ledger, install


def _cpu_s() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start

    from repro.harness.context import ExperimentContext

    ledger = Ledger()
    contexts = []
    original_init = ExperimentContext.__init__

    def timed_init(self, *args, **kwargs):
        ledger.active = False
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        original_init(self, *args, **kwargs)
        contexts.append((time.perf_counter() - wall0, _cpu_s() - cpu0))
        ledger.active = True

    ExperimentContext.__init__ = timed_init
    if trace:
        install(ledger)

    wall0, cpu0 = time.perf_counter(), _cpu_s()
    exit_code = repro.cli.main(argv)
    sys.stdout.flush()
    wall_s, cpu_s = time.perf_counter() - wall0, _cpu_s() - cpu0
    ledger.active = False

    if len(contexts) != 1:
        raise RuntimeError(f"expected one experiment context, built {len(contexts)}")
    context_s, context_cpu_s = contexts[0]
    wall_s -= context_s
    cpu_s -= context_cpu_s
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "exit_code": exit_code,
        "import_s": import_s,
        "context_s": context_s,
        "setup_s": import_s + context_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if trace:
        record["layers"] = ledger.metrics(wall_s)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
