"""Host-stability record stored beside every run's raw samples.

Following freqbench, each run records what the host was doing while it
measured, so a reader can judge the samples afterwards:

* the time of a fixed pure-Python probe, taken before and after the
  workload (a slower probe afterwards means the host slowed down);
* the steal jiffies from ``/proc/stat`` accrued over the run (time the
  hypervisor gave this machine's CPUs to someone else);
* ``nproc``, the CPU model and the Python version.

This is a diagnostic only: no metric is ever corrected by it.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Optional

#: Iterations of the probe loop: about 0.05 s on a 2-CPU Intel Xeon host.
PROBE_ITERATIONS = 400_000


def probe_s() -> float:
    """Seconds one fixed pure-Python loop takes on this host right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def steal_jiffies() -> Optional[int]:
    """Total steal time of all CPUs so far, or ``None`` if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    # "cpu user nice system idle iowait irq softirq steal ..."
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def cpu_model() -> str:
    """The first ``model name`` of ``/proc/cpuinfo``, else the platform's guess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class HostRecord:
    """Brackets one run: call :meth:`start` before and :meth:`stop` after."""

    def __init__(self) -> None:
        self._steal_before: Optional[int] = None
        self.fields: Dict[str, object] = {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
        }

    def start(self) -> None:
        self.fields["probe_before_s"] = probe_s()
        self._steal_before = steal_jiffies()

    def stop(self) -> Dict[str, object]:
        steal_after = steal_jiffies()
        self.fields["probe_after_s"] = probe_s()
        self.fields["steal_jiffies"] = (
            None
            if self._steal_before is None or steal_after is None
            else steal_after - self._steal_before
        )
        return dict(self.fields)
