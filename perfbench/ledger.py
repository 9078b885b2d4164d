"""Outside-in layer ledger: wraps each layer's public calls from outside.

No file of the program changes.  :func:`install` replaces a fixed set of
functions and methods with timing wrappers; each wrapped call adds its
*self* time (its duration minus that of the wrapped calls nested inside
it) and its call count to its layer, plus the counts the layer's result
carries.  The layer self times of one campaign add up to the part of its
wall time the ledger attributes; the rest is reported as
``unattributed_s``.

Only the calling process is seen.  Points evaluated in pool workers
(``--jobs 2``) are charged to ``executor.map`` as dispatch and waiting.

The ledger records only while :attr:`Ledger.active` is set, which the
campaign runner does once the experiment context is built, so
calibration is never charged to a layer: set-up is measured apart.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional

#: Ledger rows: layer self times, in the order the table prints them.
SELF_TIME_ROWS = (
    ("sim.ops.compile_s", "compile"),
    ("sim.cmp.run_s", "sim.cmp"),
    ("power.evaluate_s", "power.evaluate"),
    ("thermal.solve_s", "thermal.solve"),
    ("executor.map_self_s", "executor.map"),
    ("executor.cache_get_s", "executor.cache_get"),
    ("executor.cache_put_s", "executor.cache_put"),
    ("journal.record_s", "journal.record"),
    ("search.self_s", "search"),
    ("tables.render_s", "tables.render"),
)


class Layer:
    """Calls, self seconds and result counters of one layer."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counters: Dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Ledger:
    """Self-time accounting over a stack of wrapped calls."""

    def __init__(self) -> None:
        self.active = False
        self.layers: Dict[str, Layer] = {}
        #: Seconds of nested wrapped calls, one entry per open call.
        self._stack: List[float] = []

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def wrap(
        self,
        owner: Any,
        attribute: str,
        layer_name: str,
        on_result: Optional[Callable[[Layer, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a wrapper charging ``layer_name``."""
        original = getattr(owner, attribute)
        layer = self.layer(layer_name)
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                layer.calls += 1
                layer.self_s += elapsed - nested
            if on_result is not None:
                on_result(layer, result)
            return result

        setattr(owner, attribute, wrapper)

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced campaign of ``wall_s`` seconds."""

        def calls(name: str) -> int:
            return self.layer(name).calls

        def seconds(name: str) -> float:
            return self.layer(name).self_s

        def counter(name: str, key: str) -> int:
            return self.layer(name).counters.get(key, 0)

        cmp_runs = calls("sim.cmp")
        cmp_ops = counter("sim.cmp", "ops")
        cmp_s = seconds("sim.cmp")
        evaluated = counter("executor.map", "evaluated")
        gets = calls("executor.cache_get")
        hits = counter("executor.cache_get", "hits")
        out: Dict[str, float] = {
            "sim.ops.compile_calls": calls("compile"),
            "sim.ops.compile_misses": counter("compile", "misses"),
            "sim.ops.compile_share": seconds("compile") / wall_s,
            "sim.cmp.runs": cmp_runs,
            "sim.cmp.ops": cmp_ops,
            "sim.cmp.slow_path_ops": counter("sim.cmp", "slow_path_ops"),
            "sim.cmp.ops_per_s": cmp_ops / cmp_s if cmp_s > 0 else 0.0,
            "sim.cmp.fast_path_ratio": (
                counter("sim.cmp", "fast_path_ops") / cmp_ops if cmp_ops else 0.0
            ),
            "power.evaluate_calls": calls("power.evaluate"),
            "thermal.solve_calls": calls("thermal.solve"),
            "executor.map_calls": calls("executor.map"),
            "executor.points": counter("executor.map", "points"),
            "executor.evaluated": evaluated,
            "executor.cache_gets": gets,
            "executor.cache_hits": hits,
            "executor.cache_hit_ratio": hits / gets if gets else 0.0,
            "executor.cache_puts": calls("executor.cache_put"),
            "journal.records": calls("journal.record"),
            "search.runs_per_point": cmp_runs / evaluated if evaluated else 0.0,
        }
        attributed = 0.0
        for metric, layer_name in SELF_TIME_ROWS:
            out[metric] = seconds(layer_name)
            attributed += out[metric]
        out["unattributed_s"] = wall_s - attributed
        return out


def _count_compile(layer: Layer, outcome: Any) -> None:
    if not outcome.from_cache:
        layer.count("misses")


def _count_kernel(layer: Layer, result: Any) -> None:
    kernel = result.kernel
    if kernel is not None:
        layer.count("ops", kernel.total_ops)
        layer.count("slow_path_ops", kernel.slow_path_ops)
        layer.count("fast_path_ops", kernel.fast_path_ops)


def _count_map(layer: Layer, outcomes: Any) -> None:
    layer.count("points", len(outcomes))
    layer.count(
        "evaluated", sum(1 for o in outcomes if o is not None and not o.cached)
    )


def _count_cache_get(layer: Layer, entry: Any) -> None:
    if entry is not None:
        layer.count("hits")


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary the ledger charges.

    Functions the program calls through a module global are replaced on
    the module that calls them; methods are replaced on their class.
    """
    import repro.cli
    import repro.harness
    import repro.harness.context
    import repro.harness.scenario2
    from repro.harness.executor import ResultCache, SweepExecutor
    from repro.harness.journal import SweepJournal
    from repro.power.chippower import ChipPowerModel
    from repro.sim.cmp import ChipMultiprocessor
    from repro.thermal.hotspot import HotSpotModel

    ledger.wrap(repro.harness.context, "compile_workload", "compile", _count_compile)
    ledger.wrap(ChipMultiprocessor, "run", "sim.cmp", _count_kernel)
    ledger.wrap(ChipPowerModel, "evaluate", "power.evaluate")
    ledger.wrap(HotSpotModel, "solve", "thermal.solve")
    ledger.wrap(SweepExecutor, "map", "executor.map", _count_map)
    ledger.wrap(ResultCache, "get", "executor.cache_get", _count_cache_get)
    ledger.wrap(ResultCache, "put", "executor.cache_put")
    ledger.wrap(SweepJournal, "record", "journal.record")
    # The search layer: the scenario entry points, Scenario II's budget
    # bisection (run inside each point) and the adaptive optimizer.  The
    # CLI looks the entry points up on the package at call time.
    for name in ("run_scenario1", "run_scenario2", "run_optimizer"):
        ledger.wrap(repro.harness, name, "search")
    ledger.wrap(repro.harness.scenario2, "_best_frequency_under_budget", "search")
    ledger.wrap(repro.cli, "render_table", "tables.render")
