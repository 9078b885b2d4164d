"""Experimental Scenario II: best speedup under a power budget (Sec. 4.2).

The budget is the maximum nominal power of a single core, derived by
microbenchmarking (Section 3.3's calibration).  For each (application, N)
the pipeline:

1. profiles every application at nominal V/f (one executor fan-out),
   which supplies the nominal speedups;
2. searches the paper's frequency ladder (200 MHz .. nominal in
   200 MHz steps) for the highest frequency whose measured power fits
   the budget, with the voltage from the V/f table.  The search is the
   optimizer's (:func:`~repro.harness.optimizer.run_optimizer` under
   :class:`~repro.harness.optimizer.MaxSpeedupUnderBudget`): every probe
   is a cached, journalled executor point, and the chosen probe's own
   measurement is the "real speedup" run, so nothing re-simulates;
3. reports actual versus nominal speedup (Figure 4).

Memory-bound applications benefit twice, as the paper observes: their
nominal power is far below the budget (no throttling needed until high
N), and when throttling does kick in, the fixed-latency memory narrows
the processor-memory gap.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.context import ExperimentContext
from repro.harness.executor import SweepExecutor
from repro.harness.optimizer import (
    MaxSpeedupUnderBudget,
    OptimizerRow,
    run_optimizer,
)
from repro.harness.profiling import (
    SimPointTask,
    precompile_hook,
    profile_application,
    sim_point_key,
    simulate_point,
)
from repro.workloads.base import WorkloadModel


@dataclass(frozen=True)
class Scenario2Row:
    """One (application, N) outcome — one pair of points in Figure 4."""

    app: str
    n: int
    nominal_speedup: float
    actual_speedup: float
    frequency_hz: float
    voltage: float
    power_w: float
    budget_w: float
    #: The context's nominal frequency, carried so derived properties
    #: work on any technology node.  The default is the historical
    #: 65 nm value, which migrates rows stored before the field existed.
    f_nominal_hz: float = 3.2e9

    @property
    def runs_at_nominal(self) -> bool:
        """Whether the configuration fit the budget without throttling."""
        return self.frequency_hz >= self.f_nominal_hz - 1e6


def run_scenario2(
    context: ExperimentContext,
    models: Sequence[WorkloadModel],
    core_counts: Sequence[int] = tuple(range(1, 17)),
    budget_w: Optional[float] = None,
    executor: Optional[SweepExecutor] = None,
) -> Dict[str, List[Scenario2Row]]:
    """The Figure 4 experiment for a set of applications.

    Returns each application's rows in ascending N.  Points that fail with a library error are recorded by the executor
    as typed failures and omitted from the rows; the campaign carries
    on.  Under a retrying executor the same applies to quarantined
    profile points: an application whose 1-core nominal baseline is
    missing cannot be normalised, so it is skipped with a
    ``[quarantine]`` notice (its failure stays in ``executor.failed``
    for ``failedpoint`` persistence) instead of crashing the campaign.
    """
    budget = budget_w if budget_w is not None else (
        context.calibration.max_operational_power_w
    )
    executor = executor if executor is not None else SweepExecutor()

    # Stage 1: nominal profiles for every application, one flat fan-out.
    profile_tasks: List[SimPointTask] = []
    for model in models:
        counts = model.supported_thread_counts(core_counts)
        profile_tasks.extend(
            SimPointTask(spec=model.spec, n=n) for n in sorted({1, *counts})
        )
    profile_outcomes = executor.map(
        partial(simulate_point, context),
        profile_tasks,
        key_configs=[sim_point_key(context, task) for task in profile_tasks],
        precompile=precompile_hook(context),
    )
    times: Dict[str, Dict[int, int]] = {m.name: {} for m in models}
    for task, outcome in zip(profile_tasks, profile_outcomes):
        if outcome.ok:
            times[task.spec.name][task.n] = outcome.value.execution_time_ps

    # Stage 2: the budget search, every probe an executor point.
    chosen = _best_frequency_under_budget(
        context, models, times, core_counts, budget, executor
    )
    results: Dict[str, List[Scenario2Row]] = {m.name: [] for m in models}
    for (app, n), row in chosen.items():
        app_times = times[app]
        if n not in app_times:
            continue
        t1 = app_times[1]
        results[app].append(
            Scenario2Row(
                app=app,
                n=n,
                nominal_speedup=t1 / app_times[n],
                actual_speedup=t1 / row.execution_time_ps,
                frequency_hz=row.frequency_hz,
                voltage=row.voltage,
                power_w=row.total_power_w,
                budget_w=budget,
                f_nominal_hz=context.f_nominal,
            )
        )
    return results


def _best_frequency_under_budget(
    context: ExperimentContext,
    models: Sequence[WorkloadModel],
    times: Dict[str, Dict[int, int]],
    core_counts: Sequence[int],
    budget_w: float,
    executor: SweepExecutor,
) -> Dict[Tuple[str, int], OptimizerRow]:
    """Highest ladder frequency whose measured power fits the budget.

    Applications whose 1-core nominal profile is missing cannot be
    normalised and are skipped with a ``[quarantine]`` notice; the rest
    go through one optimizer campaign.  Returns the chosen rows keyed
    by (application, N), in the campaign's (application, N) order.
    """
    searchable = []
    for model in models:
        if 1 in times[model.name]:
            searchable.append(model)
        else:
            print(
                f"[quarantine] {model.name}: the 1-core nominal profile "
                "failed; skipping the application",
                file=sys.stderr,
            )
    campaign = run_optimizer(
        context,
        searchable,
        MaxSpeedupUnderBudget(),
        core_counts=core_counts,
        budget_w=budget_w,
        executor=executor,
    )
    return {(row.app, row.n): row for row in campaign.rows}


@dataclass(frozen=True)
class OverclockRow:
    """One overclocked configuration versus its nominal-cap baseline.

    The paper's Section 4.2 closing remark: power-thrifty memory-bound
    codes at low N leave budget headroom one could spend on
    *overclocking* — but since the memory subsystem keeps its 75 ns
    latency, the widening processor-memory gap offsets part of the gain.
    """

    app: str
    n: int
    baseline_speedup: float
    overclocked_speedup: float
    overclock_frequency_hz: float
    power_w: float
    budget_w: float
    #: The context's nominal frequency, carried so derived properties
    #: work on any technology node.  The default is the historical
    #: 65 nm value, which migrates rows stored before the field existed.
    f_nominal_hz: float = 3.2e9

    @property
    def clock_gain(self) -> float:
        """Overclock frequency relative to nominal (e.g. 1.25 = +25 %)."""
        return self.overclock_frequency_hz / self.f_nominal_hz

    @property
    def speedup_gain(self) -> float:
        """Realised speedup relative to the nominal-frequency baseline."""
        return self.overclocked_speedup / self.baseline_speedup

    @property
    def gap_offset(self) -> float:
        """Fraction of the clock gain eaten by the fixed-latency memory.

        1.0 means overclocking bought nothing; 0.0 means the full clock
        gain was realised.
        """
        clock = self.clock_gain
        if clock <= 1.0:
            return 0.0
        return (clock - self.speedup_gain) / (clock - 1.0)


def run_overclocking_study(
    context: ExperimentContext,
    model: WorkloadModel,
    n_threads: int,
    budget_w: Optional[float] = None,
    f_boost_max_hz: float = 4.4e9,
    step_hz: float = 200e6,
) -> OverclockRow:
    """Spend leftover budget headroom on overclocking one configuration.

    Voltage above the nominal bin is extrapolated from the V/f table's
    top slope, as an enthusiast datasheet would.  The chip (not the
    memory) is overclocked, so memory stalls grow in relative terms —
    the offset the paper predicts.
    """
    budget = budget_w if budget_w is not None else (
        context.calibration.max_operational_power_w
    )
    profile = profile_application(context, model, sorted({1, n_threads}))
    t1 = profile.entries[1].execution_time_ps
    baseline, baseline_power = context.run(model, n_threads, context.f_nominal)
    baseline_speedup = t1 / baseline.execution_time_ps

    # Extrapolate voltage linearly beyond the table's top bin.
    table = context.vf_table
    f_hi = table.f_max
    f_lo = f_hi - step_hz
    slope = (
        table.voltage_for_frequency(f_hi) - table.voltage_for_frequency(f_lo)
    ) / step_hz

    def boosted_voltage(f_hz: float) -> float:
        return table.voltage_for_frequency(f_hi) + slope * (f_hz - f_hi)

    def run_at(f_hz: float):
        return _run_boosted(context, model, n_threads, f_hz, boosted_voltage(f_hz))

    best_f = context.f_nominal
    best_result, best_power = baseline, baseline_power
    f = context.f_nominal + step_hz
    while f <= f_boost_max_hz + 1e6:
        result, power = run_at(f)
        if power.total_w > budget:
            break
        best_f, best_result, best_power = f, result, power
        f += step_hz

    return OverclockRow(
        app=model.name,
        n=n_threads,
        baseline_speedup=baseline_speedup,
        overclocked_speedup=t1 / best_result.execution_time_ps,
        overclock_frequency_hz=best_f,
        power_w=best_power.total_w,
        budget_w=budget,
        f_nominal_hz=context.f_nominal,
    )


def _run_boosted(
    context: ExperimentContext,
    model: WorkloadModel,
    n_threads: int,
    f_hz: float,
    voltage: float,
):
    """Run above the nominal bin (bypasses the context's clamp)."""
    config = context.cmp_config.with_operating_point(f_hz, voltage)
    return context._simulate(model, n_threads, config)
