"""Nominal-V/f profiling (the first step of Sections 4.1 and 4.2).

A profile runs an application at nominal voltage and frequency on every
supported core count, recording execution time and power.  From it come
the application's nominal parallel efficiency curve (Eq. 6), its nominal
speedups, and the single-core power baseline the Figure 3 normalisations
use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.context import ExperimentContext
from repro.harness.executor import SweepExecutor
from repro.power.chippower import ChipPowerResult
from repro.sim.cmp import KernelStats, SimulationResult
from repro.workloads.base import WorkloadModel, WorkloadSpec


@dataclass
class KernelAggregate:
    """Kernel profiling accumulated across many simulation runs.

    :meth:`ExperimentContext.run <repro.harness.context.ExperimentContext.run>`
    feeds every run's :class:`~repro.sim.cmp.KernelStats` into the
    context's aggregate, so a whole figure pipeline can report one
    ops/sec + fast-path summary (the ``--profile`` CLI flag).  Runs are
    counted wherever they happened: simulations fanned out to worker
    processes come back as
    :class:`~repro.telemetry.record.KernelRecord` telemetry through the
    executor's outcome channel
    (:meth:`~repro.harness.executor.SweepExecutor.fold_telemetry_into`),
    and points served from the result cache replay the original
    evaluation's records, counted separately as :attr:`cached_runs`.
    """

    #: Simulations executed for this aggregate (any process).
    runs: int = 0
    #: Simulations replayed from the result cache; their op counters are
    #: included in the totals below, but their wall time reflects the
    #: *original* evaluation, not this invocation.
    cached_runs: int = 0
    total_ops: int = 0
    fast_path_ops: int = 0
    slow_path_ops: int = 0
    barrier_ops: int = 0
    sim_wall_s: float = 0.0
    #: Compile seconds: the runs' own compiles plus the coordinator's
    #: precompiles (:meth:`ExperimentContext.precompile
    #: <repro.harness.context.ExperimentContext.precompile>`).
    compile_s: float = 0.0
    compile_cache_hits: int = 0
    #: Runs whose compile bumped an older program out of the bounded
    #: stream cache; a nonzero count on a repetitive campaign means the
    #: cache is too small for its working set.
    compile_cache_evictions: int = 0
    subsystem_s: Dict[str, float] = field(default_factory=dict)

    def add(self, kernel: KernelStats) -> None:
        """Fold one in-process run's kernel stats into the aggregate."""
        self.add_record(kernel)

    def add_record(self, kernel, cached: bool = False) -> None:
        """Fold one run into the aggregate.

        ``kernel`` is any :class:`~repro.sim.cmp.KernelStats`-shaped
        object, including the flattened
        :class:`~repro.telemetry.record.KernelRecord` that crosses
        process boundaries (its ``subsystem_s`` is a tuple of pairs
        rather than a dict).  ``cached`` marks a cache replay.
        """
        if cached:
            self.cached_runs += 1
        else:
            self.runs += 1
        self.total_ops += kernel.total_ops
        self.fast_path_ops += kernel.fast_path_ops
        self.slow_path_ops += kernel.slow_path_ops
        self.barrier_ops += kernel.barrier_ops
        self.sim_wall_s += kernel.sim_wall_s
        self.compile_s += kernel.compile_s
        self.compile_cache_hits += 1 if kernel.compile_cache_hit else 0
        self.compile_cache_evictions += 1 if kernel.compile_cache_evicted else 0
        subsystems = kernel.subsystem_s
        if isinstance(subsystems, dict):
            subsystems = subsystems.items()
        # Sorted fold: parallel workers hand records back in completion
        # order, so accumulate alphabetically to keep the float totals
        # (and the dict's insertion order) independent of scheduling.
        for name, seconds in sorted(subsystems):
            self.subsystem_s[name] = self.subsystem_s.get(name, 0.0) + seconds

    @property
    def ops_per_sec(self) -> float:
        """Aggregate simulated ops per host second in the kernel loop."""
        return self.total_ops / self.sim_wall_s if self.sim_wall_s > 0 else 0.0

    @property
    def fast_path_ratio(self) -> float:
        """Fraction of all ops the fast path resolved."""
        return self.fast_path_ops / self.total_ops if self.total_ops else 0.0

    def summary(self) -> str:
        """One human-readable line for the CLI's ``--profile`` output."""
        counted = self.runs + self.cached_runs
        if not counted:
            return "[kernel] no simulations ran"
        cached = f" (+{self.cached_runs} cached)" if self.cached_runs else ""
        line = (
            f"[kernel] {self.runs} runs{cached}, {self.total_ops:,} ops at "
            f"{self.ops_per_sec:,.0f} ops/s, "
            f"fast-path {100.0 * self.fast_path_ratio:.1f}%, "
            f"compile {self.compile_s:.2f}s "
            f"({self.compile_cache_hits}/{counted} stream-cache hits)"
        )
        if self.compile_cache_evictions:
            line += (
                f", {self.compile_cache_evictions} stream-cache evictions"
            )
        if self.subsystem_s:
            parts = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in sorted(self.subsystem_s.items())
            )
            line += f"\n[kernel] slow-path time: {parts}"
        return line


@dataclass(frozen=True)
class ProfileEntry:
    """One (application, N) point at nominal V/f."""

    n: int
    result: SimulationResult
    power: ChipPowerResult

    @property
    def execution_time_ps(self) -> int:
        """Measured execution time (picoseconds)."""
        return self.result.execution_time_ps


@dataclass
class ApplicationProfile:
    """An application's nominal-V/f characterisation."""

    app: str
    entries: Dict[int, ProfileEntry]

    def core_counts(self) -> List[int]:
        """Profiled core counts, ascending."""
        return sorted(self.entries)

    def nominal_efficiency(self, n: int) -> float:
        """Eq. 6 from measured times: ``T1 / (N * TN)``."""
        self._require(1)
        self._require(n)
        t1 = self.entries[1].execution_time_ps
        tn = self.entries[n].execution_time_ps
        return t1 / (n * tn)

    def nominal_speedup(self, n: int) -> float:
        """``T1 / TN`` at nominal V/f."""
        self._require(1)
        self._require(n)
        return self.entries[1].execution_time_ps / self.entries[n].execution_time_ps

    def _require(self, n: int) -> None:
        if n not in self.entries:
            raise ConfigurationError(f"{self.app}: no profile entry for N={n}")


@dataclass(frozen=True)
class SimPointRow:
    """The flat, cacheable summary of one simulated operating point.

    This is the unit the :class:`~repro.harness.executor.SweepExecutor`
    memoizes: every field is a JSON-representable scalar derived from
    one ``context.run`` call, and together they cover what the
    Scenario I/II pipelines, the characterization command, and the
    design-space sweeps read off a run.
    """

    app: str
    n: int
    frequency_hz: float
    voltage: float
    execution_time_ps: int
    total_power_w: float
    core_power_density_w_m2: float
    average_temperature_c: float
    average_cpi: float
    l1_miss_rate: float
    memory_stall_fraction: float
    bus_utilisation: float


@dataclass(frozen=True)
class SimPointTask:
    """One (workload, N, V/f) simulation request.

    ``frequency_hz``/``voltage`` of ``None`` mean "nominal" and "look
    the V/f table up", exactly like
    :meth:`~repro.harness.context.ExperimentContext.run`.
    """

    spec: WorkloadSpec
    n: int
    frequency_hz: Optional[float] = None
    voltage: Optional[float] = None


def simulate_point(context: ExperimentContext, task: SimPointTask) -> SimPointRow:
    """Worker: simulate one operating point and flatten the outcome."""
    model = WorkloadModel(task.spec)
    result, power = context.run(model, task.n, task.frequency_hz, task.voltage)
    return SimPointRow(
        app=task.spec.name,
        n=task.n,
        frequency_hz=result.config.frequency_hz,
        voltage=result.config.voltage,
        execution_time_ps=result.execution_time_ps,
        total_power_w=power.total_w,
        core_power_density_w_m2=power.core_power_density_w_m2,
        average_temperature_c=power.average_temperature_c,
        average_cpi=result.average_cpi,
        l1_miss_rate=result.l1_miss_rate(),
        memory_stall_fraction=result.memory_stall_fraction(),
        bus_utilisation=result.bus.utilisation(result.execution_time_ps),
    )


def sim_point_key(context: ExperimentContext, task: SimPointTask) -> dict:
    """The cache-key config of one :func:`simulate_point` evaluation.

    Keyed on the resolved operating point rather than the raw request,
    so a nominal-default request and an explicit request for the same
    (frequency, voltage) share one cache entry.
    """
    f_hz, v = context.operating_point(task.frequency_hz, task.voltage)
    return {
        "kind": "simpoint",
        "context": context.fingerprint(),
        "spec": task.spec,
        "n": task.n,
        "frequency_hz": f_hz,
        "voltage": v,
    }


def precompile_hook(context: ExperimentContext):
    """A :meth:`SweepExecutor.map` ``precompile`` hook for (spec, N) tasks.

    Returns a callable the executor invokes in the coordinator with the
    points its result cache could not satisfy; each distinct
    ``(task.spec, task.n)`` pair is compiled once into the process-wide
    :data:`repro.sim.ops.stream_cache` (at the context's workload
    scale), so forked workers inherit warm streams and a fully cached
    sweep compiles nothing.
    """

    def warm(points) -> None:
        seen = set()
        for task in points:
            pair = (task.spec, task.n)
            if pair not in seen:
                seen.add(pair)
                context.precompile(WorkloadModel(task.spec), task.n)

    return warm


def profile_rows(
    context: ExperimentContext,
    model: WorkloadModel,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    executor: Optional[SweepExecutor] = None,
) -> Dict[int, SimPointRow]:
    """Nominal-V/f profile of one application as flat, cacheable rows.

    The parallel-and-memoizing counterpart of
    :func:`profile_application`: points fan out across the executor's
    workers, and on a warm cache no simulation runs at all.
    """
    executor = executor if executor is not None else SweepExecutor()
    supported = model.supported_thread_counts(core_counts)
    if 1 not in supported:
        raise ConfigurationError(f"{model.name}: the 1-core baseline is required")
    tasks = [SimPointTask(spec=model.spec, n=n) for n in supported]
    rows = executor.map_values(
        partial(simulate_point, context),
        tasks,
        key_configs=[sim_point_key(context, task) for task in tasks],
        precompile=precompile_hook(context),
    )
    return {row.n: row for row in rows}


def profile_application(
    context: ExperimentContext,
    model: WorkloadModel,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> ApplicationProfile:
    """Profile one application at nominal V/f over its supported counts."""
    entries: Dict[int, ProfileEntry] = {}
    for n in model.supported_thread_counts(core_counts):
        result, power = context.run(model, n)
        entries[n] = ProfileEntry(n=n, result=result, power=power)
    if 1 not in entries:
        raise ConfigurationError(f"{model.name}: the 1-core baseline is required")
    return ApplicationProfile(app=model.name, entries=entries)
