"""Adaptive design-space optimization: coarse-to-fine search over (N, f).

The paper's deliverable is an *optimization* — pick the (N, V/f)
configuration that minimizes power at iso-performance (Scenario I) or
maximizes speedup under a power budget (Scenario II) — over the
200 MHz profiling ladder.  The power/performance surfaces on that
ladder are smooth and monotone (power rises with frequency, time
falls), so a successive-refinement search finds the same optimum as an
exhaustive sweep with a fraction of the simulations.

The engine in this module searches each (application, N) pair's
frequency ladder coarse-to-fine:

1. **round 0** probes a coarse sub-ladder that always includes both
   endpoints, so a monotone feasibility predicate is bracketed (or
   proven uniform) immediately;
2. each later round evaluates the *frontier* — the midpoints every
   active search needs next — as one flat fan-out through the
   :class:`~repro.harness.executor.SweepExecutor`, so refinement rounds
   parallelize across workers and across searches;
3. brackets halve until they reach single-step resolution, at which
   point the chosen grid frequency is exact — the same point an
   exhaustive sweep of the ladder would pick.

Evaluations go through :func:`~repro.harness.profiling.simulate_point`
under the standard ``simpoint`` cache key, so optimizer probes share
the result cache with the scenario sweeps: a warm cache makes
refinement incremental across campaigns and ``--resume`` runs, and the
chosen row is bitwise-identical to the corresponding exhaustive
measurement.  Scenario II's Figure 4 pipeline
(:func:`~repro.harness.scenario2.run_scenario2`) is a thin layer over
this engine.

For budget-style objectives the final bracket also yields the paper's
"linearly scaling between the two" profiled points: the budget boundary
is located by linear interpolation between the bracketing measurements
and reported as :attr:`OptimizerRow.f_interpolated_hz`.  The
interpolated frequency is metadata — the chosen operating point stays
on the grid so adaptive results match the default pipelines exactly.

Objectives are pluggable (:data:`OBJECTIVES`): ``power-iso`` (Scenario
I as a measured search), ``speedup-budget`` (Scenario II), and the
``edp``/``ed2p`` energy-delay products the report's Scenario III
extension plots.  The monotone objectives refine a boundary bracket by
bisection; the energy-delay objectives are unimodal in frequency and
refine a three-point bracket around the incumbent minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harness.context import ExperimentContext
from repro.harness.executor import SweepExecutor
from repro.harness.profiling import (
    SimPointRow,
    SimPointTask,
    precompile_hook,
    sim_point_key,
    simulate_point,
)
from repro.telemetry.timeseries import get_sampler
from repro.telemetry.trace import get_tracer
from repro.units import PICO
from repro.workloads.base import WorkloadModel

#: Default refinement ladder step (the paper's profiling grid).
DEFAULT_STEP_HZ = 200e6


def frequency_ladder(
    context: ExperimentContext, step_hz: float = DEFAULT_STEP_HZ
) -> List[float]:
    """The profiling ladder: ``step_hz`` steps from the floor to nominal.

    The only profiling ladder in the repository: Scenario II's budget
    search and every optimizer campaign probe these frequencies.
    """
    points: List[float] = []
    f = context.f_min
    while f < context.f_nominal - 1e6:
        points.append(f)
        f += step_hz
    points.append(context.f_nominal)
    return points


def _energy_j(row: SimPointRow) -> float:
    """Energy of one measured point (power times execution time)."""
    return row.total_power_w * (row.execution_time_ps * PICO)


class MinPowerAtIsoPerformance:
    """Scenario I as a measured search: least power still meeting T1.

    Execution time falls monotonically with frequency, so the feasible
    region (``T_N(f) <= T1``) is a suffix of the ladder; the optimum is
    its lowest frequency — the least power that holds 1-core
    performance.
    """

    name = "power-iso"
    kind = "boundary"
    #: The low-frequency side of the ladder is the *infeasible* side.
    feasible_low = False

    def feasible(self, row: SimPointRow, t1_ps: int, budget_w: float) -> bool:
        return row.execution_time_ps <= t1_ps

    def constraint(
        self, row: SimPointRow, t1_ps: int, budget_w: float
    ) -> Tuple[float, float]:
        """(observed value, limit) of the binding constraint."""
        return float(row.execution_time_ps), float(t1_ps)

    def metric(self, row: SimPointRow, t1_ps: int) -> float:
        return row.total_power_w

    def fallback_index(self, num_points: int) -> int:
        """No frequency meets T1: nominal is the best-effort point."""
        return num_points - 1


class MaxSpeedupUnderBudget:
    """Scenario II: the highest frequency whose power fits the budget.

    Power rises monotonically with frequency, so the feasible region is
    a prefix of the ladder; the optimum is its highest frequency.
    """

    name = "speedup-budget"
    kind = "boundary"
    feasible_low = True

    def feasible(self, row: SimPointRow, t1_ps: int, budget_w: float) -> bool:
        return row.total_power_w <= budget_w

    def constraint(
        self, row: SimPointRow, t1_ps: int, budget_w: float
    ) -> Tuple[float, float]:
        return row.total_power_w, budget_w

    def metric(self, row: SimPointRow, t1_ps: int) -> float:
        return t1_ps / row.execution_time_ps

    def fallback_index(self, num_points: int) -> int:
        """Even the floor exceeds the budget: the floor is the best the
        chip can do (the paper's range stops at 200 MHz)."""
        return 0


class MinEnergyDelay:
    """Scenario III: minimize E * T^k (EDP for k=1, ED^2P for k=2).

    Energy-delay products are unimodal in frequency — leakage dominates
    at the slow end, dynamic power at the fast end — so the search
    refines a three-point bracket around the incumbent minimum.
    """

    kind = "unimodal"

    def __init__(self, delay_exponent: int = 1) -> None:
        if delay_exponent < 1:
            raise ConfigurationError("delay_exponent must be >= 1")
        self.delay_exponent = delay_exponent
        self.name = "edp" if delay_exponent == 1 else f"ed{delay_exponent}p"

    def feasible(self, row: SimPointRow, t1_ps: int, budget_w: float) -> bool:
        return True

    def metric(self, row: SimPointRow, t1_ps: int) -> float:
        time_s = row.execution_time_ps * PICO
        return _energy_j(row) * time_s ** self.delay_exponent


#: The pluggable objective registry (also the CLI's ``--objective`` set).
OBJECTIVES = {
    "power-iso": MinPowerAtIsoPerformance,
    "speedup-budget": MaxSpeedupUnderBudget,
    "edp": partial(MinEnergyDelay, delay_exponent=1),
    "ed2p": partial(MinEnergyDelay, delay_exponent=2),
}


def objective_by_name(name: str):
    """Instantiate a registered objective, or raise with the known set."""
    try:
        factory = OBJECTIVES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {name!r}; expected one of "
            f"{', '.join(sorted(OBJECTIVES))}"
        ) from None
    return factory()


def _coarse_indices(num_points: int, stride: int) -> List[int]:
    """Round-0 probe set: every ``stride``-th index plus both endpoints."""
    points = set(range(0, num_points, stride))
    points.add(num_points - 1)
    return sorted(points)


def _default_stride(num_points: int) -> int:
    """Largest power of two below the ladder length (halves cleanly)."""
    if num_points <= 2:
        return 1
    return 2 ** max(0, (num_points - 1).bit_length() - 1)


def pick_boundary(
    flags: Sequence[bool], feasible_low: bool
) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
    """Select the boundary optimum from a fully evaluated ladder.

    Returns ``(index, bracket)`` where ``index`` is the optimal ladder
    position (``None`` when nothing is feasible) and ``bracket`` the
    adjacent (feasible, infeasible) flip pair, ``None`` when feasibility
    is uniform.  This is the single pick rule both the exhaustive sweep
    and the refined search reduce to, so their tie semantics agree by
    construction.
    """
    feasible = [i for i, flag in enumerate(flags) if flag]
    if not feasible:
        return None, None
    index = max(feasible) if feasible_low else min(feasible)
    if feasible_low:
        bracket = (index, index + 1) if index + 1 < len(flags) else None
    else:
        bracket = (index - 1, index) if index > 0 else None
    return index, bracket


class _BoundarySearch:
    """Bisect a monotone feasibility boundary on a ladder of indices."""

    def __init__(self, num_points: int, feasible_low: bool, stride: int):
        self.num_points = num_points
        self.feasible_low = feasible_low
        self.stride = max(1, min(stride, num_points - 1)) if num_points > 1 else 1
        self.known: Dict[int, bool] = {}
        self.bracket: Optional[Tuple[int, int]] = None
        self.done = num_points == 0
        self.result: Optional[int] = None
        self.boundary: Optional[Tuple[int, int]] = None

    def frontier(self) -> List[int]:
        """Ladder indices this search needs evaluated next."""
        if self.done:
            return []
        if self.bracket is None:
            return [
                i
                for i in _coarse_indices(self.num_points, self.stride)
                if i not in self.known
            ]
        lo, hi = self.bracket
        return [(lo + hi) // 2] if hi - lo > 1 else []

    def advance(self) -> None:
        """Fold the frontier's results in and shrink the bracket."""
        if self.done:
            return
        if self.bracket is None:
            probes = _coarse_indices(self.num_points, self.stride)
            flags = [self.known[i] for i in probes]
            flip = next(
                (
                    (probes[k], probes[k + 1])
                    for k in range(len(probes) - 1)
                    if flags[k] != flags[k + 1]
                ),
                None,
            )
            if flip is None:
                # Feasibility is uniform across the coarse ladder; with
                # a monotone predicate (endpoints included) that means
                # uniform across the whole ladder.
                self.done = True
                if flags[0]:
                    self.result = (
                        self.num_points - 1 if self.feasible_low else 0
                    )
                return
            self.bracket = flip
        else:
            lo, hi = self.bracket
            mid = (lo + hi) // 2
            if self.known[mid] == self.known[lo]:
                self.bracket = (mid, hi)
            else:
                self.bracket = (lo, mid)
        lo, hi = self.bracket
        if hi - lo <= 1:
            self.done = True
            self.boundary = (lo, hi)
            self.result = lo if self.known[lo] else hi


class _UnimodalSearch:
    """Refine a three-point bracket around a unimodal metric's minimum."""

    def __init__(self, num_points: int, stride: int):
        self.num_points = num_points
        self.stride = max(1, min(stride, num_points - 1)) if num_points > 1 else 1
        self.known: Dict[int, float] = {}
        self.done = num_points == 0
        self.result: Optional[int] = None
        self.boundary: Optional[Tuple[int, int]] = None

    def _best(self) -> int:
        return min(sorted(self.known), key=lambda i: (self.known[i], i))

    def _gaps(self) -> Tuple[int, int, int]:
        """(previous probe, incumbent minimum, next probe)."""
        probes = sorted(self.known)
        best = self._best()
        at = probes.index(best)
        prev = probes[at - 1] if at > 0 else best
        nxt = probes[at + 1] if at + 1 < len(probes) else best
        return prev, best, nxt

    def frontier(self) -> List[int]:
        if self.done:
            return []
        if not self.known:
            return _coarse_indices(self.num_points, self.stride)
        prev, best, nxt = self._gaps()
        points = []
        if best - prev > 1:
            points.append((prev + best) // 2)
        if nxt - best > 1:
            points.append((best + nxt) // 2)
        return points

    def advance(self) -> None:
        if self.done:
            return
        prev, best, nxt = self._gaps()
        if best - prev <= 1 and nxt - best <= 1:
            self.done = True
            self.result = best


@dataclass(frozen=True)
class OptimizerRow:
    """One (application, N) optimum chosen by an optimizer campaign.

    ``metric`` is the objective's headline scalar at the chosen point
    (power in watts for ``power-iso``, speedup for ``speedup-budget``,
    the energy-delay product in J*s^k for ``edp``/``ed2p``).
    ``f_interpolated_hz`` is the linearly interpolated constraint
    boundary between the bracketing profiled points; it equals
    ``frequency_hz`` when the constraint never flips on the ladder (or
    the objective has no constraint).
    """

    objective: str
    app: str
    n: int
    frequency_hz: float
    voltage: float
    execution_time_ps: int
    total_power_w: float
    speedup: float
    metric: float
    feasible: bool
    f_interpolated_hz: float
    f_nominal_hz: float
    budget_w: float
    evaluations: int
    grid_points: int

    @property
    def energy_j(self) -> float:
        """Energy at the chosen point (power times execution time)."""
        return self.total_power_w * (self.execution_time_ps * PICO)


@dataclass
class OptimizerCampaign:
    """Everything one :func:`run_optimizer` invocation produced.

    ``evaluations`` counts the distinct grid points the search
    requested — exactly the simulations a cold cache would run.
    ``cold_evaluations`` is how many of them actually simulated in
    *this* invocation (the rest were result-cache hits), so a warm
    re-run reports the same ``evaluations`` with ``cold_evaluations``
    of zero.
    """

    objective: str
    rows: List[OptimizerRow] = field(default_factory=list)
    evaluations: int = 0
    cold_evaluations: int = 0
    cache_hits: int = 0
    baseline_evaluations: int = 0
    exhaustive_evaluations: int = 0
    rounds: int = 0
    #: (app, n) searches abandoned because a probe failed/quarantined.
    skipped: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def simulations_saved(self) -> int:
        """Grid evaluations the adaptive search avoided."""
        return self.exhaustive_evaluations - self.evaluations

    @property
    def evaluation_ratio(self) -> float:
        """Adaptive evaluations as a fraction of the exhaustive grid."""
        if not self.exhaustive_evaluations:
            return 0.0
        return self.evaluations / self.exhaustive_evaluations

    def summary(self) -> str:
        """One human-readable accounting line for the CLI."""
        saved = self.simulations_saved
        percent = 100.0 * (1.0 - self.evaluation_ratio)
        return (
            f"[optimizer] {self.objective}: {self.evaluations} grid "
            f"evaluations ({self.cold_evaluations} simulated, "
            f"{self.cache_hits} cached) vs {self.exhaustive_evaluations} "
            f"exhaustive — saved {saved} ({percent:.0f}%) in "
            f"{self.rounds} round(s)"
        )


class _SearchState:
    """One (application, N) search plus everything its rows need."""

    def __init__(self, model: WorkloadModel, n: int, search) -> None:
        self.model = model
        self.n = n
        self.search = search
        self.rows: Dict[int, SimPointRow] = {}
        self.evaluations = 0
        self.failed = False


def _interpolated_frequency(
    objective,
    ladder: Sequence[float],
    state: _SearchState,
    boundary: Optional[Tuple[int, int]],
    chosen_hz: float,
    t1_ps: int,
    budget_w: float,
) -> float:
    """Locate the constraint boundary between two profiled points.

    The paper interpolates "by linearly scaling between the two"
    profiled measurements; the crossing is clamped into the bracket so
    measurement noise can never put it outside the profiled pair.
    """
    if boundary is None or not hasattr(objective, "constraint"):
        return chosen_hz
    lo, hi = boundary
    row_lo, row_hi = state.rows.get(lo), state.rows.get(hi)
    if row_lo is None or row_hi is None:
        return chosen_hz
    value_lo, limit = objective.constraint(row_lo, t1_ps, budget_w)
    value_hi, _ = objective.constraint(row_hi, t1_ps, budget_w)
    f_lo, f_hi = ladder[lo], ladder[hi]
    if value_hi == value_lo:
        return chosen_hz
    crossing = f_lo + (limit - value_lo) * (f_hi - f_lo) / (value_hi - value_lo)
    return min(max(crossing, f_lo), f_hi)


def run_optimizer(
    context: ExperimentContext,
    models: Sequence[WorkloadModel],
    objective,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    budget_w: Optional[float] = None,
    executor: Optional[SweepExecutor] = None,
    step_hz: float = DEFAULT_STEP_HZ,
    coarse_stride: Optional[int] = None,
    exhaustive: bool = False,
) -> OptimizerCampaign:
    """Search every (application, N) pair's ladder for the optimum.

    With ``exhaustive=True`` the full ladder is evaluated in one round
    and the same pick rule applied — the reference the differential
    tests and ``bench_optimizer.py`` hold the adaptive search to.

    A probe that fails (or quarantines, under a retrying executor)
    abandons that (application, N) search — recorded in
    :attr:`OptimizerCampaign.skipped` and in the executor's ``failed``
    accumulator for ``failedpoint`` persistence — without aborting the
    campaign.
    """
    if isinstance(objective, str):
        objective = objective_by_name(objective)
    executor = executor if executor is not None else SweepExecutor()
    budget = budget_w if budget_w is not None else (
        context.calibration.max_operational_power_w
    )
    ladder = frequency_ladder(context, step_hz)
    stride = coarse_stride if coarse_stride is not None else _default_stride(
        len(ladder)
    )
    tracer = get_tracer()
    sampler = get_sampler()

    campaign = OptimizerCampaign(objective=objective.name)
    with tracer.span(
        "optimizer.campaign",
        objective=objective.name,
        apps=len(models),
        exhaustive=exhaustive,
    ):
        # Baselines: every application's 1-core nominal time (T1), the
        # reference both feasibility and the speedup column are built
        # on.  Shared with the scenario pipelines through the cache.
        baseline_tasks = [SimPointTask(spec=m.spec, n=1) for m in models]
        baseline_outcomes = executor.map(
            partial(simulate_point, context),
            baseline_tasks,
            key_configs=[sim_point_key(context, t) for t in baseline_tasks],
            precompile=precompile_hook(context),
        )
        campaign.baseline_evaluations = len(baseline_tasks)
        t1_by_app: Dict[str, int] = {}
        for task, outcome in zip(baseline_tasks, baseline_outcomes):
            if outcome.ok:
                t1_by_app[task.spec.name] = outcome.value.execution_time_ps

        states: List[_SearchState] = []
        for model in models:
            if model.name not in t1_by_app:
                campaign.skipped.append((model.name, 1))
                continue
            for n in model.supported_thread_counts(core_counts):
                if objective.kind == "boundary":
                    search = _BoundarySearch(
                        len(ladder), objective.feasible_low, stride
                    )
                else:
                    search = _UnimodalSearch(len(ladder), stride)
                states.append(_SearchState(model, n, search))
        campaign.exhaustive_evaluations = len(ladder) * len(states)

        if exhaustive:
            for state in states:
                state.search.stride = 1

        while True:
            frontier: List[Tuple[_SearchState, int]] = []
            for state in states:
                if state.failed:
                    continue
                if exhaustive:
                    wanted = (
                        []
                        if state.search.done or state.search.known
                        else list(range(len(ladder)))
                    )
                else:
                    wanted = state.search.frontier()
                frontier.extend((state, index) for index in wanted)
            if not frontier:
                break
            campaign.rounds += 1
            tasks = [
                SimPointTask(
                    spec=state.model.spec, n=state.n, frequency_hz=ladder[index]
                )
                for state, index in frontier
            ]
            if sampler.enabled:
                sampler.sample("optimizer.frontier_points", float(len(tasks)))
                widths = [
                    state.search.bracket[1] - state.search.bracket[0]
                    for state, _ in frontier
                    if getattr(state.search, "bracket", None) is not None
                ]
                if widths:
                    sampler.sample("optimizer.bracket_steps", float(max(widths)))
            with tracer.span(
                "optimizer.round",
                index=campaign.rounds,
                points=len(tasks),
            ):
                outcomes = executor.map(
                    partial(simulate_point, context),
                    tasks,
                    key_configs=[
                        sim_point_key(context, task) for task in tasks
                    ],
                    precompile=precompile_hook(context),
                )
            advanced = set()
            for (state, index), outcome in zip(frontier, outcomes):
                state.evaluations += 1
                campaign.evaluations += 1
                if not outcome.ok:
                    state.failed = True
                    campaign.skipped.append((state.model.name, state.n))
                    continue
                if outcome.cached:
                    campaign.cache_hits += 1
                else:
                    campaign.cold_evaluations += 1
                row = outcome.value
                state.rows[index] = row
                t1_ps = t1_by_app[state.model.name]
                if objective.kind == "boundary":
                    state.search.known[index] = objective.feasible(
                        row, t1_ps, budget
                    )
                else:
                    state.search.known[index] = objective.metric(row, t1_ps)
                advanced.add(id(state))
            for state in states:
                if id(state) in advanced and not state.failed:
                    if exhaustive:
                        _resolve_exhaustive(state, objective)
                    else:
                        state.search.advance()

        for state in states:
            if state.failed:
                continue
            row = _row_from_state(
                state, objective, ladder, context, t1_by_app, budget
            )
            if row is not None:
                campaign.rows.append(row)
        campaign.rows.sort(key=lambda r: (r.app, r.n))
        if sampler.enabled:
            sampler.sample("optimizer.evaluations", float(campaign.evaluations))
            sampler.sample(
                "optimizer.simulations_saved", float(campaign.simulations_saved)
            )
    return campaign


def _resolve_exhaustive(state: _SearchState, objective) -> None:
    """Apply the shared pick rule to a fully evaluated ladder."""
    search = state.search
    if len(search.known) < search.num_points:
        return
    if objective.kind == "boundary":
        flags = [search.known[i] for i in range(search.num_points)]
        index, bracket = pick_boundary(flags, objective.feasible_low)
        search.result = index
        search.boundary = bracket
    else:
        search.result = min(
            range(search.num_points), key=lambda i: (search.known[i], i)
        )
    search.done = True


def _row_from_state(
    state: _SearchState,
    objective,
    ladder: Sequence[float],
    context: ExperimentContext,
    t1_by_app: Dict[str, int],
    budget: float,
) -> Optional[OptimizerRow]:
    """Assemble the final row for one resolved (application, N) search."""
    search = state.search
    index = search.result
    feasible = index is not None
    if index is None:
        index = objective.fallback_index(search.num_points)
    row = state.rows.get(index)
    if row is None:
        return None
    t1_ps = t1_by_app[state.model.name]
    chosen_hz = ladder[index]
    boundary = getattr(search, "boundary", None)
    return OptimizerRow(
        objective=objective.name,
        app=state.model.name,
        n=state.n,
        frequency_hz=chosen_hz,
        voltage=row.voltage,
        execution_time_ps=row.execution_time_ps,
        total_power_w=row.total_power_w,
        speedup=t1_ps / row.execution_time_ps,
        metric=objective.metric(row, t1_ps),
        feasible=feasible,
        f_interpolated_hz=_interpolated_frequency(
            objective, ladder, state, boundary, chosen_hz, t1_ps, budget
        ),
        f_nominal_hz=context.f_nominal,
        budget_w=budget,
        evaluations=state.evaluations,
        grid_points=search.num_points,
    )
