"""Tests for the adaptive design-space optimizer.

Four layers:

* **search-engine properties** (hypothesis) — for every monotone
  feasibility curve and every strictly unimodal metric curve, the
  refined search picks exactly the index the exhaustive pick rule
  picks, while evaluating a bounded subset of the ladder;
* **differential equivalence** — on the real simulator, the adaptive
  campaign returns bitwise the same optimum as ``exhaustive=True`` for
  every SPLASH-2 application under both boundary objectives, with
  materially fewer grid evaluations;
* **Scenario II on the engine** — ``run_scenario2`` rows equal the
  exhaustive ladder's picks, and every simulation is an executor point;
* **bugfix regressions** — the nominal-frequency field migration, the
  duplicated overclocking baseline run, the quarantined scenario-2
  profile point, and the canonical ``simpoint`` cache key.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.harness import (
    ExperimentContext,
    ResultCache,
    SweepExecutor,
    load_results,
    run_optimizer,
    run_scenario2,
    save_results,
)
from repro.harness.executor import RetryPolicy, config_key
from repro.harness.faults import ALWAYS, FaultPlan, FaultSpec
from repro.harness.optimizer import (
    DEFAULT_STEP_HZ,
    OptimizerRow,
    _BoundarySearch,
    _UnimodalSearch,
    _coarse_indices,
    _default_stride,
    frequency_ladder,
    objective_by_name,
    pick_boundary,
)
from repro.harness.profiling import SimPointTask, sim_point_key
from repro.harness.scenario2 import run_overclocking_study
from repro.harness.schema import SCHEMA_VERSION
from repro.workloads import SPLASH2, workload_by_name

# ---------------------------------------------------------------------------
# Search-engine properties (no simulator involved).
# ---------------------------------------------------------------------------


def drive(search, values):
    """Run a search to completion against a lookup table of values."""
    evaluated = set()
    while not search.done:
        frontier = search.frontier()
        assert frontier, "a live search must always want another point"
        for index in frontier:
            assert index not in evaluated, "no point is requested twice"
            evaluated.add(index)
            search.known[index] = values[index]
        search.advance()
    return evaluated


monotone_cases = st.tuples(
    st.integers(min_value=1, max_value=48),  # ladder length
    st.integers(min_value=0, max_value=48),  # boundary position
    st.booleans(),  # feasible_low
)


@given(monotone_cases)
@settings(max_examples=200, deadline=None)
def test_boundary_search_matches_exhaustive_pick(case):
    n, boundary, feasible_low = case
    if feasible_low:
        flags = [i < boundary for i in range(n)]
    else:
        flags = [i >= boundary for i in range(n)]
    search = _BoundarySearch(n, feasible_low, _default_stride(n))
    evaluated = drive(search, flags)
    expected, _bracket = pick_boundary(flags, feasible_low)
    assert search.result == expected
    # Coarse ladder plus one bisection chain: the search never needs
    # more than the round-0 probes and log2(stride) midpoints.
    stride = _default_stride(n)
    bound = len(_coarse_indices(n, stride)) + max(1, stride).bit_length()
    assert len(evaluated) <= bound


@given(monotone_cases)
@settings(max_examples=100, deadline=None)
def test_boundary_search_bracket_straddles_the_flip(case):
    n, boundary, feasible_low = case
    if feasible_low:
        flags = [i < boundary for i in range(n)]
    else:
        flags = [i >= boundary for i in range(n)]
    search = _BoundarySearch(n, feasible_low, _default_stride(n))
    drive(search, flags)
    _expected, bracket = pick_boundary(flags, feasible_low)
    if bracket is not None:
        assert search.boundary == bracket
        lo, hi = search.boundary
        assert flags[lo] != flags[hi]


unimodal_cases = st.tuples(
    st.integers(min_value=1, max_value=48),  # ladder length
    st.integers(min_value=0, max_value=47),  # minimum position (clamped)
    st.floats(min_value=0.1, max_value=5.0),  # left slope
    st.floats(min_value=0.1, max_value=5.0),  # right slope
)


@given(unimodal_cases)
@settings(max_examples=200, deadline=None)
def test_unimodal_search_finds_the_strict_minimum(case):
    n, minimum, left, right = case
    minimum = min(minimum, n - 1)
    values = [
        (minimum - i) * left if i <= minimum else (i - minimum) * right
        for i in range(n)
    ]
    search = _UnimodalSearch(n, _default_stride(n))
    evaluated = drive(search, values)
    expected = min(range(n), key=lambda i: (values[i], i))
    assert search.result == expected
    assert len(evaluated) <= n


def test_default_stride_halves_cleanly():
    assert _default_stride(16) == 8
    assert _default_stride(17) == 16
    assert _default_stride(2) == 1
    assert _default_stride(1) == 1


def test_coarse_indices_include_both_endpoints():
    assert _coarse_indices(16, 8) == [0, 8, 15]
    assert _coarse_indices(5, 2) == [0, 2, 4]
    assert _coarse_indices(1, 1) == [0]


def test_pick_boundary_nothing_feasible():
    assert pick_boundary([False, False, False], True) == (None, None)


def test_pick_boundary_prefix_and_suffix():
    assert pick_boundary([True, True, False], True) == (1, (1, 2))
    assert pick_boundary([False, True, True], False) == (1, (0, 1))
    assert pick_boundary([True, True], True) == (1, None)


def test_objective_by_name_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown objective"):
        objective_by_name("fastest")


# ---------------------------------------------------------------------------
# Differential equivalence on the real simulator.
# ---------------------------------------------------------------------------

CORE_COUNTS = (1, 16)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workload_scale=0.03)


@pytest.fixture(scope="module")
def shared_executor(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("optimizer-cache"))
    return SweepExecutor(cache=cache)


@pytest.mark.parametrize("objective", ["speedup-budget", "power-iso"])
def test_adaptive_matches_exhaustive_for_all_workloads(
    context, shared_executor, objective
):
    exhaustive = run_optimizer(
        context,
        SPLASH2,
        objective,
        core_counts=CORE_COUNTS,
        executor=shared_executor,
        exhaustive=True,
    )
    adaptive = run_optimizer(
        context,
        SPLASH2,
        objective,
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    # Bitwise identity of every chosen optimum, for every application.
    assert [r.app for r in adaptive.rows] == [r.app for r in exhaustive.rows]
    for got, want in zip(adaptive.rows, exhaustive.rows):
        assert got.frequency_hz == want.frequency_hz
        assert got.voltage == want.voltage
        assert got.execution_time_ps == want.execution_time_ps
        assert got.total_power_w == want.total_power_w
        assert got.speedup == want.speedup
        assert got.metric == want.metric
        assert got.feasible == want.feasible
    # ... at a fraction of the simulations (the issue's <= 50% gate).
    assert adaptive.evaluations <= exhaustive.evaluations / 2
    assert not adaptive.skipped


def test_adaptive_matches_exhaustive_for_edp(context, shared_executor):
    models = [workload_by_name(app) for app in ("FMM", "Radix", "Cholesky")]
    exhaustive = run_optimizer(
        context, models, "edp", core_counts=(4,),
        executor=shared_executor, exhaustive=True,
    )
    adaptive = run_optimizer(
        context, models, "edp", core_counts=(4,), executor=shared_executor
    )
    assert [(r.app, r.frequency_hz, r.metric) for r in adaptive.rows] == [
        (r.app, r.frequency_hz, r.metric) for r in exhaustive.rows
    ]


def test_interpolated_boundary_within_one_grid_step(context, shared_executor):
    campaign = run_optimizer(
        context,
        SPLASH2,
        "speedup-budget",
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    ladder = frequency_ladder(context)
    for row in campaign.rows:
        assert abs(row.f_interpolated_hz - row.frequency_hz) <= DEFAULT_STEP_HZ
        assert ladder[0] <= row.f_interpolated_hz <= ladder[-1]
        assert not math.isnan(row.f_interpolated_hz)


def test_warm_cache_repeats_without_simulating(context, shared_executor):
    first = run_optimizer(
        context,
        SPLASH2,
        "speedup-budget",
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    second = run_optimizer(
        context,
        SPLASH2,
        "speedup-budget",
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    assert second.rows == first.rows
    assert second.evaluations == first.evaluations
    assert second.cold_evaluations == 0
    assert second.cache_hits == second.evaluations


def test_scenario2_rows_match_the_exhaustive_ladder(context, shared_executor):
    """Figure 4 rows equal the exhaustive ladder's picks.

    The exhaustive campaign evaluates every ladder point and applies
    :func:`pick_boundary` — it shares no search code with the refined
    search ``run_scenario2`` runs on, so it is the oracle.  Scenario II
    runs on its own uncached executor, so its rows are fresh
    simulations rather than replays of the oracle's.
    """
    models = [workload_by_name("FMM"), workload_by_name("Radix")]
    fig4 = run_scenario2(
        context, models, core_counts=CORE_COUNTS, executor=SweepExecutor()
    )
    oracle = run_optimizer(
        context,
        models,
        "speedup-budget",
        core_counts=CORE_COUNTS,
        executor=shared_executor,
        exhaustive=True,
    )
    picks = {(r.app, r.n): r for r in oracle.rows}
    rows = [row for app_rows in fig4.values() for row in app_rows]
    assert sorted((r.app, r.n) for r in rows) == sorted(picks)
    assert any(not r.runs_at_nominal for r in rows)
    for row in rows:
        pick = picks[(row.app, row.n)]
        assert row.frequency_hz == pick.frequency_hz
        assert row.voltage == pick.voltage
        assert row.power_w == pick.total_power_w
        assert row.actual_speedup == pick.speedup


def test_scenario2_runs_every_simulation_through_the_executor(tmp_path):
    """No simulation hides inside a point: kernel runs == evaluations.

    The budget search's nominal probes share cache entries with the
    stage-1 nominal profiles (canonical ``simpoint`` keys), so a cold
    campaign already hits once per (app, N) search plus once per
    1-core baseline.
    """
    context = ExperimentContext(workload_scale=0.03)
    executor = SweepExecutor(cache=ResultCache(tmp_path))
    results = run_scenario2(
        context,
        [workload_by_name("FMM"), workload_by_name("Radix")],
        core_counts=(1, 4, 16),
        executor=executor,
    )
    searches = sum(len(rows) for rows in results.values())
    assert searches == 6
    assert context.kernel_log.runs == executor.stats.evaluated
    assert executor.stats.cache_hits == searches + len(results)


def test_campaign_accounting_is_consistent(context, shared_executor):
    campaign = run_optimizer(
        context,
        [workload_by_name("LU")],
        "speedup-budget",
        core_counts=(1, 4),
        executor=shared_executor,
    )
    assert campaign.evaluations == (
        campaign.cold_evaluations + campaign.cache_hits
    )
    assert campaign.exhaustive_evaluations == len(
        frequency_ladder(context)
    ) * len(campaign.rows)
    assert campaign.simulations_saved >= 0
    assert 0.0 < campaign.evaluation_ratio <= 1.0
    assert "speedup-budget" in campaign.summary()
    for row in campaign.rows:
        assert row.energy_j > 0.0


def test_optimizer_rows_round_trip_through_the_store(
    context, shared_executor, tmp_path
):
    campaign = run_optimizer(
        context,
        [workload_by_name("Radix")],
        "power-iso",
        core_counts=(1,),
        executor=shared_executor,
    )
    path = tmp_path / "optimizer.json"
    save_results({"optimizer": campaign.rows}, path)
    loaded = load_results(path)["optimizer"]
    assert loaded == campaign.rows
    assert all(isinstance(row, OptimizerRow) for row in loaded)


# ---------------------------------------------------------------------------
# Bugfix regressions.
# ---------------------------------------------------------------------------


def test_old_store_rows_migrate_the_nominal_frequency(tmp_path):
    """Rows stored before ``f_nominal_hz`` existed load with 3.2 GHz."""
    scenario2 = {
        "app": "FMM",
        "n": 4,
        "nominal_speedup": 2.0,
        "actual_speedup": 1.8,
        "frequency_hz": 2.6e9,
        "voltage": 1.002,
        "power_w": 15.0,
        "budget_w": 17.0,
    }
    overclock = {
        "app": "Radix",
        "n": 2,
        "baseline_speedup": 1.9,
        "overclocked_speedup": 2.0,
        "overclock_frequency_hz": 3.6e9,
        "power_w": 14.0,
        "budget_w": 17.0,
    }
    path = tmp_path / "old.json"
    path.write_text(
        json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "groups": {
                    "scenario2": [{"type": "scenario2", "data": scenario2}],
                    "overclock": [{"type": "overclock", "data": overclock}],
                },
            }
        ),
        encoding="utf-8",
    )
    loaded = load_results(path)
    s2 = loaded["scenario2"][0]
    oc = loaded["overclock"][0]
    assert s2.f_nominal_hz == 3.2e9
    assert not s2.runs_at_nominal
    assert oc.f_nominal_hz == 3.2e9
    assert oc.clock_gain == pytest.approx(3.6e9 / 3.2e9)


def test_overclocking_study_does_not_rerun_the_baseline(context):
    """The nominal-frequency baseline simulates exactly once.

    The study needs the 1-core and N-core nominal profiles plus one
    baseline measurement; with a budget so tight no boost fits, nothing
    else goes through ``context.run``.  The historical bug re-simulated
    the baseline a second time when every boosted step busted the
    budget.
    """
    model = workload_by_name("Radix")
    calls = []
    original = context.run

    def counting_run(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    context.run = counting_run
    try:
        row = run_overclocking_study(context, model, 2, budget_w=0.001)
    finally:
        del context.run
    assert row.overclock_frequency_hz == context.f_nominal
    assert row.clock_gain == 1.0
    assert len(calls) == 3  # profile n=1, profile n=2, baseline — no rerun


def test_scenario2_skips_an_app_whose_baseline_is_quarantined(capsys):
    """A permanently failing 1-core profile degrades, not crashes.

    Stage 1 of ``run_scenario2`` profiles ``sorted({1, *counts})`` per
    application, so index 0 is the first model's 1-core point; a
    permanent fault there must skip that application with a
    ``[quarantine]`` notice while the campaign completes.
    """
    context = ExperimentContext(workload_scale=0.03)
    plan = FaultPlan(
        faults=((0, FaultSpec(kind="raise", failing_attempts=ALWAYS)),)
    )
    executor = SweepExecutor(
        retry=RetryPolicy(
            max_retries=1, backoff_base_s=0.0, backoff_max_s=0.0
        ),
        fault_plan=plan,
    )
    results = run_scenario2(
        context,
        [workload_by_name("FMM")],
        core_counts=(2,),
        executor=executor,
    )
    assert results == {"FMM": []}
    assert "[quarantine] FMM" in capsys.readouterr().err
    assert executor.failed
    from repro.harness.store import failed_point_rows

    rows = failed_point_rows(executor.failed)
    assert rows and rows[0].retryable


def test_simpoint_key_is_the_resolved_operating_point(context):
    """A nominal-default request and its explicit twin share one key."""
    spec = workload_by_name("FMM").spec
    nominal = sim_point_key(context, SimPointTask(spec=spec, n=4))
    explicit = sim_point_key(
        context, SimPointTask(spec=spec, n=4, frequency_hz=context.f_nominal)
    )
    assert config_key(nominal) == config_key(explicit)
    ladder = frequency_ladder(context)
    low, high = (
        sim_point_key(context, SimPointTask(spec=spec, n=4, frequency_hz=f))
        for f in (ladder[0], ladder[1])
    )
    assert config_key(low) != config_key(high)

