"""Tests for the overclocking study (Section 4.2's closing remark)."""

import pytest

from repro.harness import ExperimentContext, run_overclocking_study
from repro.harness.scenario2 import OverclockRow
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workload_scale=0.08)


class TestOverclockRow:
    def make_row(self, clock=1.25, base=2.0, boosted=2.2):
        return OverclockRow(
            app="x",
            n=2,
            baseline_speedup=base,
            overclocked_speedup=boosted,
            overclock_frequency_hz=clock * 3.2e9,
            power_w=10.0,
            budget_w=17.0,
        )

    def test_clock_gain(self):
        assert self.make_row(clock=1.25).clock_gain == pytest.approx(1.25)

    def test_gap_offset_full_realisation(self):
        # Speedup gain equal to the clock gain: nothing offset.
        row = self.make_row(clock=1.25, base=2.0, boosted=2.5)
        assert row.gap_offset == pytest.approx(0.0)

    def test_gap_offset_no_realisation(self):
        row = self.make_row(clock=1.25, base=2.0, boosted=2.0)
        assert row.gap_offset == pytest.approx(1.0)

    def test_gap_offset_zero_when_not_overclocked(self):
        row = self.make_row(clock=1.0, base=2.0, boosted=2.0)
        assert row.gap_offset == 0.0


class TestStudy:
    def test_memory_bound_headroom_is_mostly_offset(self, context):
        # Radix at low N has lots of budget headroom; the paper predicts
        # the widening processor-memory gap eats most of the overclock.
        row = run_overclocking_study(context, workload_by_name("Radix"), 2)
        assert row.clock_gain > 1.1  # plenty of headroom to overclock
        assert row.power_w <= row.budget_w
        assert row.gap_offset > 0.5
        assert row.overclocked_speedup >= row.baseline_speedup * 0.99

    def test_compute_bound_realises_more_of_the_clock(self, context):
        radix = run_overclocking_study(context, workload_by_name("Radix"), 2)
        fmm = run_overclocking_study(context, workload_by_name("FMM"), 1)
        if fmm.clock_gain > 1.0:
            assert fmm.gap_offset < radix.gap_offset

    def test_budget_limits_the_boost(self, context):
        tight = run_overclocking_study(
            context, workload_by_name("Radix"), 2, budget_w=4.0
        )
        loose = run_overclocking_study(
            context, workload_by_name("Radix"), 2, budget_w=30.0
        )
        assert tight.overclock_frequency_hz <= loose.overclock_frequency_hz


def test_boosted_run_reaches_the_capture_buffer(context, monkeypatch):
    """Overclocked runs share ``ExperimentContext``'s simulate body.

    Their kernel stats land in the context's aggregate and in the
    executor's capture buffer, stamped with the compile's eviction flag.
    """
    import dataclasses

    from repro.harness import context as context_module
    from repro.harness.scenario2 import _run_boosted
    from repro.telemetry.record import begin_point_capture, end_point_capture

    compile_workload = context_module.compile_workload
    monkeypatch.setattr(
        context_module,
        "compile_workload",
        lambda *args: dataclasses.replace(compile_workload(*args), evicted=True),
    )
    runs = context.kernel_log.runs
    begin_point_capture()
    try:
        _run_boosted(context, workload_by_name("Radix"), 2, 3.4e9, 1.2)
    finally:
        records = end_point_capture()
    assert len(records) == 1
    assert records[0].compile_cache_evicted
    assert context.kernel_log.runs == runs + 1
