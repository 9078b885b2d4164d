"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def restore_telemetry_state():
    """--telemetry-dir enables tracing/sampling; undo it afterwards."""
    from repro.telemetry.timeseries import get_sampler, set_sampler
    from repro.telemetry.trace import get_tracer, set_tracer

    sampler, tracer = get_sampler(), get_tracer()
    yield
    set_sampler(sampler)
    set_tracer(tracer)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.tech == "65nm"

    def test_fig3_apps_and_scale(self):
        args = build_parser().parse_args(["fig3", "--apps", "FMM", "--scale", "0.1"])
        assert args.apps == ["FMM"]
        assert args.scale == 0.1

    def test_rejects_unknown_tech(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--tech", "7nm"])

    def test_executor_flags_on_sweep_commands(self):
        for command in ("fig1", "fig2", "fig3", "fig4", "characterize"):
            args = build_parser().parse_args(
                [command, "--jobs", "4", "--cache", "/tmp/c", "--no-cache"]
            )
            assert args.jobs == 4
            assert args.cache == "/tmp/c"
            assert args.no_cache is True

    def test_rejects_non_positive_or_non_integer_jobs(self):
        for bad in ("0", "-2", "xyz"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig2", "--jobs", bad])

    def test_profile_flag_on_every_sweep(self):
        for command in ("fig1", "fig2", "fig3", "fig4", "characterize"):
            assert build_parser().parse_args([command, "--profile"]).profile
            assert not build_parser().parse_args([command]).profile

    def test_telemetry_dir_flag_on_every_sweep(self):
        for command in ("fig1", "fig2", "fig3", "fig4", "characterize"):
            args = build_parser().parse_args([command, "--telemetry-dir", "t"])
            assert args.telemetry_dir == "t"
            assert build_parser().parse_args([command]).telemetry_dir is None

    def test_trace_subcommands(self):
        args = build_parser().parse_args(
            ["trace", "export", "--telemetry-dir", "t", "--output", "o.json"]
        )
        assert (args.trace_command, args.output, args.run) == (
            "export",
            "o.json",
            None,
        )
        args = build_parser().parse_args(
            ["trace", "validate", "--telemetry-dir", "t", "--run", "r1"]
        )
        assert (args.trace_command, args.run) == ("validate", "r1")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "export"])  # DIR required

    def test_trace_timeline_flags(self):
        args = build_parser().parse_args(
            [
                "trace", "timeline", "--telemetry-dir", "t",
                "--channel", "sim.ipc", "--channel", "power.total_w",
                "--width", "20",
            ]
        )
        assert args.trace_command == "timeline"
        assert args.channel == ["sim.ipc", "power.total_w"]
        assert args.width == 20
        defaults = build_parser().parse_args(
            ["trace", "timeline", "--telemetry-dir", "t"]
        )
        assert defaults.channel is None and defaults.width == 60


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "244.4 mm^2" in out
        assert "Water-Sp" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--tech", "130nm"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 (130nm)" in out
        assert "P_N / P_1" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "peak:" in out
        assert "frequency-only" in out

    def test_fig3_tiny(self, capsys):
        assert main(["fig3", "--apps", "Barnes", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Barnes" in out
        assert "norm-P" in out
        assert "[kernel]" not in out  # only printed under --profile

    def test_fig3_profile_prints_kernel_summary(self, capsys):
        assert main(
            ["fig3", "--apps", "Barnes", "--scale", "0.05", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "[kernel]" in out
        assert "ops/s" in out
        assert "fast-path" in out

    def test_fig3_profile_counts_coordinator_precompile(self, capsys):
        from repro.sim.ops import stream_cache

        # Precompile happens before any run sees the program, so a cold
        # stream cache must still show up as compile time.
        stream_cache.clear()
        assert main(
            ["fig3", "--apps", "Radix", "--scale", "0.05", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        match = re.search(r"compile (\d+\.\d+)s", out)
        assert match is not None
        assert float(match.group(1)) > 0.0

    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, repro.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "False"

    def test_fig4_tiny(self, capsys):
        assert main(["fig4", "--apps", "Radix", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Radix" in out
        assert "nominal" in out

    def test_report_analytical(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        assert main(["report", "--analytical-only", "--output", str(output)]) == 0
        document = output.read_text()
        assert "## Figure 1" in document
        assert "## Figure 2" in document
        assert "wrote" in capsys.readouterr().out

    def test_fig2_with_cache_runs_warm_second_time(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["fig2", "--cache", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert "[executor] 32 evaluated, 0 cache hits" in cold

        assert main(["fig2", "--cache", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert "[executor] 0 evaluated, 32 cache hits" in warm
        # The cache changes how rows are obtained, never what they are.
        assert warm == cold.replace(
            "[executor] 32 evaluated, 0 cache hits",
            "[executor] 0 evaluated, 32 cache hits",
        )

    def test_no_cache_disables_a_configured_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["fig2", "--cache", str(cache), "--no-cache"]) == 0
        capsys.readouterr()
        assert not cache.exists()

    def test_characterize_structure(self):
        # Only parse-check: the full characterisation is exercised by
        # the example; here just confirm the argument wiring.
        args = build_parser().parse_args(["characterize", "--scale", "0.2"])
        assert args.scale == 0.2

    def test_verify_arguments(self):
        args = build_parser().parse_args(["verify", "--analytical-only"])
        assert args.analytical_only
        args = build_parser().parse_args(["verify", "--scale", "0.3"])
        assert args.scale == 0.3


@pytest.mark.usefixtures("restore_telemetry_state")
class TestTraceTimelineCommand:
    def test_timeline_renders_sparklines_and_alerts(self, capsys, tmp_path):
        assert (
            main(
                [
                    "fig3", "--apps", "Barnes", "--scale", "0.05",
                    "--telemetry-dir", str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()

        assert main(["trace", "timeline", "--telemetry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sim.ipc" in out and "power.total_w" in out
        assert "n=" in out
        assert "alerts" in out

        # --channel filters to the named series.
        assert (
            main(
                [
                    "trace", "timeline", "--telemetry-dir", str(tmp_path),
                    "--channel", "sim.ipc",
                ]
            )
            == 0
        )
        filtered = capsys.readouterr().out
        assert "sim.ipc" in filtered and "power.total_w" not in filtered

        # Unknown channels fail with the sampled list in the message.
        assert (
            main(
                [
                    "trace", "timeline", "--telemetry-dir", str(tmp_path),
                    "--channel", "no.such.channel",
                ]
            )
            == 1
        )
        assert "no samples for channel(s)" in capsys.readouterr().err

        # validate counts the timeline; export carries counter tracks.
        assert main(["trace", "validate", "--telemetry-dir", str(tmp_path)]) == 0
        assert "timeline samples" in capsys.readouterr().out
        output = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "export", "--telemetry-dir", str(tmp_path),
                    "--output", str(output),
                ]
            )
            == 0
        )
        capsys.readouterr()
        import json

        events = json.loads(output.read_text())["traceEvents"]
        assert any(e["ph"] == "C" for e in events)

    def test_timeline_without_sampling_says_so(self, capsys, tmp_path):
        from repro.telemetry.manifest import TelemetryRun

        TelemetryRun(tmp_path, command="fig3").finalize()
        assert main(["trace", "timeline", "--telemetry-dir", str(tmp_path)]) == 0
        assert "no timeline samples" in capsys.readouterr().out


@pytest.mark.usefixtures("restore_telemetry_state")
class TestTelemetryRun:
    def test_parallel_run_records_coordinator_spans_once(self, capsys, tmp_path):
        assert main(
            [
                "fig3", "--apps", "Radix", "--scale", "0.05", "--jobs", "2",
                "--telemetry-dir", str(tmp_path),
            ]
        ) == 0
        capsys.readouterr()
        (spans_file,) = tmp_path.glob("*/spans.jsonl")
        entries = [json.loads(line) for line in spans_file.read_text().splitlines()]
        spans = [
            (e["pid"], json.dumps(e["span"], sort_keys=True))
            for e in entries
            if e["span"]["name"] in ("thermal.solve", "workload.compile")
        ]
        copies = Counter(span for _, span in spans)
        # Calibration and precompile run in the coordinator before the
        # workers fork; no worker may ship those spans home again.
        coordinator = [span for pid, span in spans if pid == os.getpid()]
        assert coordinator
        assert all(copies[span] == 1 for span in coordinator)
