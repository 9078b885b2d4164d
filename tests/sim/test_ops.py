"""Tests for op-stream compilation and the compile cache."""

import pytest

from repro.sim.ops import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_CRITICAL,
    OP_LOAD,
    OP_STORE,
    CompiledProgram,
    OpStreamCache,
    compile_stream,
    compile_workload,
    stream_op_count,
)


class TestCompileStream:
    def test_non_compute_ops_pass_through(self):
        ops = [(OP_LOAD, 0x40), (OP_STORE, 0x80), (OP_BARRIER, 0),
               (OP_CRITICAL, 1, 5, 0x100)]
        assert compile_stream(ops) == ops

    def test_adjacent_computes_fuse(self):
        ops = [(OP_COMPUTE, 5), (OP_COMPUTE, 7), (OP_LOAD, 0x40)]
        assert compile_stream(ops) == [
            (OP_COMPUTE, 12, (5, 7)),
            (OP_LOAD, 0x40),
        ]

    def test_singleton_compute_stays_plain(self):
        ops = [(OP_COMPUTE, 5), (OP_LOAD, 0x40), (OP_COMPUTE, 7)]
        assert compile_stream(ops) == ops

    def test_trailing_run_flushes(self):
        ops = [(OP_LOAD, 0x40), (OP_COMPUTE, 1), (OP_COMPUTE, 2),
               (OP_COMPUTE, 3)]
        assert compile_stream(ops)[-1] == (OP_COMPUTE, 6, (1, 2, 3))

    def test_idempotent_on_compiled_input(self):
        ops = [(OP_COMPUTE, 5), (OP_COMPUTE, 7), (OP_LOAD, 0x40),
               (OP_COMPUTE, 3)]
        once = compile_stream(ops)
        assert compile_stream(once) == once

    def test_fused_input_merges_with_neighbours(self):
        ops = [(OP_COMPUTE, 12, (5, 7)), (OP_COMPUTE, 3)]
        assert compile_stream(ops) == [(OP_COMPUTE, 15, (5, 7, 3))]

    def test_empty_stream(self):
        assert compile_stream([]) == []

    def test_lone_compute_op_is_kept_as_the_same_object(self):
        burst = (OP_COMPUTE, 5)
        compiled = compile_stream([burst, (OP_LOAD, 0x40), burst])
        assert compiled[0] is burst
        assert compiled[2] is burst

    def test_lone_fused_op_is_refused_by_value(self):
        assert compile_stream([(OP_COMPUTE, 5, (5,))]) == [(OP_COMPUTE, 5)]
        assert compile_stream([(OP_COMPUTE, 12, (5, 7)), (OP_LOAD, 0x40)]) == [
            (OP_COMPUTE, 12, (5, 7)),
            (OP_LOAD, 0x40),
        ]

    def test_shared_op_runs_still_fuse(self):
        burst = (OP_COMPUTE, 3)
        ops = [burst, burst, (OP_LOAD, 0x40), burst, (OP_COMPUTE, 12, (5, 7)),
               (OP_BARRIER, 0), burst, burst, burst]
        assert compile_stream(ops) == [
            (OP_COMPUTE, 6, (3, 3)),
            (OP_LOAD, 0x40),
            (OP_COMPUTE, 15, (3, 5, 7)),
            (OP_BARRIER, 0),
            (OP_COMPUTE, 9, (3, 3, 3)),
        ]


class TestStreamOpCount:
    def test_counts_source_ops(self):
        compiled = compile_stream(
            [(OP_COMPUTE, 1), (OP_COMPUTE, 2), (OP_LOAD, 0x40),
             (OP_BARRIER, 0)]
        )
        assert len(compiled) == 3
        assert stream_op_count(compiled) == 4

    def test_plain_stream_counts_length(self):
        ops = [(OP_LOAD, 0x40), (OP_STORE, 0x80)]
        assert stream_op_count(ops) == 2


class TestOpStreamCache:
    def _program(self):
        return CompiledProgram(streams=[[]], total_ops=0, compiled_ops=0)

    def test_miss_then_hit(self):
        cache = OpStreamCache()
        assert cache.get("k") is None
        assert cache.misses == 1
        program = self._program()
        cache.put("k", program)
        assert cache.get("k") is program
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = OpStreamCache(maxsize=2)
        a, b, c = self._program(), self._program(), self._program()
        cache.put("a", a)
        cache.put("b", b)
        cache.get("a")  # refresh: b becomes LRU
        cache.put("c", c)
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c

    def test_reput_refreshes_position(self):
        cache = OpStreamCache(maxsize=2)
        cache.put("a", self._program())
        cache.put("b", self._program())
        cache.put("a", self._program())  # refresh a: b is LRU
        cache.put("c", self._program())
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_clear(self):
        cache = OpStreamCache()
        cache.put("k", self._program())
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            OpStreamCache(maxsize=0)


class FakeModel:
    """Workload-protocol stub counting stream generations."""

    def __init__(self, key="fake"):
        self.generated = 0
        self._key = key

    def compile_key(self, n_threads):
        return (self._key, n_threads)

    def thread_ops(self, thread_id, n_threads):
        self.generated += 1
        yield (OP_COMPUTE, 10)
        yield (OP_COMPUTE, 20)
        yield (OP_LOAD, 0x40 * (thread_id + 1))


class KeylessModel:
    def thread_ops(self, thread_id, n_threads):
        yield (OP_COMPUTE, 1)


class TestCompileWorkload:
    def test_cold_compile_generates_and_fuses(self):
        model = FakeModel()
        out = compile_workload(model, 2, cache=OpStreamCache())
        assert not out.from_cache
        assert model.generated == 2
        assert out.program.n_threads == 2
        assert out.program.total_ops == 6
        assert out.program.compiled_ops == 4  # fused pairs
        assert out.program.streams[0][0] == (OP_COMPUTE, 30, (10, 20))

    def test_warm_compile_skips_generation(self):
        cache = OpStreamCache()
        model = FakeModel()
        cold = compile_workload(model, 2, cache=cache)
        warm = compile_workload(model, 2, cache=cache)
        assert warm.from_cache
        assert warm.seconds == 0.0
        assert warm.program is cold.program
        assert model.generated == 2  # nothing regenerated

    def test_thread_count_is_part_of_the_key(self):
        cache = OpStreamCache()
        model = FakeModel()
        compile_workload(model, 1, cache=cache)
        out = compile_workload(model, 2, cache=cache)
        assert not out.from_cache

    def test_model_without_key_always_compiles(self):
        cache = OpStreamCache()
        first = compile_workload(KeylessModel(), 1, cache=cache)
        second = compile_workload(KeylessModel(), 1, cache=cache)
        assert not first.from_cache and not second.from_cache

    def test_cache_none_always_compiles(self):
        model = FakeModel()
        compile_workload(model, 1, cache=None)
        out = compile_workload(model, 1, cache=None)
        assert not out.from_cache
        assert model.generated == 2

    def test_workload_threads_share_one_plain_compute_op(self):
        from repro.workloads.base import WorkloadModel
        from repro.workloads.splash2 import workload_by_name

        model = WorkloadModel(workload_by_name("Barnes").spec.scaled(0.05))
        program = compile_workload(model, 2, cache=None).program
        for stream in program.streams:
            computes = [op for op in stream if op[0] == OP_COMPUTE]
            assert computes
            assert all(len(op) == 2 for op in computes)
            assert len({id(op) for op in computes}) == 1
