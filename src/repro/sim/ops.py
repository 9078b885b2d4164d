"""Operation encoding shared between workload models and the simulator.

Workload threads are lazy streams of tuples; the first element selects
the kind:

* ``(OP_COMPUTE, n_instructions)`` — a burst of ALU/branch work,
* ``(OP_LOAD, byte_address)`` — one data-cache read,
* ``(OP_STORE, byte_address)`` — one data-cache write,
* ``(OP_BARRIER, barrier_index)`` — global barrier (indices must be
  issued in the same order by every thread),
* ``(OP_CRITICAL, lock_id, n_instructions, byte_address)`` — a critical
  section: acquire the lock, run the burst, read-modify-write the
  protected address, release.

Plain tuples (rather than dataclasses) keep the per-op cost low — the
simulator consumes hundreds of thousands of these per run.

Compiled op streams
-------------------
Generating a stream is itself expensive (the synthetic models draw from
seeded RNGs per op; traces parse text), and a V/f sweep re-simulates the
*same* stream at every operating point.  :func:`compile_stream`
materializes a stream once into a flat list, run-length-merging runs of
adjacent ``OP_COMPUTE`` bursts into a single *fused* op

    ``(OP_COMPUTE, total_instructions, (n1, n2, ...))``

that the simulator dispatches in one step.  Fusion is bitwise-exact: the
executor charges a fused burst the *sum of the per-segment rounded
durations*, which is precisely what interpreting the segments one by one
would cost, for any clock and core timing (see
:meth:`repro.sim.cpu.Core` and the fast-path invariant in
docs/MODEL.md).

:func:`compile_workload` compiles every thread of a workload model and
memoizes the result in a process-wide :class:`OpStreamCache` keyed by
the model's ``compile_key(n_threads)`` (workload identity x thread
count), so repeated simulations of one workload at different V/f points
skip generation and parsing entirely.  Streams are clock-independent,
which is what makes the cache key V/f-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.trace import get_tracer

OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_BARRIER = 3
OP_CRITICAL = 4


def _fused(segments: List[int]) -> tuple:
    """The compute op a run of ``segments`` compiles to."""
    if len(segments) == 1:
        return (OP_COMPUTE, segments[0])
    return (OP_COMPUTE, sum(segments), tuple(segments))


# repro: hot
def compile_stream(ops: Iterable[tuple]) -> List[tuple]:
    """Materialize one thread's op stream, fusing adjacent compute bursts.

    Runs of consecutive ``OP_COMPUTE`` ops become one fused 3-tuple
    ``(OP_COMPUTE, total, segments)``.  A lone plain compute op is kept
    as the same object, so a model that yields one shared compute tuple
    per thread compiles without allocating per op.  Already-fused input
    ops are re-fused (compilation is idempotent).  All other ops pass
    through unchanged.
    """
    compiled: List[tuple] = []
    append = compiled.append
    # A run's plain first op, held until the run's length is known.
    lone = None
    # Segments of a run that already needs fusing.
    segments: List[int] = []
    for op in ops:
        if op[0] != OP_COMPUTE:
            if lone is not None:
                append(lone)
                lone = None
            elif segments:
                append(_fused(segments))
                segments.clear()
            append(op)
        elif lone is None and not segments and len(op) == 2:
            lone = op
        else:
            if lone is not None:
                segments.append(lone[1])
                lone = None
            if len(op) >= 3:
                segments.extend(op[2])
            else:
                segments.append(op[1])
    if lone is not None:
        append(lone)
    elif segments:
        append(_fused(segments))
    return compiled


# repro: hot
def classify_private_lines(
    streams: Sequence[List[tuple]], line_shift: int
) -> List[FrozenSet[int]]:
    """Per-thread sets of *provably private* line addresses.

    A line is private to thread ``t`` iff every data access to it —
    loads, stores, and critical-section read-modify-writes — across the
    whole workload comes from ``t``.  The fast path may resolve L1 hits
    on private lines inline regardless of the scheduler horizon: no
    other core ever demand-accesses the line, so no peer transaction
    can invalidate, downgrade, or observe it (the proof obligation is
    spelled out in docs/MODEL.md §3.2).  Anything double-counted —
    including false-sharing-style overlap where threads touch different
    bytes of one line — is shared-visible for every thread.

    Classification is at line granularity, so it depends on the L1's
    ``line_shift``; :meth:`CompiledProgram.private_lines` memoizes per
    shift.
    """
    owner: Dict[int, int] = {}
    for tid, stream in enumerate(streams):
        for op in stream:
            kind = op[0]
            if kind == OP_LOAD or kind == OP_STORE:
                line = op[1] >> line_shift
            elif kind == OP_CRITICAL:
                line = op[3] >> line_shift
            else:
                continue
            prev = owner.get(line)
            if prev is None:
                owner[line] = tid
            elif prev != tid:
                owner[line] = -1
    private: List[set] = [set() for _ in streams]
    for line, tid in owner.items():
        if tid >= 0:
            private[tid].add(line)
    return [frozenset(s) for s in private]


# repro: hot
def resolve_address_streams(
    streams: Sequence[List[tuple]],
    line_shift: int,
    n_sets: int,
    way_shift: int,
) -> List[List[tuple]]:
    """Geometry-resolved copies of ``streams`` for the fast-path kernel.

    Loads and stores gain their L1 line address and flat set base,
    precomputed once per cache geometry —
    ``(kind, byte_address, line, set_base)`` — so the hot loop indexes
    the flat tag array directly instead of doing shift/mod arithmetic
    per op.  Every other op kind passes through unchanged, and the byte
    address stays at index 1, which is all the slow-path replay reads.
    """
    resolved = []
    for ops in streams:
        out = []
        append = out.append
        for op in ops:
            kind = op[0]
            if kind == OP_LOAD or kind == OP_STORE:
                line = op[1] >> line_shift
                append((kind, op[1], line, (line % n_sets) << way_shift))
            else:
                append(op)
        resolved.append(out)
    return resolved


# repro: hot
def stream_op_count(stream: List[tuple]) -> int:
    """Number of *source* ops a compiled stream represents.

    Fused compute bursts count one op per original segment, so the count
    matches what the reference interpreter would execute.
    """
    count = 0
    for op in stream:
        if op[0] == OP_COMPUTE and len(op) >= 3:
            count += len(op[2])
        else:
            count += 1
    return count


@dataclass
class CompiledProgram:
    """Every thread of one workload, compiled to flat op lists."""

    streams: List[List[tuple]]
    #: Source-op count across all threads (fused segments counted
    #: individually, matching the reference interpreter's op count).
    total_ops: int
    #: Compiled (post-fusion) op count across all threads.
    compiled_ops: int
    #: Per-``line_shift`` memo of :func:`classify_private_lines` (the
    #: shift is machine-dependent while compiled streams are not, so the
    #: memo lives beside the streams rather than in the cache key).
    _private_lines: Dict[int, List[FrozenSet[int]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Per-geometry memo of :func:`resolve_address_streams`.  One entry
    #: per distinct L1 geometry — DVFS sweeps share it, since operating
    #: points change clocks, never cache geometry.
    _resolved: Dict[Tuple[int, int, int], List[List[tuple]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_threads(self) -> int:
        """Number of per-thread streams."""
        return len(self.streams)

    def private_lines(self, line_shift: int) -> List[FrozenSet[int]]:
        """Per-thread provably-private line sets at ``line_shift``."""
        cached = self._private_lines.get(line_shift)
        if cached is None:
            cached = classify_private_lines(self.streams, line_shift)
            self._private_lines[line_shift] = cached
        return cached

    def resolved_streams(
        self, line_shift: int, n_sets: int, way_shift: int
    ) -> List[List[tuple]]:
        """Geometry-resolved streams (memoized per L1 geometry)."""
        key = (line_shift, n_sets, way_shift)
        cached = self._resolved.get(key)
        if cached is None:
            cached = resolve_address_streams(
                self.streams, line_shift, n_sets, way_shift
            )
            self._resolved[key] = cached
        return cached


@dataclass
class CompileOutcome:
    """One :func:`compile_workload` call's result and provenance."""

    program: CompiledProgram
    #: True when the program came from the cache (warm compile).
    from_cache: bool
    #: Wall-clock seconds this call spent compiling (0 on a cache hit).
    seconds: float
    #: True when storing this program evicted another cached one (the
    #: bounded cache was full) — the telemetry signal that a campaign's
    #: working set exceeds ``OpStreamCache.maxsize``.
    evicted: bool = False


class OpStreamCache:
    """Bounded in-memory LRU cache of compiled programs.

    Keys are whatever a workload's ``compile_key(n_threads)`` returns —
    any hashable value that changes iff the generated streams change.
    Compiled programs are immutable by convention (the simulator never
    mutates a stream), so one cached program may back many concurrent
    simulations in a process.

    The cache is bounded (LRU eviction at ``maxsize`` entries) so long
    ``characterize`` campaigns cannot grow the process-wide cache
    without limit, and instrumented: ``hits``/``misses``/``evictions``
    count over the cache's lifetime and are surfaced per run through
    :class:`repro.sim.cmp.KernelStats`.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._programs: Dict[Hashable, CompiledProgram] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, key: Hashable) -> Optional[CompiledProgram]:
        """The cached program for ``key``, refreshing its LRU position."""
        program = self._programs.get(key)
        if program is None:
            self.misses += 1
            return None
        self.hits += 1
        del self._programs[key]
        self._programs[key] = program
        return program

    def put(self, key: Hashable, program: CompiledProgram) -> bool:
        """Insert a program, evicting the least recently used if full.

        Returns True when an older program was evicted to make room.
        """
        evicted = False
        if key in self._programs:
            del self._programs[key]
        elif len(self._programs) >= self.maxsize:
            del self._programs[next(iter(self._programs))]
            self.evictions += 1
            evicted = True
        self._programs[key] = program
        return evicted

    def seed(self, key: Hashable, program: CompiledProgram) -> None:
        """Insert without counting: executor warm-up of worker caches."""
        self.put(key, program)

    def export_entries(self) -> List[tuple]:
        """``(key, program)`` pairs, LRU first (executor warm-up)."""
        return list(self._programs.items())

    def stats(self) -> Dict[str, int]:
        """Lifetime counters and current occupancy (one dict, for logs)."""
        return {
            "size": len(self._programs),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        """Drop every cached program (keeps hit/miss counters)."""
        self._programs.clear()


#: The process-wide compile cache :func:`compile_workload` consults.
stream_cache = OpStreamCache()


def compile_workload(
    model,
    n_threads: int,
    cache: Optional[OpStreamCache] = stream_cache,
) -> CompileOutcome:
    """Compile (or fetch) every thread stream of ``model`` at ``n_threads``.

    ``model`` follows the informal workload protocol
    (``thread_ops(tid, n)``); if it also provides ``compile_key(n)``
    returning a hashable key, the compiled program is memoized in
    ``cache``.  Models without a key (or ``cache=None``) compile fresh
    on every call.
    """
    key = None
    if cache is not None and hasattr(model, "compile_key"):
        key = model.compile_key(n_threads)
    if key is not None:
        program = cache.get(key)
        if program is not None:
            return CompileOutcome(program=program, from_cache=True, seconds=0.0)

    with get_tracer().span(
        "workload.compile",
        workload=getattr(model, "name", type(model).__name__),
        threads=n_threads,
    ) as span:
        # repro: allow[DET-WALLCLOCK] compile-time span timing; never feeds simulated state
        start = time.perf_counter()
        streams = [
            compile_stream(model.thread_ops(t, n_threads))
            for t in range(n_threads)
        ]
        program = CompiledProgram(
            streams=streams,
            total_ops=sum(stream_op_count(s) for s in streams),
            compiled_ops=sum(len(s) for s in streams),
        )
        # repro: allow[DET-WALLCLOCK] compile-time span timing; never feeds simulated state
        seconds = time.perf_counter() - start
        span.set(ops=program.total_ops, compiled_ops=program.compiled_ops)
    evicted = False
    if key is not None:
        evicted = cache.put(key, program)
    return CompileOutcome(
        program=program, from_cache=False, seconds=seconds, evicted=evicted
    )
