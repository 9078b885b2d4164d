"""Workload specification and the per-thread operation-stream generator.

A :class:`WorkloadSpec` describes one application's behavioural
signature; :class:`WorkloadModel` expands it into deterministic operation
streams (seeded; identical across runs) for any thread count.

Program structure
-----------------
The work is divided into ``n_phases`` barrier-delimited phases, the
universal SPLASH-2 shape.  Each phase optionally begins with a *serial
section* executed by thread 0 alone (the Amdahl term), followed by the
parallel section in which each thread executes its share of the phase's
instructions — modulated by a per-(phase, thread) imbalance factor — as
interleaved compute bursts and memory accesses, with critical sections
sprinkled at the spec's rate.

Memory behaviour
----------------
Each thread owns a slice of the private region (``total_private_bytes``
split N ways, so aggregate cache capacity grows with N — the superlinear
mechanism the paper notes) and shares ``shared_bytes`` with everyone.
Three access classes model the reuse structure of real codes:

* **hot-set accesses** (probability ``hot_fraction`` of private
  accesses): a small per-thread buffer — stack frames, accumulators,
  lookup tables — that lives in the L1;
* **streaming walks** over the thread's slice: with probability
  ``locality`` the cursor advances sequentially (8-byte stride),
  otherwise it jumps to a random slice location.  The cursor restarts at
  the slice base every phase, modelling iterative codes that re-walk
  their data, so from the second phase on the slice hits whatever cache
  level it fits in;
* **shared accesses** (probability ``shared_fraction``): ``uniform``
  (all-to-all, e.g. FFT transpose / Radix permutation) or ``blocked``
  (near-neighbour with halo overlap, e.g. Ocean grids).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List

from repro.errors import ConfigurationError, WorkloadError
from repro.sim.cpu import CoreTimingConfig
from repro.sim.ops import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE

#: Address-space layout (byte offsets).  Regions are disjoint by
#: construction; threads carve the private region into equal slices.
_PRIVATE_BASE = 0x0000_0000_0000
_SHARED_BASE = 0x4000_0000_0000
_LOCK_BASE = 0x7000_0000_0000

#: Sequential-access stride (one double).
_STRIDE = 8


def _below(rng: random.Random):
    """``rng``'s bound uniform draw in ``[0, n)``, for ``n >= 1``.

    On Python 3.9-3.12 ``randrange(n)`` and ``randrange(0, n)`` compute
    exactly ``rng._randbelow(n)`` once their argument checks pass, so
    calling it directly yields the same draws from the same state minus
    the per-call validation (the generator draws one per memory op).
    """
    return rng._randbelow


@dataclass(frozen=True)
class WorkloadSpec:
    """Behavioural signature of one application.

    Parameters
    ----------
    name, problem_size:
        Identification; ``problem_size`` quotes Table 2.
    total_instructions:
        Total dynamic instructions across all threads (a scaled-down
        synthetic stand-in for the real run length; the harness keeps the
        problem size fixed as N varies, like the paper).
    mem_ratio:
        Memory operations per instruction.
    write_fraction:
        Fraction of memory operations that are stores.
    total_private_bytes:
        Aggregate private data footprint, split across threads.
    shared_bytes:
        Shared-region footprint.
    shared_fraction:
        Probability a memory access targets the shared region.
    locality:
        Probability a streaming access continues sequentially from the
        previous one in its region (spatial locality).
    hot_fraction:
        Probability a private access targets the thread's small hot set
        (L1-resident temporal reuse); the complement streams the slice.
    hot_bytes:
        Size of the per-thread hot set.
    sharing_pattern:
        ``"uniform"`` or ``"blocked"`` (see module docstring).
    n_phases:
        Barrier-delimited phases.
    serial_fraction:
        Fraction of each phase's work executed by thread 0 alone.
    imbalance:
        Relative amplitude of random per-(phase, thread) work variation.
    critical_sections_per_phase:
        Lock acquisitions per thread per phase.
    n_locks:
        Size of the lock pool (1 = a single global lock, high contention).
    critical_instructions:
        Compute burst inside each critical section.
    base_cpi, icache_miss_rate, memory_parallelism:
        Core-timing knobs (see :class:`repro.sim.cpu.CoreTimingConfig`).
    power_of_two_only:
        Whether the application only runs on power-of-two thread counts
        (Section 4.1 notes several SPLASH-2 codes do).
    seed:
        Root of all pseudo-randomness; streams are reproducible.
    """

    name: str
    problem_size: str
    total_instructions: int
    mem_ratio: float
    write_fraction: float
    total_private_bytes: int
    shared_bytes: int
    shared_fraction: float
    locality: float
    hot_fraction: float = 0.0
    hot_bytes: int = 12 * 1024
    sharing_pattern: str = "uniform"
    n_phases: int = 8
    serial_fraction: float = 0.0
    imbalance: float = 0.0
    critical_sections_per_phase: int = 0
    n_locks: int = 16
    critical_instructions: int = 40
    base_cpi: float = 0.8
    icache_miss_rate: float = 0.001
    memory_parallelism: float = 1.5
    power_of_two_only: bool = False
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.total_instructions < self.n_phases:
            raise ConfigurationError("too few instructions for the phase count")
        if not 0.0 < self.mem_ratio < 1.0:
            raise ConfigurationError("mem_ratio must be in (0, 1)")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ConfigurationError("shared_fraction must be in [0, 1]")
        if not 0.0 <= self.locality < 1.0:
            raise ConfigurationError("locality must be in [0, 1)")
        if not 0.0 <= self.hot_fraction < 1.0:
            raise ConfigurationError("hot_fraction must be in [0, 1)")
        if self.hot_bytes <= 0:
            raise ConfigurationError("hot_bytes must be positive")
        if self.sharing_pattern not in ("uniform", "blocked"):
            raise ConfigurationError(
                f"unknown sharing pattern {self.sharing_pattern!r}"
            )
        if not 0.0 <= self.serial_fraction < 1.0:
            raise ConfigurationError("serial_fraction must be in [0, 1)")
        if self.imbalance < 0 or self.imbalance >= 1:
            raise ConfigurationError("imbalance must be in [0, 1)")
        if min(self.total_private_bytes, self.shared_bytes) <= 0:
            raise ConfigurationError("footprints must be positive")

    def scaled(self, factor: float) -> "WorkloadSpec":
        """A copy with the run length scaled (tests use short runs)."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            total_instructions=max(self.n_phases, int(self.total_instructions * factor)),
        )


class WorkloadModel:
    """Expands a :class:`WorkloadSpec` into per-thread operation streams."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    #: Number of leading barriers that delimit untimed initialization;
    #: pass this to :meth:`repro.sim.cmp.ChipMultiprocessor.run` as
    #: ``warmup_barriers``.
    warmup_barriers = 1

    @property
    def name(self) -> str:
        """Application name."""
        return self.spec.name

    def core_timing(self) -> CoreTimingConfig:
        """The core-timing configuration this application runs with."""
        spec = self.spec
        return CoreTimingConfig(
            base_cpi=spec.base_cpi,
            icache_miss_rate=spec.icache_miss_rate,
            memory_parallelism=spec.memory_parallelism,
        )

    def supports(self, n_threads: int) -> bool:
        """Whether the application runs on ``n_threads`` threads."""
        if n_threads < 1:
            return False
        if self.spec.power_of_two_only:
            return n_threads & (n_threads - 1) == 0
        return True

    def compile_key(self, n_threads: int):
        """Identity of this model's op streams at ``n_threads``.

        The spec (a frozen dataclass, seed included) determines every
        generated op, so (spec, thread count) keys the
        :class:`repro.sim.ops.OpStreamCache` exactly.
        """
        return ("workload-model", self.spec, n_threads)

    def supported_thread_counts(self, candidates) -> List[int]:
        """Filter a candidate list down to supported thread counts."""
        return [n for n in candidates if self.supports(n)]

    def thread_ops(self, thread_id: int, n_threads: int) -> Iterator[tuple]:
        """The operation stream of one thread in an ``n_threads`` run.

        Deterministic in (spec.seed, thread_id, n_threads); every thread
        issues the same barrier sequence, as the simulator requires.
        """
        spec = self.spec
        if not self.supports(n_threads):
            raise WorkloadError(
                f"{spec.name} does not run on {n_threads} threads"
            )
        if not 0 <= thread_id < n_threads:
            raise WorkloadError(f"thread id {thread_id} out of range")

        rng = random.Random(f"{spec.seed}/{thread_id}/{n_threads}")
        below = _below(rng)
        private_slice = max(_STRIDE * 64, spec.total_private_bytes // n_threads)
        private_base = _PRIVATE_BASE + thread_id * (private_slice + (1 << 30))
        hot_base = private_base + private_slice + (1 << 20)
        private_cursor = private_base
        shared_cursor = _SHARED_BASE + below(spec.shared_bytes)
        barrier_counter = 0
        phase_instructions = spec.total_instructions / spec.n_phases
        # Compute-burst length between memory operations.
        burst = max(1, round((1.0 - spec.mem_ratio) / spec.mem_ratio))
        # Every burst of this thread is the same op: one shared tuple,
        # which compile_stream keeps as-is (no per-op allocation).
        compute_op = (OP_COMPUTE, burst)

        def next_address() -> int:
            nonlocal private_cursor, shared_cursor
            if rng.random() < spec.shared_fraction:
                if rng.random() < spec.locality:
                    shared_cursor = _SHARED_BASE + (
                        (shared_cursor + _STRIDE - _SHARED_BASE) % spec.shared_bytes
                    )
                else:
                    shared_cursor = _SHARED_BASE + self._shared_jump(
                        rng, thread_id, n_threads
                    )
                return shared_cursor
            if rng.random() < spec.hot_fraction:
                return hot_base + below(spec.hot_bytes)
            if rng.random() < spec.locality:
                private_cursor = private_base + (
                    (private_cursor + _STRIDE - private_base) % private_slice
                )
            else:
                private_cursor = private_base + below(private_slice)
            return private_cursor

        def emit_work(n_instructions: float, allow_critical: bool):
            """Yield compute/memory ops totalling ~n_instructions."""
            n_mem = max(1, round(n_instructions * spec.mem_ratio))
            critical_every = 0
            if allow_critical and spec.critical_sections_per_phase:
                critical_every = max(1, n_mem // spec.critical_sections_per_phase)
            for i in range(n_mem):
                yield compute_op
                if critical_every and (i + 1) % critical_every == 0:
                    lock_id = below(spec.n_locks)
                    yield (
                        OP_CRITICAL,
                        lock_id,
                        spec.critical_instructions,
                        _LOCK_BASE + lock_id * 128,
                    )
                elif rng.random() < spec.write_fraction:
                    yield (OP_STORE, next_address())
                else:
                    yield (OP_LOAD, next_address())

        # Initialization (untimed when the harness passes
        # ``warmup_barriers=1``, reproducing the paper's "skip
        # initialization" methodology): sweep the hot set line by line and
        # run one phase's worth of work to warm the caches.
        for offset in range(0, spec.hot_bytes, 64):
            yield (OP_LOAD, hot_base + offset)
        warm_share = phase_instructions * (1.0 - spec.serial_fraction) / n_threads
        if warm_share >= 1.0:
            yield from emit_work(warm_share, allow_critical=False)
        yield (OP_BARRIER, barrier_counter)
        barrier_counter += 1

        for phase in range(spec.n_phases):
            # Iterative codes re-walk their data every phase: restart the
            # streaming cursor so later phases reuse whatever cache level
            # holds the slice.
            private_cursor = private_base
            serial_work = phase_instructions * spec.serial_fraction
            if serial_work >= 1.0 and n_threads > 1:
                if thread_id == 0:
                    yield from emit_work(serial_work, allow_critical=False)
                yield (OP_BARRIER, barrier_counter)
                barrier_counter += 1
            elif thread_id == 0 and serial_work >= 1.0:
                yield from emit_work(serial_work, allow_critical=False)

            parallel_work = phase_instructions * (1.0 - spec.serial_fraction)
            share = parallel_work / n_threads
            share *= self._imbalance_factor(phase, thread_id, n_threads)
            if share >= 1.0:
                yield from emit_work(share, allow_critical=True)
            yield (OP_BARRIER, barrier_counter)
            barrier_counter += 1

    # -- internals -----------------------------------------------------------

    def _shared_jump(self, rng: random.Random, thread_id: int, n_threads: int) -> int:
        """A non-sequential target offset within the shared region."""
        spec = self.spec
        if spec.sharing_pattern == "blocked" and n_threads > 1:
            # Near-neighbour: mostly own block, sometimes the halo of a
            # neighbouring thread's block.
            block = spec.shared_bytes // n_threads
            if rng.random() < 0.85:
                base = thread_id * block
            else:
                neighbour = (thread_id + rng.choice((-1, 1))) % n_threads
                base = neighbour * block
            return (base + _below(rng)(max(block, _STRIDE))) % spec.shared_bytes
        return _below(rng)(spec.shared_bytes)

    def _imbalance_factor(self, phase: int, thread_id: int, n_threads: int) -> float:
        """Deterministic per-(phase, thread) work multiplier, mean ~1."""
        spec = self.spec
        if spec.imbalance == 0.0 or n_threads == 1:
            return 1.0
        wobble = random.Random(
            f"{spec.seed}/imbalance/{phase}/{thread_id}"
        ).uniform(-1.0, 1.0)
        return 1.0 + spec.imbalance * wobble
