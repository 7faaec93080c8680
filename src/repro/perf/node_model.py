"""Single-node time predictions combining arithmetic and cache behaviour.

Glues the cache simulator to the machine models to reproduce the paper's
layout findings:

* block array ~5x faster than separate arrays for the isolated 7-point
  Laplace on 32^3 fields on the Paragon, ~2.6x on the T3D;
* no block-array advantage inside the mixed-loop advection routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.parallel.machine import MachineModel
from repro.perf.access_patterns import (
    ADVECTION_LOOP_MIX,
    laplace_flops,
    laplace_stream_block,
    laplace_stream_separate,
    mixed_loops_block,
    mixed_loops_separate,
)
from repro.perf.cache_sim import CacheSim, loop_time


@dataclass(frozen=True)
class LayoutComparison:
    """Predicted single-node times of the two layouts for one loop nest."""

    machine: str
    separate_time: float
    block_time: float
    separate_misses: int
    block_misses: int

    @property
    def block_speedup(self) -> float:
        """Separate-array time over block-array time (>1: block wins)."""
        return self.separate_time / self.block_time if self.block_time else 0.0


def compare_laplace_layouts(
    machine: MachineModel, n: int = 32, m: int = 8
) -> LayoutComparison:
    """The paper's isolated experiment: 7-point Laplace over ``m`` fields.

    Runs the actual address streams of both layouts through the machine's
    cache and converts misses to time with the machine's miss penalty.
    """
    flops = laplace_flops(n, m)
    sim = CacheSim.for_machine(machine)
    sep = sim.simulate(laplace_stream_separate(n, m))
    sim.reset()
    blk = sim.simulate(laplace_stream_block(n, m))
    return LayoutComparison(
        machine=machine.name,
        separate_time=loop_time(sep, flops, machine),
        block_time=loop_time(blk, flops, machine),
        separate_misses=sep.misses,
        block_misses=blk.misses,
    )


def compare_advection_layouts(
    machine: MachineModel,
    n: int = 32,
    m: int = 12,
    loops: Sequence[Sequence[int]] = ADVECTION_LOOP_MIX,
) -> LayoutComparison:
    """The paper's follow-up: the mixed-loop advection routine.

    Each loop touches only a few of the ``m`` fields, so the block array's
    interleaving wastes cache lines and its advantage disappears (or
    reverses) — the negative result Section 3.4 reports.
    """
    flops_per_access = 1.5
    sim = CacheSim.for_machine(machine)
    sep_stream = mixed_loops_separate(n, m, loops)
    sep = sim.simulate(sep_stream)
    sim.reset()
    blk_stream = mixed_loops_block(n, m, loops)
    blk = sim.simulate(blk_stream)
    flops = flops_per_access * sep_stream.size
    return LayoutComparison(
        machine=machine.name,
        separate_time=loop_time(sep, flops, machine),
        block_time=loop_time(blk, flops, machine),
        separate_misses=sep.misses,
        block_misses=blk.misses,
    )
