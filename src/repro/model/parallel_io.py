"""Distributed checkpoint/restart for the parallel AGCM.

The paper's code read its NetCDF history serially and scattered it; the
same funnel-through-rank-0 pattern is implemented here on the virtual
machine: blocks gather to rank 0 through a binomial tree (real data, real
message costs), rank 0 writes the history archive on the host filesystem,
and restart scatters the snapshot back out.  Generators — run them inside
rank programs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.dynamics.state import ModelState, PROGNOSTIC_NAMES
from repro.grid.decomposition import Decomposition2D
from repro.io.history import HistoryMetadata, HistoryReader, HistoryWriter
from repro.model.config import AGCMConfig

#: Host-filesystem cost model for the rank-0 funnel: one serial stream
#: at mid-90s striped-disk bandwidth plus a fixed per-operation latency.
#: Checkpoint/restart charge this on top of the gather/scatter messages.
IO_BANDWIDTH = 50.0e6  # bytes / virtual second
IO_LATENCY = 5.0e-3    # virtual seconds per file operation


def io_write_seconds(nbytes: float, bandwidth: float = IO_BANDWIDTH) -> float:
    """Virtual seconds rank 0 spends writing ``nbytes`` to the host disk."""
    return IO_LATENCY + nbytes / bandwidth


def io_read_seconds(nbytes: float, bandwidth: float = IO_BANDWIDTH) -> float:
    """Virtual seconds rank 0 spends reading ``nbytes`` from the host disk."""
    return IO_LATENCY + nbytes / bandwidth


def gather_global_fields(ctx, decomp: Decomposition2D,
                         local_fields: Dict[str, np.ndarray]):
    """Generator: assemble the global fields on rank 0 (None elsewhere).

    One binomial-tree gather moves every rank's whole block; volume is
    the full model state, which is why production codes treat output as
    an expensive, infrequent phase.
    """
    from repro.parallel import collectives as coll

    payload = {
        name: np.ascontiguousarray(arr) for name, arr in local_fields.items()
    }
    gathered = yield from coll.gather_binomial(ctx, payload, root=0)
    if ctx.rank != 0:
        return None
    out = {}
    for name in local_fields:
        out[name] = decomp.gather([gathered[r][name] for r in range(ctx.size)])
    return out


def checkpoint_parallel(
    ctx,
    decomp: Decomposition2D,
    cfg: AGCMConfig,
    local_fields: Dict[str, np.ndarray],
    time_now: float,
    path,
):
    """Generator: gather the state and write a history file from rank 0.

    Returns the path on rank 0, None elsewhere.  All ranks synchronise
    afterwards (the write is a global pause, as in the real code); the
    host write itself is charged at :func:`io_write_seconds`.
    """
    global_fields = yield from gather_global_fields(ctx, decomp, local_fields)
    result = None
    if ctx.rank == 0:
        meta = HistoryMetadata(
            nlat=cfg.nlat, nlon=cfg.nlon, nlayers=cfg.nlayers,
            dt=cfg.timestep(), description="parallel checkpoint",
        )
        writer = HistoryWriter(path, meta)
        state = ModelState(
            **{name: global_fields[name] for name in PROGNOSTIC_NAMES},
            time=time_now,
        )
        writer.append(state)
        result = writer.save()
        nbytes = sum(arr.nbytes for arr in global_fields.values())
        yield from ctx.compute(seconds=io_write_seconds(nbytes))
    yield from ctx.barrier(tag=0x00EE0001)
    return result


def restart_scatter(ctx, decomp: Decomposition2D, path):
    """Generator: rank 0 reads a checkpoint and scatters the blocks.

    Returns ``(local_fields, time)`` on every rank.  The host read is
    charged at :func:`io_read_seconds` before the scatter begins.
    """
    if ctx.rank == 0:
        reader = HistoryReader(path)
        state = reader.last()
        nbytes = sum(
            getattr(state, name).nbytes for name in PROGNOSTIC_NAMES
        )
        yield from ctx.compute(seconds=io_read_seconds(nbytes))
        blocks = [
            {
                name: decomp.scatter(getattr(state, name))[r]
                for name in PROGNOSTIC_NAMES
            }
            for r in range(ctx.size)
        ]
        times = [state.time] * ctx.size
        payloads = [
            {"fields": blocks[r], "time": times[r]} for r in range(ctx.size)
        ]
        mine = yield from ctx.scatter(payloads, root=0)
    else:
        mine = yield from ctx.scatter(None, root=0)
    return mine["fields"], mine["time"]
