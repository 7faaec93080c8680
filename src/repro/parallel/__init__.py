"""Virtual distributed-memory parallel machine.

This package substitutes for the Intel Paragon / Cray T3D hardware the
paper measured on: rank programs written against a mpi4py-like API run as
generators under a deterministic discrete-event scheduler, with every
message and flop priced by a :class:`~repro.parallel.machine.MachineModel`.
"""

from repro.parallel.engine import batched, legacy_engine
from repro.parallel.events import (
    ACCUM,
    Barrier,
    Compute,
    Exchange,
    FromRound,
    Recv,
    Send,
    payload_nbytes,
)
from repro.parallel.machine import (
    GENERIC,
    PARAGON,
    SP2,
    T3D,
    MachineModel,
    available_machines,
    make_machine,
)
from repro.parallel.comm import GroupComm, VirtualComm
from repro.parallel.scheduler import (
    CohortQueue,
    DeadlockError,
    RankFailedError,
    Simulator,
)
from repro.parallel.timeline import (
    Event,
    busy_fraction,
    communication_matrix,
    render_gantt,
    wait_hotspots,
)
from repro.parallel.topology import ProcessorMesh
from repro.parallel.trace import RankAccounting, SimResult, Trace

__all__ = [
    "ACCUM",
    "Barrier",
    "Compute",
    "Exchange",
    "FromRound",
    "Recv",
    "Send",
    "payload_nbytes",
    "batched",
    "legacy_engine",
    "CohortQueue",
    "MachineModel",
    "make_machine",
    "available_machines",
    "PARAGON",
    "T3D",
    "SP2",
    "GENERIC",
    "GroupComm",
    "VirtualComm",
    "Simulator",
    "DeadlockError",
    "RankFailedError",
    "ProcessorMesh",
    "Event",
    "communication_matrix",
    "render_gantt",
    "busy_fraction",
    "wait_hotspots",
    "Trace",
    "RankAccounting",
    "SimResult",
]
