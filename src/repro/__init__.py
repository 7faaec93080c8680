"""repro — reproduction of Lou & Farrara (SC'96), "Performance Analysis and
Optimization on the UCLA Parallel Atmospheric General Circulation Model Code".

The package contains a complete UCLA-AGCM-style model (C-grid
finite-difference dynamics, column physics, polar spectral filtering), a
deterministic virtual distributed-memory machine with Intel Paragon /
Cray T3D cost models, the paper's optimisations (transpose-based FFT
filtering behind a generic row-redistribution load balancer; pairwise
physics load balancing), and the experiment harness that regenerates
every table and figure of the paper's evaluation.

Quick start::

    from repro import AGCM, make_config
    model = AGCM(make_config("tiny"))
    model.initialize()
    model.run(10)
    print(model.state.max_wind())

Parallel quick start::

    from repro import (Simulator, ProcessorMesh, Decomposition2D,
                       agcm_rank_program, make_config, make_machine)
    cfg = make_config("tiny")
    mesh = ProcessorMesh(2, 3)
    decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
    result = Simulator(mesh.size, make_machine("t3d")).run(
        agcm_rank_program, cfg, decomp, 10)
    print(result.elapsed, "virtual seconds")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core import (
    FILTER_BACKENDS,
    FilterPlan,
    PolarFilter,
    apply_serial_filter,
    balanced_assignment,
    make_filter_plan,
    natural_assignment,
    prepare_filter_backend,
    strong_filter,
    weak_filter,
)
from repro.core.physics_lb import (
    CyclicShuffleBalancer,
    PairwiseExchangeBalancer,
    SortedGreedyBalancer,
    imbalance,
)
from repro.grid import (
    ArakawaCGrid,
    Decomposition2D,
    FieldSet,
    SphericalGrid,
    exchange_halos,
    pad_with_halo,
)
from repro.model import (
    AGCM,
    AGCMConfig,
    agcm_rank_program,
    make_config,
    plan_column_flow,
)
from repro.parallel import (
    GENERIC,
    PARAGON,
    SP2,
    T3D,
    MachineModel,
    ProcessorMesh,
    Simulator,
    make_machine,
)
from repro.reporting import EXPERIMENTS, ExperimentSpec, run_experiment
from repro.solvers import (
    HelmholtzOperator,
    cg_parallel,
    cg_serial,
    solve_cyclic_tridiagonal,
    solve_tridiagonal,
)

# The facade imports from repro.reporting, so it must come after the
# subpackage imports above to keep the import graph acyclic.
from repro import api
from repro.api import RunResult
from repro.options import RunOptions

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # model
    "AGCM",
    "AGCMConfig",
    "make_config",
    "agcm_rank_program",
    "plan_column_flow",
    # grid
    "SphericalGrid",
    "ArakawaCGrid",
    "Decomposition2D",
    "FieldSet",
    "pad_with_halo",
    "exchange_halos",
    # core (filters + balancing)
    "PolarFilter",
    "strong_filter",
    "weak_filter",
    "FilterPlan",
    "make_filter_plan",
    "FILTER_BACKENDS",
    "prepare_filter_backend",
    "apply_serial_filter",
    "natural_assignment",
    "balanced_assignment",
    "CyclicShuffleBalancer",
    "SortedGreedyBalancer",
    "PairwiseExchangeBalancer",
    "imbalance",
    # parallel machine
    "Simulator",
    "MachineModel",
    "make_machine",
    "ProcessorMesh",
    "PARAGON",
    "T3D",
    "SP2",
    "GENERIC",
    # experiments + facade
    "EXPERIMENTS",
    "ExperimentSpec",
    "run_experiment",
    "api",
    "RunOptions",
    "RunResult",
    # solvers
    "solve_tridiagonal",
    "solve_cyclic_tridiagonal",
    "cg_serial",
    "cg_parallel",
    "HelmholtzOperator",
]
