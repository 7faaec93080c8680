"""The SPMD parallel AGCM: the rank program the virtual machine executes.

This is the parallel counterpart of :class:`repro.model.agcm.AGCM` — same
numerics, decomposed over a 2-D processor mesh, with every message and
flop charged to the machine model.  Integration tests assert the gathered
parallel fields equal the serial driver's bit-for-bit (the numerics use
the same kernels on halo-padded blocks), while the virtual trace supplies
all the paper's timing tables.

Per step:

* ``physics``   — column physics every ``physics_every`` steps, with
  optional scheme-3 load balancing (columns move between ranks following
  a globally derived :class:`~repro.model.physics_balance.ColumnFlowPlan`);
* ``dynamics``  — halo exchange, finite-difference tendencies, polar
  filtering of the tendencies (any of the four backends), leapfrog update.

Phase names recorded in the trace: ``"physics"``, ``"dynamics"``, and
within dynamics ``"halo"``, ``"fd"``, ``"filtering"``, ``"update"`` —
these give the Figure-1 component breakdown directly.  With periodic
checkpointing (``checkpointer=``) a ``"checkpoint"`` phase appears, and
on a resumed run (``resume=``) a ``"restart"`` phase covers the
read-and-scatter of the last checkpoint (see :mod:`repro.faults`).

The physics load balancer is driven by *measured* per-rank compute
times (see :mod:`repro.faults.mitigation`): each physics pass records a
compute-only :class:`~repro.faults.mitigation.LoadMeasurement`, and the
next pass allgathers them to derive loads — so machine-induced
imbalance (an injected straggler) is rebalanced away exactly like
workload-induced imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import constants as c
from repro.core.masks import make_filter_plan
from repro.core.parallel_filter import FilterBackend, prepare_filter_backend
from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.implicit import implicit_vertical_diffusion
from repro.dynamics.state import PROGNOSTIC_NAMES, initial_fields_block
from repro.dynamics.tendencies import (
    compute_tendencies,
    dynamics_flops,
    dynamics_mem_bytes,
)
from repro.faults.mitigation import LoadMeasurement, estimate_rank_loads
from repro.grid.decomposition import Decomposition2D
from repro.grid.halo import exchange_halos
from repro.grid.sphere import SphericalGrid
from repro.model.config import AGCMConfig
from repro.model.physics_balance import ColumnFlowPlan, plan_column_flow
from repro.physics.driver import ColumnSet, run_physics

_TAG_LB_DATA = 0x00CC0001
_TAG_LB_RESULT = 0x00CC0002

#: Flops per point-layer of the leapfrog update (5 fields x ~3 ops).
UPDATE_FLOPS_PER_POINT_LAYER = 15.0

#: Flops per point-layer of one batched Thomas solve (2 fields x ~8 ops).
VDIFF_FLOPS_PER_POINT_LAYER = 16.0


def agcm_rank_program(
    ctx,
    cfg: AGCMConfig,
    decomp: Decomposition2D,
    nsteps: int,
    return_fields: bool = False,
    checkpointer=None,
    resume=None,
    guard=None,
):
    """Generator: run ``nsteps`` AGCM steps on this rank's subdomain.

    Returns a summary dict; with ``return_fields=True`` it includes the
    final local prognostic arrays (used by the equivalence tests).

    ``checkpointer`` (a :class:`repro.faults.checkpoint.Checkpointer`
    or :class:`repro.guard.buddy.BuddyCheckpointer` — same interface)
    coordinates periodic whole-state checkpoints; ``resume`` (a
    :class:`repro.faults.checkpoint.CheckpointData`) restarts the
    integration from a saved step instead of initial conditions.  Both
    charge their full gather/scatter + host-I/O cost to the machine.
    The restarted trajectory is bit-identical to an uninterrupted run:
    the checkpoint holds both leapfrog levels and the physics forcing.

    ``guard`` (a :class:`repro.guard.detectors.StepGuard`) runs the
    numerical-health detectors after each step's dynamics, *before* the
    state can be checkpointed — a snapshot is therefore always
    guard-clean.  Disabled (``None`` or ``guard.enabled`` False) it
    costs exactly nothing: one attribute check here, no virtual ops.
    """
    grid, backend, dt = _shared_setup(ctx.run_memo, cfg, decomp)
    mesh = decomp.mesh
    sub = decomp.subdomain(ctx.rank)
    geom = LocalGeometry.from_grid(grid, sub.lat0, sub.lat1)
    lat_rad_loc = grid.lat_rad[sub.lat_slice]
    lon_rad_loc = grid.lon_rad[sub.lon_slice]
    npts = sub.nlat * sub.nlon
    nlayers = cfg.nlayers
    is_north_edge = sub.lat1 == decomp.nlat

    # One enabled-attribute check (the NULL_OBSERVER pattern): a disabled
    # guard never constructs state and never yields a virtual op.
    gstate = None
    if guard is not None and guard.enabled:
        gstate = guard.rank_state(ctx, cfg, grid, sub, dt)

    now = initial_fields_block(lat_rad_loc, lon_rad_loc, nlayers, seed=cfg.seed)
    prev: Optional[Dict[str, np.ndarray]] = None
    forcing_pt = np.zeros((sub.nlat, sub.nlon, nlayers))
    forcing_q = np.zeros_like(forcing_pt)

    # Physics-LB state: static column counts are exchanged once at setup;
    # load estimates derive from the measured previous physics pass.
    all_ncols: Optional[List[int]] = None
    my_measure: Optional[LoadMeasurement] = None
    physics_calls = 0
    columns_moved_total = 0
    phys_compute_seconds = 0.0  # compute-only, every physics call
    phys_compute_steady = 0.0   # compute-only, calls after the first

    time_now = 0.0
    start_step = 0
    if resume is not None:
        with ctx.region("restart"):
            mine = yield from resume.scatter_state(ctx, decomp)
        now = mine["now"]
        prev = mine["prev"]
        forcing_pt = mine["forcing_pt"]
        forcing_q = mine["forcing_q"]
        time_now = mine["time"]
        start_step = mine["step"]
        counters = mine["counters"]
        if counters["measure"] is not None:
            my_measure = LoadMeasurement.from_tuple(counters["measure"])
        physics_calls = counters["physics_calls"]
        columns_moved_total = counters["columns_moved"]
        phys_compute_seconds = counters["phys_compute_seconds"]
        phys_compute_steady = counters["phys_compute_steady"]
        ctx.instant("restart", step=start_step)

    for step in range(start_step, nsteps):
        step_span = ctx.span("step", step=step)
        step_span.__enter__()
        # ---------------- physics ------------------------------------
        if step % cfg.physics_every == 0:
            with ctx.region("physics"):
                time_frac = (time_now % c.SECONDS_PER_DAY) / c.SECONDS_PER_DAY
                cols = ColumnSet.from_block(
                    now["pt"], now["q"], lat_rad_loc, lon_rad_loc
                )
                use_lb = cfg.physics_lb and mesh.size > 1
                if use_lb and all_ncols is None:
                    all_ncols = yield from ctx.allgather(cols.ncol)
                if use_lb and my_measure is not None:
                    (tend_pt_cols, tend_q_cols, moved,
                     my_measure) = yield from _physics_balanced(
                        ctx, cfg, cols, time_frac, step, all_ncols,
                        my_measure,
                    )
                    columns_moved_total += moved
                else:
                    result = run_physics(
                        cols, time_frac, step, cfg.physics,
                        metrics=ctx.metrics if ctx.obs.enabled else None,
                    )
                    with ctx.span("physics.compute", ncols=cols.ncol):
                        t_compute0 = ctx.clock
                        yield from ctx.compute(flops=result.total_flops)
                    # Compute-only measurement: waits excluded, so a
                    # machine-induced slowdown is visible to the balancer
                    # instead of being smeared into everyone's waits.
                    my_measure = LoadMeasurement(
                        ctx.clock - t_compute0, cols.ncol, cols.ncol
                    )
                    tend_pt_cols, tend_q_cols = result.tend_pt, result.tend_q
                forcing_pt[...] = tend_pt_cols.reshape(sub.nlat, sub.nlon, nlayers)
                forcing_q[...] = tend_q_cols.reshape(sub.nlat, sub.nlon, nlayers)
                phys_compute_seconds += my_measure.compute_seconds
                if physics_calls > 0:
                    phys_compute_steady += my_measure.compute_seconds
                physics_calls += 1

        # ---------------- dynamics -----------------------------------
        with ctx.region("dynamics"):
            with ctx.region("halo"):
                padded = {}
                for name in PROGNOSTIC_NAMES:
                    padded[name] = yield from exchange_halos(
                        ctx, decomp, now[name])
            with ctx.region("fd"):
                yield from ctx.compute(
                    flops=dynamics_flops(npts, nlayers),
                    mem_bytes=dynamics_mem_bytes(npts, nlayers),
                    inner_length=sub.nlon,
                )
                tend = compute_tendencies(padded, geom, cfg.dynamics)
                tend["pt"] = tend["pt"] + forcing_pt
                tend["q"] = tend["q"] + forcing_q
            with ctx.region("filtering"):
                yield from backend.apply(ctx, tend)
            with ctx.region("update"):
                yield from ctx.compute(
                    flops=UPDATE_FLOPS_PER_POINT_LAYER * npts * nlayers,
                    inner_length=sub.nlon,
                )
                prev, now = _advance(prev, now, tend, dt, cfg.ra_coeff)
                if is_north_edge:
                    now["v"][-1, ...] = 0.0
                if cfg.vertical_diffusion > 0:
                    yield from ctx.compute(
                        flops=VDIFF_FLOPS_PER_POINT_LAYER * npts * nlayers,
                        inner_length=nlayers,
                    )
                    for name in ("pt", "q"):
                        now[name] = implicit_vertical_diffusion(
                            now[name], dt, cfg.vertical_diffusion, cfg.dz
                        )
        time_now += dt

        # ---------------- numerical-health guard ----------------------
        # Runs before the checkpoint block so a snapshot can never hold
        # a state the detectors would have rejected.
        if gstate is not None:
            with ctx.region("guard"):
                yield from gstate.check(ctx, step, now)

        # ---------------- coordinated checkpoint ----------------------
        if checkpointer is not None and checkpointer.due(step, nsteps):
            with ctx.region("checkpoint"):
                yield from checkpointer.save(
                    ctx, decomp, cfg,
                    step=step + 1,
                    time_now=time_now,
                    now=now, prev=prev,
                    forcing_pt=forcing_pt, forcing_q=forcing_q,
                    counters={
                        "measure": (
                            my_measure.as_tuple()
                            if my_measure is not None else None
                        ),
                        "physics_calls": physics_calls,
                        "columns_moved": columns_moved_total,
                        "phys_compute_seconds": phys_compute_seconds,
                        "phys_compute_steady": phys_compute_steady,
                    },
                )
                ctx.instant("checkpoint", step=step + 1)
        # Closed manually (not ``with``) to keep the step body flat; an
        # exception unwinds through the observer's dangling-span cleanup.
        step_span.__exit__(None, None, None)

    summary = {
        "rank": ctx.rank,
        "subdomain": (sub.lat0, sub.lat1, sub.lon0, sub.lon1),
        "steps": nsteps,
        "start_step": start_step,
        "physics_calls": physics_calls,
        "columns_moved": columns_moved_total,
        "phys_compute_seconds": phys_compute_seconds,
        "phys_compute_steady": phys_compute_steady,
        "max_wind": float(
            max(np.abs(now["u"]).max(), np.abs(now["v"]).max())
        ),
        "finite": bool(all(np.isfinite(a).all() for a in now.values())),
    }
    if return_fields:
        summary["fields"] = now
    return summary


def _shared_setup(
    memo: dict, cfg: AGCMConfig, decomp
) -> Tuple[SphericalGrid, FilterBackend, float]:
    """The grid, filter backend and ``dt`` of one run: built once, shared.

    They are pure functions of ``cfg`` and the decomposition, which every
    rank of an SPMD run holds identically — the paper's one-time filter
    set-up (Section 3.3).  The first rank builds them and keeps them in
    the run's memo, keyed on the identity of ``cfg`` and ``decomp`` (a
    3-D run has one entry per slab decomposition); a rank whose inputs
    differ builds its own.  The memo dies with the run, so a second
    ``Simulator.run`` builds again.  Host work only, no virtual time.
    """
    setups = memo.setdefault("agcm_setup", {})
    key = (id(cfg), id(decomp))
    cached = setups.get(key)
    if cached is not None and cached[0] is cfg and cached[1] is decomp:
        return cached[2]
    grid = cfg.make_grid()
    backend = prepare_filter_backend(
        cfg.filter_backend, make_filter_plan(grid), decomp
    )
    setup = (grid, backend, cfg.timestep())
    # The entry holds cfg and decomp, so their ids stay unique while it lives.
    setups[key] = (cfg, decomp, setup)
    return setup


def _advance(
    prev: Optional[Dict[str, np.ndarray]],
    now: Dict[str, np.ndarray],
    tend: Dict[str, np.ndarray],
    dt: float,
    ra_coeff: float,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Leapfrog (or initial Euler) update on plain field dicts.

    Mirrors :func:`repro.dynamics.timestep.leapfrog_step` exactly,
    including the in-place Robert-Asselin correction of ``now``.
    """
    if prev is None:
        nxt = {
            name: now[name] + dt * tend[name] for name in PROGNOSTIC_NAMES
        }
        return now, nxt
    nxt = {
        name: prev[name] + 2.0 * dt * tend[name] for name in PROGNOSTIC_NAMES
    }
    if ra_coeff > 0:
        for name in PROGNOSTIC_NAMES:
            now[name] += ra_coeff * (
                prev[name] - 2.0 * now[name] + nxt[name]
            )
    return now, nxt


def _shared_column_flow(
    memo: dict,
    measured: List[Tuple[float, int, int]],
    all_ncols: List[int],
    lb_passes: int,
) -> ColumnFlowPlan:
    """The scheme-3 plan for one set of allgathered measurements.

    As in the paper, every rank gathers the same loads and derives the
    same pairwise moves, so the plan is a pure function of the gathered
    inputs: the first rank to reach a step computes it and keeps it in
    the run's memo, the others reuse it.  A rank whose inputs differ
    from the memo's (never the case in an SPMD run) simply replans.
    Host work only — no virtual time is charged either way.
    """
    key = (tuple(measured), tuple(all_ncols), lb_passes)
    cached = memo.get("physics_lb_plan")
    if cached is not None and cached[0] == key:
        return cached[1]
    loads = estimate_rank_loads(
        [LoadMeasurement.from_tuple(t) for t in measured]
    )
    flow = plan_column_flow(
        [float(x) for x in loads], all_ncols, max_passes=lb_passes
    )
    memo["physics_lb_plan"] = (key, flow)
    return flow


def _physics_balanced(
    ctx,
    cfg: AGCMConfig,
    cols: ColumnSet,
    time_frac: float,
    step: int,
    all_ncols: List[int],
    my_measure: LoadMeasurement,
):
    """Scheme-3 balanced physics: move columns, compute, return results.

    Generator; returns ``(tend_pt, tend_q, columns_moved_by_me,
    new_measure)`` with the tendency arrays covering this rank's *own*
    columns in order and the compute-only measurement of this pass.
    """
    # 1. Share the previous-pass measurements and project per-column
    #    rates onto owned columns — rate-based estimation stays stable
    #    under movement and sees machine slowdowns (stragglers), not
    #    just workload imbalance.
    with ctx.span("physics.lb_plan"):
        measured = yield from ctx.allgather(my_measure.as_tuple())
        flow = _shared_column_flow(
            ctx.run_memo, measured, all_ncols, cfg.lb_passes
        )

    # 2. Execute the planned column movements, pass by pass.
    #    Working arrays start as our own columns; runs are appended in
    #    exactly the order the plan's holdings record.
    work_pt, work_q = cols.pt, cols.q
    work_lat, work_lon = cols.lat_rad, cols.lon_rad
    moved_by_me = 0
    with ctx.span("physics.lb_exchange"):
        for pass_moves in flow.passes:
            for mv in pass_moves:
                if mv.src == ctx.rank:
                    n = mv.ncols
                    payload = {
                        "pt": work_pt[-n:].copy(),
                        "q": work_q[-n:].copy(),
                        "lat": work_lat[-n:].copy(),
                        "lon": work_lon[-n:].copy(),
                    }
                    work_pt, work_q = work_pt[:-n], work_q[:-n]
                    work_lat, work_lon = work_lat[:-n], work_lon[:-n]
                    yield from ctx.send(mv.dst, payload, tag=_TAG_LB_DATA)
                    moved_by_me += n
                elif mv.dst == ctx.rank:
                    payload = yield from ctx.recv(mv.src, tag=_TAG_LB_DATA)
                    work_pt = np.concatenate([work_pt, payload["pt"]])
                    work_q = np.concatenate([work_q, payload["q"]])
                    work_lat = np.concatenate([work_lat, payload["lat"]])
                    work_lon = np.concatenate([work_lon, payload["lon"]])
    ctx.metrics.counter("agcm.columns_moved").inc(moved_by_me)

    # 3. Compute physics on everything we now hold, measuring the
    #    compute-only seconds for the next pass's estimator.
    held = ColumnSet(pt=work_pt, q=work_q, lat_rad=work_lat, lon_rad=work_lon)
    if held.ncol:
        result = run_physics(
            held, time_frac, step, cfg.physics,
            metrics=ctx.metrics if ctx.obs.enabled else None,
        )
        with ctx.span("physics.compute", ncols=held.ncol):
            t_compute0 = ctx.clock
            yield from ctx.compute(flops=result.total_flops)
        new_measure = LoadMeasurement(
            ctx.clock - t_compute0, held.ncol, cols.ncol
        )
        tend_pt_held, tend_q_held = result.tend_pt, result.tend_q
    else:
        k = cols.nlayers
        new_measure = LoadMeasurement(0.0, 0, cols.ncol)
        tend_pt_held = np.zeros((0, k))
        tend_q_held = np.zeros((0, k))

    # 4. Return guest results to their origins; collect our own.
    tend_pt = np.zeros_like(cols.pt)
    tend_q = np.zeros_like(cols.q)
    offset = 0
    with ctx.span("physics.lb_return"):
        for run in flow.holdings[ctx.rank]:
            seg_pt = tend_pt_held[offset : offset + run.count]
            seg_q = tend_q_held[offset : offset + run.count]
            if run.origin == ctx.rank:
                tend_pt[run.start : run.start + run.count] = seg_pt
                tend_q[run.start : run.start + run.count] = seg_q
            else:
                yield from ctx.send(
                    run.origin,
                    {"start": run.start, "pt": seg_pt.copy(),
                     "q": seg_q.copy()},
                    tag=_TAG_LB_RESULT,
                )
            offset += run.count
        for holder, run in flow.expected_returns(ctx.rank):
            payload = yield from ctx.recv(holder, tag=_TAG_LB_RESULT)
            start, count = payload["start"], payload["pt"].shape[0]
            tend_pt[start : start + count] = payload["pt"]
            tend_q[start : start + count] = payload["q"]
    return tend_pt, tend_q, moved_by_me, new_measure


# ----------------------------------------------------------------------
# 3-D decomposition with leap-format stepping (AGCM-3DLF)
# ----------------------------------------------------------------------

def _pillar_to_columns(comm, flat: np.ndarray, col_bounds) -> "np.ndarray":
    """Slab -> column-space transpose of one flattened field.

    ``flat`` is ``(npts, nlev_loc)`` (tile columns x local layers);
    ``col_bounds[d]`` the column share of pillar member ``d``.  Returns
    this member's ``(my_ncols, nlayers)`` full columns, layer blocks
    concatenated in global layer order — bit-identical rows of the
    serial field.
    """
    chunks = [
        np.ascontiguousarray(flat[c0:c1]) for c0, c1 in col_bounds
    ]
    received = yield from comm.transpose_to_levels(chunks)
    return np.concatenate(received, axis=1)


def _columns_to_pillar(comm, cols: np.ndarray, col_bounds,
                       lev_bounds) -> "np.ndarray":
    """Column-space -> slab transpose (inverse of
    :func:`_pillar_to_columns`).

    ``cols`` is ``(my_ncols, nlayers)``; returns the reassembled
    ``(npts, nlev_loc)`` local-layer block of the whole tile.
    """
    chunks = [
        np.ascontiguousarray(cols[:, l0:l1]) for l0, l1 in lev_bounds
    ]
    received = yield from comm.transpose_from_levels(chunks)
    npts = col_bounds[-1][1]
    out = np.empty((npts, received[comm.rank].shape[1]),
                   dtype=cols.dtype)
    for (c0, c1), block in zip(col_bounds, received):
        out[c0:c1] = block
    return out


def agcm3d_rank_program(
    ctx,
    cfg: AGCMConfig,
    decomp,
    nsteps: int,
    return_fields: bool = False,
):
    """Generator: run ``nsteps`` AGCM steps on this rank's 3-D slab.

    The AGCM-3DLF counterpart of :func:`agcm_rank_program`: ``decomp``
    is a :class:`repro.grid.decomposition3d.Decomposition3D` and each
    rank owns a ``(nlat_loc, nlon_loc, nlev_loc)`` vertical slab.
    Horizontal work (halo exchange, finite differences, polar
    filtering, leapfrog update) runs per-slab through the unmodified
    2-D machinery via :meth:`Decomposition3D.slab`; vertically coupled
    work transposes to column space over the pillar group:

    * column physics — slab -> column transpose, compute on the pillar
      share, transpose back (``"transpose"`` phase);
    * the surface-pressure closure — pillar allgather of the
      pre-forcing ``pt`` tendency, full-K layer mean in global layer
      order (:func:`~repro.dynamics.tendencies.surface_pressure_tendency`);
    * implicit vertical diffusion — the Thomas solves run on the
      transposed full columns.

    Leap-format stepping: the pairwise transpose rounds rotate partners
    per vertical rank, and the finite-difference latitude sweep is
    charged in ``nlev_procs`` chunks in :func:`leap-rotated
    <repro.physics.workload.leap_schedule>` order, so pillar members
    touch different latitude bands (and different filter rows) at any
    instant instead of serialising on the same ones.  The vertical
    ghost-layer exchange for the full model's vertical differencing is
    priced per step (the reduced kernel has no vertical stencil, but
    the calibrated ``AGCM_FLOPS_PER_POINT_LAYER`` workload it stands in
    for does).

    With ``nlev_procs == 1`` every collective degenerates to a local
    copy and the step is the classic 2-D one.  The gathered trajectory
    is bit-identical to the serial driver for the fft filter backends
    (the ``agcm-3d-vs-serial`` pair asserts EXACT tolerance).
    """
    from repro.dynamics.tendencies import surface_pressure_tendency
    from repro.parallel.collectives import exchange_vertical_halo
    from repro.physics.workload import leap_schedule
    from repro.util.partition import block_bounds

    mesh = decomp.mesh
    sub = decomp.subdomain(ctx.rank)
    slab = decomp.slab(sub.klev_proc)
    grid, backend, dt = _shared_setup(ctx.run_memo, cfg, slab)
    geom = LocalGeometry.from_grid(grid, sub.lat0, sub.lat1)
    lat_rad_loc = grid.lat_rad[sub.lat_slice]
    lon_rad_loc = grid.lon_rad[sub.lon_slice]
    npts = sub.nlat * sub.nlon
    nlayers = cfg.nlayers
    nlev_loc = sub.nlev
    nlev_procs = mesh.nlev_procs
    klev = sub.klev_proc
    is_north_edge = sub.lat1 == decomp.nlat

    pillar = None
    col_bounds = [(0, npts)]
    lev_bounds = [(0, nlayers)]
    if nlev_procs > 1:
        i_proc, j_proc, _ = mesh.coords3_of(ctx.rank)
        pillar = ctx.group(mesh.pillar_ranks(i_proc, j_proc))
        col_bounds = block_bounds(npts, nlev_procs)
        lev_bounds = [
            decomp.lev_bounds_of_proc(k) for k in range(nlev_procs)
        ]
    my_c0, my_c1 = col_bounds[klev]
    my_ncols = my_c1 - my_c0
    # Latitude/longitude of this rank's column share, in the lat-major
    # flattening order of ColumnSet.from_block.
    share_lat = np.repeat(lat_rad_loc, sub.nlon)[my_c0:my_c1]
    share_lon = np.tile(lon_rad_loc, sub.nlat)[my_c0:my_c1]
    # Leap-format latitude sweep: chunk bounds + this rank's rotation.
    sweep = leap_schedule(nlev_procs, klev)
    sweep_bounds = block_bounds(sub.nlat, nlev_procs)

    # Initial state: build the full-K tile block (deterministic per
    # global coordinate) and slice the slab's layers; ps stays whole —
    # single-level fields are replicated across the pillar.
    full = initial_fields_block(
        lat_rad_loc, lon_rad_loc, nlayers, seed=cfg.seed
    )
    now = {
        name: (
            np.ascontiguousarray(arr[:, :, sub.lev_slice])
            if name != "ps" else arr
        )
        for name, arr in full.items()
    }
    prev: Optional[Dict[str, np.ndarray]] = None
    forcing_pt = np.zeros((sub.nlat, sub.nlon, nlev_loc))
    forcing_q = np.zeros_like(forcing_pt)

    physics_calls = 0
    time_now = 0.0

    for step in range(nsteps):
        step_span = ctx.span("step", step=step)
        step_span.__enter__()
        # ---------------- physics (column space) ----------------------
        if step % cfg.physics_every == 0:
            with ctx.region("physics"):
                time_frac = (
                    time_now % c.SECONDS_PER_DAY
                ) / c.SECONDS_PER_DAY
                if pillar is None:
                    cols = ColumnSet.from_block(
                        now["pt"], now["q"], lat_rad_loc, lon_rad_loc
                    )
                else:
                    with ctx.region("transpose"):
                        col_pt = yield from _pillar_to_columns(
                            pillar, now["pt"].reshape(npts, nlev_loc),
                            col_bounds,
                        )
                        col_q = yield from _pillar_to_columns(
                            pillar, now["q"].reshape(npts, nlev_loc),
                            col_bounds,
                        )
                    cols = ColumnSet(
                        pt=col_pt, q=col_q,
                        lat_rad=share_lat, lon_rad=share_lon,
                    )
                result = run_physics(
                    cols, time_frac, step, cfg.physics,
                    metrics=ctx.metrics if ctx.obs.enabled else None,
                )
                with ctx.span("physics.compute", ncols=cols.ncol):
                    yield from ctx.compute(flops=result.total_flops)
                if pillar is None:
                    forcing_pt[...] = result.tend_pt.reshape(
                        sub.nlat, sub.nlon, nlev_loc
                    )
                    forcing_q[...] = result.tend_q.reshape(
                        sub.nlat, sub.nlon, nlev_loc
                    )
                else:
                    with ctx.region("transpose"):
                        back_pt = yield from _columns_to_pillar(
                            pillar, result.tend_pt, col_bounds, lev_bounds
                        )
                        back_q = yield from _columns_to_pillar(
                            pillar, result.tend_q, col_bounds, lev_bounds
                        )
                    forcing_pt[...] = back_pt.reshape(
                        sub.nlat, sub.nlon, nlev_loc
                    )
                    forcing_q[...] = back_q.reshape(
                        sub.nlat, sub.nlon, nlev_loc
                    )
                physics_calls += 1

        # ---------------- dynamics ------------------------------------
        with ctx.region("dynamics"):
            with ctx.region("halo"):
                padded = {}
                for name in PROGNOSTIC_NAMES:
                    padded[name] = yield from exchange_halos(
                        ctx, slab, now[name])
            if pillar is not None:
                # Ghost layers for the full model's vertical
                # differencing (priced, not consumed by the reduced
                # kernel — see the docstring).
                with ctx.region("transpose"):
                    yield from exchange_vertical_halo(
                        ctx, decomp, now["pt"]
                    )
            with ctx.region("fd"):
                # Leap-format latitude sweep: rotated chunk order per
                # vertical rank.
                for chunk in sweep:
                    c_lat0, c_lat1 = sweep_bounds[chunk]
                    chunk_pts = (c_lat1 - c_lat0) * sub.nlon
                    if chunk_pts == 0:
                        continue
                    yield from ctx.compute(
                        flops=dynamics_flops(chunk_pts, nlev_loc),
                        mem_bytes=dynamics_mem_bytes(chunk_pts, nlev_loc),
                        inner_length=sub.nlon,
                    )
                tend = compute_tendencies(padded, geom, cfg.dynamics)
            if pillar is not None:
                # Pillar surface-pressure closure: the layer mean needs
                # every layer of the column, assembled in global layer
                # order from the pre-forcing pt tendency.
                with ctx.region("transpose"):
                    dpt_blocks = yield from pillar.allgather(tend["pt"])
                tend["ps"] = surface_pressure_tendency(
                    np.concatenate(dpt_blocks, axis=2)
                )
            tend["pt"] = tend["pt"] + forcing_pt
            tend["q"] = tend["q"] + forcing_q
            with ctx.region("filtering"):
                yield from backend.apply(ctx, tend)
            with ctx.region("update"):
                yield from ctx.compute(
                    flops=UPDATE_FLOPS_PER_POINT_LAYER * npts * nlev_loc,
                    inner_length=sub.nlon,
                )
                prev, now = _advance(prev, now, tend, dt, cfg.ra_coeff)
                if is_north_edge:
                    now["v"][-1, ...] = 0.0
                if cfg.vertical_diffusion > 0:
                    yield from ctx.compute(
                        flops=(
                            VDIFF_FLOPS_PER_POINT_LAYER
                            * my_ncols * nlayers
                        ),
                        inner_length=nlayers,
                    )
                    if pillar is None:
                        for name in ("pt", "q"):
                            now[name] = implicit_vertical_diffusion(
                                now[name], dt, cfg.vertical_diffusion,
                                cfg.dz,
                            )
                    else:
                        # Thomas solves need full columns: solve in
                        # transposed space, then return to slabs.
                        for name in ("pt", "q"):
                            with ctx.region("transpose"):
                                col = yield from _pillar_to_columns(
                                    pillar,
                                    now[name].reshape(npts, nlev_loc),
                                    col_bounds,
                                )
                            solved = implicit_vertical_diffusion(
                                col.reshape(my_ncols, 1, nlayers),
                                dt, cfg.vertical_diffusion, cfg.dz,
                            ).reshape(my_ncols, nlayers)
                            with ctx.region("transpose"):
                                back = yield from _columns_to_pillar(
                                    pillar, solved, col_bounds,
                                    lev_bounds,
                                )
                            now[name] = back.reshape(
                                sub.nlat, sub.nlon, nlev_loc
                            )
        time_now += dt
        step_span.__exit__(None, None, None)

    summary = {
        "rank": ctx.rank,
        "subdomain": (sub.lat0, sub.lat1, sub.lon0, sub.lon1,
                      sub.lev0, sub.lev1),
        "steps": nsteps,
        "physics_calls": physics_calls,
        "max_wind": float(
            max(np.abs(now["u"]).max(), np.abs(now["v"]).max())
        ),
        "finite": bool(all(np.isfinite(a).all() for a in now.values())),
    }
    if return_fields:
        summary["fields"] = now
    return summary
