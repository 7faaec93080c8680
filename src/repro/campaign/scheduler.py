"""Process-parallel campaign scheduler with dynamic self-scheduling.

The scheduler turns a selector list (or named sweep) into work units,
answers what it can from the content-addressed cache, and shards the
remaining units across a ``multiprocessing`` worker pool fed by one
shared queue.  Pulling from a shared queue *is* the dynamic
work-stealing of Carretti & Messina's PM work distribution: a worker
that finishes early immediately steals the next pending unit, and
because the queue is ordered longest-estimate-first (LPT), a slow unit
(``table4`` at 240 nodes) starts at the front instead of serializing
the tail of the campaign.

Crash safety: workers write each finished unit to the cache *before*
reporting it, so a campaign killed at any point leaves a prefix of
completed, atomically-written entries behind.  ``resume=True`` replays
the interrupted campaign's manifest: completed units come back as cache
hits, only the remainder recomputes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from datetime import datetime, timezone
from typing import List, Optional, Sequence

from repro import __version__
from repro.campaign.cache import ResultCache
from repro.util.validation import check_positive_int
from repro.campaign.report import CampaignReport, UnitOutcome
from repro.campaign.units import (
    CampaignUnit,
    describe_sweep,
    enumerate_units,
    execute_unit,
    sort_for_schedule,
    unit_manifest_entry,
)

__all__ = ["run_campaign"]

#: How long the parent waits on the result queue before checking worker
#: liveness (a killed worker must not hang the campaign forever).
_POLL_SECONDS = 0.25


def _mp_context():
    """Fork when the platform has it (cheap workers sharing the already
    imported numpy/experiment modules); spawn otherwise."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


def _run_one(unit: CampaignUnit, worker: int,
             cache: Optional[ResultCache], observe: bool) -> UnitOutcome:
    """Execute one unit (in whatever process this is) and cache it."""
    t0 = time.perf_counter()
    value = None
    error = None
    metrics = None
    try:
        if observe:
            from repro.obs import Observer, activate

            obs = Observer()
            with activate(obs):
                value = execute_unit(unit)
            metrics = obs.metrics.as_dict()
        else:
            value = execute_unit(unit)
    except Exception as exc:  # noqa: BLE001 - reported per unit
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if cache is not None and error is None:
        import socket

        from repro.campaign.cache import canonical_params

        cache.put(
            unit.key, value,
            meta={
                "ident": unit.ident,
                "point": unit.point.label,
                "params": canonical_params(unit.point.as_dict()),
                "duration": seconds,
                "version": __version__,
                "worker": worker,
                "host": f"{socket.gethostname()}:{os.getpid()}",
            },
        )
    return UnitOutcome(
        ident=unit.ident, label=unit.label, key=unit.key,
        status="failed" if error else "ran",
        worker=worker, seconds=seconds, compute_seconds=seconds,
        error=error, result=value, metrics=metrics,
    )


def _worker_main(worker: int, cache_dir: Optional[str], observe: bool,
                 task_q, result_q) -> None:
    """Worker loop: pull units until the sentinel, report each outcome."""
    cache = ResultCache(cache_dir) if cache_dir else None
    while True:
        unit = task_q.get()
        if unit is None:
            break
        result_q.put(_run_one(unit, worker, cache, observe))


def _campaign_metrics(report: CampaignReport, merged: Sequence) -> None:
    """Fill ``report.metrics``: campaign counters + merged worker data."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter(
        "campaign.units", "work units in the campaign"
    ).inc(report.units_total)
    registry.counter("campaign.cache_hits").inc(report.cache_hits)
    registry.counter("campaign.cache_misses").inc(report.cache_misses)
    registry.counter("campaign.failures").inc(report.failures)
    registry.gauge("campaign.wall_seconds").set(report.wall_seconds)
    registry.gauge(
        "campaign.speedup_vs_serial"
    ).set(report.speedup_vs_serial)
    for w, util in report.worker_utilization().items():
        registry.gauge(f"campaign.worker.{w}.utilization").set(util)
    for data in merged:
        if data:
            registry.merge(data)
    report.metrics = registry


def run_campaign(
    selectors: Optional[Sequence[str]] = None,
    *,
    sweep: Optional[str] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    obs: bool = False,
    use_cache: bool = True,
    results_db: Optional[str] = None,
    fleet=None,
    max_attempts: Optional[int] = None,
) -> CampaignReport:
    """Run a campaign and return its merged :class:`CampaignReport`.

    ``selectors`` are unit selectors (``"table8"``, ``"table8@4x8"``,
    ...); ``sweep`` names a predefined list (``"smoke"``, ``"mini"``,
    ``"full"``).  Exactly one of the two is normally given; with
    neither, the ``smoke`` sweep runs.  ``workers <= 1`` executes
    in-process (the serial baseline — same code path as a worker, no
    pool).  ``cache_dir`` enables the content-addressed result store
    and the resume manifest; ``resume=True`` re-plans the last
    interrupted campaign recorded there.  ``obs=True`` runs every unit
    under a per-worker :class:`repro.obs.Observer` and merges all
    worker metrics into ``report.metrics``.  ``results_db`` names a
    :mod:`repro.results` index file: every completed unit is recorded
    there as it arrives (ran/failed rows, hit-counter bumps), keyed on
    the sha256 unit key so replays never duplicate rows.

    ``fleet`` switches dispatch to socket-transport workers (see
    :mod:`repro.fleet`): a :class:`~repro.fleet.FleetConfig`, an
    address spec string (``"host:port,host:port"`` to dial listening
    workers, ``"listen"``/``"listen:host:port"`` to accept dialing
    ones) or True.  If no fleet worker is reachable within the connect
    grace, the campaign degrades to the local pool with a warning
    instead of hanging.  ``max_attempts`` caps how many times a unit
    lost to a dying worker is re-dispatched before being quarantined as
    poison (default: 1 for the local pool, the FleetConfig's cap —
    normally 3 — for fleets).
    """
    if selectors is not None and sweep is not None:
        raise ValueError("pass either selectors or sweep=, not both")
    workers = check_positive_int(workers, "workers (campaign pool size)")
    fleet_cfg = None
    if fleet is not None:
        from repro.fleet.config import FleetConfig

        fleet_cfg = FleetConfig.coerce(fleet)
        if fleet_cfg is not None and max_attempts is not None:
            fleet_cfg = fleet_cfg.with_(
                max_attempts=check_positive_int(
                    max_attempts, "max_attempts (re-queue cap)"
                )
            )
    sweep_name = sweep
    if selectors is None:
        sweep_name = sweep or "smoke"
        selectors = describe_sweep(sweep_name)
    selectors = list(selectors)

    cache = ResultCache(cache_dir) if cache_dir else None
    if resume:
        if cache is None:
            raise ValueError("resume=True requires a cache_dir")
        manifest = cache.read_manifest()
        if manifest is None:
            raise ValueError(
                f"nothing to resume: no manifest in {cache_dir!r}"
            )
        selectors = list(manifest["selectors"])
        sweep_name = manifest.get("sweep") or sweep_name

    units = enumerate_units(selectors, __version__)
    if cache is not None:
        cache.write_manifest({
            "version": __version__,
            "sweep": sweep_name,
            "selectors": selectors,
            "workers": workers,
            "started": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "units": [unit_manifest_entry(u) for u in units],
        })

    t0 = time.perf_counter()
    outcomes: List[UnitOutcome] = []

    # -- parent-side cache probe: hits never reach the pool -------------
    pending: List[CampaignUnit] = []
    for unit in units:
        if use_cache and cache is not None and cache.contains(unit.key):
            p0 = time.perf_counter()
            value = cache.get(unit.key)
            if value is not None:
                meta = cache.meta(unit.key)
                outcomes.append(UnitOutcome(
                    ident=unit.ident, label=unit.label, key=unit.key,
                    status="hit", worker=-1,
                    seconds=time.perf_counter() - p0,
                    compute_seconds=float(
                        meta.get("duration", unit.est_cost)
                    ),
                    result=value,
                ))
                continue
        pending.append(unit)

    pending = sort_for_schedule(pending)

    fleet_info = None
    if fleet_cfg is not None:
        if pending:
            from repro.fleet.coordinator import FleetCoordinator

            coordinator = FleetCoordinator(fleet_cfg, cache,
                                           observe=obs)
            fleet_run = coordinator.run(pending)
            if fleet_run is None:
                if not fleet_cfg.local_fallback:
                    raise RuntimeError(
                        "fleet: no worker reachable within "
                        f"{fleet_cfg.connect_grace}s and local_fallback "
                        "is disabled"
                    )
                import warnings

                warnings.warn(
                    "fleet: no worker reachable within "
                    f"{fleet_cfg.connect_grace}s; degrading to local "
                    "execution",
                    RuntimeWarning, stacklevel=2,
                )
            else:
                outcomes.extend(fleet_run.outcomes)
                fleet_info = fleet_run.summary()
                pending = []
        else:
            # Fleet requested but every unit was a cache hit: nothing
            # to dispatch, report an idle fleet for the accounting.
            fleet_info = {"workers": {}, "events": [],
                          "salvaged": 0, "degraded": False}

    nworkers = max(1, min(workers, len(pending))) if pending else 0

    if nworkers <= 1:
        for unit in pending:
            outcomes.append(_run_one(unit, 0, cache, obs))
    else:
        outcomes.extend(
            _run_pool(pending, nworkers,
                      cache_dir if cache is not None else None, obs,
                      max_attempts=max_attempts or 1)
        )

    wall = time.perf_counter() - t0
    order = {u.key: i for i, u in enumerate(units)}
    outcomes.sort(key=lambda o: order.get(o.key, len(order)))
    if results_db is not None:
        # Parent-side recording keeps sqlite single-writer; a unit is
        # already safe in the cache by the time its outcome arrives, so
        # a crash here loses only index rows that `results ingest`
        # recovers idempotently from the sidecars.
        from repro.results.hooks import record_campaign_outcomes

        record_campaign_outcomes(results_db, outcomes, cache)
    report = CampaignReport(
        sweep=sweep_name or "<custom>",
        workers=max(1, workers),
        wall_seconds=wall,
        outcomes=outcomes,
        cache_dir=cache_dir,
        resumed=resume,
        fleet=fleet_info,
    )
    _campaign_metrics(report, [o.metrics for o in outcomes])
    return report


def _run_pool(pending: Sequence[CampaignUnit], nworkers: int,
              cache_dir: Optional[str], obs: bool,
              max_attempts: int = 1) -> List[UnitOutcome]:
    """Dispatch ``pending`` to a worker pool; collect all outcomes.

    Tolerates dying workers with the same accounting the fleet
    coordinator uses (:class:`repro.fleet.requeue.AttemptTracker`): a
    unit owed when the whole pool has exited is first probed against
    the cache (a worker that cached the result before dying yields a
    ``salvaged`` outcome, not a recompute), then re-dispatched on a
    fresh pool up to ``max_attempts`` total attempts, and finally
    quarantined as a poison failure — never allowed to hang the parent.
    """
    from repro.fleet.requeue import AttemptTracker

    tracker = AttemptTracker(max_attempts)
    cache = ResultCache(cache_dir) if cache_dir else None
    outcomes: List[UnitOutcome] = []
    remaining = list(pending)
    while remaining:
        for unit in remaining:
            tracker.start(unit.key)
        batch = _run_pool_once(
            remaining, max(1, min(nworkers, len(remaining))),
            cache_dir, obs,
        )
        for outcome in batch:
            outcome.attempt = tracker.attempts(outcome.key)
        outcomes.extend(batch)
        got = {o.key for o in batch}
        missing = [u for u in remaining if u.key not in got]
        if not missing:
            break
        remaining = []
        for unit in missing:
            tracker.record_loss(unit.key, "local-pool")
            salvaged = _salvage_local(unit, cache, tracker)
            if salvaged is not None:
                outcomes.append(salvaged)
            elif tracker.exhausted(unit.key):
                outcomes.append(UnitOutcome(
                    ident=unit.ident, label=unit.label, key=unit.key,
                    status="failed", worker=-1, seconds=0.0,
                    compute_seconds=0.0,
                    error=tracker.quarantine_error(unit.key, unit.label),
                    attempt=tracker.attempts(unit.key),
                ))
            else:
                remaining.append(unit)
    return outcomes


def _salvage_local(unit: CampaignUnit, cache: Optional[ResultCache],
                   tracker) -> Optional[UnitOutcome]:
    """A dead pool worker's unit, recovered from the shared cache.

    Cache-before-report means a worker killed between the cache write
    and the result-queue put leaves the finished unit on disk; probing
    for it turns a recompute into a ``salvaged`` outcome.
    """
    if cache is None or not cache.contains(unit.key):
        return None
    value = cache.get(unit.key)
    if value is None:
        return None
    meta = cache.meta(unit.key)
    return UnitOutcome(
        ident=unit.ident, label=unit.label, key=unit.key,
        status="salvaged", worker=-1, seconds=0.0,
        compute_seconds=float(meta.get("duration", 0.0) or 0.0),
        result=value, attempt=tracker.attempts(unit.key),
    )


def _run_pool_once(pending: Sequence[CampaignUnit], nworkers: int,
                   cache_dir: Optional[str], obs: bool) -> List[UnitOutcome]:
    """One pool generation: dispatch, collect until done or all dead."""
    ctx = _mp_context()
    task_q = ctx.Queue()
    result_q = ctx.Queue()
    for unit in pending:
        task_q.put(unit)
    for _ in range(nworkers):
        task_q.put(None)

    procs = [
        ctx.Process(
            target=_worker_main,
            args=(w, cache_dir, obs, task_q, result_q),
            daemon=True,
        )
        for w in range(nworkers)
    ]
    for p in procs:
        p.start()

    outcomes: List[UnitOutcome] = []
    try:
        while len(outcomes) < len(pending):
            try:
                outcomes.append(result_q.get(timeout=_POLL_SECONDS))
            except queue_mod.Empty:
                if not any(p.is_alive() for p in procs):
                    break  # missing units are the caller's to recover
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5)
        # Queues feed a background thread; close them explicitly so the
        # parent never blocks on their finalizers.
        for q in (task_q, result_q):
            q.close()
            q.cancel_join_thread()
    return outcomes


def default_cache_dir() -> str:
    """The conventional cache location used by the CLI when ``--cache-dir``
    is given without a value."""
    return os.path.join(".repro-campaign-cache")
