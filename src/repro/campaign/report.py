"""Campaign outcome accounting and the merged campaign report.

The scheduler emits one :class:`UnitOutcome` per work unit — hit, ran or
failed, with wall-clock and worker attribution — and the
:class:`CampaignReport` merges them with cache statistics, per-worker
utilization and the wall-clock speedup against the estimated serial
time (the sum of every unit's own duration, with cache hits priced at
the duration recorded when they were first computed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.util.tables import Table

__all__ = ["CampaignReport", "UnitOutcome"]

#: Status values a unit can finish with.  ``salvaged`` is a fleet
#: recovery: the unit was computed and cached by a worker that died
#: before reporting it, and the coordinator recovered the cached result
#: instead of recomputing.
STATUSES = ("hit", "ran", "failed", "salvaged")


@dataclass
class UnitOutcome:
    """How one unit ended: cache hit, freshly computed, salvaged from a
    dead worker's cache, or failed."""

    ident: str
    label: str
    key: str
    status: str
    #: Worker index that produced it; -1 for parent-side cache hits,
    #: ``"serve"`` for the gateway's pool.
    worker: Union[int, str]
    #: Wall-clock seconds this campaign spent on the unit (for a hit:
    #: the probe/load time, not the original compute).
    seconds: float
    #: Original compute duration (for hits, from the cache sidecar; for
    #: fresh runs, equal to ``seconds``).
    compute_seconds: float
    error: Optional[str] = None
    result: Any = None
    #: Worker-local metrics snapshot (``MetricsRegistry.as_dict`` form).
    metrics: Optional[Dict[str, Dict[str, float]]] = None
    #: Which dispatch attempt produced this outcome (1-based; > 1 means
    #: the unit was re-queued after a worker death).
    attempt: int = 1
    #: Executing host attribution (``hostname:pid``) for fleet units;
    #: None for local execution.
    host: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"unit {self.label!r}: bad status {self.status!r}, "
                f"expected one of {STATUSES}"
            )


@dataclass
class CampaignReport:
    """Merged result of one campaign run."""

    sweep: str
    workers: int
    wall_seconds: float
    outcomes: List[UnitOutcome]
    cache_dir: Optional[str] = None
    resumed: bool = False
    #: Merged metrics registry (campaign.* plus per-worker experiment
    #: metrics when the campaign ran observed).
    metrics: Any = None
    #: Fleet dispatch summary (workers seen, recovery events, salvage
    #: count, degradation flag); None for purely local campaigns.
    fleet: Optional[Dict[str, Any]] = None

    # -- accounting -----------------------------------------------------
    @property
    def units_total(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for o in self.outcomes if o.status != "hit")

    @property
    def failures(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def salvaged(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "salvaged")

    @property
    def requeued(self) -> int:
        """Units that needed more than one dispatch attempt."""
        return sum(1 for o in self.outcomes if o.attempt > 1)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.units_total if self.outcomes else 0.0

    @property
    def serial_seconds(self) -> float:
        """Estimated one-worker, cold-cache wall time: sum of compute
        durations of every unit."""
        return sum(o.compute_seconds for o in self.outcomes)

    @property
    def speedup_vs_serial(self) -> float:
        return (self.serial_seconds / self.wall_seconds
                if self.wall_seconds > 0 else 0.0)

    def worker_utilization(self) -> Dict[int, float]:
        """Busy fraction per worker: executed-unit seconds / wall."""
        busy: Dict[int, float] = {}
        for o in self.outcomes:
            if o.worker >= 0:
                busy[o.worker] = busy.get(o.worker, 0.0) + o.seconds
        if self.wall_seconds <= 0:
            return {w: 0.0 for w in busy}
        return {w: s / self.wall_seconds for w, s in sorted(busy.items())}

    def results(self) -> Dict[str, Any]:
        """Merged per-unit results, keyed by unit label."""
        return {o.label: o.result for o in self.outcomes
                if o.status != "failed"}

    # -- rendering ------------------------------------------------------
    def summary_table(self) -> Table:
        t = Table(
            f"Campaign summary — sweep {self.sweep!r}, "
            f"{self.workers} worker(s)",
            ["metric", "value"],
        )
        t.add_row("units", self.units_total)
        t.add_row("cache hits", self.cache_hits)
        t.add_row("cache misses", self.cache_misses)
        t.add_row("hit rate", f"{100 * self.hit_rate:.0f}%")
        t.add_row("failures", self.failures)
        if self.salvaged:
            t.add_row("salvaged", self.salvaged)
        if self.requeued:
            t.add_row("re-queued", self.requeued)
        t.add_row("wall seconds", f"{self.wall_seconds:.2f}")
        t.add_row("est. serial seconds", f"{self.serial_seconds:.2f}")
        t.add_row("speedup vs serial", f"{self.speedup_vs_serial:.2f}x")
        for w, util in self.worker_utilization().items():
            t.add_row(f"worker {w} utilization", f"{100 * util:.0f}%")
        if self.resumed:
            t.add_row("resumed", "yes")
        if self.fleet:
            t.add_row("fleet workers", len(self.fleet.get("workers", {})))
            if self.fleet.get("degraded"):
                t.add_row("fleet degraded", "yes (finished locally)")
        return t

    def unit_table(self) -> Table:
        t = Table(
            "Campaign units",
            ["unit", "status", "worker", "seconds", "note"],
        )
        for o in self.outcomes:
            note = o.error or ""
            if not note and o.host:
                note = o.host
            if o.attempt > 1:
                note = f"attempt {o.attempt}" + (f"; {note}" if note else "")
            t.add_row(
                o.label, o.status,
                o.worker if o.worker >= 0 else "-",
                f"{o.seconds:.3f}",
                note,
            )
        return t

    def render(self, include_results: bool = False) -> str:
        parts = [self.summary_table().render(), self.unit_table().render()]
        if include_results:
            for o in self.outcomes:
                render = getattr(o.result, "render", None)
                if render is not None:
                    parts.append(render())
        return "\n\n".join(parts)

    def to_json(self) -> Dict[str, Any]:
        """JSON-able report document (no result payloads)."""
        doc: Dict[str, Any] = {
            "sweep": self.sweep,
            "workers": self.workers,
            "resumed": self.resumed,
            "cache_dir": self.cache_dir,
            "units_total": self.units_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "failures": self.failures,
            "salvaged": self.salvaged,
            "requeued": self.requeued,
            "wall_seconds": self.wall_seconds,
            "serial_seconds": self.serial_seconds,
            "speedup_vs_serial": self.speedup_vs_serial,
            "worker_utilization": {
                str(w): u for w, u in self.worker_utilization().items()
            },
            "units": [
                {
                    "ident": o.ident,
                    "label": o.label,
                    "key": o.key,
                    "status": o.status,
                    "worker": o.worker,
                    "seconds": o.seconds,
                    "compute_seconds": o.compute_seconds,
                    "error": o.error,
                    "attempt": o.attempt,
                    "host": o.host,
                }
                for o in self.outcomes
            ],
        }
        if self.fleet is not None:
            doc["fleet"] = self.fleet
        if self.metrics is not None:
            doc["metrics"] = self.metrics.as_dict()
        return doc
