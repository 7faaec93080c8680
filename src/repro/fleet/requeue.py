"""Shared re-queue/quarantine accounting for dead-worker recovery.

Both execution paths hand lost units to one :class:`AttemptTracker`:

* the **fleet coordinator**, when a socket worker dies with a unit in
  flight (heartbeat silence, EOF, send failure);
* the **local pool**, when a ``multiprocessing`` worker dies between
  dequeue and cache-write (the classic OOM-kill window).

The tracker answers the only two questions recovery needs — *which
attempt is this?* and *has this unit exhausted its budget?* — and
remembers where each attempt died, so a quarantined unit's error names
every host that tried it.  It also builds the two outcomes a lost unit
can end with: ``salvaged`` (its worker cached it before dying) and the
quarantine failure.  A unit that kills whatever runs it is
*poison*: without the attempt cap it would bounce between workers
forever, taking each one down in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaign.report import UnitOutcome

__all__ = ["AttemptTracker"]


@dataclass
class AttemptTracker:
    """Per-unit dispatch attempt counts with a quarantine cap."""

    max_attempts: int = 3
    _attempts: Dict[str, int] = field(default_factory=dict)
    _hosts: Dict[str, List[str]] = field(default_factory=dict)

    def start(self, key: str) -> int:
        """Record one dispatch of ``key``; returns the attempt number
        (1-based)."""
        n = self._attempts.get(key, 0) + 1
        self._attempts[key] = n
        return n

    def record_loss(self, key: str, host: str) -> None:
        """Remember that an attempt of ``key`` died on ``host``."""
        self._hosts.setdefault(key, []).append(host)

    def attempts(self, key: str) -> int:
        return self._attempts.get(key, 0)

    def exhausted(self, key: str) -> bool:
        """True once ``key`` has used its whole attempt budget."""
        return self._attempts.get(key, 0) >= self.max_attempts

    def quarantine_error(self, key: str, label: str) -> str:
        """The error message a quarantined (poison) unit reports."""
        n = self._attempts.get(key, 0)
        hosts = self._hosts.get(key, [])
        where = f" (workers lost: {', '.join(hosts)})" if hosts else ""
        return (
            f"worker died before completing this unit; {label!r} "
            f"quarantined as poison after {n}/{self.max_attempts} "
            f"attempt(s){where}"
        )

    def quarantine(self, unit: Any,
                   host: Optional[str] = None) -> UnitOutcome:
        """The failed outcome of a unit that used its whole budget."""
        return UnitOutcome(
            ident=unit.ident, label=unit.label, key=unit.key,
            status="failed", worker=-1, seconds=0.0, compute_seconds=0.0,
            error=self.quarantine_error(unit.key, unit.label),
            attempt=self.attempts(unit.key), host=host,
        )

    def salvaged(self, unit: Any, value: Any,
                 meta: Dict[str, Any]) -> UnitOutcome:
        """The outcome of a lost unit recovered from a cache entry."""
        return UnitOutcome(
            ident=unit.ident, label=unit.label, key=unit.key,
            status="salvaged", worker=-1, seconds=0.0,
            compute_seconds=float(meta.get("duration", 0.0) or 0.0),
            result=value, attempt=max(1, self.attempts(unit.key)),
            host=meta.get("host") or None,
        )
