"""Opt-in recording hooks: live runs land in the index as they finish.

The campaign scheduler and the service gateway both already persist
completed units to the content-addressed cache; with a ``results_db``
path configured they additionally record each completed unit here — the
campaign parent as outcomes arrive (a single sqlite writer, right after
the worker's cache write), the gateway's pool thread at cache-write
time and its hit path per hit.  Recording is best-effort bookkeeping on
top of the cache's crash-safety story: if the process dies between
cache write and index write, ``results ingest --cache-dir`` recovers
the row idempotently from the sidecar.

Every path — campaign ran/hit/failed, serve executed/hit, ingest —
builds its ``runs`` row with :func:`record_unit`, from the sidecar, so
one cache entry indexes to the same row whichever path records it
first.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.results.db import ResultsDB, _utcnow
from repro.results.provenance import current_git_sha

__all__ = ["record_campaign_outcomes", "record_unit"]


def _split_label(ident: str, label: str) -> str:
    """The point part of an ``ident@point`` unit label."""
    prefix = ident + "@"
    return label[len(prefix):] if label.startswith(prefix) else label


def record_unit(db: ResultsDB, key: str, meta: Dict[str, Any], *,
                git_sha: Optional[str], cache=None,
                status: str = "ran") -> bool:
    """Insert the ``runs`` row of one unit; True if it was new.

    ``meta`` is the unit's cache sidecar or, for a failed unit (or one
    run without a cache), the same fields taken from its outcome.
    Every column comes from it: ``source`` is ``"serve"`` when the
    writer was the gateway, ``params`` falls back to ``{"point": ...}``.
    With ``cache`` the entry's payload becomes the run's artifact.
    """
    point = str(meta.get("point", ""))
    artifacts = []
    if cache is not None:
        nbytes = meta.get("bytes")
        artifacts.append((cache._paths(key)[0], meta.get("result_sha256"),
                          int(nbytes) if nbytes is not None else None))
    return db.record_run(
        run_key=key, cache_key=key,
        source="serve" if meta.get("worker") == "serve" else "campaign",
        ident=str(meta.get("ident", "?")), point=point,
        params=meta.get("params", {"point": point}),
        status=status, git_sha=git_sha,
        created_at=meta.get("created_at") or _utcnow(),
        metrics=({"duration_seconds": (float(meta["duration"]), "s")}
                 if "duration" in meta else {}),
        artifacts=artifacts,
        host=meta.get("host"),
    )


def record_campaign_outcomes(db_path: str, outcomes: Iterable,
                             cache=None,
                             git_sha: Optional[str] = None) -> None:
    """Record per-unit outcomes (campaign, fleet or serve) in the index.

    ``ran`` (and fleet ``salvaged``) inserts the unit's row and upgrades
    an earlier ``failed`` row for the same key; ``failed`` inserts a
    failed row; ``hit`` bumps the hit counter — inserting the row first
    when the cache predates the index.  All inserts are idempotent on
    the unit's sha256 key.  ``git_sha`` defaults to auto-resolution;
    ``""`` stamps nothing.
    """
    sha = current_git_sha() if git_sha is None else (git_sha or None)
    with ResultsDB(db_path) as db:
        for o in outcomes:
            if o.status == "hit" and db.record_hit(o.key):
                continue
            meta = (cache.meta(o.key)
                    if cache is not None and o.status != "failed" else {})
            entry = cache if meta else None
            if not meta:
                meta = {"ident": o.ident,
                        "point": _split_label(o.ident, o.label),
                        "duration": o.compute_seconds,
                        "worker": o.worker, "host": o.host}
            if o.status == "failed":
                record_unit(db, o.key, meta, git_sha=sha, status="failed")
                continue
            record_unit(db, o.key, meta, git_sha=sha, cache=entry)
            if o.status == "hit":
                db.record_hit(o.key)
            else:
                # "ran" on any worker, or "salvaged" from a dead one:
                # either way the unit executed exactly once and its
                # payload is in the cache.
                db.mark_ran(o.key)
