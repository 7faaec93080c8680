"""Unified run options: one dataclass for every drifted execution knob.

The run surface grew one keyword at a time — ``obs=`` on
:func:`repro.api.run`, ``guard=`` for supervised runs, ``faults=`` on
the simulators, ``cache_dir=``/``results_db=``/``workers=`` on the
campaign engine.  Each entry point accepted a different subset with
different spellings.
:class:`RunOptions` collapses them into one value accepted uniformly::

    from repro import api
    from repro.options import RunOptions

    opts = RunOptions(obs=True, results_db="runs.sqlite")
    api.run("fig1", options=opts)
    api.run_campaign(sweep="smoke", options=opts.with_(workers=4))

A plain dict works too (``options={"obs": True}``); unknown keys fail
with a did-you-mean hint instead of being silently ignored.  The old
per-knob keywords keep working through deprecation shims that fold them
into a ``RunOptions`` — passing a knob both ways is a conflict error.

See ``docs/performance.md`` for the migration table.
"""

from __future__ import annotations

import difflib
import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.util.validation import check_positive_int

__all__ = ["RunOptions", "UNSET", "coerce_options", "merge_legacy"]


class _Unset:
    """Sentinel distinguishing "knob not passed" from an explicit None."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "UNSET"


#: Default of every legacy per-knob keyword on the facade functions.
UNSET = _Unset()


@dataclass(frozen=True)
class RunOptions:
    """Execution knobs shared by every run entry point.

    Entry points ignore knobs that do not apply to them (``workers`` on
    a single ``api.run``, say) rather than erroring, so one options
    value can drive a whole session.
    """

    #: Observability: ``None``/``False`` for an uninstrumented run,
    #: ``True`` for a fresh :class:`repro.obs.Observer`, or an existing
    #: observer to aggregate several runs.
    obs: Any = None
    #: Numerical-health supervision for guard-aware runners: ``True``
    #: for the default :class:`repro.guard.GuardConfig`, a policy name,
    #: or a full config.
    guard: Any = None
    #: Optional :class:`repro.faults.FaultPlan` for fault-aware runners.
    faults: Any = None
    #: Content-addressed result store (campaign/serve); ``None``
    #: disables persistent caching.
    cache_dir: Optional[str] = None
    #: Cross-run result index (:mod:`repro.results`); ``None`` records
    #: nothing.
    results_db: Optional[str] = None
    #: Campaign worker processes / serve pool size.
    workers: int = 1
    #: Resume the last interrupted campaign from ``cache_dir``.
    resume: bool = False
    #: Replay cached campaign units instead of recomputing them.
    use_cache: bool = True
    #: Distributed campaign dispatch (:mod:`repro.fleet`): a
    #: :class:`~repro.fleet.FleetConfig`, an address spec string
    #: (``"host:port,..."`` or ``"listen[:host:port]"``), or ``True``
    #: for the default listen address.  ``None`` keeps the local pool.
    fleet: Any = None
    #: Re-queue attempt cap for units lost to dying workers; ``None``
    #: means the path default (1 local, the FleetConfig cap for fleets).
    max_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workers", check_positive_int(self.workers, "workers")
        )

    def with_(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (unknown names error)."""
        _check_field_names(changes, "RunOptions.with_")
        return replace(self, **changes)

    @classmethod
    def coerce(cls, value: Any) -> "RunOptions":
        """Normalise ``options=`` input: None, RunOptions or dict."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            _check_field_names(value, "options")
            return cls(**value)
        raise TypeError(
            "options must be a RunOptions, a dict of its fields or "
            f"None, not {type(value).__name__}"
        )


FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(RunOptions))


def _check_field_names(mapping: Dict[str, Any], caller: str) -> None:
    for name in mapping:
        if name not in FIELD_NAMES:
            close = difflib.get_close_matches(name, FIELD_NAMES, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise TypeError(
                f"{caller}: unknown option {name!r}{hint} "
                f"(known options: {', '.join(FIELD_NAMES)})"
            )


def coerce_options(options: Any) -> RunOptions:
    """Public alias of :meth:`RunOptions.coerce` for facade modules."""
    return RunOptions.coerce(options)


def merge_legacy(options: Any, caller: str, **legacy) -> RunOptions:
    """Fold legacy per-knob keywords into a :class:`RunOptions`.

    ``legacy`` maps knob names to the values the caller received, with
    :data:`UNSET` meaning "not passed".  Passed knobs emit a
    :class:`DeprecationWarning` naming the replacement; a knob given
    both through ``options=`` (non-default) and as a keyword is
    ambiguous and raises :class:`ValueError`.
    """
    _check_field_names(
        {k: v for k, v in legacy.items() if v is not UNSET}, caller
    )
    opts = RunOptions.coerce(options)
    changes = {}
    for name, value in legacy.items():
        if value is UNSET:
            continue
        if options is not None:
            default = RunOptions.__dataclass_fields__[name].default
            if getattr(opts, name) != default:
                raise ValueError(
                    f"{caller}: {name!r} was passed both in options= "
                    f"and as a keyword; set it once, on options"
                )
        warnings.warn(
            f"{caller}: the {name}= keyword is deprecated; pass "
            f"options=RunOptions({name}=...) instead",
            DeprecationWarning,
            stacklevel=3,
        )
        changes[name] = value
    return opts.with_(**changes) if changes else opts
