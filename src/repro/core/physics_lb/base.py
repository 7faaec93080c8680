"""Common machinery for the three physics load-balancing schemes.

Paper Section 3.4: the Physics component is all-local (no communication
under the 2-D decomposition) so *only* load imbalance limits its parallel
efficiency (~50% on 240 T3D nodes).  The load at each grid column varies
in space and time with day/night, clouds and cumulus convection, so every
scheme starts from a per-rank load estimate and produces *moves* of work
units between ranks.

Definitions (paper, above Tables 1-3)::

    AverageLoad              = sum_i LocalLoad_i / P
    PercentageOfLoadImbalance = (MaxLoad - AverageLoad) / AverageLoad
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class Move:
    """A directed transfer of ``amount`` work units from ``src`` to ``dst``."""

    src: int
    dst: int
    amount: float

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError(f"move amount must be non-negative, got {self.amount}")
        if self.src == self.dst:
            raise ValueError("move src and dst must differ")


@dataclass
class BalanceResult:
    """Outcome of one balancing computation.

    Attributes
    ----------
    loads_before / loads_after:
        Per-rank loads around the balancing.
    moves:
        The transfers that turn before into after.
    passes:
        Balancing iterations performed (1 except for the iterative
        scheme 3).
    """

    loads_before: np.ndarray
    loads_after: np.ndarray
    moves: List[Move]
    passes: int = 1

    @property
    def imbalance_before(self) -> float:
        return imbalance(self.loads_before)

    @property
    def imbalance_after(self) -> float:
        return imbalance(self.loads_after)

    @property
    def total_moved(self) -> float:
        """Total work units transferred (proxy for data-movement volume)."""
        return sum(m.amount for m in self.moves)

    @property
    def message_count(self) -> int:
        """Messages needed to realise the moves (one per Move)."""
        return len(self.moves)


def imbalance(loads: Sequence[float]) -> float:
    """The paper's percentage-of-load-imbalance (as a fraction).

    ``(max - mean) / mean``; 0 for a perfectly balanced or empty vector.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.size == 0:
        return 0.0
    mean = loads.mean()
    if mean <= 0:
        return 0.0
    return float((loads.max() - mean) / mean)


def apply_moves(loads: Sequence[float], moves: Sequence[Move]) -> np.ndarray:
    """Apply moves to a load vector, validating feasibility.

    A move may not take a rank's remaining load negative.
    """
    out = np.asarray(loads, dtype=float).copy()
    for m in moves:
        if out[m.src] - m.amount < -1e-9:
            raise ValueError(
                f"move {m} would leave rank {m.src} with negative load "
                f"({out[m.src] - m.amount:.3g})"
            )
        out[m.src] -= m.amount
        out[m.dst] += m.amount
    return out


class Balancer:
    """Interface every scheme implements."""

    #: Scheme name used in tables and configuration.
    name: str = "abstract"

    def balance(self, loads: Sequence[float]) -> BalanceResult:
        """Compute moves for one balancing application."""
        raise NotImplementedError
