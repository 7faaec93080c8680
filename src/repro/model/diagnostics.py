"""Physical diagnostics of a model state: budgets, means, spectra.

The performance study needs the model to stay physically sane while it is
being timed; these diagnostics are what the tests (and a user watching a
long run) check.  They also provide the zonal spectra that make the polar
filter's action visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.dynamics.state import ModelState, PHI_SCALE, PT_REFERENCE
from repro.grid.sphere import SphericalGrid


@dataclass(frozen=True)
class EnergyBudget:
    """Area-integrated energy components [J-like model units]."""

    kinetic: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


def energy_budget(state: ModelState, grid: SphericalGrid) -> EnergyBudget:
    """Kinetic + (available-)potential energy of the state.

    KE = integral of ``pt (u^2 + v^2) / 2``; PE = integral of
    ``PHI_SCALE (pt - ref)^2 / (2 ref)`` — the shallow-water analogues
    with the mass-field proxy as the layer weight.
    """
    w = grid.cell_area[:, None, None]
    ke = float((0.5 * state.pt * (state.u**2 + state.v**2) * w).sum())
    anomaly = state.pt - PT_REFERENCE
    pe = float((0.5 * PHI_SCALE / PT_REFERENCE * anomaly**2 * w).sum())
    return EnergyBudget(kinetic=ke, potential=pe)


def zonal_mean(field: np.ndarray) -> np.ndarray:
    """Average over longitude: (nlat, nlon[, K]) -> (nlat[, K])."""
    return np.asarray(field).mean(axis=1)


def zonal_spectrum(field: np.ndarray, lat_index: int) -> np.ndarray:
    """Power per zonal wavenumber of one latitude row, (N//2 + 1,).

    This is the quantity the polar filter reshapes: poleward rows lose
    power at high wavenumbers while the s = 0 (mean) bin is untouched.
    """
    row = np.asarray(field)[lat_index]
    if row.ndim == 2:  # layers present: average the spectra
        spec = np.abs(np.fft.rfft(row, axis=0)) ** 2
        return spec.mean(axis=1)
    return np.abs(np.fft.rfft(row)) ** 2


def high_wavenumber_fraction(
    field: np.ndarray, lat_index: int, cutoff_fraction: float = 0.5
) -> float:
    """Fraction of (non-mean) zonal variance above a wavenumber cutoff.

    Used by tests to verify the filter actually suppresses short polar
    waves in a running model.
    """
    spec = zonal_spectrum(field, lat_index)
    if spec.size < 3:
        return 0.0
    cut = max(1, int(cutoff_fraction * (spec.size - 1)))
    total = spec[1:].sum()
    if total == 0:
        return 0.0
    return float(spec[cut:].sum() / total)


def moisture_stats(state: ModelState) -> Dict[str, float]:
    """Humidity sanity numbers (advection can undershoot slightly)."""
    q = state.q
    return {
        "min": float(q.min()),
        "max": float(q.max()),
        "mean": float(q.mean()),
        "negative_fraction": float((q < 0).mean()),
    }


def mass_drift(states_mass: list[float]) -> float:
    """Relative drift of the mass integral over a run."""
    if len(states_mass) < 2 or states_mass[0] == 0:
        return 0.0
    return abs(states_mass[-1] - states_mass[0]) / abs(states_mass[0])
