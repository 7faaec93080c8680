"""Implicit diffusion operators — the paper's implicit-scheme extension.

The explicit dynamics must scale its horizontal diffusion down near the
poles to stay stable (see :class:`~repro.dynamics.geometry.LocalGeometry`).
An implicit treatment removes that restriction entirely; the paper's
Section 5 anticipates exactly this, listing parallel solvers for implicit
time-differencing among the GCM components worth building.  This module
supplies the two implicit operators a GCM actually uses:

* :func:`implicit_vertical_diffusion` — backward-Euler column diffusion
  via batched tridiagonal solves (communication-free under the 2-D
  horizontal decomposition);
* :func:`implicit_horizontal_diffusion` — backward-Euler horizontal
  diffusion via a CG Helmholtz solve (serial), with
  :func:`implicit_horizontal_diffusion_parallel` as the SPMD generator
  for the virtual machine.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.geometry import LocalGeometry
from repro.grid.decomposition import Decomposition2D
from repro.solvers.cg import CGResult, cg_parallel, cg_serial
from repro.solvers.helmholtz import HelmholtzOperator, helmholtz_flops_per_point
from repro.solvers.tridiagonal import diffusion_system, solve_tridiagonal


def implicit_vertical_diffusion(
    field: np.ndarray, dt: float, kappa: float, dz: float = 1000.0
) -> np.ndarray:
    """Backward-Euler vertical diffusion of a (nlat, nlon, K) field.

    Solves ``(I - dt K d2/dz2) f_new = f`` independently in every column
    (no-flux top and bottom).  Unconditionally stable: any ``dt`` works,
    unlike the explicit form.
    """
    if field.ndim != 3:
        raise ValueError(f"expected (nlat, nlon, K), got shape {field.shape}")
    nz = field.shape[2]
    if nz == 1:
        return field.copy()  # a single layer cannot diffuse vertically
    lower, diag, upper = diffusion_system(nz, dt, kappa, dz)
    shape = field.shape
    batch = field.reshape(-1, nz)
    out = solve_tridiagonal(
        np.broadcast_to(lower, batch.shape),
        np.broadcast_to(diag, batch.shape),
        np.broadcast_to(upper, batch.shape),
        batch,
    )
    return out.reshape(shape)


def implicit_horizontal_diffusion(
    field: np.ndarray,
    geom: LocalGeometry,
    dt: float,
    kappa: float,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> CGResult:
    """Serial backward-Euler horizontal diffusion: solve the Helmholtz
    problem ``(I - dt K del^2) f_new = f`` on the global grid."""
    op = HelmholtzOperator(geom, alpha=dt * kappa)
    return cg_serial(op, field, tol=tol, max_iter=max_iter)


def implicit_horizontal_diffusion_parallel(
    ctx,
    decomp: Decomposition2D,
    geom: LocalGeometry,
    field_local: np.ndarray,
    dt: float,
    kappa: float,
    tol: float = 1e-10,
    max_iter: int = 500,
):
    """Generator: the same solve, SPMD over the virtual machine.

    Iteration-for-iteration identical to the serial solve (the allreduced
    scalars match), so the result is independent of the mesh — asserted
    in tests.
    """
    op = HelmholtzOperator(geom, alpha=dt * kappa)
    result = yield from cg_parallel(
        ctx, decomp, op, field_local,
        tol=tol, max_iter=max_iter,
        flops_per_point=helmholtz_flops_per_point(),
    )
    return result


def explicit_diffusion_unstable_dt(
    geom: LocalGeometry, kappa: float
) -> float:
    """The dt above which *unscaled* explicit diffusion blows up.

    ``dt_max = dx_min^2 / (4 K)`` — the bound the implicit scheme removes
    (and the reason the explicit core scales its coefficient poleward).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    dx_min = float(geom.dx_c[1:-1].min())
    return dx_min**2 / (4.0 * kappa)
