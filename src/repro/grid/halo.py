"""Ghost-point (halo) exchange for the finite-difference dynamics.

The paper notes two communication patterns in the parallel AGCM: nearest-
neighbour ghost exchanges for the finite differences, and the non-local
traffic of the spectral filter.  This module implements the first: a
4-neighbour halo exchange with periodic longitude and closed (polar)
latitude boundaries.

Two implementations are provided and cross-checked in tests:

* :func:`pad_with_halo` — a serial reference that pads a *global* field;
* :func:`exchange_halos` — the virtual-parallel generator that performs
  real ``sendrecv`` ops with actual edge arrays, so simulations both move
  correct data and get charged the correct message costs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.grid.decomposition import Decomposition2D
from repro.parallel import engine as _engine
from repro.parallel.comm import VirtualComm
from repro.parallel.events import Exchange

_TAG_EW = 0x00AA0001
_TAG_WE = 0x00AA0002
_TAG_NS = 0x00AA0003
_TAG_SN = 0x00AA0004


def pad_with_halo(field: np.ndarray, halo: int = 1) -> np.ndarray:
    """Serial reference: pad a global ``(nlat, nlon, ...)`` field.

    Longitude wraps periodically; latitude ghost rows beyond the poles are
    filled by replicating the polar row (the AGCM treats the polar caps
    specially; replication is the convention used by all our stencils).
    """
    if halo < 1:
        raise ValueError("halo must be >= 1")
    nlat, nlon = field.shape[:2]
    if halo > nlon:
        raise ValueError("halo wider than the field")
    out = np.empty(
        (nlat + 2 * halo, nlon + 2 * halo, *field.shape[2:]), dtype=field.dtype
    )
    out[halo:-halo, halo:-halo] = field
    # periodic longitude
    out[halo:-halo, :halo] = field[:, -halo:]
    out[halo:-halo, -halo:] = field[:, :halo]
    # polar replication (applied to the already lon-padded rows)
    for g in range(halo):
        out[g] = out[halo]
        out[-(g + 1)] = out[-(halo + 1)]
    return out


def interior(padded: np.ndarray, halo: int = 1) -> np.ndarray:
    """View of the interior of a halo-padded array."""
    return padded[halo:-halo, halo:-halo]


def exchange_halos(
    ctx: VirtualComm,
    decomp: Decomposition2D,
    local: np.ndarray,
    halo: int = 1,
):
    """Virtual-parallel halo exchange; returns the padded local array.

    Generator — drive with ``yield from``.  ``local`` is this rank's
    ``(nlat_loc, nlon_loc, ...)`` block.  East/west neighbours are always
    present (longitude is periodic); north/south ghost rows at the poles
    are filled by replicating the boundary row, matching
    :func:`pad_with_halo`.

    Four messages per rank per call: this is the "relatively insignificant"
    nearest-neighbour traffic of paper Section 3.4 (~10% of Dynamics cost
    on 240 nodes), and the simulation charges it explicitly.  Under the
    batched engine the four messages ride in two :class:`Exchange` ops
    (one east-west, one north-south) — same wire order, same costs, one
    scheduler round-trip each.
    """
    mesh = decomp.mesh
    rank = ctx.rank
    sub = decomp.subdomain(rank)
    if local.shape[:2] != sub.shape:
        raise ValueError(
            f"rank {rank}: local shape {local.shape[:2]} != subdomain {sub.shape}"
        )
    if halo < 1 or halo > sub.nlon or halo > sub.nlat:
        raise ValueError(f"invalid halo {halo} for block {sub.shape}")

    shape = (sub.nlat + 2 * halo, sub.nlon + 2 * halo, *local.shape[2:])
    padded = np.empty(shape, dtype=local.dtype)
    padded[halo:-halo, halo:-halo] = local

    east = mesh.east_of(rank)
    west = mesh.west_of(rank)

    # --- east-west (periodic) ------------------------------------------
    # Send my east edge to the east neighbour; receive my west ghost from
    # the west neighbour.  Then the mirror image.
    east_edge = np.ascontiguousarray(local[:, -halo:])
    west_edge = np.ascontiguousarray(local[:, :halo])
    if east == rank:  # single processor column: periodic wrap is local
        padded[halo:-halo, :halo] = east_edge
        padded[halo:-halo, -halo:] = west_edge
    elif _engine.batched():
        ghosts = yield Exchange(
            sends=(
                (east, east_edge, _TAG_EW, None, True),
                (west, west_edge, _TAG_WE, None, True),
            ),
            recvs=((west, _TAG_EW), (east, _TAG_WE)),
        )
        padded[halo:-halo, :halo] = ghosts[0]
        padded[halo:-halo, -halo:] = ghosts[1]
    else:
        west_ghost = yield from ctx.sendrecv(
            dest=east, payload=east_edge, source=west, tag=_TAG_EW
        )
        padded[halo:-halo, :halo] = west_ghost
        east_ghost = yield from ctx.sendrecv(
            dest=west, payload=west_edge, source=east, tag=_TAG_WE
        )
        padded[halo:-halo, -halo:] = east_ghost

    # --- north-south (closed at poles) ----------------------------------
    north = mesh.north_of(rank)
    south = mesh.south_of(rank)
    north_edge = np.ascontiguousarray(padded[-2 * halo : -halo, :])
    south_edge = np.ascontiguousarray(padded[halo : 2 * halo, :])

    if _engine.batched() and (north is not None or south is not None):
        # Same wire order as the loop path below: (send north, recv
        # south), then (send south, recv north); polar rows have None in
        # the missing slots.
        ghosts = yield Exchange(
            sends=(
                (north, north_edge, _TAG_NS, None, True)
                if north is not None else None,
                (south, south_edge, _TAG_SN, None, True)
                if south is not None else None,
            ),
            recvs=(
                (south, _TAG_NS) if south is not None else None,
                (north, _TAG_SN) if north is not None else None,
            ),
        )
        if south is not None:
            padded[:halo, :] = ghosts[0]
        else:
            for g in range(halo):  # south pole: replicate boundary row
                padded[g] = padded[halo]
        if north is not None:
            padded[-halo:, :] = ghosts[1]
        else:
            for g in range(halo):  # north pole: replicate boundary row
                padded[-(g + 1)] = padded[-(halo + 1)]
        return padded

    # Exchange with north: send my north edge up, receive their south edge.
    if north is not None:
        yield from ctx.send(north, north_edge, tag=_TAG_NS)
    if south is not None:
        south_ghost = yield from ctx.recv(south, tag=_TAG_NS)
        padded[:halo, :] = south_ghost
    else:
        for g in range(halo):  # south pole: replicate boundary row
            padded[g] = padded[halo]

    # Exchange with south: send my south edge down, receive their north edge.
    if south is not None:
        yield from ctx.send(south, south_edge, tag=_TAG_SN)
    if north is not None:
        north_ghost = yield from ctx.recv(north, tag=_TAG_SN)
        padded[-halo:, :] = north_ghost
    else:
        for g in range(halo):  # north pole: replicate boundary row
            padded[-(g + 1)] = padded[-(halo + 1)]

    return padded
