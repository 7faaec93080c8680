"""Parallel polar-filter drivers: the four configurations the paper times.

Tables 8-11 compare three filtering implementations (plus the implicit
serial case):

* ``convolution-ring``  — the original eq.-2 convolution with full lines
  assembled by a ring allgather around each processor row;
* ``convolution-tree``  — the eq.-2 convolution with lines gathered to a
  row leader through a binomial ("binary") tree and segments scattered
  back;
* ``fft``               — transpose-based FFT filtering *without* load
  balancing (:func:`~repro.core.balance_plan.natural_assignment`): whole
  lines are assembled by an all-to-all within each processor row, but
  only the high-latitude rows have any lines;
* ``fft-lb``            — the paper's contribution: the same transpose
  FFT behind the generic row-redistribution balancer
  (:func:`~repro.core.balance_plan.balanced_assignment`), so every rank
  FFTs ~``sum_j R_j / P`` lines.

Every driver is a generator to be run inside a rank program.  They move
*real* array data (results are asserted identical to the serial filters in
the test suite) and charge the machine model for every message and flop,
so the virtual timings reproduce the paper's comparisons structurally.

Wire format: a group of row-unit segments is concatenated along the layer
axis into one ``(nlon_segment, sum_of_layers)`` array — variables with
different layer counts (``ps`` has one, the 3-D fields have K) pack into
a single message, and both endpoints derive the split offsets from the
globally known plan.  All filtered fields must be 3-D
``(nlat, nlon, nlayers)`` arrays.

The transpose-FFT backends derive those offsets, peers and line bands
once per rank and set of layer counts: a :class:`TransposeSchedule`,
compiled on first use and kept on the shared :class:`FilterBackend` —
the paper's plan-once, execute-every-step split (as in P3DFFT).  Each
call then packs one row array, ships column slices of it, and filters
all of the rank's complete lines with a single FFT pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.balance_plan import (
    FilterAssignment,
    balanced_assignment,
    natural_assignment,
)
from repro.core.convolution import (
    circulant_matrix,
    convolution_filter_rows,
)
from repro.core.fft import (
    fft_filter_columns,
    fft_filter_flop_count,
    fft_filter_rows,
)
from repro.core.masks import FilterPlan
from repro.grid.decomposition import Decomposition2D
from repro.parallel import collectives as coll
from repro.parallel import engine as _engine
from repro.parallel.comm import VirtualComm
from repro.parallel.events import Exchange

#: Recognised backend names, in the order the paper's tables list them.
FILTER_BACKENDS = ("convolution-ring", "convolution-tree", "fft", "fft-lb")

#: FILTER_BACKENDS plus the distributed 1-D FFT — the alternative the
#: paper rejected in Section 3.2.  It requires power-of-two line lengths
#: and ranks per row, so it is not part of the default set.
EXTENDED_BACKENDS = FILTER_BACKENDS + ("fft-distributed",)

_TAG_STAGE_A = 0x00BB0001
_TAG_STAGE_A_BACK = 0x00BB0002


def _staged_exchange(sends, recvs) -> Exchange:
    """One Exchange for an *all-sends-then-all-recvs* schedule.

    Stage A of the transpose filter posts every outgoing segment before
    draining the incoming ones; the batched form pads the rounds so the
    wire order is identical to the loop path: the received payloads sit
    in ``result()[len(sends):]``.
    """
    return Exchange(
        sends=tuple(sends) + (None,) * len(recvs),
        recvs=(None,) * len(sends) + tuple(recvs),
    )


@dataclass
class FilterBackend:
    """A prepared filtering configuration for one decomposition.

    Built once at setup (mirroring the paper's one-time set-up step) and
    reused every time step.  The transpose-FFT backends also keep each
    rank's compiled :class:`TransposeSchedule`, built on the rank's first
    call for a given set of layer counts, so one backend serves every
    rank of a run and every later call reuses the bookkeeping.
    """

    name: str
    plan: FilterPlan
    decomp: Decomposition2D
    assignment: Optional[FilterAssignment]  # None for convolution backends
    _schedules: Dict[tuple, "TransposeSchedule"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def _stage_a_moves(self) -> List[Tuple[int, int, List[int]]]:
        return self.assignment.stage_a_moves()

    def transpose_schedule(
        self, rank: int, layers: Dict[str, int]
    ) -> "TransposeSchedule":
        """``rank``'s transpose schedule for fields of these layer counts."""
        key = (rank, tuple(sorted(layers.items())))
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = _compile_transpose_schedule(
                self.assignment, self._stage_a_moves, rank, layers
            )
            self._schedules[key] = schedule
        return schedule

    def apply(self, ctx: VirtualComm, local_fields: Dict[str, np.ndarray]):
        """Generator: filter the local fields in place on this rank."""
        if self.name == "convolution-ring":
            yield from filter_convolution_ring(
                ctx, self.decomp, self.plan, local_fields
            )
        elif self.name == "convolution-tree":
            yield from filter_convolution_tree(
                ctx, self.decomp, self.plan, local_fields
            )
        elif self.name in ("fft", "fft-lb"):
            schedule = self.transpose_schedule(
                ctx.rank, _layers_of(local_fields)
            )
            yield from filter_fft_transpose(ctx, schedule, local_fields)
        elif self.name == "fft-distributed":
            yield from filter_fft_distributed(
                ctx, self.decomp, self.plan, local_fields
            )
        else:  # pragma: no cover - prepare_filter_backend validates
            raise ValueError(f"unknown backend {self.name!r}")


def prepare_filter_backend(
    name: str, plan: FilterPlan, decomp: Decomposition2D
) -> FilterBackend:
    """Build the per-run setup state for a named filter backend."""
    if name not in EXTENDED_BACKENDS:
        raise ValueError(
            f"unknown filter backend {name!r}; choose from {EXTENDED_BACKENDS}"
        )
    if name == "fft-distributed":
        from repro.core.distributed_fft import check_distributed_fft_shape

        check_distributed_fft_shape(decomp.nlon, decomp.mesh.nlon_procs)
    assignment: Optional[FilterAssignment] = None
    if name == "fft":
        assignment = natural_assignment(plan, decomp)
    elif name == "fft-lb":
        assignment = balanced_assignment(plan, decomp)
    return FilterBackend(name=name, plan=plan, decomp=decomp, assignment=assignment)


def apply_serial_filter(
    plan: FilterPlan, fields: Dict[str, np.ndarray], method: str = "fft"
) -> None:
    """Serial reference: filter global fields in place.

    ``method`` is ``"fft"`` or ``"convolution"``; both must (and, by the
    convolution theorem, do) give identical results — asserted in tests.
    """
    for var in plan.strong_vars:
        if var in fields:
            if method == "fft":
                fields[var][...] = fft_filter_rows(fields[var], plan.strong)
            else:
                fields[var][...] = convolution_filter_rows(fields[var], plan.strong)
    for var in plan.weak_vars:
        if var in fields:
            if method == "fft":
                fields[var][...] = fft_filter_rows(fields[var], plan.weak)
            else:
                fields[var][...] = convolution_filter_rows(fields[var], plan.weak)


# ----------------------------------------------------------------------
# packing helpers: unit segments <-> wire arrays
# ----------------------------------------------------------------------

def _layers_of(local_fields: Dict[str, np.ndarray]) -> Dict[str, int]:
    """Layer count of each filtered variable (identical on every rank)."""
    out = {}
    for name, arr in local_fields.items():
        if arr.ndim != 3:
            raise ValueError(
                f"filtered field {name!r} must be 3-D (nlat, nlon, K); "
                f"got shape {arr.shape}"
            )
        out[name] = arr.shape[2]
    return out


def _segment(
    local_fields: Dict[str, np.ndarray], plan: FilterPlan, unit: int, lat0: int
) -> np.ndarray:
    """This rank's longitude segment of a row unit — (nlon_loc, K_var)."""
    u = plan.units[unit]
    return local_fields[u.var][u.lat - lat0]


def _store_segment(
    local_fields: Dict[str, np.ndarray],
    plan: FilterPlan,
    unit: int,
    lat0: int,
    segment: np.ndarray,
) -> None:
    """Write a filtered segment back into the local field row."""
    u = plan.units[unit]
    local_fields[u.var][u.lat - lat0] = segment


def _pack_units(
    local_fields: Dict[str, np.ndarray],
    plan: FilterPlan,
    units: Sequence[int],
    lat0: int,
    nlon_loc: int,
) -> np.ndarray:
    """Concatenate unit segments along the layer axis: (nlon_loc, sum K)."""
    if not units:
        return np.empty((nlon_loc, 0))
    return np.ascontiguousarray(
        np.concatenate(
            [_segment(local_fields, plan, u, lat0) for u in units], axis=1
        )
    )


def _unit_offsets(
    plan: FilterPlan, units: Sequence[int], layers: Dict[str, int]
) -> List[int]:
    """Cumulative layer offsets of each unit inside a packed array."""
    offs = [0]
    for u in units:
        offs.append(offs[-1] + layers[plan.units[u].var])
    return offs


def _split_units(
    packed: np.ndarray,
    plan: FilterPlan,
    units: Sequence[int],
    layers: Dict[str, int],
) -> List[np.ndarray]:
    """Invert :func:`_pack_units`: views per unit, (nlon, K_var) each."""
    offs = _unit_offsets(plan, units, layers)
    return [packed[:, offs[i] : offs[i + 1]] for i in range(len(units))]


def _convolution_segment_flops(
    plan: FilterPlan,
    units: Sequence[int],
    layers: Dict[str, int],
    out_points: int,
) -> float:
    """Eq.-2 wavenumber-sum cost of convolving ``out_points`` per line.

    ``4 * out_points * M_s`` flops per layer of each unit, where ``M_s``
    is the number of damped wavenumbers at the unit's latitude (sine and
    cosine contributions, one multiply + one add each).
    """
    total = 0.0
    for u in units:
        ru = plan.units[u]
        m = plan.filter_for(ru).damped_bin_count(ru.lat)
        total += 4.0 * out_points * m * layers[ru.var]
    return total


# ----------------------------------------------------------------------
# convolution backends (the original code's algorithms)
# ----------------------------------------------------------------------

def filter_convolution_ring(
    ctx: VirtualComm,
    decomp: Decomposition2D,
    plan: FilterPlan,
    local_fields: Dict[str, np.ndarray],
):
    """Eq.-2 convolution with ring allgather of line segments.

    Within each processor row, all ranks allgather their segments of every
    filtered line owned by the row (``N_procs - 1`` ring rounds, the
    paper's "communications around processor rings in the longitudinal
    direction" with no partial summation), then each rank convolves the
    full lines to produce *its own* longitude segment of the output.
    """
    mesh = decomp.mesh
    sub = decomp.subdomain(ctx.rank)
    i_row, _ = mesh.coords_of(ctx.rank)
    my_units = [
        u for u, ru in enumerate(plan.units) if sub.lat0 <= ru.lat < sub.lat1
    ]
    if not my_units:
        # Idle during filtering: the load imbalance the paper measures.
        return
    layers = _layers_of(local_fields)
    row_group = ctx.group(mesh.row_ranks(i_row))

    packed = _pack_units(local_fields, plan, my_units, sub.lat0, sub.nlon)
    with ctx.span("filter.gather", units=len(my_units)):
        gathered = yield from row_group.allgather(packed)
    lines = np.concatenate(gathered, axis=0)  # (nlon, sum K)

    nlon = decomp.nlon
    # Charge the AGCM's wavenumber-sum form of eq. (2): each output point
    # of a line sums over the M_s damped wavenumbers of that latitude
    # (sine and cosine components), and this rank only computes its own
    # longitude segment of each line.
    # The ring variant computes only its own (short) longitude segment of
    # each output line, so its inner loops suffer the vector-startup
    # penalty on small blocks — one of the reasons the original filter
    # scales poorly.
    with ctx.span("filter.convolve", units=len(my_units)):
        yield from ctx.compute(
            flops=_convolution_segment_flops(plan, my_units, layers, sub.nlon),
            mem_bytes=2.0 * lines.nbytes,
            inner_length=sub.nlon,
        )
    lon_sel = np.arange(sub.lon0, sub.lon1)
    per_unit = _split_units(lines, plan, my_units, layers)
    for u, line in zip(my_units, per_unit):
        kernel = plan.filter_for(plan.units[u]).kernel(plan.units[u].lat)
        rows = circulant_matrix(kernel)[lon_sel]  # (nlon_loc, nlon)
        _store_segment(local_fields, plan, u, sub.lat0, rows @ line)


def filter_convolution_tree(
    ctx: VirtualComm,
    decomp: Decomposition2D,
    plan: FilterPlan,
    local_fields: Dict[str, np.ndarray],
):
    """Eq.-2 convolution with binomial-tree gather to a row leader.

    Segments funnel up a binary tree to column 0 of each processor row
    (``O(2P)`` messages, ``O(NP + N log P)`` volume), the leader convolves
    whole lines, and filtered segments are scattered straight back.
    """
    mesh = decomp.mesh
    sub = decomp.subdomain(ctx.rank)
    i_row, _ = mesh.coords_of(ctx.rank)
    my_units = [
        u for u, ru in enumerate(plan.units) if sub.lat0 <= ru.lat < sub.lat1
    ]
    if not my_units:
        return
    layers = _layers_of(local_fields)
    row_group = ctx.group(mesh.row_ranks(i_row))

    packed = _pack_units(local_fields, plan, my_units, sub.lat0, sub.nlon)
    with ctx.span("filter.gather", units=len(my_units)):
        gathered = yield from coll.gather_binomial(row_group, packed, root=0)

    if row_group.rank == 0:
        lines = np.concatenate(gathered, axis=0)  # (nlon, sum K)
        nlon = decomp.nlon
        with ctx.span("filter.convolve", units=len(my_units)):
            yield from ctx.compute(
                flops=_convolution_segment_flops(plan, my_units, layers, nlon),
                mem_bytes=2.0 * lines.nbytes,
                inner_length=nlon,
            )
        filtered = np.empty_like(lines)
        per_unit_in = _split_units(lines, plan, my_units, layers)
        per_unit_out = _split_units(filtered, plan, my_units, layers)
        for u, line, out in zip(my_units, per_unit_in, per_unit_out):
            kernel = plan.filter_for(plan.units[u]).kernel(plan.units[u].lat)
            out[...] = circulant_matrix(kernel) @ line
        pieces = []
        for col in range(mesh.nlon_procs):
            lo, hi = decomp.lon_bounds_of_proc_col(col)
            pieces.append(np.ascontiguousarray(filtered[lo:hi]))
        with ctx.span("filter.scatter"):
            mine = yield from row_group.scatter(pieces, root=0)
    else:
        with ctx.span("filter.scatter"):
            mine = yield from row_group.scatter(None, root=0)

    for u, seg in zip(my_units, _split_units(mine, plan, my_units, layers)):
        _store_segment(local_fields, plan, u, sub.lat0, seg)


# ----------------------------------------------------------------------
# transpose-based FFT backends (the paper's optimisation)
# ----------------------------------------------------------------------

#: A run of consecutive latitude rows of one variable, packed side by
#: side: ``(var, l0, l1, k, c0)`` — local rows ``[l0, l1)`` of ``var``
#: (``k`` layers each) occupy packed columns ``[c0, c0 + (l1 - l0) * k)``.
FieldRun = Tuple[str, int, int, int, int]

#: A block copy between two packed arrays: ``(src0, dst0, width)``.
ColumnCopy = Tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class TransposeSchedule:
    """Everything one rank's transpose-FFT call needs, derived once.

    A pure function of the assignment, this rank and the layer count of
    each filtered variable (:meth:`FilterBackend.transpose_schedule`
    builds it lazily and keeps it), so a filter call only moves and
    transforms data.  The *row array* is this rank's longitude segment of
    every unit assigned to its processor row, packed in unit order
    (``(nlon_loc, width)``): because stage-B columns own consecutive
    blocks of those units, each outgoing transpose chunk is a column
    slice of it, and the returning chunks concatenate back into it.
    """

    #: This rank's local longitude extent and the global line length.
    nlon_loc: int
    nlon: int
    #: World ranks of this rank's processor row (the stage-B group).
    row_ranks: Tuple[int, ...]
    #: Units owned *and* assigned here: local rows <-> row array.
    kept: Tuple[FieldRun, ...]
    #: Stage A out: ``(peer, width, runs)`` — units this row owns but
    #: another row filters; runs map local rows <-> the payload.
    a_out: Tuple[Tuple[int, int, Tuple[FieldRun, ...]], ...]
    #: Stage A in: ``(peer, width, copies)`` — payload <-> row array.
    a_in: Tuple[Tuple[int, int, Tuple[ColumnCopy, ...]], ...]
    #: Row-array width (0: the row holds no units, so no stage B), and
    #: the column offset where each stage-B processor column's block of
    #: units starts (``n_cols + 1`` entries).
    width: int
    col_offsets: Tuple[int, ...]
    #: Global longitude range of each processor column.
    lon_bounds: Tuple[Tuple[int, int], ...]
    #: This rank's complete lines: ``(c0, c1, transfer)`` column bands
    #: of the assembled ``(nlon, W_j)`` block (see :func:`fft_filter_columns`).
    lines: Tuple[Tuple[int, int, np.ndarray], ...]


def _field_runs(
    plan: FilterPlan,
    units: Sequence[int],
    offsets: Sequence[int],
    lat0: int,
    layers: Dict[str, int],
) -> Tuple[FieldRun, ...]:
    """Merge ``units`` (packed at ``offsets``) into maximal row runs."""
    runs: List[FieldRun] = []
    for u, c0 in zip(units, offsets):
        ru = plan.units[u]
        row, k = ru.lat - lat0, layers[ru.var]
        if runs:
            var, l0, l1, _, s0 = runs[-1]
            if var == ru.var and row == l1 and c0 == s0 + (l1 - l0) * k:
                runs[-1] = (var, l0, l1 + 1, k, s0)
                continue
        runs.append((ru.var, row, row + 1, k, c0))
    return tuple(runs)


def _column_copies(
    src: Sequence[int], dst: Sequence[int], widths: Sequence[int]
) -> Tuple[ColumnCopy, ...]:
    """Merge per-unit column moves that are contiguous on both sides."""
    copies: List[ColumnCopy] = []
    for s, d, w in zip(src, dst, widths):
        if copies:
            s0, d0, w0 = copies[-1]
            if s == s0 + w0 and d == d0 + w0:
                copies[-1] = (s0, d0, w0 + w)
                continue
        copies.append((s, d, w))
    return tuple(copies)


def _run_views(fields: Dict[str, np.ndarray], packed: np.ndarray,
               runs: Sequence[FieldRun]):
    """``(field rows, packed view)`` pairs of equal ``(n, nlon_loc, k)``
    shape for each run; the packed view writes through to ``packed``."""
    nlon_loc = packed.shape[0]
    for var, l0, l1, k, c0 in runs:
        n = l1 - l0
        cols = packed[:, c0 : c0 + n * k].reshape(nlon_loc, n, k)
        yield fields[var][l0:l1], cols.transpose(1, 0, 2)


def _pack_runs(fields, packed, runs) -> None:
    """Copy field rows into packed columns."""
    for rows, cols in _run_views(fields, packed, runs):
        cols[...] = rows


def _unpack_runs(fields, packed, runs) -> None:
    """Copy packed columns back into field rows."""
    for rows, cols in _run_views(fields, packed, runs):
        rows[...] = cols


def _compile_transpose_schedule(
    assignment: FilterAssignment,
    moves: Sequence[Tuple[int, int, List[int]]],
    rank: int,
    layers: Dict[str, int],
) -> TransposeSchedule:
    """Derive one rank's :class:`TransposeSchedule`.

    ``moves`` is ``assignment.stage_a_moves()`` (identical for every
    rank, so the backend computes it once); ``layers`` maps each filtered
    variable to its layer count.
    """
    plan, decomp = assignment.plan, assignment.decomp
    mesh = decomp.mesh
    sub = decomp.subdomain(rank)
    i_row, j_col = mesh.coords_of(rank)

    def widths(units):
        return [layers[plan.units[u].var] for u in units]

    def offsets(units):
        return list(accumulate(widths(units), initial=0))

    # Row array: the row's assigned units in order; stage-B column c
    # owns a consecutive block of them (block partition, see
    # balance_plan._assign_line_cols), which is what lets the transpose
    # chunks be plain column slices.
    assigned = assignment.units_assigned_to_row(i_row)
    starts = offsets(assigned)  # one more entry than units: the width
    where = dict(zip(assigned, starts))
    n_cols = mesh.nlon_procs
    col_of = [assignment.line_col[u] for u in assigned]
    if col_of != sorted(col_of):
        raise ValueError("stage-B line columns must be a block partition")
    col_offsets = tuple(
        starts[i] for i in np.searchsorted(col_of, np.arange(n_cols + 1))
    )

    kept = [u for u in assigned if assignment.owner_row[u] == i_row]
    a_out = tuple(
        (mesh.rank_of(dst, j_col), sum(widths(units)),
         _field_runs(plan, units, offsets(units), sub.lat0, layers))
        for src, dst, units in moves if src == i_row
    )
    a_in = tuple(
        (mesh.rank_of(src, j_col), sum(widths(units)),
         _column_copies(offsets(units), [where[u] for u in units],
                        widths(units)))
        for src, dst, units in moves if dst == i_row
    )

    base = col_offsets[j_col]
    lines = []
    for u in assigned:
        if assignment.line_col[u] != j_col:
            continue
        ru = plan.units[u]
        transfer = np.asarray(plan.filter_for(ru).transfer(ru.lat))
        c0 = where[u] - base
        lines.append((c0, c0 + layers[ru.var], transfer[:, None]))

    return TransposeSchedule(
        nlon_loc=sub.nlon,
        nlon=decomp.nlon,
        row_ranks=tuple(mesh.row_ranks(i_row)),
        kept=_field_runs(plan, kept, [where[u] for u in kept], sub.lat0,
                         layers),
        a_out=a_out,
        a_in=a_in,
        width=starts[-1],
        col_offsets=col_offsets,
        lon_bounds=tuple(
            decomp.lon_bounds_of_proc_col(c) for c in range(n_cols)
        ),
        lines=tuple(lines),
    )


def _redistribute(ctx: VirtualComm, sends, peers: Sequence[int], tag: int):
    """Generator: one stage-A direction — post every ``(peer, payload)``
    of ``sends``, then receive one payload from each of ``peers``.

    Returns the received payloads in ``peers`` order.  The batched and
    the per-message (``legacy_engine``) paths keep the same wire order.
    """
    if _engine.batched():
        if not (sends or peers):
            return []
        received = yield _staged_exchange(
            [(peer, buf, tag, None, True) for peer, buf in sends],
            [(peer, tag) for peer in peers],
        )
        return received[len(sends):]
    for peer, buf in sends:
        yield from ctx.send(peer, buf, tag=tag)
    received = []
    for peer in peers:
        buf = yield from ctx.recv(peer, tag=tag)
        received.append(buf)
    return received


def filter_fft_transpose(
    ctx: VirtualComm,
    schedule: TransposeSchedule,
    local_fields: Dict[str, np.ndarray],
):
    """Transpose-based FFT filtering, optionally load balanced.

    Stage A ships row-unit segments from owning to target processor rows
    (identity when the assignment is natural); stage B transposes within
    each processor row so complete lines land on their owning column;
    one FFT pair filters all of the rank's lines; the inverse movements
    restore the original layout (paper Figures 2-3 and Section 3.2).
    Every index, peer and offset comes from this rank's compiled
    ``schedule``; the call itself only moves and transforms data.
    """
    s = schedule
    dtype = np.result_type(*local_fields.values())

    # ---------- stage A: latitudinal redistribution --------------------
    row = np.empty((s.nlon_loc, s.width), dtype)
    _pack_runs(local_fields, row, s.kept)
    with ctx.span("filter.redistribute"):
        sends = []
        for peer, width, runs in s.a_out:
            buf = np.empty((s.nlon_loc, width), dtype)
            _pack_runs(local_fields, buf, runs)
            sends.append((peer, buf))
        received = yield from _redistribute(
            ctx, sends, [peer for peer, _, _ in s.a_in], _TAG_STAGE_A
        )
        for (_, _, copies), buf in zip(s.a_in, received):
            for src0, dst0, w in copies:
                row[:, dst0 : dst0 + w] = buf[:, src0 : src0 + w]

    # ---------- stage B: transpose within the processor row ------------
    if s.width:
        offs = s.col_offsets
        row_group = ctx.group(s.row_ranks)
        with ctx.span("filter.transpose"):
            received = yield from row_group.alltoall(
                [row[:, offs[c] : offs[c + 1]] for c in range(len(offs) - 1)]
            )
        # Assemble complete lines: column segments stacked along lon.
        lines = np.concatenate(received, axis=0)
        if s.lines:
            # Whole-line FFTs: full vector length — the reason the paper
            # chose the transpose over a distributed 1-D FFT.
            with ctx.span("filter.fft", lines=len(s.lines)):
                yield from ctx.compute(
                    flops=fft_filter_flop_count(s.nlon, 1, lines.shape[1]),
                    mem_bytes=2.0 * lines.nbytes,
                    inner_length=s.nlon,
                )
            lines = fft_filter_columns(lines, s.lines)

        # ---------- inverse stage B -------------------------------------
        with ctx.span("filter.transpose"):
            back = yield from row_group.alltoall(
                [lines[lo:hi] for lo, hi in s.lon_bounds]
            )
        row = np.concatenate(back, axis=1)

    # ---------- inverse stage A -----------------------------------------
    with ctx.span("filter.redistribute"):
        sends = []
        for peer, width, copies in s.a_in:
            buf = np.empty((s.nlon_loc, width), dtype)
            for src0, dst0, w in copies:
                buf[:, src0 : src0 + w] = row[:, dst0 : dst0 + w]
            sends.append((peer, buf))
        received = yield from _redistribute(
            ctx, sends, [peer for peer, _, _ in s.a_out], _TAG_STAGE_A_BACK
        )
        for (_, _, runs), buf in zip(s.a_out, received):
            _unpack_runs(local_fields, buf, runs)

    # Write back the segments this rank both owns and was assigned.
    _unpack_runs(local_fields, row, s.kept)


# ----------------------------------------------------------------------
# the distributed 1-D FFT backend (the paper's rejected alternative)
# ----------------------------------------------------------------------

def filter_fft_distributed(
    ctx: VirtualComm,
    decomp: Decomposition2D,
    plan: FilterPlan,
    local_fields: Dict[str, np.ndarray],
):
    """Filter via binary-exchange distributed FFTs along processor rows.

    No transpose: each rank keeps its longitude segment and the FFT
    butterflies themselves communicate (``2 log2 P`` block exchanges per
    filtering pass).  Requires power-of-two line lengths and ranks per
    row — one of the practical reasons the paper preferred the
    transpose + local (mixed-radix library) FFT.  Load balance matches
    the plain ``fft`` backend: rows without filtered latitudes idle.
    """
    from repro.core.distributed_fft import (
        bitrev_transfer,
        check_distributed_fft_shape,
        distributed_fft_filter_line,
    )

    mesh = decomp.mesh
    sub = decomp.subdomain(ctx.rank)
    i_row, j_col = mesh.coords_of(ctx.rank)
    my_units = [
        u for u, ru in enumerate(plan.units) if sub.lat0 <= ru.lat < sub.lat1
    ]
    if not my_units:
        return
    layers = _layers_of(local_fields)
    local_n = check_distributed_fft_shape(decomp.nlon, mesh.nlon_procs)
    row_group = ctx.group(mesh.row_ranks(i_row))

    packed = _pack_units(local_fields, plan, my_units, sub.lat0, sub.nlon)
    # Per-layer bit-reversed transfer factors for this rank's block.
    lo, hi = j_col * local_n, (j_col + 1) * local_n
    t = np.empty((local_n, packed.shape[1]))
    offs = _unit_offsets(plan, my_units, layers)
    for i, u in enumerate(my_units):
        ru = plan.units[u]
        full = bitrev_transfer(
            np.asarray(plan.filter_for(ru).transfer(ru.lat)), decomp.nlon
        )
        t[:, offs[i] : offs[i + 1]] = full[lo:hi, None]

    with ctx.span("filter.fft", lines=len(my_units)):
        filtered = yield from distributed_fft_filter_line(row_group, packed, t)
    for u, seg in zip(my_units, _split_units(filtered, plan, my_units, layers)):
        _store_segment(local_fields, plan, u, sub.lat0, seg)
