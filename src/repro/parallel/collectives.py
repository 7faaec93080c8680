"""Collective-communication algorithms built from point-to-point messages.

The paper compares filtering implementations by the message counts and
data volumes of the underlying communication patterns (ring, binary tree,
transpose).  To make those comparisons real, every collective here is an
explicit algorithm over ``Send``/``Recv`` primitives, so a simulation run
charges exactly the messages the algorithm performs:

* broadcast / reduce — binomial trees, ``ceil(log2 P)`` rounds;
* allgather — the ring algorithm, ``P - 1`` rounds (the pattern used by
  the original convolution filter's ring variant);
* all-to-all — pairwise exchange, ``P - 1`` rounds (the pattern of the
  transpose-based FFT filter and of physics load-balancing scheme 1).

All functions are generators intended to be driven through a
:class:`~repro.parallel.comm.GroupComm` with ``yield from``.

Engine batching (PR 8): on the default batched engine, the hot
multi-round collectives (all-to-all, ring allgather, recursive-doubling
allreduce, ring reduce-scatter) yield **one**
:class:`~repro.parallel.events.Exchange` describing all their rounds
instead of one ``Send``/``Recv`` per message.  The scheduler interprets
the schedule in a tight loop with vectorized cost pricing — same
messages, same clocks, same float arithmetic, but a single generator
resume per collective.  The original per-message algorithms are kept as
``*_loop`` variants and selected by
:func:`repro.parallel.engine.legacy_engine`; differential pairs assert
the two paths stay bit-identical.  The log-round tree collectives
(bcast/reduce/gather/scatter) are not batched: their round counts are
logarithmic and their payloads data-dependent, so there is nothing to
win.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.parallel import engine as _engine
from repro.parallel.events import ACCUM, Exchange, FromRound
from repro.util.validation import check_chunk_count

_TAG_BCAST = 0x7FFF0001
_TAG_REDUCE = 0x7FFF0002
_TAG_GATHER = 0x7FFF0003
_TAG_SCATTER = 0x7FFF0004
_TAG_ALLGATHER = 0x7FFF0005
_TAG_ALLTOALL = 0x7FFF0006
_TAG_RDOUBLE = 0x7FFF0007
_TAG_RSCAT = 0x7FFF0008


def _default_op(op: Optional[Callable[[Any, Any], Any]]):
    """Default reduction operator: addition (elementwise for arrays)."""
    return operator.add if op is None else op


def bcast_binomial(comm, obj: Any, root: int = 0):
    """Binomial-tree broadcast; every member returns the broadcast object."""
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    if size == 1:
        return obj
    vrank = (comm.rank - root) % size
    if vrank != 0:
        hbit = 1 << (vrank.bit_length() - 1)
        src = ((vrank - hbit) + root) % size
        obj = yield from comm.recv(src, tag=_TAG_BCAST)
    mask = 1 << vrank.bit_length() if vrank != 0 else 1
    while mask < size:
        child = vrank + mask
        if child < size:
            dest = (child + root) % size
            yield from comm.send(dest, obj, tag=_TAG_BCAST)
        mask <<= 1
    return obj


def reduce_binomial(comm, value: Any,
                    op: Optional[Callable[[Any, Any], Any]] = None,
                    root: int = 0):
    """Binomial-tree reduction; returns the result at ``root``, None elsewhere.

    ``op`` must be associative and commutative (default: addition).
    """
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    op = _default_op(op)
    if size == 1:
        return value
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            dest = ((vrank ^ mask) + root) % size
            yield from comm.send(dest, value, tag=_TAG_REDUCE)
            return None
        src_v = vrank | mask
        if src_v < size:
            src = (src_v + root) % size
            other = yield from comm.recv(src, tag=_TAG_REDUCE)
            value = op(value, other)
        mask <<= 1
    return value


def gather_direct(comm, value: Any, root: int = 0):
    """Direct gather: each non-root sends one message to the root.

    Returns the list of values in group-rank order at ``root``, None
    elsewhere.
    """
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    if comm.rank == root:
        out: List[Any] = [None] * size
        out[root] = value
        for src in range(size):
            if src != root:
                out[src] = yield from comm.recv(src, tag=_TAG_GATHER)
        return out
    yield from comm.send(root, value, tag=_TAG_GATHER)
    return None


def scatter_direct(comm, values: Optional[Sequence[Any]], root: int = 0):
    """Direct scatter from ``root``; returns this member's element."""
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    if comm.rank == root:
        if values is None:
            raise ValueError(f"root must supply exactly {size} values, got None")
        check_chunk_count(values, size, "scatter")
        for dest in range(size):
            if dest != root:
                yield from comm.send(dest, values[dest], tag=_TAG_SCATTER)
        return values[root]
    value = yield from comm.recv(root, tag=_TAG_SCATTER)
    return value


def gather_binomial(comm, value: Any, root: int = 0):
    """Binomial-tree gather (the "binary tree" of the convolution filter).

    Data aggregates up the tree: each internal node forwards everything it
    has collected, so the total transferred volume is ``O(N P + N log P)``
    for per-rank payloads of size N — exactly the complexity the paper
    quotes for the tree variant.  Returns a rank-indexed list at ``root``,
    None elsewhere.
    """
    size = comm.size
    if not 0 <= root < size:
        raise ValueError(f"root {root} outside group of size {size}")
    collected = {comm.rank: value}
    if size == 1:
        return [value]
    vrank = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            dest = ((vrank ^ mask) + root) % size
            yield from comm.send(dest, collected, tag=_TAG_GATHER)
            return None
        src_v = vrank | mask
        if src_v < size:
            src = (src_v + root) % size
            part = yield from comm.recv(src, tag=_TAG_GATHER)
            collected.update(part)
        mask <<= 1
    return [collected[r] for r in range(size)]


# ----------------------------------------------------------------------
# Hot multi-round collectives: batched front doors + legacy loop bodies.
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def _look_back_chain(nrounds: int) -> tuple:
    """``FromRound(0) .. FromRound(nrounds - 1)``: the sentinels are never
    mutated, so every ring of one size shares them."""
    return tuple(map(FromRound, range(nrounds)))


def allgather_ring(comm, value: Any):
    """Ring allgather: ``P - 1`` rounds of neighbour exchange.

    This is the communication pattern of the original convolution filter's
    "processor ring" variant (paper Section 3.1): every element travels
    all the way around the ring, giving ``P(P-1)`` messages total and an
    aggregate volume of ``(P-1) * sum(nbytes)``.  Batched engine: one
    grouped Exchange whose round ``i`` forwards what round ``i - 1``
    received (:class:`FromRound` chaining); the ring is closed and
    per-round matched, so large rings run through the scheduler's bulk
    executor.
    """
    size = comm.size
    if size == 1:
        return [value]
    if not _engine.batched():
        result = yield from allgather_ring_loop(comm, value)
        return result
    rank = comm.rank
    granks = comm.ranks
    right = granks[(rank + 1) % size]
    left = granks[(rank - 1) % size]
    sends = ((right, value, _TAG_ALLGATHER, None, True),) + tuple(zip(
        repeat(right), _look_back_chain(size - 2),
        repeat(_TAG_ALLGATHER), repeat(None), repeat(True),
    ))
    recvs = ((left, _TAG_ALLGATHER),) * (size - 1)
    received = yield Exchange(sends=sends, recvs=recvs, group=granks)
    # Round s brings group rank (rank - 1 - s) % size: walking back from
    # the left neighbour to 0, then from size - 1 down to rank + 1.
    return received[:rank][::-1] + [value] + received[rank:][::-1]


def allgather_ring_loop(comm, value: Any):
    """Per-message (pre-batching) ring allgather; kept for legacy_engine."""
    size = comm.size
    result: List[Any] = [None] * size
    result[comm.rank] = value
    if size == 1:
        return result
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    for step in range(size - 1):
        send_idx = (comm.rank - step) % size
        recv_idx = (comm.rank - step - 1) % size
        received = yield from comm.sendrecv(
            dest=right, payload=result[send_idx], source=left,
            tag=_TAG_ALLGATHER,
        )
        result[recv_idx] = received
    return result


def alltoall_pairwise(comm, chunks: Sequence[Any]):
    """Pairwise-exchange all-to-all: ``P - 1`` rounds of shifted sendrecv.

    ``chunks[d]`` is destined for group rank ``d``; returns the received
    chunks indexed by source rank.  This is the pattern of both the data
    transpose in the FFT filter and the cyclic shuffle of physics
    load-balancing scheme 1.  Batched engine: the full shift schedule is
    one Exchange with vectorized cost pricing — the O(P²) per-message
    Python iteration disappears.
    """
    size = comm.size
    check_chunk_count(chunks, size, "alltoall")
    if size == 1:
        return [chunks[0]]
    if not _engine.batched():
        result = yield from alltoall_pairwise_loop(comm, chunks)
        return result
    rank = comm.rank
    granks = comm.ranks
    # Rotated views precompute the shift-s peers without a modulo per
    # round: dest(s) = (rank+s) % size, src(s) = (rank-s) % size.
    dest_local = list(range(rank + 1, size)) + list(range(rank))
    src_local = list(range(rank - 1, -1, -1)) + list(
        range(size - 1, rank, -1)
    )
    tag = _TAG_ALLTOALL
    sends = tuple(
        (granks[d], chunks[d], tag, None, True) for d in dest_local
    )
    recvs = tuple((granks[s], tag) for s in src_local)
    # The shift schedule is closed and per-round matched (rank r's round-s
    # send to r+s is exactly what r+s receives in its round s), so declare
    # the group: big exchanges execute through the scheduler's vectorized
    # bulk path instead of round-by-round.
    received = yield Exchange(sends=sends, recvs=recvs,
                              group=tuple(granks))
    result: List[Any] = [None] * size
    result[rank] = chunks[rank]
    for s, value in zip(src_local, received):
        result[s] = value
    return result


def alltoall_pairwise_loop(comm, chunks: Sequence[Any]):
    """Per-message (pre-batching) pairwise all-to-all; kept for legacy_engine."""
    size = comm.size
    check_chunk_count(chunks, size, "alltoall")
    result: List[Any] = [None] * size
    result[comm.rank] = chunks[comm.rank]
    for shift in range(1, size):
        dest = (comm.rank + shift) % size
        src = (comm.rank - shift) % size
        received = yield from comm.sendrecv(
            dest=dest, payload=chunks[dest], source=src, tag=_TAG_ALLTOALL,
        )
        result[src] = received
    return result


def allreduce_recursive_doubling(comm, value: Any,
                                 op: Optional[Callable[[Any, Any], Any]] = None):
    """Recursive-doubling allreduce: ``log2 P`` rounds, no broadcast phase.

    For power-of-two groups every rank exchanges with ``rank XOR 2^k``;
    for other sizes the surplus ranks fold into the largest power-of-two
    core first and receive the result afterwards (the standard
    construction).  Halves the critical-path rounds of reduce+bcast for
    small payloads — the variant modern MPI libraries choose.  Batched
    engine: the whole ladder is one combining Exchange sending the
    running accumulator (:data:`ACCUM`) each round; fold order matches
    the loop path exactly (``value = op(value, other)``).
    """
    op = _default_op(op)
    size = comm.size
    if size == 1:
        return value
    if not _engine.batched():
        result = yield from allreduce_recursive_doubling_loop(comm, value, op)
        return result
    pow2 = 1
    while pow2 * 2 <= size:
        pow2 *= 2
    rem = size - pow2
    rank = comm.rank
    granks = comm.ranks

    if rank >= pow2:
        partner = granks[rank - pow2]
        received = yield Exchange(
            sends=((partner, value, _TAG_RDOUBLE, None, True),),
            recvs=((partner, _TAG_RDOUBLE),),
        )
        return received[0]

    sends: List[Any] = []
    recvs: List[Any] = []
    if rank < rem:
        sends.append(None)
        recvs.append((granks[rank + pow2], _TAG_RDOUBLE))
    mask = 1
    while mask < pow2:
        partner = granks[rank ^ mask]
        sends.append((partner, ACCUM, _TAG_RDOUBLE, None, True))
        recvs.append((partner, _TAG_RDOUBLE))
        mask <<= 1
    if rank < rem:
        sends.append((granks[rank + pow2], ACCUM, _TAG_RDOUBLE, None, True))
        recvs.append(None)
    value = yield Exchange(
        sends=tuple(sends), recvs=tuple(recvs),
        combine=lambda acc, other, _round: op(acc, other), initial=value,
    )
    return value


def allreduce_recursive_doubling_loop(comm, value: Any,
                                      op: Optional[Callable[[Any, Any], Any]] = None):
    """Per-message (pre-batching) recursive doubling; kept for legacy_engine."""
    op = _default_op(op)
    size = comm.size
    if size == 1:
        return value
    pow2 = 1
    while pow2 * 2 <= size:
        pow2 *= 2
    rem = size - pow2
    rank = comm.rank

    # Fold the remainder: ranks >= pow2 send to rank - rem... pair each
    # surplus rank r (>= pow2) with core rank r - pow2.
    if rank >= pow2:
        yield from comm.send(rank - pow2, value, tag=_TAG_RDOUBLE)
        result = yield from comm.recv(rank - pow2, tag=_TAG_RDOUBLE)
        return result
    if rank < rem:
        other = yield from comm.recv(rank + pow2, tag=_TAG_RDOUBLE)
        value = op(value, other)

    mask = 1
    while mask < pow2:
        partner = rank ^ mask
        other = yield from comm.sendrecv(
            dest=partner, payload=value, source=partner, tag=_TAG_RDOUBLE
        )
        value = op(value, other)
        mask <<= 1

    if rank < rem:
        yield from comm.send(rank + pow2, value, tag=_TAG_RDOUBLE)
    return value


def reduce_scatter_ring(comm, chunks: Sequence[Any],
                        op: Optional[Callable[[Any, Any], Any]] = None):
    """Ring reduce-scatter: each rank ends with the reduction of chunk
    ``rank`` over all ranks' contributions.

    ``chunks[d]`` is this rank's contribution to destination ``d``.
    ``P - 1`` rounds; the partial sum for chunk ``d`` starts at rank
    ``d + 1`` and travels once around the ring, each rank folding in its
    own contribution — the bandwidth-optimal first half of a ring
    allreduce.  Batched engine: one combining Exchange that sends the
    pre-fold accumulator each round, exactly like the loop's sendrecv.
    """
    op = _default_op(op)
    size = comm.size
    check_chunk_count(chunks, size, "reduce_scatter")
    if size == 1:
        return chunks[0]
    if not _engine.batched():
        result = yield from reduce_scatter_ring_loop(comm, chunks, op)
        return result
    rank = comm.rank
    granks = comm.ranks
    right = granks[(rank + 1) % size]
    left = granks[(rank - 1) % size]
    sends = tuple(
        (right, ACCUM, _TAG_RSCAT, None, True) for _ in range(size - 1)
    )
    recvs = tuple((left, _TAG_RSCAT) for _ in range(size - 1))

    def fold(acc, received, step):
        # The new partial replaces the accumulator: the received partial
        # folded with this rank's own contribution for that chunk.
        return op(received, chunks[(rank - 2 - step) % size])

    acc = yield Exchange(
        sends=sends, recvs=recvs, combine=fold,
        initial=chunks[(rank - 1) % size],
    )
    return acc


def reduce_scatter_ring_loop(comm, chunks: Sequence[Any],
                             op: Optional[Callable[[Any, Any], Any]] = None):
    """Per-message (pre-batching) ring reduce-scatter; kept for legacy_engine."""
    op = _default_op(op)
    size = comm.size
    check_chunk_count(chunks, size, "reduce_scatter")
    if size == 1:
        return chunks[0]
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    acc = chunks[(comm.rank - 1) % size]
    for step in range(size - 1):
        recv_idx = (comm.rank - 2 - step) % size
        received = yield from comm.sendrecv(
            dest=right, payload=acc, source=left, tag=_TAG_RSCAT
        )
        acc = op(received, chunks[recv_idx])
    return acc


# ----------------------------------------------------------------------
# 3-D decomposition collectives (AGCM-3DLF)
# ----------------------------------------------------------------------

_TAG_VHALO_UP = 0x7FFF0009
_TAG_VHALO_DOWN = 0x7FFF000A
_TAG_TRANS_FWD = 0x7FFF000B
_TAG_TRANS_BACK = 0x7FFF000C


def _pairwise_transpose(comm, chunks: Sequence[Any], tag: int):
    """Shared body of the lat/lon <-> lev transposes: a pairwise
    all-to-all over the pillar group under a direction-specific tag.

    The shift schedule is closed and per-round matched exactly like
    :func:`alltoall_pairwise`, so the group declaration routes large
    transposes through the scheduler's vectorized ``_bulk_exchange``
    path.
    """
    size = comm.size
    check_chunk_count(chunks, size, "transpose")
    if size == 1:
        return [chunks[0]]
    if not _engine.batched():
        result = yield from _pairwise_transpose_loop(comm, chunks, tag)
        return result
    rank = comm.rank
    granks = comm.ranks
    dest_local = list(range(rank + 1, size)) + list(range(rank))
    src_local = list(range(rank - 1, -1, -1)) + list(
        range(size - 1, rank, -1)
    )
    sends = tuple(
        (granks[d], chunks[d], tag, None, True) for d in dest_local
    )
    recvs = tuple((granks[s], tag) for s in src_local)
    received = yield Exchange(sends=sends, recvs=recvs,
                              group=tuple(granks))
    result: List[Any] = [None] * size
    result[rank] = chunks[rank]
    for s, value in zip(src_local, received):
        result[s] = value
    return result


def _pairwise_transpose_loop(comm, chunks: Sequence[Any], tag: int):
    """Per-message transpose (legacy engine): P - 1 shifted sendrecvs."""
    size = comm.size
    result: List[Any] = [None] * size
    result[comm.rank] = chunks[comm.rank]
    for shift in range(1, size):
        dest = (comm.rank + shift) % size
        src = (comm.rank - shift) % size
        result[src] = yield from comm.sendrecv(
            dest=dest, payload=chunks[dest], source=src, tag=tag
        )
    return result


def transpose_to_levels(comm, chunks: Sequence[Any]):
    """Slab -> column-space transpose over one pillar of a 3-D mesh.

    ``chunks[d]`` holds the horizontal column subset destined for pillar
    rank ``d`` (carrying this rank's local layers); the return value is
    indexed by source pillar rank, i.e. by **vertical block in global
    layer order** — concatenating along the layer axis reassembles full
    columns deterministically.
    """
    result = yield from _pairwise_transpose(comm, chunks, _TAG_TRANS_FWD)
    return result


def transpose_from_levels(comm, chunks: Sequence[Any]):
    """Column-space -> slab transpose (inverse of
    :func:`transpose_to_levels`); distinct tag so the two directions of
    a leap-format round can never cross-match."""
    result = yield from _pairwise_transpose(comm, chunks, _TAG_TRANS_BACK)
    return result


def exchange_vertical_halo(ctx, decomp, local, halo: int = 1):
    """Pad a local slab with ``halo`` ghost layers from the pillar
    neighbours above and below.

    ``decomp`` is a :class:`repro.grid.decomposition3d.Decomposition3D`;
    ``local`` is this rank's ``(nlat_loc, nlon_loc, nlev_loc, ...)``
    slab.  The vertical is not periodic: at the top and bottom of the
    atmosphere the boundary layer is replicated into the ghost slots
    (the same convention the horizontal exchange uses at the poles).
    On a 2-D mesh (``nlev_procs == 1``) no messages are sent.
    """
    mesh = decomp.mesh
    rank = ctx.rank
    sub = decomp.subdomain(rank)
    if local.shape[:3] != sub.shape:
        raise ValueError(
            f"rank {rank}: local shape {local.shape[:3]} != slab "
            f"{sub.shape}"
        )
    if halo < 1 or halo > sub.nlev:
        raise ValueError(f"invalid vertical halo {halo} for slab "
                         f"{sub.shape}")
    shape = (sub.nlat, sub.nlon, sub.nlev + 2 * halo, *local.shape[3:])
    padded = np.empty(shape, dtype=local.dtype)
    padded[:, :, halo:-halo] = local

    up = mesh.up_of(rank)
    down = mesh.down_of(rank)
    top_edge = np.ascontiguousarray(local[:, :, -halo:])
    bottom_edge = np.ascontiguousarray(local[:, :, :halo])

    if _engine.batched() and (up is not None or down is not None):
        ghosts = yield Exchange(
            sends=(
                (up, top_edge, _TAG_VHALO_UP, None, True)
                if up is not None else None,
                (down, bottom_edge, _TAG_VHALO_DOWN, None, True)
                if down is not None else None,
            ),
            recvs=(
                (down, _TAG_VHALO_UP) if down is not None else None,
                (up, _TAG_VHALO_DOWN) if up is not None else None,
            ),
        )
        if down is not None:
            padded[:, :, :halo] = ghosts[0]
        else:
            for g in range(halo):  # bottom of atmosphere: replicate
                padded[:, :, g] = padded[:, :, halo]
        if up is not None:
            padded[:, :, -halo:] = ghosts[1]
        else:
            for g in range(halo):  # top of atmosphere: replicate
                padded[:, :, -(g + 1)] = padded[:, :, -(halo + 1)]
        return padded

    if up is not None:
        yield from ctx.send(up, top_edge, tag=_TAG_VHALO_UP)
    if down is not None:
        bottom_ghost = yield from ctx.recv(down, tag=_TAG_VHALO_UP)
        padded[:, :, :halo] = bottom_ghost
    else:
        for g in range(halo):  # bottom of atmosphere: replicate
            padded[:, :, g] = padded[:, :, halo]

    if down is not None:
        yield from ctx.send(down, bottom_edge, tag=_TAG_VHALO_DOWN)
    if up is not None:
        top_ghost = yield from ctx.recv(up, tag=_TAG_VHALO_DOWN)
        padded[:, :, -halo:] = top_ghost
    else:
        for g in range(halo):  # top of atmosphere: replicate
            padded[:, :, -(g + 1)] = padded[:, :, -(halo + 1)]

    return padded
