"""Discrete-event scheduler executing SPMD rank programs in virtual time.

The scheduler is a conservative parallel-discrete-event engine specialised
for the message-passing semantics the AGCM needs:

* Every rank runs a deterministic generator (its "program").
* ``Compute`` advances only the issuing rank's clock.
* ``Send`` is *eager*: the sender is busy for its injection time and never
  blocks; the message is timestamped with its arrival time at the
  destination mailbox.
* ``Recv`` blocks until a matching message (source, tag) exists; its
  completion time is ``max(post time, arrival time) + receive overhead``;
  the gap between post time and arrival is accounted as wait time.
* ``Exchange`` is a batched schedule of send/recv rounds (how collectives
  execute): the scheduler interprets the whole schedule in one visit,
  pricing the rounds with vectorized NumPy costs, and resumes the rank
  program once instead of ``2 (P - 1)`` times.  A grouped Exchange (the
  all-to-all, transposes and ring allgather) parks its members until the
  group is complete and then runs as one vectorized block, chained
  ``FromRound`` payloads included.
* ``Barrier`` synchronises a group: all members advance to the group's
  maximum clock plus a dissemination-barrier cost.

Ready ranks are dispatched in same-timestamp **cohorts**: the run queue
(:class:`CohortQueue`) is a binary heap from which every entry sharing
the minimum clock is popped at once — they leave the heap in rank order,
O(k log N) for a cohort of k — and dispatched together; wake-ups pushed
while a cohort drains wait for the next cohort.  Virtual results are
independent of host dispatch order (each rank executes its ops in program
order until it blocks, and per-channel message order is FIFO), so the
cohort engine is bit-identical to the per-event heap engine; the cohort
ordering is property-tested in ``tests/parallel/test_event_batching.py``.

A situation where no rank can progress is a genuine communication
deadlock and raises :class:`DeadlockError`.

Fault injection: constructing the simulator with a
:class:`repro.faults.plan.FaultPlan` makes the machine misbehave on a
seeded, deterministic schedule — compute ops stretch inside slowdown
windows, messages are dropped and retransmitted with backoff (the
transport retries; the sender's program never blocks or re-executes),
and ranks can die mid-run, raising :class:`RankFailedError` ("stop"
mode) or silently hanging until the run deadlocks ("hang" mode).
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.spans import NULL_OBSERVER, get_active
from repro.parallel import engine as _engine
from repro.parallel.costs import batch_message_costs
from repro.parallel.events import (
    ACCUM,
    Barrier,
    Compute,
    Exchange,
    FromRound,
    Recv,
    Send,
    payload_nbytes,
)
from repro.parallel.machine import MachineModel
from repro.parallel.timeline import Event as _Event
from repro.parallel.trace import RankAccounting, SimResult, Trace

#: Exchanges with at least this many statically-sized rounds get their
#: send costs priced in one vectorized NumPy pass.
_VECTORIZE_ROUNDS = 8

#: Closed-group exchanges moving at least this many messages in total
#: (members x rounds) run through the vectorized bulk executor; smaller
#: ones are interpreted round-by-round (the NumPy setup would dominate).
_BULK_MIN_MSGS = 512


class DeadlockError(RuntimeError):
    """Raised when every unfinished rank is blocked on a receive/barrier.

    The message contains the full per-rank wait graph — who waits on
    whom, for what tag, since when — so a hang is diagnosable from the
    exception alone.  The same information is available structured via
    ``wait_graph``: ``{rank: {"kind": "recv" | "barrier" | "hang",
    "on": [ranks waited on], "tag": int | None, "since": float}}``.
    """

    def __init__(self, message: str, wait_graph: Optional[Dict[int, dict]] = None):
        super().__init__(message)
        self.wait_graph: Dict[int, dict] = (
            wait_graph if wait_graph is not None else {}
        )


class RankFailedError(RuntimeError):
    """Raised when an injected ``mode="stop"`` rank failure fires.

    Carries the failed ``rank`` and the virtual time ``at`` the failure
    was detected, so a recovery driver (see
    :func:`repro.faults.checkpoint.run_agcm_with_recovery`) can account
    the lost work and restart from the last checkpoint.
    """

    def __init__(self, rank: int, at: float):
        super().__init__(f"rank {rank} failed at virtual t={at:.6g} s")
        self.rank = rank
        self.at = at


class CohortQueue:
    """Heap-backed ready queue dispatching same-timestamp cohorts.

    Entries are ``(clock, rank)`` in a binary heap.  When the current
    cohort is exhausted, ``pop`` forms the next one by popping every
    entry at the minimum clock — they leave the heap in rank order — so
    forming a cohort of ``k`` ranks costs O(k log N) instead of a scan of
    the whole pending set.  Cohort members then pop in O(1) until the
    cohort drains.

    Ordering contract (property-tested): for any entries present when a
    cohort is formed, dispatch follows exact ``(clock, rank)`` order —
    identical to a heap.  Entries pushed *while* a cohort drains stay in
    the heap and dispatch no earlier than the cohort's timestamp; the
    engine only pushes wake-ups at clocks ``>=`` the waker's current
    clock, so cohort timestamps never regress.
    """

    __slots__ = ("_heap", "_cohort", "_cohort_clock", "_ci")

    def __init__(self, entries: Iterable[Tuple[float, int]] = ()):
        self._heap: List[Tuple[float, int]] = [
            (clock, rank) for clock, rank in entries
        ]
        heapq.heapify(self._heap)
        self._cohort: List[int] = []
        self._cohort_clock = 0.0
        self._ci = 0

    def __len__(self) -> int:
        return (len(self._cohort) - self._ci) + len(self._heap)

    def push(self, clock: float, rank: int) -> None:
        """Enqueue a ready rank at its current clock."""
        heapq.heappush(self._heap, (clock, rank))

    def pop(self) -> Optional[Tuple[float, int]]:
        """Next ``(clock, rank)`` entry, or None when the queue is empty."""
        if self._ci < len(self._cohort):
            rank = self._cohort[self._ci]
            self._ci += 1
            return (self._cohort_clock, rank)
        heap = self._heap
        if not heap:
            return None
        heappop = heapq.heappop
        t, rank = heappop(heap)
        cohort = [rank]
        while heap and heap[0][0] == t:
            cohort.append(heappop(heap)[1])
        self._cohort = cohort
        self._cohort_clock = t
        self._ci = 1
        return (t, rank)


class _HeapQueue:
    """Binary-heap ready list of the pre-batching engine.

    Kept (behind :func:`repro.parallel.engine.legacy_engine`) so the
    old engine stays runnable end to end — the old-vs-new differential
    pair and the ``sim_events_per_second`` probe compare against it.
    Same push/pop surface as :class:`CohortQueue` so the shared helpers
    (``_do_send``, ``_release_barrier``) work with either.
    """

    __slots__ = ("_heap",)

    def __init__(self, entries: Iterable[Tuple[float, int]] = ()):
        self._heap: List[Tuple[float, int]] = list(entries)
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, clock: float, rank: int) -> None:
        heapq.heappush(self._heap, (clock, rank))

    def pop(self) -> Optional[Tuple[float, int]]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)


class _ExchState:
    """Interpreter cursor of one in-progress :class:`Exchange`.

    Tracks the next round ``i``, whether round ``i``'s send already
    executed (``sent`` — so a rank blocked on the round's recv does not
    re-send on resume), and either the per-round results list or the
    running accumulator of a combining exchange.

    ``pre_wire`` holds every round's wire size when all of them can be
    known up front: ``0`` for send-less rounds, and ``-1 - j`` for a
    :class:`FromRound` ``(j)`` payload, whose size is that of whatever
    round ``j`` delivers (resolved group-wide by
    :meth:`Simulator._bulk_exchange`).  ``pre_busy``/``pre_msg`` hold
    vectorized send costs when every size is static.
    """

    __slots__ = ("op", "i", "sent", "results", "acc", "combine",
                 "pre_wire", "pre_busy", "pre_msg")

    def __init__(self, op: Exchange, machine: MachineModel):
        self.op = op
        self.i = 0
        self.sent = False
        self.combine = op.combine
        self.acc = op.initial
        self.results: Optional[List[Any]] = (
            None if op.combine is not None else [None] * len(op.recvs)
        )
        self.pre_wire = self.pre_busy = self.pre_msg = None
        sends = op.sends
        if len(sends) >= _VECTORIZE_ROUNDS or op.group is not None:
            wires: List[int] = []
            append = wires.append
            chained = False
            for i, s in enumerate(sends):
                if s is None:
                    append(0)
                    continue
                payload = s[1]
                tp = type(payload)
                nbytes = s[3]
                if tp is FromRound:
                    j = payload.round
                    if nbytes is not None or not 0 <= j < i:
                        return  # only plain look-back chains are resolved
                    append(-1 - j)
                    chained = True
                elif payload is ACCUM:
                    return  # accumulator: sizes only known per round
                elif nbytes is not None:
                    append(int(nbytes))
                # Inline the two payload types every hot collective uses;
                # payload_nbytes agrees with these by construction.
                elif tp is float or tp is int:
                    append(8)
                elif tp is np.ndarray:
                    append(int(payload.nbytes))
                else:
                    append(payload_nbytes(payload))
            self.pre_wire = wires
            if chained:
                return  # priced per round, or group-wide in bulk
            busy, msg = batch_message_costs(machine, wires)
            # Python lists: indexing them in the interpreter loop is much
            # cheaper than extracting np.float64 scalars, and .tolist()
            # round-trips the float64 values bit-exactly.
            self.pre_busy = busy.tolist()
            self.pre_msg = msg.tolist()

    def deliver(self, payload: Any) -> None:
        """Consume the payload of round ``i``'s recv and advance the cursor."""
        if self.combine is not None:
            self.acc = self.combine(self.acc, payload, self.i)
        else:
            self.results[self.i] = payload
        self.i += 1
        self.sent = False

    def result(self) -> Any:
        return self.acc if self.combine is not None else self.results


class _RankState:
    """Mutable execution state of one rank."""

    __slots__ = (
        "rank",
        "gen",
        "clock",
        "blocked",
        "pending_recv",
        "pending_barrier",
        "done",
        "failed",
        "retval",
        "send_value",
        "exch",
    )

    def __init__(self, rank: int, gen):
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.blocked = False
        self.pending_recv: Optional[Tuple[int, int, float]] = None  # (src, tag, post time)
        self.pending_barrier: Optional[Tuple[Tuple[int, ...], int]] = None
        self.done = False
        self.failed = False  # an injected failure fired on this rank
        self.retval: Any = None
        self.send_value: Any = None  # value to send into the generator next
        self.exch: Optional[_ExchState] = None  # in-progress Exchange


class Simulator:
    """Runs ``nranks`` copies of a rank program over a machine model.

    Parameters
    ----------
    nranks:
        Number of virtual ranks.
    machine:
        The :class:`MachineModel` whose cost functions price every event.
    faults:
        Optional :class:`repro.faults.plan.FaultPlan`.  When given, the
        machine misbehaves on the plan's deterministic schedule: compute
        slowdowns, message drops with timeout/retransmit (accounted in
        the trace under the ``"retry"`` phase), and rank failures.

    Example
    -------
    >>> from repro.parallel.machine import GENERIC
    >>> from repro.parallel.events import Compute
    >>> def program(ctx):
    ...     yield Compute(seconds=1.0)
    ...     return ctx.rank
    >>> sim = Simulator(2, GENERIC)
    >>> result = sim.run(program)
    >>> result.returns
    [0, 1]
    >>> result.elapsed
    1.0
    """

    def __init__(self, nranks: int, machine: MachineModel,
                 record_events: bool = False, faults=None, observer=None):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.machine = machine
        #: When True, the trace collects per-op timeline events for the
        #: analysis tools in repro.parallel.timeline.
        self.record_events = record_events
        #: Optional FaultPlan (duck-typed to avoid importing repro.faults
        #: here); None means a perfect machine.
        self.faults = faults
        if faults is not None:
            # Fail fast on a plan naming ranks this mesh does not have
            # (duck-typed for the same import-cycle reason as above).
            validate = getattr(faults, "validate_ranks", None)
            if validate is not None:
                validate(nranks)
        #: Optional repro.obs.Observer.  None falls back to the ambient
        #: observer (repro.obs.activate) and finally to the disabled
        #: singleton — so experiment code need not thread the observer
        #: through every call for `python -m repro profile` to see it.
        self.observer = observer

    # ------------------------------------------------------------------
    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> SimResult:
        """Execute ``program(ctx, *args, **kwargs)`` on every rank.

        ``program`` must be a generator function whose first argument is a
        :class:`repro.parallel.comm.VirtualComm` context.  Its Python
        return value is captured per rank.
        """
        from repro.parallel.comm import VirtualComm  # local import: cycle

        obs = self.observer
        if obs is None:
            obs = get_active() or NULL_OBSERVER
        if obs.enabled:
            obs.start_run(
                label=getattr(program, "__name__", "program"),
                nranks=self.nranks,
            )

        trace = Trace(self.nranks, record_events=self.record_events)
        run_memo: Dict[Any, Any] = {}
        states: List[_RankState] = []
        for rank in range(self.nranks):
            ctx = VirtualComm(rank, self.nranks, self.machine, trace,
                              observer=obs, run_memo=run_memo)
            gen = program(ctx, *args, **kwargs)
            state = _RankState(rank, gen)
            ctx._state = state  # back-reference for clock access
            states.append(state)

        # mailbox[(dest, src, tag)] -> deque of (arrival_time, payload, nbytes)
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]] = (
            defaultdict(deque)
        )
        # barrier arrivals: (group, tag) -> list of ranks arrived
        barrier_waiting: Dict[Tuple[Tuple[int, ...], int], List[int]] = defaultdict(list)

        faults = self.faults
        # per-link message sequence numbers: (src, dst) -> next seq, the
        # deterministic coordinate of the fault plan's drop decisions
        link_seq: Dict[Tuple[int, int], int] = defaultdict(int)
        # pending injected failures: rank -> RankFailure, consumed on fire
        fail_pending = (
            {f.rank: f for f in faults.failures} if faults is not None else {}
        )

        entries = ((0.0, r) for r in range(self.nranks))
        if _engine.batched():
            ready: Any = CohortQueue(entries)
            event_loop = self._event_loop
        else:
            # legacy_engine(): the pre-batching heap engine end to end.
            ready = _HeapQueue(entries)
            event_loop = self._event_loop_legacy

        try:
            event_loop(states, mailbox, barrier_waiting, faults,
                       link_seq, fail_pending, ready, trace, obs)
        except BaseException:
            # One rank's exception abandons every other rank mid-step.
            # Close their generators now so nested trace regions unwind
            # LIFO per rank; left to the GC, the suspended contextmanager
            # generators close in arbitrary order and close_region raises
            # spurious mismatch errors into stderr.
            for state in states:
                try:
                    state.gen.close()
                except Exception:
                    pass
            raise
        finally:
            # Observer teardown runs even when the simulation dies
            # (RankFailedError, DeadlockError): dangling spans are closed
            # at each rank's final clock so partial traces stay loadable.
            if obs.enabled:
                acc = trace.ranks
                obs.finish_run(
                    clocks=[s.clock for s in states],
                    summary={
                        "messages_sent": sum(a.messages_sent for a in acc),
                        "bytes_sent": sum(a.bytes_sent for a in acc),
                        "messages_received": sum(
                            a.messages_received for a in acc
                        ),
                        "messages_dropped": sum(
                            a.messages_dropped for a in acc
                        ),
                        "messages_retransmitted": sum(
                            a.messages_retransmitted for a in acc
                        ),
                    },
                )

        clocks = [s.clock for s in states]
        return SimResult(
            elapsed=max(clocks),
            clocks=clocks,
            returns=[s.retval for s in states],
            trace=trace,
        )

    def _event_loop(
        self,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        barrier_waiting: Dict[Tuple[Tuple[int, ...], int], List[int]],
        faults,
        link_seq: Dict[Tuple[int, int], int],
        fail_pending: Dict[int, Any],
        ready: CohortQueue,
        trace: Trace,
        obs,
    ) -> None:
        """Drive every rank to completion (the conservative PDES core).

        NULL-observer/NULL-fault checks are hoisted out of the per-op
        loop into the locals below — ``events``/``has_faults`` are fixed
        for the whole run, so the hot path tests a local bool instead of
        re-reading attributes per event.
        """
        machine = self.machine
        compute_time = machine.compute_time
        events = trace.events
        acc_ranks = trace.ranks
        has_faults = faults is not None
        nranks = self.nranks
        finished = 0
        # Closed-group exchanges rendezvous here (like a barrier) until
        # every member has arrived, then execute in one vectorized pass.
        # Bulk execution needs a perfect machine and no per-op timeline.
        bulk_ok = not has_faults and events is None
        exch_waiting: Dict[Tuple[int, ...], List[int]] = defaultdict(list)
        # Fault-free, timeline-free runs interpret Exchanges through the
        # specialized fast interpreter (same arithmetic, hoisted locals).
        if has_faults or events is not None:
            def advance_exchange(st):
                return self._advance_exchange(
                    st, states, mailbox, faults, link_seq,
                    fail_pending, ready, trace, obs,
                )
        else:
            def advance_exchange(st):
                return self._advance_exchange_fast(
                    st, states, mailbox, ready, trace,
                )
        while finished < nranks:
            entry = ready.pop()
            if entry is None:
                raise self._deadlock_error(
                    states, barrier_waiting, exch_waiting
                )

            rank = entry[1]
            state = states[rank]
            if state.done or state.blocked:
                continue  # stale queue entry

            if state.exch is not None:
                # Resume the Exchange this rank blocked inside; the recv
                # that woke it was already delivered into the cursor.
                if not advance_exchange(state):
                    continue
                state.send_value = state.exch.result()
                state.exch = None

            gen_send = state.gen.send
            # Advance this rank until it blocks or finishes.
            while True:
                # Injected failures fire at the first op boundary at or
                # after their scheduled virtual time.
                if fail_pending and self._maybe_fail(
                    state, fail_pending, obs
                ):
                    break
                try:
                    op = gen_send(state.send_value)
                except StopIteration as stop:
                    state.done = True
                    state.retval = stop.value
                    finished += 1
                    break
                state.send_value = None

                cls = op.__class__
                if cls is Compute:
                    seconds = (
                        op.seconds
                        if op.seconds is not None
                        else compute_time(
                            op.flops, op.mem_bytes, op.inner_length
                        )
                    )
                    if seconds < 0:
                        raise ValueError("Compute seconds must be non-negative")
                    if has_faults and seconds > 0:
                        seconds = faults.stretch_compute(
                            rank, state.clock, seconds
                        )
                    if events is not None and seconds > 0:
                        events.append(_Event(
                            rank, "compute", state.clock,
                            state.clock + seconds,
                        ))
                    state.clock += seconds
                    acc_ranks[rank].compute_time += seconds
                    continue

                if cls is Exchange:
                    state.exch = ex = _ExchState(op, machine)
                    group = op.group
                    if group is not None and rank not in group:
                        # Mirror the barrier membership check: a rank
                        # issuing a grouped exchange it does not belong
                        # to would park in exch_waiting forever (the
                        # group closes without it) — a silent deadlock.
                        raise ValueError(
                            f"rank {rank} issued grouped exchange for "
                            f"group {group} it does not belong to"
                        )
                    if (group is not None and bulk_ok
                            and ex.pre_wire is not None
                            and ex.combine is None
                            and len(group) * len(op.sends) >= _BULK_MIN_MSGS
                            and None not in op.sends
                            and None not in op.recvs):
                        waiting = exch_waiting[group]
                        waiting.append(rank)
                        if len(waiting) < len(group):
                            # Park like a barrier until the group closes.
                            state.blocked = True
                            break
                        del exch_waiting[group]
                        self._bulk_exchange(group, states, ready, trace)
                        # This rank triggered the bulk pass; keep running.
                        state.send_value = state.exch.result()
                        state.exch = None
                        continue
                    if not advance_exchange(state):
                        break
                    state.send_value = state.exch.result()
                    state.exch = None
                    continue

                if cls is Send:
                    self._do_send(
                        rank, state, op.dest, op.payload, op.tag,
                        op.wire_bytes(), op.droppable, states, mailbox,
                        faults, link_seq, ready, trace, obs,
                    )
                    continue

                if cls is Recv:
                    key = (rank, op.source, op.tag)
                    state.pending_recv = (op.source, op.tag, state.clock)
                    if mailbox[key]:
                        self._complete_recv(state, mailbox, trace)
                        continue
                    state.blocked = True
                    break

                if cls is Barrier:
                    group = tuple(sorted(op.group)) if op.group else tuple(
                        range(nranks)
                    )
                    if rank not in group:
                        raise ValueError(
                            f"rank {rank} issued barrier for group {group} "
                            "it does not belong to"
                        )
                    bkey = (group, op.tag)
                    barrier_waiting[bkey].append(rank)
                    if len(barrier_waiting[bkey]) == len(group):
                        self._release_barrier(
                            bkey, barrier_waiting, states, trace, ready
                        )
                        # This rank was released too; continue running it.
                        continue
                    state.pending_barrier = bkey
                    state.blocked = True
                    break

                raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    def _event_loop_legacy(
        self,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        barrier_waiting: Dict[Tuple[Tuple[int, ...], int], List[int]],
        faults,
        link_seq: Dict[Tuple[int, int], int],
        fail_pending: Dict[int, Any],
        ready: _HeapQueue,
        trace: Trace,
        obs,
    ) -> None:
        """The pre-batching per-event engine, kept verbatim.

        One heap pop per event, ``isinstance`` dispatch, per-op machine
        attribute chains, inline ``Send`` handling — this is the loop the
        cohort engine replaced, preserved as the honest baseline for the
        ``sim_events_per_second`` probe and the old-vs-new differential
        pair.  Selected by :meth:`run` under
        :func:`repro.parallel.engine.legacy_engine`; ``Exchange`` ops
        (which legacy-mode collectives never emit, but user programs may)
        fall back to the general interpreter.
        """
        finished = 0
        while finished < self.nranks:
            entry = ready.pop()
            if entry is None:
                raise self._deadlock_error(states, barrier_waiting)

            rank = entry[1]
            state = states[rank]
            if state.done or state.blocked:
                continue  # stale heap entry

            if state.exch is not None:
                if not self._advance_exchange(
                    state, states, mailbox, faults, link_seq,
                    fail_pending, ready, trace, obs,
                ):
                    continue
                state.send_value = state.exch.result()
                state.exch = None

            # Advance this rank until it blocks or finishes.
            while True:
                # Injected failures fire at the first op boundary at or
                # after their scheduled virtual time.
                if fail_pending:
                    fault = fail_pending.get(rank)
                    if fault is not None and state.clock >= fault.at:
                        del fail_pending[rank]
                        state.failed = True
                        if obs.enabled:
                            obs.instant(rank, "rank_failure", state.clock,
                                        {"mode": fault.mode})
                        if fault.mode == "hang":
                            state.blocked = True
                            break
                        raise RankFailedError(rank, state.clock)
                try:
                    op = state.gen.send(state.send_value)
                except StopIteration as stop:
                    state.done = True
                    state.retval = stop.value
                    finished += 1
                    break
                state.send_value = None

                if isinstance(op, Compute):
                    seconds = (
                        op.seconds
                        if op.seconds is not None
                        else self.machine.compute_time(
                            op.flops, op.mem_bytes, op.inner_length
                        )
                    )
                    if seconds < 0:
                        raise ValueError("Compute seconds must be non-negative")
                    if faults is not None and seconds > 0:
                        seconds = faults.stretch_compute(
                            rank, state.clock, seconds
                        )
                    if trace.events is not None and seconds > 0:
                        trace.events.append(_Event(
                            rank, "compute", state.clock,
                            state.clock + seconds,
                        ))
                    state.clock += seconds
                    trace.ranks[rank].compute_time += seconds
                    continue

                if isinstance(op, Send):
                    nbytes = op.wire_bytes()
                    busy = self.machine.send_busy_time(nbytes)
                    arrival = state.clock + self.machine.message_time(nbytes)
                    if faults is not None and op.droppable:
                        key = (rank, op.dest)
                        seq = link_seq[key]
                        link_seq[key] = seq + 1
                        delivery = faults.plan_delivery(
                            rank, op.dest, seq, state.clock,
                            self.machine.message_time(nbytes),
                        )
                        arrival = delivery.arrival
                        if delivery.drop_times:
                            self._account_retries(
                                trace, rank, op.dest, nbytes, busy, delivery,
                                obs,
                            )
                    mailbox[(op.dest, rank, op.tag)].append(
                        (arrival, op.payload, nbytes)
                    )
                    if trace.events is not None:
                        trace.events.append(_Event(
                            rank, "send", state.clock, state.clock + busy,
                            peer=op.dest, nbytes=nbytes,
                        ))
                    state.clock += busy
                    acc = trace.ranks[rank]
                    acc.send_busy_time += busy
                    acc.messages_sent += 1
                    acc.bytes_sent += nbytes
                    # The destination may have been blocked on this message.
                    dest_state = states[op.dest]
                    if dest_state.blocked and dest_state.pending_recv is not None:
                        src, tag, _post = dest_state.pending_recv
                        if src == rank and tag == op.tag:
                            self._complete_recv(
                                dest_state, mailbox, trace
                            )
                            ready.push(dest_state.clock, op.dest)
                    continue

                if isinstance(op, Recv):
                    key = (rank, op.source, op.tag)
                    state.pending_recv = (op.source, op.tag, state.clock)
                    if mailbox[key]:
                        self._complete_recv(state, mailbox, trace)
                        continue
                    state.blocked = True
                    break

                if isinstance(op, Exchange):
                    state.exch = _ExchState(op, self.machine)
                    if not self._advance_exchange(
                        state, states, mailbox, faults, link_seq,
                        fail_pending, ready, trace, obs,
                    ):
                        break
                    state.send_value = state.exch.result()
                    state.exch = None
                    continue

                if isinstance(op, Barrier):
                    group = tuple(sorted(op.group)) if op.group else tuple(
                        range(self.nranks)
                    )
                    if rank not in group:
                        raise ValueError(
                            f"rank {rank} issued barrier for group {group} "
                            "it does not belong to"
                        )
                    bkey = (group, op.tag)
                    barrier_waiting[bkey].append(rank)
                    if len(barrier_waiting[bkey]) == len(group):
                        self._release_barrier(
                            bkey, barrier_waiting, states, trace, ready
                        )
                        # This rank was released too; continue running it.
                        continue
                    state.pending_barrier = bkey
                    state.blocked = True
                    break

                raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    # ------------------------------------------------------------------
    def _maybe_fail(self, state: _RankState, fail_pending: Dict[int, Any],
                    obs) -> bool:
        """Fire a pending injected failure if its time has come.

        Returns True when the rank hangs (caller stops driving it);
        raises :class:`RankFailedError` for "stop" mode.  Checked at
        every op boundary — including each send/recv inside a batched
        Exchange, so failure timing matches the per-message loop path.
        """
        fault = fail_pending.get(state.rank)
        if fault is None or state.clock < fault.at:
            return False
        del fail_pending[state.rank]
        state.failed = True
        if obs.enabled:
            obs.instant(state.rank, "rank_failure", state.clock,
                        {"mode": fault.mode})
        if fault.mode == "hang":
            state.blocked = True
            return True
        raise RankFailedError(state.rank, state.clock)

    def _advance_exchange(
        self,
        state: _RankState,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        faults,
        link_seq: Dict[Tuple[int, int], int],
        fail_pending: Dict[int, Any],
        ready: CohortQueue,
        trace: Trace,
        obs,
    ) -> bool:
        """Interpret an Exchange until it completes (True) or blocks (False).

        Each round executes its send then its recv with *identical*
        pricing, accounting, fault handling and FIFO matching to the
        per-message loop path — the whole schedule just runs without
        resuming the rank's generator.  A rank blocked on a round's recv
        is woken by the sender's :meth:`_do_send`, which delivers the
        payload straight into the cursor (never recursing into this
        method) and re-queues the rank; the main loop then resumes the
        interpretation here.
        """
        ex = state.exch
        op = ex.op
        sends = op.sends
        recvs = op.recvs
        nrounds = len(sends)
        rank = state.rank
        results = ex.results
        pre_busy = ex.pre_busy
        while ex.i < nrounds:
            i = ex.i
            if not ex.sent:
                if fail_pending and self._maybe_fail(state, fail_pending, obs):
                    return False
                s = sends[i]
                if s is not None:
                    dest, payload, tag, nbytes, droppable = s
                    if payload is ACCUM:
                        payload = ex.acc
                    elif type(payload) is FromRound:
                        payload = results[payload.round]
                    if pre_busy is not None:
                        self._do_send(
                            rank, state, dest, payload, tag,
                            ex.pre_wire[i], droppable, states, mailbox,
                            faults, link_seq, ready, trace, obs,
                            busy=float(pre_busy[i]),
                            msg_time=float(ex.pre_msg[i]),
                        )
                    else:
                        wire = (int(nbytes) if nbytes is not None
                                else payload_nbytes(payload))
                        self._do_send(
                            rank, state, dest, payload, tag, wire,
                            droppable, states, mailbox, faults, link_seq,
                            ready, trace, obs,
                        )
                ex.sent = True
            r = recvs[i]
            if r is None:
                ex.i += 1
                ex.sent = False
                continue
            if fail_pending and self._maybe_fail(state, fail_pending, obs):
                return False
            src, tag = r
            state.pending_recv = (src, tag, state.clock)
            if mailbox[(rank, src, tag)]:
                # _complete_recv delivers into the cursor (state.exch is
                # set), advancing ex.i past this round.
                self._complete_recv(state, mailbox, trace)
                continue
            state.blocked = True
            return False
        return True

    def _advance_exchange_fast(
        self,
        state: _RankState,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        ready: CohortQueue,
        trace: Trace,
    ) -> bool:
        """Fault-free, timeline-free Exchange interpreter (the hot path).

        Performs the *same arithmetic in the same order* as
        :meth:`_advance_exchange` + :meth:`_do_send` +
        :meth:`_complete_recv`, so clocks and accounting are bit-identical
        — the savings are purely constant-factor: the rank's clock and
        accounting fields live in locals (written back on every exit via
        the ``finally``), method-call overhead per message disappears,
        and vectorized costs are plain-list lookups.  Selected by
        :meth:`_event_loop` only when no fault plan is installed and the
        timeline is off; any observer-visible run keeps the general path.
        """
        ex = state.exch
        op = ex.op
        sends = op.sends
        recvs = op.recvs
        nrounds = len(sends)
        rank = state.rank
        results = ex.results
        combine = ex.combine
        pre_wire = ex.pre_wire
        pre_busy = ex.pre_busy
        pre_msg = ex.pre_msg
        machine = self.machine
        send_busy_time = machine.send_busy_time
        message_time = machine.message_time
        recv_busy_time = machine.recv_busy_time
        acc = trace.ranks[rank]
        clock = state.clock
        sbt = acc.send_busy_time
        nsent = acc.messages_sent
        bsent = acc.bytes_sent
        rwt = acc.recv_wait_time
        rbt = acc.recv_busy_time
        nrecv = acc.messages_received
        brecv = acc.bytes_received
        i = ex.i
        try:
            while i < nrounds:
                if not ex.sent:
                    s = sends[i]
                    if s is not None:
                        dest, payload, tag, nbytes, _droppable = s
                        if payload is ACCUM:
                            payload = ex.acc
                        elif type(payload) is FromRound:
                            payload = results[payload.round]
                        if pre_busy is not None:
                            wire = pre_wire[i]
                            busy = pre_busy[i]
                            arrival = clock + pre_msg[i]
                        else:
                            wire = (int(nbytes) if nbytes is not None
                                    else payload_nbytes(payload))
                            busy = send_busy_time(wire)
                            arrival = clock + message_time(wire)
                        mailbox[(dest, rank, tag)].append(
                            (arrival, payload, wire)
                        )
                        clock += busy
                        sbt += busy
                        nsent += 1
                        bsent += wire
                        dest_state = states[dest]
                        if (dest_state.blocked
                                and dest_state.pending_recv is not None):
                            src, rtag, _post = dest_state.pending_recv
                            if src == rank and rtag == tag:
                                self._complete_recv(dest_state, mailbox, trace)
                                ready.push(dest_state.clock, dest)
                    ex.sent = True
                r = recvs[i]
                if r is None:
                    ex.sent = False
                    i += 1
                    continue
                src, tag = r
                queue = mailbox[(rank, src, tag)]
                if queue:
                    arrival, payload, nbytes = queue.popleft()
                    wait = arrival - clock
                    if wait < 0.0:
                        wait = 0.0
                    busy = recv_busy_time(nbytes)
                    clock += wait + busy
                    rwt += wait
                    rbt += busy
                    nrecv += 1
                    brecv += nbytes
                    if combine is not None:
                        ex.acc = combine(ex.acc, payload, i)
                    else:
                        results[i] = payload
                    ex.sent = False
                    i += 1
                    continue
                state.pending_recv = (src, tag, clock)
                state.blocked = True
                return False
            return True
        finally:
            ex.i = i
            state.clock = clock
            acc.send_busy_time = sbt
            acc.messages_sent = nsent
            acc.bytes_sent = bsent
            acc.recv_wait_time = rwt
            acc.recv_busy_time = rbt
            acc.messages_received = nrecv
            acc.bytes_received = brecv

    def _bulk_exchange(
        self,
        group: Tuple[int, ...],
        states: List[_RankState],
        ready: "CohortQueue",
        trace: Trace,
    ) -> None:
        """Execute a closed, per-round-matched group Exchange in one pass.

        This is the vectorized block executor the grouped collectives opt
        into (``Exchange.group``): instead of ``G * R`` per-message visits
        it validates the whole schedule with NumPy advanced indexing and
        then advances all ``G`` member clocks round by round with
        elementwise array arithmetic.  Bit-identity argument: the closed
        matched schedule means round ``r``'s receive on every member
        consumes exactly round ``r``'s send of its matched partner (one
        channel visit per round, FIFO trivially preserved), so the
        per-round recurrence

        ``arrival = clocks + msg[:, r]``  (sender clock before its busy)
        ``clocks += busy[:, r]``          (sender injection)
        ``wait = max(arrival[sidx[:, r]] - clocks, 0)``
        ``clocks += wait + recv_busy``    (receive completion)

        performs the *same IEEE operations in the same order* as the
        scalar interpreter on every member — clocks, accounting floats
        (seeded from, and written back to, the trace accumulators) and
        counts are all bit-identical.  Accumulator vectors fold one round
        at a time rather than via ``np.sum`` precisely to keep the float
        association identical to the sequential path.

        Chained payloads (:class:`FromRound`, the ring allgather) resolve
        through the same matching: ``FromRound(j)`` on member ``g`` is
        what ``g``'s round-``j`` partner sent it, so its wire size is
        copied from that cell (sizes were measured once, on the
        originating payloads) and the payload is the one that cell
        carries — resolved as flat cell indices, never by copying.

        Members other than the caller were parked blocked; they are
        unblocked with completed cursors and re-queued here.  The caller
        (the last member to arrive) continues inline.
        """
        G = len(group)
        exs = [states[g].exch for g in group]
        sends_l = [ex.op.sends for ex in exs]
        R = len(sends_l[0])
        for sends in sends_l:
            if len(sends) != R:
                raise ValueError(
                    "grouped Exchange members disagree on round count: "
                    f"{len(sends)} vs {R} (group={group})"
                )
        # Schedule columns, one row per member (zip transposes a member's
        # round tuples at C speed).
        dest_rows, stag_rows, src_rows, rtag_rows = [], [], [], []
        payloads: List[Any] = []  # flat, member-major: cell g * R + r
        for ex, sends in zip(exs, sends_l):
            d, p, t, _n, _dr = zip(*sends)
            dest_rows.append(d)
            payloads.extend(p)
            stag_rows.append(t)
            d, t = zip(*ex.op.recvs)
            src_rows.append(d)
            rtag_rows.append(t)
        # Member lookup: global rank -> group index, -1 outside the group.
        lut = np.full(self.nranks, -1, dtype=np.intp)
        lut[np.asarray(group, dtype=np.intp)] = np.arange(G)
        didx = lut[np.array(dest_rows, dtype=np.intp)]
        sidx = lut[np.array(src_rows, dtype=np.intp)]
        if (didx < 0).any() or (sidx < 0).any():
            raise ValueError(
                f"grouped Exchange names ranks outside its group {group}"
            )
        cols = np.arange(R)
        rows = np.arange(G)[:, None]
        # Round r's receive on member g must name a partner whose round r
        # send targets g back with the same tag (the closed-matching
        # contract documented on Exchange.group).
        if not (didx[sidx, cols] == rows).all() or not (
            np.array(stag_rows)[sidx, cols] == np.array(rtag_rows)
        ).all():
            raise ValueError(
                "grouped Exchange schedule is not per-round matched; "
                "leave group=None to run it through the general "
                "interpreter"
            )
        wire = np.array([ex.pre_wire for ex in exs], dtype=np.int64)
        # origin[g, r]: flat index (member * R + round) of the send cell
        # whose payload cell (g, r) carries.
        origin = np.arange(G * R).reshape(G, R)
        chained = wire < 0
        for r in np.flatnonzero(chained.any(axis=0)).tolist():
            # FromRound(j) forwards the round-j delivery: size and payload
            # of the round-j partner's send (FromRound only looks back, so
            # column j is already resolved).
            m = np.flatnonzero(chained[:, r])
            j = -1 - wire[m, r]
            k = sidx[m, j]
            wire[m, r] = wire[k, j]
            origin[m, r] = origin[k, j]
        busy, msg = batch_message_costs(self.machine, wire)
        in_wire = wire[sidx, cols]
        delivered = origin[sidx, cols]
        # Receive pricing depends only on nbytes: price each distinct
        # wire size once through the machine model.
        recv_busy_time = self.machine.recv_busy_time
        uniq, inv = np.unique(in_wire.ravel(), return_inverse=True)
        rbusy = np.array(
            [recv_busy_time(int(u)) for u in uniq.tolist()]
        )[inv.ravel()].reshape(G, R)

        acc_ranks = trace.ranks
        clocks = np.array([states[g].clock for g in group])
        sbt = np.array([acc_ranks[g].send_busy_time for g in group])
        rwt = np.array([acc_ranks[g].recv_wait_time for g in group])
        rbt = np.array([acc_ranks[g].recv_busy_time for g in group])
        for r in range(R):
            b = busy[:, r]
            arrival = clocks + msg[:, r]
            clocks = clocks + b
            sbt += b
            wait = arrival[sidx[:, r]] - clocks
            np.maximum(wait, 0.0, out=wait)
            rb = rbusy[:, r]
            clocks = clocks + (wait + rb)
            rwt += wait
            rbt += rb
        bsent = wire.sum(axis=1).tolist()
        brecv = in_wire.sum(axis=1).tolist()

        fetch = payloads.__getitem__
        clocks_l = clocks.tolist()
        sbt_l = sbt.tolist()
        rwt_l = rwt.tolist()
        rbt_l = rbt.tolist()
        for gi, g in enumerate(group):
            s = states[g]
            ex = exs[gi]
            ex.results[:] = map(fetch, delivered[gi].tolist())
            ex.i = R
            ex.sent = False
            s.clock = clocks_l[gi]
            acc = acc_ranks[g]
            acc.send_busy_time = sbt_l[gi]
            acc.recv_wait_time = rwt_l[gi]
            acc.recv_busy_time = rbt_l[gi]
            acc.messages_sent += R
            acc.messages_received += R
            acc.bytes_sent += int(bsent[gi])
            acc.bytes_received += int(brecv[gi])
            if s.blocked:
                # Parked member: wake it with its cursor complete; the
                # main loop delivers the results on its next visit.
                s.blocked = False
                ready.push(s.clock, g)

    def _do_send(
        self,
        rank: int,
        state: _RankState,
        dest: int,
        payload: Any,
        tag: int,
        wire: int,
        droppable: bool,
        states: List[_RankState],
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        faults,
        link_seq: Dict[Tuple[int, int], int],
        ready: CohortQueue,
        trace: Trace,
        obs,
        busy: Optional[float] = None,
        msg_time: Optional[float] = None,
    ) -> None:
        """Execute one eager send (shared by the Send op and Exchange rounds).

        ``busy``/``msg_time`` may be supplied pre-priced (the vectorized
        Exchange path); they equal ``machine.send_busy_time(wire)`` /
        ``machine.message_time(wire)`` bit-for-bit.
        """
        machine = self.machine
        if busy is None:
            busy = machine.send_busy_time(wire)
            msg_time = machine.message_time(wire)
        arrival = state.clock + msg_time
        if faults is not None and droppable:
            key = (rank, dest)
            seq = link_seq[key]
            link_seq[key] = seq + 1
            delivery = faults.plan_delivery(
                rank, dest, seq, state.clock, msg_time,
            )
            arrival = delivery.arrival
            if delivery.drop_times:
                self._account_retries(
                    trace, rank, dest, wire, busy, delivery, obs,
                )
        mailbox[(dest, rank, tag)].append((arrival, payload, wire))
        if trace.events is not None:
            trace.events.append(_Event(
                rank, "send", state.clock, state.clock + busy,
                peer=dest, nbytes=wire,
            ))
        state.clock += busy
        acc = trace.ranks[rank]
        acc.send_busy_time += busy
        acc.messages_sent += 1
        acc.bytes_sent += wire
        # The destination may have been blocked on this message.
        dest_state = states[dest]
        if dest_state.blocked and dest_state.pending_recv is not None:
            src, rtag, _post = dest_state.pending_recv
            if src == rank and rtag == tag:
                self._complete_recv(dest_state, mailbox, trace)
                ready.push(dest_state.clock, dest)

    # ------------------------------------------------------------------
    @staticmethod
    def _deadlock_error(
        states: List[_RankState],
        barrier_waiting: Dict[Tuple[Tuple[int, ...], int], List[int]],
        exch_waiting: Optional[Dict[Tuple[int, ...], List[int]]] = None,
    ) -> DeadlockError:
        """Build the per-rank wait graph of a stuck simulation."""
        wait_graph: Dict[int, dict] = {}
        details = []
        for s in states:
            if s.done:
                continue
            r = s.rank
            if s.failed:
                wait_graph[r] = {
                    "kind": "hang", "on": [], "tag": None, "since": s.clock,
                }
                details.append(
                    f"rank {r} failed (hang) at t={s.clock:.6g} s "
                    "and never recovered"
                )
            elif s.pending_recv is not None:
                src, tag, post = s.pending_recv
                wait_graph[r] = {
                    "kind": "recv", "on": [src], "tag": tag, "since": post,
                }
                where = (
                    f" (round {s.exch.i} of a batched exchange)"
                    if s.exch is not None else ""
                )
                details.append(
                    f"rank {r} waiting on rank {src} for "
                    f"recv(tag=0x{tag:08x}){where} since t={post:.6g} s"
                )
            elif s.pending_barrier is not None:
                group, tag = s.pending_barrier
                arrived = set(barrier_waiting.get(s.pending_barrier, ()))
                missing = [m for m in group if m not in arrived]
                wait_graph[r] = {
                    "kind": "barrier", "on": missing, "tag": tag,
                    "since": s.clock, "group": list(group),
                }
                details.append(
                    f"rank {r} waiting on rank(s) {missing} at "
                    f"barrier(tag=0x{tag:08x}, group={list(group)}) "
                    f"since t={s.clock:.6g} s"
                )
            elif s.exch is not None and s.exch.op.group is not None:
                group = s.exch.op.group
                arrived = set(
                    (exch_waiting or {}).get(group, ())
                )
                missing = [m for m in group if m not in arrived]
                wait_graph[r] = {
                    "kind": "exchange", "on": missing, "tag": None,
                    "since": s.clock, "group": list(group),
                }
                details.append(
                    f"rank {r} parked for bulk collective members "
                    f"{missing} (group={list(group)}) since "
                    f"t={s.clock:.6g} s"
                )
            else:
                wait_graph[r] = {
                    "kind": "unknown", "on": [], "tag": None, "since": s.clock,
                }
                details.append(f"rank {r} blocked for an unknown reason")
        return DeadlockError(
            "communication deadlock; wait graph:\n  " + "\n  ".join(details),
            wait_graph,
        )

    def _complete_recv(
        self,
        state: _RankState,
        mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, Any, int]]],
        trace: Trace,
    ) -> None:
        """Deliver the head-of-queue message to a rank whose recv can finish.

        For a rank blocked inside an Exchange the payload is delivered
        into the interpreter cursor (advancing it past the round) instead
        of being staged for the generator — the main loop resumes the
        interpretation when the rank's queue entry comes up.
        """
        src, tag, post_time = state.pending_recv  # type: ignore[misc]
        arrival, payload, nbytes = mailbox[(state.rank, src, tag)].popleft()
        wait = max(0.0, arrival - state.clock)
        busy = self.machine.recv_busy_time(nbytes)
        if trace.events is not None:
            if wait > 0:
                trace.events.append(_Event(
                    state.rank, "recv_wait", state.clock,
                    state.clock + wait, peer=src,
                ))
            trace.events.append(_Event(
                state.rank, "recv", state.clock + wait,
                state.clock + wait + busy, peer=src, nbytes=nbytes,
            ))
        state.clock += wait + busy
        acc = trace.ranks[state.rank]
        acc.recv_wait_time += wait
        acc.recv_busy_time += busy
        acc.messages_received += 1
        acc.bytes_received += nbytes
        state.pending_recv = None
        state.blocked = False
        ex = state.exch
        if ex is not None:
            ex.deliver(payload)
        else:
            state.send_value = payload

    def _account_retries(
        self,
        trace: Trace,
        rank: int,
        dest: int,
        nbytes: int,
        busy: float,
        delivery,
        obs=NULL_OBSERVER,
    ) -> None:
        """Account a faulted message's retransmissions in the trace.

        Retransmits are transport-layer: they never advance the sender's
        program clock (so the clock-identity invariant is unaffected) but
        each one is nbytes-accounted and visible as a ``"retry"`` phase /
        timeline event.  Every failed attempt counts as one drop and one
        retransmission — the conservation identity is
        ``sent + retransmitted == received + dropped``.
        """
        ndrops = len(delivery.drop_times)
        acc = trace.ranks[rank]
        acc.messages_dropped += ndrops
        acc.bytes_dropped += ndrops * nbytes
        acc.messages_retransmitted += ndrops
        acc.bytes_retransmitted += ndrops * nbytes
        # Attempt 0 is the original send (charged normally); the
        # retransmissions are attempts 1..ndrops, injected at the failed
        # attempts' timeout expiries plus the final successful attempt.
        retry_times = list(delivery.drop_times[1:]) + [delivery.inject_time]
        for t_retry in retry_times:
            trace.add_phase_time("retry", rank, busy)
            if trace.events is not None:
                trace.events.append(_Event(
                    rank, "retry", t_retry, t_retry + busy,
                    peer=dest, nbytes=nbytes,
                ))
            if obs.enabled:
                obs.instant(rank, "retry", t_retry,
                            {"peer": dest, "nbytes": nbytes})

    def _release_barrier(
        self,
        bkey: Tuple[Tuple[int, ...], int],
        barrier_waiting: Dict[Tuple[Tuple[int, ...], int], List[int]],
        states: List[_RankState],
        trace: Trace,
        ready: CohortQueue,
    ) -> None:
        """Advance all members of a completed barrier and unblock them.

        The released members share one clock, so they land in the ready
        queue as a single cohort — the whole mesh dispatches together on
        the next queue visit.
        """
        group, _tag = bkey
        members = barrier_waiting.pop(bkey)
        release = max(states[r].clock for r in members)
        cost = math.ceil(math.log2(len(group))) * self.machine.latency if len(
            group
        ) > 1 else 0.0
        for r in members:
            s = states[r]
            wait = release - s.clock
            if trace.events is not None and wait + cost > 0:
                trace.events.append(_Event(
                    r, "barrier", s.clock, release + cost,
                ))
            s.clock = release + cost
            trace.ranks[r].barrier_wait_time += wait + cost
            if s.pending_barrier is not None:
                s.pending_barrier = None
                s.blocked = False
                s.send_value = None
                ready.push(s.clock, r)
        # The rank that completed the barrier in-line is handled by caller.
