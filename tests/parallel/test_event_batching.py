"""Tests for the array-based event engine: cohort-queue ordering
(property-tested), the bulk group-synchronous exchange executor, the
and the legacy-engine escape hatch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import engine as _engine
from repro.parallel.events import Exchange
from repro.parallel.machine import GENERIC
from repro.parallel.scheduler import (
    _BULK_MIN_MSGS,
    CohortQueue,
    DeadlockError,
    Simulator,
    _HeapQueue,
)

# Small clock alphabet so timestamp ties (the interesting case for
# cohort formation) occur in nearly every sampled script.
_CLOCKS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
_RANKS = st.integers(min_value=0, max_value=63)
_ENTRIES = st.lists(st.tuples(_CLOCKS, _RANKS), max_size=80)


def _drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


class _FlatListCohortQueue:
    """Reference oracle: the flat-list cohort queue the heap replaced.

    ``pop`` rescans the whole pending list for the minimum clock, moves
    every entry at that clock into the cohort (sorted by rank) and
    serves it before looking at the pending list again — so pushes made
    while a cohort drains wait for the next cohort.
    """

    def __init__(self, entries=()):
        self._pending = list(entries)
        self._cohort = []
        self._clock = 0.0

    def push(self, clock, rank):
        self._pending.append((clock, rank))

    def pop(self):
        if self._cohort:
            return (self._clock, self._cohort.pop(0))
        if not self._pending:
            return None
        t = min(c for c, _ in self._pending)
        self._cohort = sorted(r for c, r in self._pending if c == t)
        self._pending = [(c, r) for c, r in self._pending if c != t]
        self._clock = t
        return (t, self._cohort.pop(0))


class TestCohortQueueOrdering:
    @given(entries=_ENTRIES)
    @settings(max_examples=200, deadline=None)
    def test_drain_is_exact_clock_rank_order(self, entries):
        """With no interleaved pushes, dispatch is exactly sorted
        (clock, rank) order — identical to a heap."""
        assert _drain(CohortQueue(iter(entries))) == sorted(entries)

    @given(entries=_ENTRIES)
    @settings(max_examples=100, deadline=None)
    def test_heap_queue_agrees_with_sort(self, entries):
        assert _drain(_HeapQueue(iter(entries))) == sorted(entries)

    @given(
        entries=_ENTRIES,
        script=st.lists(
            st.tuples(st.sampled_from(["push", "pop"]), _CLOCKS, _RANKS),
            max_size=120,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_pushes_keep_timestamps_monotone(
        self, entries, script
    ):
        """Under the engine's push discipline (wake-ups never carry a
        clock below the waker's current time), the queue pops exactly
        the sequence the flat-list oracle pops — so timestamps never
        regress, each cohort drains in rank order, and pushes made during
        a drain wait for the next cohort."""
        queue = CohortQueue(iter(entries))
        oracle = _FlatListCohortQueue(entries)
        popped = []
        now = 0.0
        for action, dt, rank in script:
            if action == "push":
                clock = now + dt  # engine invariant: clock >= now
                queue.push(clock, rank)
                oracle.push(clock, rank)
            else:
                entry = queue.pop()
                assert entry == oracle.pop()
                assert len(queue) == len(oracle._pending) + len(
                    oracle._cohort
                )
                if entry is not None:
                    assert entry[0] >= now
                    now = entry[0]
                    popped.append(entry)
        rest = _drain(queue)
        assert rest == _drain(oracle)
        clocks = [c for c, _ in popped + rest]
        assert clocks == sorted(clocks)

    def test_same_clock_cohort_pops_in_rank_order(self):
        queue = CohortQueue([(1.0, 5), (1.0, 1), (0.5, 7), (1.0, 3)])
        assert _drain(queue) == [(0.5, 7), (1.0, 1), (1.0, 3), (1.0, 5)]

    def test_push_during_cohort_drain_dispatches_later(self):
        queue = CohortQueue([(1.0, 2), (1.0, 4)])
        assert queue.pop() == (1.0, 2)
        queue.push(1.0, 0)  # arrives while the t=1 cohort drains
        # The in-progress cohort finishes first; the new entry forms
        # the next cohort at the same timestamp (never earlier).
        assert queue.pop() == (1.0, 4)
        assert queue.pop() == (1.0, 0)
        assert queue.pop() is None

    def test_len_counts_cohort_remainder(self):
        queue = CohortQueue([(1.0, 0), (1.0, 1), (2.0, 2)])
        assert len(queue) == 3
        queue.pop()
        assert len(queue) == 2


# ----------------------------------------------------------------------
# bulk group-synchronous exchange
# ----------------------------------------------------------------------

def _alltoall_program(ctx, data):
    out = yield from ctx.alltoall(
        [data[ctx.rank, d] for d in range(ctx.size)]
    )
    return np.stack(out)


def _run_alltoall(p, data, legacy=False):
    if legacy:
        with _engine.legacy_engine():
            return Simulator(p, GENERIC).run(_alltoall_program, data)
    return Simulator(p, GENERIC).run(_alltoall_program, data)


def _bulk_rank_count():
    """Smallest p whose pairwise all-to-all crosses the bulk threshold."""
    p = 2
    while p * (p - 1) < _BULK_MIN_MSGS:
        p += 1
    return p


class TestBulkExchange:
    def test_bulk_alltoall_matches_legacy_engine_exactly(self):
        p = _bulk_rank_count()
        rng = np.random.default_rng(7)
        data = rng.standard_normal((p, p, 3))
        res = _run_alltoall(p, data)
        ref = _run_alltoall(p, data, legacy=True)
        for r in range(p):
            np.testing.assert_array_equal(res.returns[r], ref.returns[r])
        assert res.clocks == ref.clocks
        assert res.elapsed == ref.elapsed
        for a, b in zip(res.trace.ranks, ref.trace.ranks):
            assert a.send_busy_time == b.send_busy_time
            assert a.recv_busy_time == b.recv_busy_time
            assert a.recv_wait_time == b.recv_wait_time
            assert a.messages_sent == b.messages_sent
            assert a.messages_received == b.messages_received
            assert a.bytes_sent == b.bytes_sent
            assert a.bytes_received == b.bytes_received

    def test_below_threshold_alltoall_still_matches(self):
        p = 6  # per-exchange vectorized path, not the bulk executor
        rng = np.random.default_rng(11)
        data = rng.standard_normal((p, p, 2))
        res = _run_alltoall(p, data)
        ref = _run_alltoall(p, data, legacy=True)
        assert res.clocks == ref.clocks
        for r in range(p):
            np.testing.assert_array_equal(res.returns[r], ref.returns[r])

    def test_mismatched_group_schedule_raises(self):
        # 32 members x 16 rounds = 512 messages: bulk-eligible, but the
        # receive tags do not match the partner's send tags.
        p, rounds = 32, 16
        group = tuple(range(p))

        def bad_program(ctx):
            right = (ctx.rank + 1) % p
            left = (ctx.rank - 1) % p
            sends = tuple(
                (right, float(ctx.rank), r, None, True)
                for r in range(rounds)
            )
            recvs = tuple((left, r + 1) for r in range(rounds))
            yield Exchange(sends=sends, recvs=recvs, group=group)
            return None

        with pytest.raises(ValueError, match="per-round matched"):
            Simulator(p, GENERIC).run(bad_program)

    def test_partial_group_arrival_reports_parked_deadlock(self):
        # Rank 0 never joins the collective its group promises, so the
        # other members park forever; the wait-graph must say so.
        p, rounds = 32, 16
        group = tuple(range(p))

        def program(ctx):
            if ctx.rank == 0:
                return None
            right = (ctx.rank + 1) % p
            left = (ctx.rank - 1) % p
            sends = tuple(
                (right, float(ctx.rank), r, None, True)
                for r in range(rounds)
            )
            recvs = tuple((left, r) for r in range(rounds))
            yield Exchange(sends=sends, recvs=recvs, group=group)
            return None

        with pytest.raises(DeadlockError, match="parked for bulk"):
            Simulator(p, GENERIC).run(program)


# ----------------------------------------------------------------------
# desynchronised arrivals at bulk collectives
# ----------------------------------------------------------------------

class TestDesynchronisedCollectives:
    """The engine-pair probe at rank counts whose ring allgather (p *
    (p - 1) >= 512 messages) and all-to-all both run through the bulk
    executor, with ranks arriving in lockstep or skewed by a
    rank-dependent compute."""

    @pytest.mark.parametrize("skew", [0, 3])
    @pytest.mark.parametrize("p", [24, 32])
    def test_probe_matches_legacy_engine_exactly(self, p, skew,
                                                 monkeypatch):
        from dataclasses import asdict

        from repro.verify.pairs import _engine_probe_program

        assert p * (p - 1) >= _BULK_MIN_MSGS
        data = np.random.default_rng(p + skew).standard_normal((p, 5))
        bulk_groups = []
        bulk = Simulator._bulk_exchange

        def spy(self, group, *args):
            bulk_groups.append(len(group))
            return bulk(self, group, *args)

        monkeypatch.setattr(Simulator, "_bulk_exchange", spy)
        res = Simulator(p, GENERIC).run(_engine_probe_program, data, skew)
        # Both the ring allgather and the all-to-all went bulk.
        assert bulk_groups == [p, p]
        with _engine.legacy_engine():
            ref = Simulator(p, GENERIC).run(
                _engine_probe_program, data, skew
            )
        if skew:
            assert len(set(ref.trace.ranks[r].compute_time
                           for r in range(p))) > 1
        for r in range(p):
            for key in ("allgather", "alltoall"):
                np.testing.assert_array_equal(
                    res.returns[r][key], ref.returns[r][key]
                )
            assert res.returns[r]["total"] == ref.returns[r]["total"]
        assert res.clocks == ref.clocks
        assert res.elapsed == ref.elapsed
        for a, b in zip(res.trace.ranks, ref.trace.ranks):
            assert asdict(a) == asdict(b)


# ----------------------------------------------------------------------
# engine selection contract
# ----------------------------------------------------------------------

class TestEngineSelection:
    def test_legacy_engine_flag_restores(self):
        assert _engine.batched()
        with _engine.legacy_engine():
            assert not _engine.batched()
        assert _engine.batched()


class TestSimbenchProbe:
    def test_probe_reports_metrics_and_bit_identity(self):
        from repro.perf.simbench import run_probe

        # Tiny probe: run_probe itself asserts both engines agree on
        # the virtual makespan (the bit-identity canary).
        metrics = run_probe(nranks=12, rounds=1)
        assert metrics["sim_events_per_second"] > 0
        assert metrics["sim_events_per_second_loop"] > 0
        assert metrics["sim_event_engine_speedup"] > 0
        assert metrics["sim_probe_ranks"] == 12.0
