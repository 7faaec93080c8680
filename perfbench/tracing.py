"""In-memory span recorder and the patches that feed it.

Every span is one host-time interval at a layer boundary: its name, start
and end (``perf_counter_ns``), the index of the span that was open when it
began (its parent) and the op it belongs to.  The simulator runs one rank
at a time and every layer call below a resume nests strictly inside it,
so a single stack gives each span its parent.

Layers are timed from outside the program: :func:`install` replaces each
public function or method with a timing wrapper under the name its caller
looks up (``repro.model.parallel_agcm.exchange_halos``, the
``FilterBackend.apply`` class attribute, ...), and :meth:`Patches.undo`
puts the originals back.  Generator layers are timed per resume, so time the
rank is parked in the scheduler is never billed to the layer.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: Op classes of ``repro.parallel.events`` counted per resume, by the
#: lower-cased class name the rank program yielded.
OP_KINDS = ("compute", "send", "recv", "exchange", "barrier")

#: ``GroupComm`` collectives timed as the ``comm`` layer.  Point-to-point
#: ``send``/``recv``/``sendrecv`` are single ops the scheduler handles and
#: stay in the caller's self time.
COLLECTIVES = (
    "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
    "alltoall", "transpose_to_levels", "transpose_from_levels",
)


class Tracer:
    """Span store for one process; ``op`` tags every span opened."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.stack: List[int] = []
        self.op = -1
        self.op_counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.columns = 0

    def reset_counts(self) -> None:
        self.op_counts.clear()
        self.calls.clear()
        self.columns = 0

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self.stack.pop()

    # -- wrappers -------------------------------------------------------
    def wrap_call(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def wrap_gen(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return (yield from self.timed(name, fn(*args, **kwargs)))
        return traced

    def timed(self, name: str, gen):
        """Generator: drive ``gen``, one span per resume."""
        value = None
        try:
            while True:
                idx = self.begin(name)
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.end(idx)
                value = yield op
        finally:
            gen.close()

    def program(self, fn: Callable) -> Callable:
        """A rank program whose resumes are ``model`` spans, ops counted."""
        def traced(ctx, *args, **kwargs):
            return Resumes(self, fn(ctx, *args, **kwargs))
        return traced

    # -- aggregation ----------------------------------------------------
    def self_times(self, first: int) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, span count)`` over spans ``first:``."""
        child_ns = defaultdict(int)
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents)
        for i in range(first, len(names)):
            p = parents[i]
            if p >= first:
                child_ns[p] += ends[i] - starts[i]
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0])
        for i in range(first, len(names)):
            rec = out[names[i]]
            rec[0] += ends[i] - starts[i] - child_ns[i]
            rec[1] += 1
        return {k: (v[0] / 1e9, v[1]) for k, v in out.items()}

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON lines (one span per line)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([
                    name, self.starts[i], self.ends[i], self.parents[i],
                    self.ops[i],
                ]) + "\n")


class Resumes:
    """A rank program's generator, seen by the scheduler through the
    ``send``/``close`` it calls: each resume is a ``model`` span and each
    yielded op is counted by its class."""

    __slots__ = ("tracer", "gen")

    def __init__(self, tracer: Tracer, gen):
        self.tracer = tracer
        self.gen = gen

    def send(self, value):
        tracer = self.tracer
        idx = tracer.begin("model")
        try:
            op = self.gen.send(value)
        finally:
            tracer.end(idx)
        tracer.op_counts[op.__class__.__name__.lower()] += 1
        return op

    def close(self):
        self.gen.close()


class Patches:
    """Installs timing wrappers by attribute and restores the originals."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, bench_module: Any) -> Patches:
    """Wrap every traced layer; ``bench_module`` is the benchmark's own
    module, whose direct calls into the filter set-up are wrapped too."""
    from repro.campaign.cache import ResultCache
    from repro.core.parallel_filter import FilterBackend
    from repro.model import parallel_agcm
    from repro.parallel.comm import GroupComm
    from repro.results import hooks

    patches = Patches()
    call, gen = tracer.wrap_call, tracer.wrap_gen

    def physics(fn):
        timed = call("physics", fn)

        def traced(cols, *args, **kwargs):
            tracer.columns += cols.ncol
            return timed(cols, *args, **kwargs)
        return traced

    for owner in (parallel_agcm, bench_module):
        for attr in ("make_filter_plan", "prepare_filter_backend"):
            patches.replace(owner, attr, call("filter.setup",
                                              getattr(owner, attr)))
    patches.replace(parallel_agcm, "exchange_halos",
                    gen("halo", parallel_agcm.exchange_halos))
    patches.replace(parallel_agcm, "compute_tendencies",
                    call("dynamics", parallel_agcm.compute_tendencies))
    patches.replace(parallel_agcm, "run_physics",
                    physics(parallel_agcm.run_physics))
    patches.replace(parallel_agcm, "plan_column_flow",
                    call("physics_balance", parallel_agcm.plan_column_flow))
    patches.replace(FilterBackend, "apply", gen("filter", FilterBackend.apply))
    for attr in COLLECTIVES:
        patches.replace(GroupComm, attr, gen("comm", getattr(GroupComm, attr)))
    patches.replace(ResultCache, "get", call("cache.get", ResultCache.get))
    patches.replace(hooks, "record_campaign_outcomes",
                    call("results_db.record", hooks.record_campaign_outcomes))
    return patches
