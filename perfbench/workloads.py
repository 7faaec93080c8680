"""The benchmark's workloads: inputs from a seed, one op, its output check.

Each workload is a closed loop with one client: the child process runs
ops back to back.  ``op()`` is the timed work and returns its raw result;
``outcome()``, outside the timed region, reduces that to an
:class:`Outcome` holding the virtual results to check (``summary``) and
the counts the traced run reports (``counts``), so the raw result can be
freed before the next op starts.

Only public ``repro`` entry points are called, always on the default
engine path (no fastpath, no ``RunOptions.fast``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import api
from repro.core.masks import make_filter_plan
from repro.core.parallel_filter import prepare_filter_backend
from repro.dynamics.state import initial_fields_block
from repro.grid.decomposition import Decomposition2D
from repro.model.config import make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.options import RunOptions
from repro.parallel import PARAGON, T3D, ProcessorMesh, Simulator
from repro.verify.invariants import check_sim_result

#: Seed whose virtual results are pinned in ``reference/<workload>.json``.
#: It is ``AGCMConfig``'s own default initial-condition seed.
DEFAULT_SEED = 7

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

#: Relative tolerance on each rank's ``max_wind``.  Every other checked
#: value is compared exactly: virtual clocks and message counts are sums
#: of machine-model prices, while wind speeds pass through NumPy's
#: transcendental kernels, whose last bit may depend on the host CPU.
WIND_RTOL = 1e-9


@dataclass
class Outcome:
    """What one op leaves behind for checking and reporting."""

    summary: Dict[str, Any]
    counts: Dict[str, float]
    #: Problems found while reducing the raw result.
    problems: List[str] = field(default_factory=list)


def digest(summary: Dict[str, Any]) -> str:
    """sha256 of a summary; floats serialise with all their digits."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


def load_reference(name: str) -> Optional[Dict[str, Any]]:
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(got: Any, want: Any, path: str = "") -> List[str]:
    """Differences between a summary and its reference, by key path."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out: List[str] = []
        for key in sorted(want):
            out += compare(got[key], want[key], f"{path}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]")
        return out[:5]
    if path.endswith("max_wind"):
        ok = abs(got - want) <= WIND_RTOL * abs(want)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != reference {want!r}"]


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------

def sim_summary(res) -> Dict[str, Any]:
    """The virtual results of one simulation that every op must repeat."""
    trace = res.trace
    return {
        "elapsed": res.elapsed,
        "clocks": list(res.clocks),
        "phase_max": {p: trace.phase_max(p) for p in trace.phases()},
        "messages": trace.total_messages(),
        "bytes": trace.total_bytes(),
        "ranks": [{"finite": r["finite"], "max_wind": r["max_wind"]}
                  for r in res.returns],
    }


def sim_counts(res) -> Dict[str, float]:
    """Exact counts of the modelled machine, reported by the traced run."""
    trace = res.trace
    return {
        "sim.messages": trace.total_messages(),
        "sim.bytes": trace.total_bytes(),
        "sim.virtual_s": res.elapsed,
        "sim.wait_s": sum(a.recv_wait_time + a.barrier_wait_time
                          for a in trace.ranks),
    }


class SimWorkload:
    """A workload whose op is one ``Simulator.run`` of a rank program."""

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = (load_reference(self.name)
                          if seed == DEFAULT_SEED else None)
        self.first_digest: Optional[str] = None

    def op(self, tracer=None):
        """One ``Simulator.run``, as a ``scheduler`` span when traced."""
        sim = Simulator(self.mesh.size, self.machine)
        if tracer is None:
            return sim.run(self.program, *self.args)
        idx = tracer.begin("scheduler")
        try:
            return sim.run(tracer.program(self.program), *self.args)
        finally:
            tracer.end(idx)

    def outcome(self, res) -> Outcome:
        return Outcome(summary=sim_summary(res), counts=sim_counts(res),
                       problems=check_sim_result(res))

    def check(self, out: Outcome) -> List[str]:
        summary = out.summary
        problems = list(out.problems)
        problems += [f"rank {i} not finite"
                     for i, r in enumerate(summary["ranks"])
                     if not r["finite"]]
        d = digest(summary)
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            problems.append("virtual results differ from this run's first op")
        if self.reference is not None:
            problems += compare(summary, self.reference)
        return problems


class AgcmWorkload(SimWorkload):
    """The 2x2.5x9 AGCM on the Paragon preset over an 8 x 30 mesh."""

    machine = PARAGON
    dims = (8, 30)

    def __init__(self, seed: int, nsteps: int, **overrides):
        super().__init__(seed)
        cfg = make_config("2x2.5x9", filter_backend="fft-lb", seed=seed,
                          **overrides)
        self.mesh = ProcessorMesh(*self.dims)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, self.mesh)
        self.program = agcm_rank_program
        self.args = (cfg, decomp, nsteps)


class Table5(AgcmWorkload):
    name = "agcm-table5-240"

    def __init__(self, seed: int):
        # Paper defaults: physics every 8 steps, no physics balancing.
        super().__init__(seed, nsteps=8)


class PhysicsLB(AgcmWorkload):
    name = "agcm-physlb-240"

    def __init__(self, seed: int):
        # Step 0 measures the physics load, step 1 runs balanced physics.
        super().__init__(seed, nsteps=2, physics_lb=True, physics_every=1)


def filter_program(ctx, decomp, backend, grid, nlayers, napps, seed):
    """Rank program: ``napps`` barrier-separated filter applications."""
    sub = decomp.subdomain(ctx.rank)
    fields = initial_fields_block(
        grid.lat_rad[sub.lat_slice], grid.lon_rad[sub.lon_slice], nlayers,
        seed=seed,
    )
    yield from ctx.barrier()
    with ctx.region("filter"):
        for _ in range(napps):
            yield from backend.apply(ctx, fields)
            yield from ctx.barrier(tag=1)
    return {
        "finite": bool(all(np.isfinite(a).all() for a in fields.values())),
        "max_wind": float(max(np.abs(fields["u"]).max(),
                              np.abs(fields["v"]).max())),
    }


class BigMeshFilter(SimWorkload):
    """``fft-lb`` filtering alone, T3D preset, 32 x 40 mesh, 9 layers."""

    name = "filter-bigmesh-1280"
    machine = T3D
    napps = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        cfg = make_config("2x2.5x9").with_(nlayers=9)
        self.grid = cfg.make_grid()
        self.mesh = ProcessorMesh(32, 40)
        self.decomp = Decomposition2D(cfg.nlat, cfg.nlon, self.mesh)
        self.nlayers = cfg.nlayers
        self.program = filter_program

    def op(self, tracer=None):
        # The backend is built once per op, outside the simulation, the
        # way the filtering tables build it.
        plan = make_filter_plan(self.grid)
        backend = prepare_filter_backend("fft-lb", plan, self.decomp)
        self.args = (self.decomp, backend, self.grid, self.nlayers,
                     self.napps, self.seed)
        return super().op(tracer)


# ----------------------------------------------------------------------
# campaign workload
# ----------------------------------------------------------------------

#: Real, deterministic units riding along with the synthetic ones.
REAL_SELECTORS = ("fig2_3", "fig4_6", "table8@4x4", "fig_3d")

#: Zero-cost synthetic units per op: the executor, cache and results
#: index do nearly all of the work.
SLEEP_UNITS = 200


def payload_digest(value: Any) -> str:
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


class CampaignTinyUnits:
    """``api.run_campaign`` over many tiny units, cold then warm."""

    name = "campaign-tiny-units"
    workers = 2

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        selectors = list(REAL_SELECTORS) + [
            f"sleep:0#s{seed}-{k}" for k in range(SLEEP_UNITS)]
        random.Random(seed).shuffle(selectors)
        self.selectors = selectors
        self.work_dir = work_dir
        self.nops = 0
        ref = load_reference(self.name)
        self.reference = ref["real_digests"] if ref else None

    def op(self, tracer=None):
        self.nops += 1
        root = os.path.join(self.work_dir, f"op{self.nops}")
        options = RunOptions(workers=self.workers,
                             cache_dir=os.path.join(root, "cache"),
                             results_db=os.path.join(root, "results.db"))
        try:
            cold = self._run(options, tracer, "campaign.cold")
            warm = self._run(options, tracer, "campaign.warm")
        except BaseException:
            shutil.rmtree(root, ignore_errors=True)
            raise
        return root, cold, warm

    def outcome(self, raw) -> Outcome:
        root, cold, warm = raw
        shutil.rmtree(root, ignore_errors=True)
        return Outcome(
            summary={"cold": self._summary(cold), "warm": self._summary(warm)},
            counts=self._counts(cold, warm),
        )

    def _run(self, options, tracer, name):
        if tracer is None:
            return api.run_campaign(self.selectors, options=options)
        idx = tracer.begin(name)
        try:
            return api.run_campaign(self.selectors, options=options)
        finally:
            tracer.end(idx)

    @staticmethod
    def _summary(report) -> Dict[str, Any]:
        real, sleeps_ok = {}, True
        for o in report.outcomes:
            if o.ident == "sleep":
                sleeps_ok &= o.result == {"slept": 0.0, "unit": o.label}
            elif o.status != "failed":
                real[o.label] = payload_digest(o.result)
        return {
            "units": report.units_total,
            "statuses": sorted({o.status for o in report.outcomes}),
            "sleeps_ok": sleeps_ok,
            "real": real,
        }

    @staticmethod
    def _counts(cold, warm) -> Dict[str, float]:
        return {
            "campaign.cold_s": cold.wall_seconds,
            "campaign.warm_s": warm.wall_seconds,
            "campaign.computed": sum(o.status == "ran" for o in cold.outcomes),
            "campaign.hits": warm.cache_hits,
            "campaign.failed": cold.failures + warm.failures,
            "campaign.hit_ratio": warm.hit_rate,
        }

    def check(self, out: Outcome) -> List[str]:
        cold, warm = out.summary["cold"], out.summary["warm"]
        n = SLEEP_UNITS + len(cold["real"])
        problems = []
        if cold["statuses"] != ["ran"] or cold["units"] != n:
            problems.append(f"cold pass: {cold['statuses']} over "
                            f"{cold['units']} units, expected all {n} ran")
        if warm["statuses"] != ["hit"] or warm["units"] != n:
            problems.append(f"warm pass: {warm['statuses']} over "
                            f"{warm['units']} units, expected all {n} hits")
        if not (cold["sleeps_ok"] and warm["sleeps_ok"]):
            problems.append("a synthetic unit returned the wrong payload")
        if cold["real"] != warm["real"]:
            problems.append("a cached payload differs from the computed one")
        if self.reference is not None and cold["real"] != self.reference:
            problems.append("real unit payloads differ from the reference")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (Table5, PhysicsLB, BigMeshFilter, CampaignTinyUnits)
}


def make(name: str, seed: int, work_dir: str):
    """Build a workload's inputs from ``seed``."""
    cls = WORKLOADS[name]
    if cls is CampaignTinyUnits:
        return cls(seed, work_dir)
    return cls(seed)
