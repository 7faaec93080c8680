"""Serial vs parallel AGCM equivalence — the central integration test."""

import numpy as np
import pytest

from repro.grid import Decomposition2D
from repro.model import parallel_agcm
from repro.model.agcm import AGCM
from repro.model.config import make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, T3D, ProcessorMesh, Simulator
from repro.verify import tolerances

NSTEPS = 9  # two physics calls on the tiny config (every 4 steps)


@pytest.fixture(scope="module")
def serial_reference():
    cfg = make_config("tiny")
    model = AGCM(cfg)
    model.initialize()
    model.run(NSTEPS)
    return cfg, model.state.fields()


def _gather_fields(cfg, dims, res, decomp):
    mesh_size = decomp.mesh.size
    return {
        name: decomp.gather(
            [res.returns[r]["fields"][name] for r in range(mesh_size)]
        )
        for name in ("u", "v", "pt", "ps", "q")
    }


class TestEquivalence:
    @pytest.mark.parametrize(
        "backend", ["convolution-ring", "convolution-tree", "fft", "fft-lb"]
    )
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3)])
    def test_parallel_matches_serial(self, serial_reference, backend, dims):
        cfg, ref = serial_reference
        cfg2 = cfg.with_(filter_backend=backend)
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg2, decomp, NSTEPS, True
        )
        gathered = _gather_fields(cfg2, dims, res, decomp)
        for name, want in ref.items():
            np.testing.assert_allclose(
                gathered[name], want, atol=tolerances.FIELD_ATOL,
                err_msg=f"{backend} {dims} field {name}",
            )

    def test_physics_lb_preserves_solution(self, serial_reference,
                                           monkeypatch):
        """Moving columns between ranks must not change any result.

        Every rank gathers the same loads, so the column-flow plan is
        derived once per balanced step and shared by all ranks of a run
        — and a second run of the same inputs plans again rather than
        reusing the first run's plans."""
        cfg, ref = serial_reference
        cfg2 = cfg.with_(physics_lb=True)
        mesh = ProcessorMesh(3, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        plans = []
        plan = parallel_agcm.plan_column_flow

        def counting_plan(*args, **kwargs):
            plans.append(args)
            return plan(*args, **kwargs)

        monkeypatch.setattr(parallel_agcm, "plan_column_flow", counting_plan)
        sim = Simulator(mesh.size, PARAGON)
        for run in (1, 2):
            res = sim.run(agcm_rank_program, cfg2, decomp, NSTEPS, True)
            # Physics runs at steps 0, 4 and 8; step 0 only measures.
            balanced_steps = res.returns[0]["physics_calls"] - 1
            assert balanced_steps == 2
            assert len(plans) == run * balanced_steps
            gathered = _gather_fields(cfg2, (3, 2), res, decomp)
            for name, want in ref.items():
                np.testing.assert_allclose(
                    gathered[name], want, atol=tolerances.FIELD_ATOL
                )
            moved = sum(r["columns_moved"] for r in res.returns)
            assert moved > 0  # the balancer really ran

    def test_setup_built_once_per_run(self, serial_reference, monkeypatch):
        """Grid, filter plan, backend and dt are pure functions of the
        config and decomposition: one rank builds them, all ranks of the
        run share them, and a second run builds them again."""
        cfg, ref = serial_reference
        cfg2 = cfg.with_(filter_backend="fft-lb")
        mesh = ProcessorMesh(2, 3)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        calls = {"make_filter_plan": 0, "prepare_filter_backend": 0}
        for name in calls:
            original = getattr(parallel_agcm, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(parallel_agcm, name, counting)
        sim = Simulator(mesh.size, PARAGON)
        for run in (1, 2):
            res = sim.run(agcm_rank_program, cfg2, decomp, NSTEPS, True)
            assert calls == {"make_filter_plan": run,
                             "prepare_filter_backend": run}
            gathered = _gather_fields(cfg2, (2, 3), res, decomp)
            for name, want in ref.items():
                np.testing.assert_allclose(
                    gathered[name], want, atol=tolerances.FIELD_ATOL
                )

    def test_machine_does_not_change_results(self, serial_reference):
        """Timing model and numerics are orthogonal."""
        cfg, ref = serial_reference
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        res_p = Simulator(4, PARAGON).run(
            agcm_rank_program, cfg, decomp, NSTEPS, True
        )
        res_t = Simulator(4, T3D).run(
            agcm_rank_program, cfg, decomp, NSTEPS, True
        )
        for r in range(4):
            for name in ("u", "pt"):
                np.testing.assert_array_equal(
                    res_p.returns[r]["fields"][name],
                    res_t.returns[r]["fields"][name],
                )
        assert res_t.elapsed < res_p.elapsed  # but the T3D is faster


class TestTraceStructure:
    def test_phases_recorded(self, serial_reference):
        cfg, _ = serial_reference
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(4, PARAGON).run(agcm_rank_program, cfg, decomp, 4)
        phases = res.trace.phases()
        for name in ("dynamics", "physics", "filtering", "halo", "fd", "update"):
            assert name in phases

    def test_summaries(self, serial_reference):
        cfg, _ = serial_reference
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(4, PARAGON).run(agcm_rank_program, cfg, decomp, 5)
        for r, summary in enumerate(res.returns):
            assert summary["rank"] == r
            assert summary["steps"] == 5
            assert summary["finite"]
            assert summary["physics_calls"] == 2  # steps 0 and 4
