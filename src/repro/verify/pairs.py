"""The registry of equivalent-implementation pairs under differential test.

Every place the codebase keeps two (or more) implementations of the same
computation — because the paper compares their *performance* — is
registered here as an :class:`~repro.verify.differential.ImplementationPair`
so the *correctness* side of the comparison is continuously re-checked
over seeded randomized configurations:

* convolution-form vs FFT-form polar filtering (paper eqs. 1-2);
* all four parallel filter backends vs the serial filter;
* the hand-rolled radix-2 / binary-exchange distributed FFT vs numpy;
* ring / tree / transpose / recursive-doubling collectives vs a direct
  numpy evaluation of what the collective must deliver;
* the three physics load-balancing schemes vs their own conservation and
  replay invariants (Tables 1-3);
* the serial AGCM vs the SPMD parallel AGCM state evolution (Tables 4-7);
* single-node kernel rewrites: pointwise vector-multiply variants,
  advection loop variants, block vs separate array access streams;
* a distributed fleet campaign with one worker killed, hung or
  disconnected mid-run vs the fault-free serial execution.

Run them all with ``pytest -m differential`` or
``python -m repro.verify.differential``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.distributed_fft import (
    bit_reverse_indices,
    bitrev_transfer,
    fft_dif_bitrev,
    distributed_fft_filter_line,
    ifft_dit_bitrev,
)
from repro.core.fft import fft_filter_line
from repro.core.masks import make_filter_plan
from repro.core.parallel_filter import (
    FILTER_BACKENDS,
    apply_serial_filter,
    prepare_filter_backend,
)
from repro.core.physics_lb import (
    CyclicShuffleBalancer,
    PairwiseExchangeBalancer,
    SortedGreedyBalancer,
    apply_moves,
)
from repro.grid.decomposition import Decomposition2D
from repro.grid.decomposition3d import Decomposition3D
from repro.grid.sphere import SphericalGrid
from repro.model.agcm import AGCM
from repro.model.config import AGCMConfig
from repro.model.parallel_agcm import agcm3d_rank_program, agcm_rank_program
from repro.parallel import GENERIC, ProcessorMesh, Simulator
from repro.perf.access_patterns import (
    ADVECTION_LOOP_MIX,
    laplace_stream_block,
    laplace_stream_separate,
    mixed_loops_block,
    mixed_loops_separate,
)
from repro.perf.advection_opt import ALL_VARIANTS, reference_advection
from repro.perf.kernels import (
    pointwise_multiply_naive,
    pointwise_multiply_reshaped,
    pointwise_multiply_tiled,
)
from repro.verify import tolerances
from repro.verify.differential import Config, ImplementationPair, ParamSpace

#: Variables filtered strongly/weakly by the default plan, with their
#: layer-count convention (ps is a single-level field).
_FILTERED_VARS = ("u", "v", "pt", "ps", "q")


def _random_fields(
    rng: np.random.Generator, nlat: int, nlon: int, nlayers: int
) -> Dict[str, np.ndarray]:
    """Random 3-D field dict matching the AGCM's variable conventions."""
    out = {}
    for var in _FILTERED_VARS:
        k = 1 if var == "ps" else nlayers
        out[var] = rng.standard_normal((nlat, nlon, k))
    return out


# ----------------------------------------------------------------------
# 1. convolution vs FFT polar filtering (serial)
# ----------------------------------------------------------------------

def _serial_filter_runner(method: str):
    def run(config: Config, rng: np.random.Generator):
        grid = SphericalGrid(config["nlat"], config["nlon"])
        plan = make_filter_plan(grid)
        fields = _random_fields(rng, config["nlat"], config["nlon"], config["nlayers"])
        apply_serial_filter(plan, fields, method=method)
        return fields

    return run


def filter_convolution_vs_fft_pair() -> ImplementationPair:
    return ImplementationPair(
        name="filter-convolution-vs-fft",
        space=ParamSpace({"nlat": (10, 36), "nlon": (12, 48), "nlayers": (1, 4)}),
        reference=_serial_filter_runner("convolution"),
        candidate=_serial_filter_runner("fft"),
        atol=tolerances.FILTER_ATOL,
        rtol=0.0,
        description="paper eq. 2 (direct convolution) vs eq. 1 (rfft)",
    )


# ----------------------------------------------------------------------
# 2. parallel filter backends vs the serial filter
# ----------------------------------------------------------------------

def _parallel_filter_program(ctx, backend, blocks_per_field):
    local = {
        name: np.ascontiguousarray(blocks[ctx.rank])
        for name, blocks in blocks_per_field.items()
    }
    yield from backend.apply(ctx, local)
    return local


def _parallel_filter_candidate(config: Config, rng: np.random.Generator):
    grid = SphericalGrid(config["nlat"], config["nlon"])
    plan = make_filter_plan(grid)
    mesh = ProcessorMesh(config["mi"], config["mj"])
    decomp = Decomposition2D(config["nlat"], config["nlon"], mesh)
    backend = prepare_filter_backend(
        FILTER_BACKENDS[config["backend"]], plan, decomp
    )
    fields = _random_fields(rng, config["nlat"], config["nlon"], config["nlayers"])
    blocks_per_field = {name: decomp.scatter(arr) for name, arr in fields.items()}
    res = Simulator(mesh.size, GENERIC).run(
        _parallel_filter_program, backend, blocks_per_field
    )
    return {
        name: decomp.gather([res.returns[r][name] for r in range(mesh.size)])
        for name in fields
    }


def _parallel_filter_reference(config: Config, rng: np.random.Generator):
    grid = SphericalGrid(config["nlat"], config["nlon"])
    plan = make_filter_plan(grid)
    fields = _random_fields(rng, config["nlat"], config["nlon"], config["nlayers"])
    apply_serial_filter(plan, fields, method="fft")
    return fields


def parallel_filter_vs_serial_pair() -> ImplementationPair:
    return ImplementationPair(
        name="parallel-filter-vs-serial",
        space=ParamSpace(
            {
                "nlat": (10, 24),
                "nlon": (12, 32),
                "nlayers": (1, 3),
                "mi": (1, 3),
                "mj": (1, 3),
                "backend": (0, len(FILTER_BACKENDS) - 1),
            },
            constraint=lambda c: c["nlat"] >= 2 * c["mi"] and c["nlon"] >= 2 * c["mj"],
        ),
        reference=_parallel_filter_reference,
        candidate=_parallel_filter_candidate,
        atol=tolerances.FILTER_ATOL,
        rtol=0.0,
        description="ring/tree/transpose/fft-lb backends vs serial filter",
    )


# ----------------------------------------------------------------------
# 3. hand-rolled FFTs vs numpy
# ----------------------------------------------------------------------

def _bitrev_reference(config: Config, rng: np.random.Generator):
    n = 2 ** config["log2n"]
    x = rng.standard_normal((n, config["nlayers"]))
    spec = np.fft.fft(x, axis=0)[bit_reverse_indices(n)]
    return {"forward": spec, "roundtrip": x}


def _bitrev_candidate(config: Config, rng: np.random.Generator):
    n = 2 ** config["log2n"]
    x = rng.standard_normal((n, config["nlayers"]))
    spec = fft_dif_bitrev(x)
    return {"forward": spec, "roundtrip": ifft_dit_bitrev(spec).real}


def fft_bitrev_vs_numpy_pair() -> ImplementationPair:
    return ImplementationPair(
        name="fft-bitrev-vs-numpy",
        space=ParamSpace({"log2n": (1, 8), "nlayers": (1, 3)}),
        reference=_bitrev_reference,
        candidate=_bitrev_candidate,
        atol=tolerances.FFT_ATOL,
        rtol=tolerances.FFT_ATOL,
        description="Gentleman-Sande DIF / Cooley-Tukey DIT vs np.fft",
    )


def _distributed_fft_program(ctx, blocks, transfer_blocks):
    out = yield from distributed_fft_filter_line(
        ctx, blocks[ctx.rank], transfer_blocks[ctx.rank]
    )
    return out


def _distributed_fft_candidate(config: Config, rng: np.random.Generator):
    n = 2 ** config["log2n"]
    p = 2 ** config["log2p"]
    local_n = n // p
    line = rng.standard_normal((n, config["nlayers"]))
    transfer = rng.uniform(0.0, 1.0, n // 2 + 1)
    tb = bitrev_transfer(transfer, n)
    blocks = [line[r * local_n : (r + 1) * local_n] for r in range(p)]
    transfer_blocks = [tb[r * local_n : (r + 1) * local_n] for r in range(p)]
    res = Simulator(p, GENERIC).run(
        _distributed_fft_program, blocks, transfer_blocks
    )
    return np.concatenate(res.returns, axis=0)


def _distributed_fft_reference(config: Config, rng: np.random.Generator):
    n = 2 ** config["log2n"]
    line = rng.standard_normal((n, config["nlayers"]))
    transfer = rng.uniform(0.0, 1.0, n // 2 + 1)
    return fft_filter_line(line, transfer)


def distributed_fft_vs_serial_pair() -> ImplementationPair:
    return ImplementationPair(
        name="distributed-fft-vs-serial",
        space=ParamSpace(
            {"log2n": (3, 7), "log2p": (0, 3), "nlayers": (1, 3)},
            constraint=lambda c: c["log2p"] < c["log2n"],
        ),
        reference=_distributed_fft_reference,
        candidate=_distributed_fft_candidate,
        atol=tolerances.FFT_ATOL,
        rtol=tolerances.FFT_ATOL,
        description="binary-exchange distributed FFT filter vs rfft filter",
    )


# ----------------------------------------------------------------------
# 4. collectives vs direct numpy evaluation
# ----------------------------------------------------------------------

def _collective_data(config: Config, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((config["p"], config["n"]))


def _chunked_data(config: Config, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((config["p"], config["p"], config["n"]))


def _allgather_program(ctx, data):
    out = yield from ctx.allgather(data[ctx.rank])
    return np.stack(out)


def _allgather_candidate(config, rng):
    data = _collective_data(config, rng)
    res = Simulator(config["p"], GENERIC).run(_allgather_program, data)
    return np.stack(res.returns)


def _allgather_reference(config, rng):
    data = _collective_data(config, rng)
    return np.broadcast_to(data, (config["p"],) + data.shape).copy()


def _gather_tree_program(ctx, data, root):
    from repro.parallel.collectives import gather_binomial

    out = yield from gather_binomial(ctx, data[ctx.rank], root=root)
    return None if out is None else np.stack(out)


def _gather_tree_candidate(config, rng):
    data = _collective_data(config, rng)
    root = config["root"] % config["p"]
    res = Simulator(config["p"], GENERIC).run(_gather_tree_program, data, root)
    return res.returns[root]


def _gather_tree_reference(config, rng):
    return _collective_data(config, rng)


def _alltoall_program(ctx, data):
    out = yield from ctx.alltoall([data[ctx.rank, d] for d in range(ctx.size)])
    return np.stack(out)


def _alltoall_candidate(config, rng):
    data = _chunked_data(config, rng)
    res = Simulator(config["p"], GENERIC).run(_alltoall_program, data)
    return np.stack(res.returns)


def _alltoall_reference(config, rng):
    data = _chunked_data(config, rng)
    return np.ascontiguousarray(data.transpose(1, 0, 2))


def _allreduce_program(ctx, data):
    out = yield from ctx.allreduce(data[ctx.rank])
    return out


def _allreduce_candidate(config, rng):
    data = _collective_data(config, rng)
    res = Simulator(config["p"], GENERIC).run(_allreduce_program, data)
    return np.stack(res.returns)


def _allreduce_reference(config, rng):
    data = _collective_data(config, rng)
    total = data.sum(axis=0)
    return np.broadcast_to(total, data.shape).copy()


def _rdouble_program(ctx, data):
    from repro.parallel.collectives import allreduce_recursive_doubling

    out = yield from allreduce_recursive_doubling(ctx, data[ctx.rank])
    return out


def _rdouble_candidate(config, rng):
    data = _collective_data(config, rng)
    res = Simulator(config["p"], GENERIC).run(_rdouble_program, data)
    return np.stack(res.returns)


def _rscatter_program(ctx, data):
    from repro.parallel.collectives import reduce_scatter_ring

    out = yield from reduce_scatter_ring(
        ctx, [data[ctx.rank, d] for d in range(ctx.size)]
    )
    return out


def _rscatter_candidate(config, rng):
    data = _chunked_data(config, rng)
    res = Simulator(config["p"], GENERIC).run(_rscatter_program, data)
    return np.stack(res.returns)


def _rscatter_reference(config, rng):
    data = _chunked_data(config, rng)
    return data.sum(axis=0)


def collective_pairs() -> List[ImplementationPair]:
    small = ParamSpace({"p": (1, 8), "n": (1, 32)})
    rooted = ParamSpace({"p": (1, 8), "n": (1, 32), "root": (0, 7)})
    return [
        ImplementationPair(
            name="collective-allgather-ring",
            space=small,
            reference=_allgather_reference,
            candidate=_allgather_candidate,
            atol=tolerances.EXACT,
            rtol=0.0,
            description="ring allgather (convolution filter's ring) vs numpy",
        ),
        ImplementationPair(
            name="collective-gather-tree",
            space=rooted,
            reference=_gather_tree_reference,
            candidate=_gather_tree_candidate,
            atol=tolerances.EXACT,
            rtol=0.0,
            description="binomial-tree gather (convolution tree variant) vs numpy",
        ),
        ImplementationPair(
            name="collective-alltoall-transpose",
            space=small,
            reference=_alltoall_reference,
            candidate=_alltoall_candidate,
            atol=tolerances.EXACT,
            rtol=0.0,
            description="pairwise all-to-all (the FFT transpose) vs numpy",
        ),
        ImplementationPair(
            name="collective-allreduce-tree",
            space=small,
            reference=_allreduce_reference,
            candidate=_allreduce_candidate,
            atol=tolerances.DIFF_ATOL,
            rtol=tolerances.DIFF_RTOL,
            description="reduce+bcast allreduce vs numpy sum",
        ),
        ImplementationPair(
            name="collective-allreduce-recursive-doubling",
            space=small,
            reference=_allreduce_reference,
            candidate=_rdouble_candidate,
            atol=tolerances.DIFF_ATOL,
            rtol=tolerances.DIFF_RTOL,
            description="recursive-doubling allreduce vs numpy sum",
        ),
        ImplementationPair(
            name="collective-reduce-scatter-ring",
            space=small,
            reference=_rscatter_reference,
            candidate=_rscatter_candidate,
            atol=tolerances.DIFF_ATOL,
            rtol=tolerances.DIFF_RTOL,
            description="ring reduce-scatter vs numpy sum",
        ),
    ]


# ----------------------------------------------------------------------
# 5. physics load-balancing schemes: conservation + replay invariants
# ----------------------------------------------------------------------

_BALANCERS = {
    1: CyclicShuffleBalancer,
    2: SortedGreedyBalancer,
    3: PairwiseExchangeBalancer,
}


def _lb_loads(config: Config, rng: np.random.Generator) -> np.ndarray:
    loads = rng.uniform(0.0, 100.0, config["p"])
    loads[rng.random(config["p"]) < 0.15] = 0.0  # idle ranks happen
    return loads


def _lb_reference(config: Config, rng: np.random.Generator):
    loads = _lb_loads(config, rng)
    return {
        "total": float(loads.sum()),
        "replay_matches": True,
        "imbalance_not_worse": True,
        "loads_nonnegative": True,
    }


def _lb_candidate_for(scheme: int):
    def run(config: Config, rng: np.random.Generator):
        loads = _lb_loads(config, rng)
        res = _BALANCERS[scheme]().balance(loads)
        replayed = apply_moves(loads, res.moves)
        scale = 1.0 + float(np.abs(loads).sum())
        return {
            "total": float(res.loads_after.sum()),
            "replay_matches": bool(
                np.allclose(
                    replayed, res.loads_after,
                    atol=tolerances.LOAD_RTOL * scale, rtol=0.0,
                )
            ),
            "imbalance_not_worse": bool(
                res.imbalance_after <= res.imbalance_before + tolerances.LOAD_RTOL
            ),
            "loads_nonnegative": bool(
                np.all(res.loads_after >= -tolerances.LOAD_RTOL * scale)
            ),
        }

    return run


def lb_scheme_pairs() -> List[ImplementationPair]:
    descriptions = {
        1: "scheme 1 (cyclic shuffle) conservation/replay invariants",
        2: "scheme 2 (sorted greedy) conservation/replay invariants",
        3: "scheme 3 (pairwise exchange) conservation/replay invariants",
    }
    return [
        ImplementationPair(
            name=f"lb-scheme{scheme}-invariants",
            space=ParamSpace({"p": (1, 48)}),
            reference=_lb_reference,
            candidate=_lb_candidate_for(scheme),
            atol=tolerances.LOAD_RTOL,
            rtol=tolerances.LOAD_RTOL,
            description=descriptions[scheme],
        )
        for scheme in (1, 2, 3)
    ]


# ----------------------------------------------------------------------
# 6. serial AGCM vs parallel AGCM state evolution
# ----------------------------------------------------------------------

def _agcm_config(config: Config, seed: int) -> AGCMConfig:
    return AGCMConfig(
        nlat=config["nlat"],
        nlon=config["nlon"],
        nlayers=config["nlayers"],
        physics_every=2,
        dt_safety=0.3,
        filter_backend=FILTER_BACKENDS[config["backend"]],
        seed=seed,
    )


def _agcm_reference(config: Config, rng: np.random.Generator):
    seed = int(rng.integers(2**31))
    model = AGCM(_agcm_config(config, seed))
    model.initialize()
    model.run(config["nsteps"])
    return model.state.fields()


def _agcm_candidate(config: Config, rng: np.random.Generator):
    seed = int(rng.integers(2**31))
    cfg = _agcm_config(config, seed)
    mesh = ProcessorMesh(config["mi"], config["mj"])
    decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
    res = Simulator(mesh.size, GENERIC).run(
        agcm_rank_program, cfg, decomp, config["nsteps"], True
    )
    return {
        name: decomp.gather(
            [res.returns[r]["fields"][name] for r in range(mesh.size)]
        )
        for name in ("u", "v", "pt", "ps", "q")
    }


def agcm_serial_vs_parallel_pair() -> ImplementationPair:
    return ImplementationPair(
        name="agcm-serial-vs-parallel",
        space=ParamSpace(
            {
                "nlat": (12, 18),
                "nlon": (16, 28),
                "nlayers": (1, 3),
                "mi": (1, 3),
                "mj": (1, 3),
                "nsteps": (3, 6),
                "backend": (0, len(FILTER_BACKENDS) - 1),
            },
            constraint=lambda c: c["nlat"] >= 4 * c["mi"] and c["nlon"] >= 4 * c["mj"],
        ),
        reference=_agcm_reference,
        candidate=_agcm_candidate,
        atol=tolerances.FIELD_ATOL_LOOSE,
        rtol=0.0,
        description="serial driver vs SPMD rank program (Tables 4-7 pairing)",
    )


def _agcm3d_candidate(config: Config, rng: np.random.Generator):
    seed = int(rng.integers(2**31))
    cfg = _agcm_config(config, seed)
    mesh = ProcessorMesh(config["mi"], config["mj"], config["mk"])
    decomp = Decomposition3D(cfg.nlat, cfg.nlon, cfg.nlayers, mesh)
    res = Simulator(mesh.size, GENERIC).run(
        agcm3d_rank_program, cfg, decomp, config["nsteps"], True
    )
    return {
        name: decomp.gather(
            [res.returns[r]["fields"][name] for r in range(mesh.size)],
            single_level=(name == "ps"),
        )
        for name in ("u", "v", "pt", "ps", "q")
    }


def agcm_3d_vs_serial_pair() -> ImplementationPair:
    """The AGCM-3DLF pairing: 3-D slabs must match the serial driver
    bit for bit.

    Pinned to the fft backends (indices 2-3 of FILTER_BACKENDS): their
    distributed filtering is bit-identical to the serial path, so the
    whole 3-D trajectory — pillar transposes, column physics, the
    full-K surface-pressure closure, transposed vertical diffusion —
    must reproduce the serial fields at EXACT (zero) tolerance.  The
    convolution backends reassociate the convolution sum (~1e-11
    drift) and are covered by the loose 2-D pairing above.
    """
    return ImplementationPair(
        name="agcm-3d-vs-serial",
        space=ParamSpace(
            {
                "nlat": (12, 18),
                "nlon": (16, 28),
                "nlayers": (2, 6),
                "mi": (1, 3),
                "mj": (1, 3),
                "mk": (1, 4),
                "nsteps": (3, 6),
                "backend": (2, len(FILTER_BACKENDS) - 1),
            },
            constraint=lambda c: (
                c["nlat"] >= 4 * c["mi"]
                and c["nlon"] >= 4 * c["mj"]
                and c["nlayers"] >= c["mk"]
            ),
        ),
        reference=_agcm_reference,
        candidate=_agcm3d_candidate,
        atol=tolerances.EXACT,
        rtol=0.0,
        description="serial driver vs 3-D (AGCM-3DLF) rank program, "
                    "bit-exact",
    )


# ----------------------------------------------------------------------
# 7. single-node kernel rewrites
# ----------------------------------------------------------------------

def _pointwise_reference(config: Config, rng: np.random.Generator):
    a = rng.standard_normal(config["m"] * config["reps"])
    b = rng.standard_normal(config["m"])
    ref = pointwise_multiply_naive(a, b)
    return {"reshaped": ref, "tiled": ref}


def _pointwise_candidate(config: Config, rng: np.random.Generator):
    a = rng.standard_normal(config["m"] * config["reps"])
    b = rng.standard_normal(config["m"])
    return {
        "reshaped": pointwise_multiply_reshaped(a, b),
        "tiled": pointwise_multiply_tiled(a, b),
    }


def pointwise_variants_pair() -> ImplementationPair:
    return ImplementationPair(
        name="kernel-pointwise-variants",
        space=ParamSpace({"m": (1, 32), "reps": (1, 64)}),
        reference=_pointwise_reference,
        candidate=_pointwise_candidate,
        atol=tolerances.KERNEL_ATOL,
        rtol=0.0,
        description="eq.-4 pointwise multiply: naive loop vs vectorised forms",
    )


def _advection_inputs(config: Config, rng: np.random.Generator):
    shape = (config["nlat"], config["nlon"], config["nlayers"])
    f = rng.standard_normal(shape)
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    dx = rng.uniform(0.5, 2.0, config["nlat"])
    dy = float(rng.uniform(0.5, 2.0))
    return f, u, v, dx, dy


def _advection_reference(config: Config, rng: np.random.Generator):
    f, u, v, dx, dy = _advection_inputs(config, rng)
    ref = reference_advection(f, u, v, dx, dy)
    return {name: ref for name in ALL_VARIANTS if name != "naive"}


def _advection_candidate(config: Config, rng: np.random.Generator):
    f, u, v, dx, dy = _advection_inputs(config, rng)
    return {
        name: np.array(fn(f, u, v, dx, dy))
        for name, fn in ALL_VARIANTS.items()
        if name != "naive"
    }


def advection_variants_pair() -> ImplementationPair:
    return ImplementationPair(
        name="kernel-advection-variants",
        space=ParamSpace({"nlat": (2, 10), "nlon": (2, 12), "nlayers": (1, 4)}),
        reference=_advection_reference,
        candidate=_advection_candidate,
        atol=tolerances.KERNEL_ATOL,
        rtol=tolerances.KERNEL_ATOL,
        description="advection loop rewrites vs the naive scalar oracle",
    )


def _layout_loops(m: int):
    return tuple(tuple(f % m for f in loop) for loop in ADVECTION_LOOP_MIX)


def _layout_reference(config: Config, rng: np.random.Generator):
    n, m = config["n"], config["m"]
    sep_lap = laplace_stream_separate(n, m)
    sep_mix = mixed_loops_separate(n, m, _layout_loops(m))
    return {"laplace_accesses": sep_lap.shape[0], "mixed_accesses": sep_mix.shape[0]}


def _layout_candidate(config: Config, rng: np.random.Generator):
    n, m = config["n"], config["m"]
    blk_lap = laplace_stream_block(n, m)
    blk_mix = mixed_loops_block(n, m, _layout_loops(m))
    return {"laplace_accesses": blk_lap.shape[0], "mixed_accesses": blk_mix.shape[0]}


def block_vs_separate_layout_pair() -> ImplementationPair:
    return ImplementationPair(
        name="layout-block-vs-separate",
        space=ParamSpace({"n": (4, 24), "m": (1, 8)}),
        reference=_layout_reference,
        candidate=_layout_candidate,
        atol=tolerances.EXACT,
        rtol=0.0,
        description="block-array layout performs the same accesses as "
        "separate arrays (work conservation)",
    )


# ----------------------------------------------------------------------
# 8. fault injection: retry-enabled collectives, checkpoint recovery
# ----------------------------------------------------------------------

def _faulty_collectives_program(ctx, data):
    """Rank program exercising allreduce/allgather/alltoall on a lossy net."""
    mine = data[ctx.rank]
    total = yield from ctx.allreduce(mine)
    gathered = yield from ctx.allgather(mine)
    swapped = yield from ctx.alltoall([mine + d for d in range(ctx.size)])
    return {
        "allreduce": total,
        "allgather": np.stack(gathered),
        "alltoall": np.stack(swapped),
    }


def _faulty_collectives_clean(config: Config, rng: np.random.Generator):
    _ = int(rng.integers(2**31))  # keep the RNG stream aligned
    p, n = config["p"], config["n"]
    data = rng.standard_normal((p, n))
    total = data.sum(axis=0)
    return {
        "allreduce": np.stack([total] * p),
        "allgather": np.stack([data] * p),
        "alltoall": np.stack(
            [[data[s] + r for s in range(p)] for r in range(p)]
        ),
    }


def _faulty_collectives_candidate(config: Config, rng: np.random.Generator):
    from repro.faults.plan import FaultPlan, LinkFault
    from repro.verify.invariants import assert_sim_invariants

    seed = int(rng.integers(2**31))
    p, n = config["p"], config["n"]
    data = rng.standard_normal((p, n))
    plan = FaultPlan(
        seed=seed,
        link_faults=(LinkFault(drop_rate=config["droppm"] / 1000.0),),
    )
    res = Simulator(p, GENERIC, record_events=True, faults=plan).run(
        _faulty_collectives_program, data
    )
    assert_sim_invariants(res, label="faulty-collectives")
    return {
        key: np.stack([res.returns[r][key] for r in range(p)])
        for key in ("allreduce", "allgather", "alltoall")
    }


def faulty_collectives_pair() -> ImplementationPair:
    return ImplementationPair(
        name="faults-collectives-vs-numpy",
        space=ParamSpace(
            {"p": (2, 8), "n": (1, 24), "droppm": (10, 120)},
        ),
        reference=_faulty_collectives_clean,
        candidate=_faulty_collectives_candidate,
        atol=tolerances.DIFF_ATOL,
        rtol=0.0,
        description="retry-enabled collectives under 1-12% message drops "
        "vs direct numpy evaluation (drops delay, never corrupt)",
    )


def _fault_agcm_config(config: Config, seed: int) -> AGCMConfig:
    return AGCMConfig(
        nlat=config["nlat"],
        nlon=config["nlon"],
        nlayers=config["nlayers"],
        physics_every=2,
        dt_safety=0.3,
        seed=seed,
    )


def _fault_recovery_reference(config: Config, rng: np.random.Generator):
    seed = int(rng.integers(2**31))
    model = AGCM(_fault_agcm_config(config, seed))
    model.initialize()
    model.run(config["nsteps"])
    return model.state.fields()


def _fault_recovery_candidate(config: Config, rng: np.random.Generator):
    import tempfile
    from pathlib import Path

    from repro.faults.checkpoint import run_agcm_with_recovery
    from repro.faults.plan import FaultPlan, LinkFault, RankFailure

    seed = int(rng.integers(2**31))
    cfg = _fault_agcm_config(config, seed)
    mesh = ProcessorMesh(config["mi"], config["mj"])
    decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
    # Probe the fault-free makespan so the injected failure is
    # guaranteed to fire mid-run (the faulted run is strictly slower).
    probe = Simulator(mesh.size, GENERIC).run(
        agcm_rank_program, cfg, decomp, config["nsteps"]
    )
    plan = FaultPlan(
        seed=seed,
        link_faults=(LinkFault(drop_rate=config["droppm"] / 1000.0),),
        failures=(
            RankFailure(
                rank=config["failrank"] % mesh.size, at=0.55 * probe.elapsed
            ),
        ),
    )
    with tempfile.TemporaryDirectory() as td:
        out = run_agcm_with_recovery(
            cfg, decomp, config["nsteps"], GENERIC,
            faults=plan,
            checkpoint_every=config["ckpt"],
            checkpoint_path=Path(td) / "checkpoint.npz",
        )
    if out.restarts < 1:
        raise AssertionError("injected rank failure never fired")
    return {
        name: decomp.gather(
            [out.result.returns[r]["fields"][name] for r in range(mesh.size)]
        )
        for name in ("u", "v", "pt", "ps", "q")
    }


def fault_recovery_agcm_pair() -> ImplementationPair:
    return ImplementationPair(
        name="faults-agcm-checkpoint-recovery",
        space=ParamSpace(
            {
                "nlat": (12, 16),
                "nlon": (16, 24),
                "nlayers": (1, 2),
                "mi": (1, 2),
                "mj": (1, 2),
                "nsteps": (4, 6),
                "ckpt": (1, 3),
                "droppm": (10, 40),
                "failrank": (0, 3),
            },
            constraint=lambda c: c["nlat"] >= 4 * c["mi"]
            and c["nlon"] >= 4 * c["mj"],
        ),
        reference=_fault_recovery_reference,
        candidate=_fault_recovery_candidate,
        atol=tolerances.EXACT,
        rtol=0.0,
        description="AGCM under rank failure + >=1% drops, restarted from "
        "checkpoint, vs the fault-free serial run (bit-for-bit)",
    )


# ----------------------------------------------------------------------
# 9. guard: NaN corruption healed from buddy snapshots
# ----------------------------------------------------------------------

_GUARD_FIELDS = ("u", "v", "pt", "ps", "q")


def _guard_recovery_candidate(config: Config, rng: np.random.Generator):
    from repro.guard import GuardConfig, StateCorruption, run_agcm_guarded

    seed = int(rng.integers(2**31))
    cfg = _fault_agcm_config(config, seed)
    mesh = ProcessorMesh(config["mi"], config["mj"])
    decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
    gcfg = GuardConfig(
        policy="rollback_retry",
        buddy_every=config["buddy"],
        injections=(
            StateCorruption(
                step=config["nsteps"] // 2,
                rank=config["failrank"] % mesh.size,
                field=_GUARD_FIELDS[config["fieldidx"]],
            ),
        ),
    )
    out = run_agcm_guarded(cfg, decomp, config["nsteps"], GENERIC, guard=gcfg)
    if out.recoveries < 1:
        raise AssertionError("injected NaN corruption never tripped the guard")
    return {
        name: decomp.gather(
            [out.result.returns[r]["fields"][name] for r in range(mesh.size)]
        )
        for name in ("u", "v", "pt", "ps", "q")
    }


def guard_buddy_recovery_pair() -> ImplementationPair:
    return ImplementationPair(
        name="guard-buddy-nan-recovery",
        space=ParamSpace(
            {
                "nlat": (12, 16),
                "nlon": (16, 24),
                "nlayers": (1, 2),
                "mi": (1, 2),
                "mj": (1, 2),
                "nsteps": (4, 6),
                "buddy": (1, 2),
                "failrank": (0, 3),
                "fieldidx": (0, len(_GUARD_FIELDS) - 1),
            },
            constraint=lambda c: c["nlat"] >= 4 * c["mi"]
            and c["nlon"] >= 4 * c["mj"],
        ),
        reference=_fault_recovery_reference,
        candidate=_guard_recovery_candidate,
        atol=tolerances.EXACT,
        rtol=0.0,
        description="AGCM with a mid-run NaN soft error, detected and "
        "rolled back from the diskless buddy snapshot, vs the fault-free "
        "serial run (bit-for-bit)",
    )


# ----------------------------------------------------------------------
# 10. engine overhaul: batched vs legacy engine, plain vs observed
# ----------------------------------------------------------------------

def _engine_probe_program(ctx, data, skew=0):
    """Collective-heavy program touching every schedule the batched
    engine treats specially: pairwise all-to-all and ring allgather
    (chained ``FromRound`` payloads), both bulk group-synchronous above
    the message threshold, and recursive-doubling allreduce (combining
    ``ACCUM`` payloads, always per-message).

    ``skew > 0`` first charges a rank-dependent compute of up to ``10 *
    skew`` message latencies, so ranks reach the collectives out of
    lockstep — the desynchronised arrivals of a balanced-physics step."""
    from repro.parallel.collectives import allreduce_recursive_doubling

    if skew:
        yield from ctx.compute(
            seconds=skew * ctx.machine.latency * ((7 * ctx.rank) % 11)
        )
    mine = data[ctx.rank]
    gathered = yield from ctx.allgather(mine)
    swapped = yield from ctx.alltoall([mine + d for d in range(ctx.size)])
    total = yield from allreduce_recursive_doubling(ctx, float(mine.sum()))
    return {
        "allgather": np.stack(gathered),
        "alltoall": np.stack(swapped),
        "total": total,
    }


def _engine_observables(res) -> Dict[str, np.ndarray]:
    """Everything the engines must agree on, bit for bit: every rank's
    return values, final clocks, makespan, and the full per-rank
    time/count accounting."""
    p = len(res.returns)
    acc = res.trace.ranks
    return {
        "allgather": np.stack(
            [res.returns[r]["allgather"] for r in range(p)]
        ),
        "alltoall": np.stack([res.returns[r]["alltoall"] for r in range(p)]),
        "totals": np.array([res.returns[r]["total"] for r in range(p)]),
        "clocks": np.array(res.clocks),
        "elapsed": np.array([res.elapsed]),
        "compute": np.array([a.compute_time for a in acc]),
        "send_busy": np.array([a.send_busy_time for a in acc]),
        "recv_busy": np.array([a.recv_busy_time for a in acc]),
        "recv_wait": np.array([a.recv_wait_time for a in acc]),
        "counts": np.array(
            [
                [a.messages_sent, a.messages_received,
                 a.bytes_sent, a.bytes_received]
                for a in acc
            ],
            dtype=float,
        ),
    }


def _engine_runner(legacy: bool):
    from contextlib import nullcontext

    from repro.parallel import engine as _engine

    def run(config: Config, rng: np.random.Generator):
        data = rng.standard_normal((config["p"], config["n"]))
        ctxmgr = _engine.legacy_engine() if legacy else nullcontext()
        with ctxmgr:
            res = Simulator(config["p"], GENERIC).run(
                _engine_probe_program, data, config["skew"]
            )
        return _engine_observables(res)

    return run


def engine_batched_vs_loop_pair() -> ImplementationPair:
    return ImplementationPair(
        name="engine-batched-vs-loop",
        # p reaches past 23 so some sampled configs push the pairwise
        # all-to-all and the ring allgather over the bulk
        # group-synchronous threshold (p*(p-1) >= 512) while smaller ones
        # take the per-exchange vectorized and scalar paths — all three
        # must agree with the legacy engine exactly, with ranks arriving
        # in lockstep (skew 0) or desynchronised.
        space=ParamSpace({"p": (2, 26), "n": (1, 24), "skew": (0, 3)}),
        reference=_engine_runner(legacy=True),
        candidate=_engine_runner(legacy=False),
        atol=tolerances.EXACT,
        rtol=0.0,
        description="batched Exchange engine + cohort dispatch vs the "
        "legacy per-message heap engine: returns, clocks and accounting "
        "bit-for-bit",
    )


def _agcm_engine_runner(observed: bool):
    from contextlib import nullcontext

    from repro.obs import Observer, activate

    def run(config: Config, rng: np.random.Generator):
        seed = int(rng.integers(2**31))
        cfg = _agcm_config(config, seed)
        mesh = ProcessorMesh(config["mi"], config["mj"])
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        sim = Simulator(mesh.size, GENERIC)
        with activate(Observer()) if observed else nullcontext():
            res = sim.run(
                agcm_rank_program, cfg, decomp, config["nsteps"], True
            )
        out = {
            name: decomp.gather(
                [res.returns[r]["fields"][name] for r in range(mesh.size)]
            )
            for name in ("u", "v", "pt", "ps", "q")
        }
        out["clocks"] = np.array(res.clocks)
        out["elapsed"] = np.array([res.elapsed])
        # Phase accounting is the paper's per-component result (Tables
        # 4-7, Figure 1): a mode that drops or skews it corrupts payloads.
        out["phases"] = {
            name: np.array(per_rank)
            for name, per_rank in res.trace.phase_elapsed.items()
        }
        return out

    return run


def agcm_plain_vs_observed_pair() -> ImplementationPair:
    return ImplementationPair(
        name="agcm-plain-vs-observed",
        space=ParamSpace(
            {
                "nlat": (12, 18),
                "nlon": (16, 28),
                "nlayers": (1, 3),
                "mi": (1, 3),
                "mj": (1, 3),
                "nsteps": (3, 6),
                "backend": (0, len(FILTER_BACKENDS) - 1),
            },
            constraint=lambda c: c["nlat"] >= 4 * c["mi"]
            and c["nlon"] >= 4 * c["mj"],
        ),
        reference=_agcm_engine_runner(observed=True),
        candidate=_agcm_engine_runner(observed=False),
        atol=tolerances.EXACT,
        rtol=0.0,
        description="parallel AGCM run plain vs the same run under a live "
        "observer: fields, clocks, makespan and every rank's per-phase "
        "elapsed time bit-for-bit",
    )


# ----------------------------------------------------------------------
# 11. fleet: chaos campaign vs fault-free serial execution
# ----------------------------------------------------------------------

_FLEET_ACTIONS = ("kill", "hang", "disconnect")


def _fleet_selectors(config: Config) -> List[str]:
    return [f"sleep:0.1#diff{i}" for i in range(config["nunits"])]


def _fleet_chaos_reference(config: Config, rng: np.random.Generator):
    from repro.campaign import run_campaign

    report = run_campaign(_fleet_selectors(config))
    return {label: value for label, value in report.results().items()}


def _fleet_chaos_candidate(config: Config, rng: np.random.Generator):
    import tempfile

    from repro.campaign import run_campaign
    from repro.fleet.harness import LocalFleet

    action = _FLEET_ACTIONS[config["action"]]
    with tempfile.TemporaryDirectory() as td:
        with LocalFleet(
            nworkers=3, cache_dir=td,
            chaos={0: f"{action}@{config['boundary']}"},
        ) as fleet:
            report = run_campaign(
                _fleet_selectors(config), fleet=fleet.config, cache_dir=td
            )
    if report.failures:
        raise AssertionError(
            f"chaos campaign had {report.failures} failure(s)"
        )
    return {label: value for label, value in report.results().items()}


def fleet_chaos_vs_serial_pair() -> ImplementationPair:
    return ImplementationPair(
        name="fleet-chaos-vs-serial",
        space=ParamSpace(
            {"nunits": (4, 8), "boundary": (1, 2), "action": (0, 2)},
        ),
        reference=_fleet_chaos_reference,
        candidate=_fleet_chaos_candidate,
        atol=tolerances.EXACT,
        rtol=0.0,
        description="fleet campaign with one worker killed/hung/"
        "disconnected mid-run vs the fault-free serial run: merged "
        "results bit-for-bit, zero failed units",
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def default_pairs() -> List[ImplementationPair]:
    """All registered implementation pairs, cheap first."""
    return [
        pointwise_variants_pair(),
        advection_variants_pair(),
        block_vs_separate_layout_pair(),
        *lb_scheme_pairs(),
        *collective_pairs(),
        fft_bitrev_vs_numpy_pair(),
        distributed_fft_vs_serial_pair(),
        filter_convolution_vs_fft_pair(),
        parallel_filter_vs_serial_pair(),
        agcm_serial_vs_parallel_pair(),
        agcm_3d_vs_serial_pair(),
        engine_batched_vs_loop_pair(),
        agcm_plain_vs_observed_pair(),
        faulty_collectives_pair(),
        fault_recovery_agcm_pair(),
        guard_buddy_recovery_pair(),
        fleet_chaos_vs_serial_pair(),
    ]


def pair_by_name(name: str) -> ImplementationPair:
    """Look up one registered pair by its name."""
    for pair in default_pairs():
        if pair.name == name:
            return pair
    raise KeyError(
        f"unknown pair {name!r}; known: {[p.name for p in default_pairs()]}"
    )


def mutated_filter_pair() -> ImplementationPair:
    """A deliberately broken pair for mutation smoke-testing the engine.

    The candidate re-implements the FFT filter with a classic off-by-one:
    the transfer factor of the highest rfft bin is dropped (set to 1).
    The engine must catch it and shrink to a small grid.
    """
    def broken_fft(config: Config, rng: np.random.Generator):
        grid = SphericalGrid(config["nlat"], config["nlon"])
        plan = make_filter_plan(grid)
        fields = _random_fields(
            rng, config["nlat"], config["nlon"], config["nlayers"]
        )
        for pfilter, vars_ in (
            (plan.strong, plan.strong_vars),
            (plan.weak, plan.weak_vars),
        ):
            for var in vars_:
                arr = fields[var]
                for lat in pfilter.latitude_indices():
                    transfer = pfilter.transfer(int(lat)).copy()
                    transfer[-1] = 1.0  # the planted mutation
                    arr[lat] = fft_filter_line(arr[lat], transfer)
        return fields

    base = filter_convolution_vs_fft_pair()
    return ImplementationPair(
        name="mutation-smoke-filter",
        space=base.space,
        reference=base.reference,
        candidate=broken_fft,
        atol=base.atol,
        rtol=base.rtol,
        description="deliberately broken FFT filter (engine self-check)",
    )
