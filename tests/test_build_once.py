"""A scenario run pays once per workload, and its bytes do not move.

* **Pinned bytes.**  Every registered scenario, at its registered size,
  leaves the same HMC contents, the same golden references and the same
  makespan as the tile-by-tile builders did (sha256 digests recorded
  before the builders shared their programs).  A builder and its golden
  model drifting together would still verify; these pins would not.
* **One program per workload.**  Every tile of a registered workload
  carries the same :class:`~repro.cluster.tiling.TileProgram` object, so
  everything derived from it is derived once per workload.
* **Stacked goldens.**  The 3D stencil, compiled 2D stencil and ``dnn``
  goldens run as stacked :func:`~repro.kernels.conv.conv2d_f64` calls,
  and the ``pipeline`` golden chains its stages over a stack of tiles
  padded once; they must equal the per-plane, per-tile and per-channel
  loops kept below bit for bit, on lattice and on standard normal float32
  data.
* **Only the hardware a run steps.**  A vectorized-engine run builds no
  NTX register file, FPU datapath or L2; either engine still leaves the
  per-NTX statistics recorded before those became lazy.
"""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest

from repro.cluster import timing_core
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core import fpu as fpu_module
from repro.core import registers as registers_module
from repro.kernels.conv import conv2d_commands, conv2d_f64, conv2d_reference, conv3d_reference
from repro.mem import memory as memory_module
from repro.mem.hmc import Hmc
from repro.options import ExecutionOptions
from repro.scenarios import get_scenario, registered_scenarios, run_scenario
from repro.scenarios.compiler import StencilSpec
from repro.scenarios.workloads import build_workload, dnn_step_reference
from repro.cluster.tiling import program_facts

# --------------------------------------------------------------------------- #
# Pinned bytes                                                                #
# --------------------------------------------------------------------------- #

#: name -> (sha256 of the whole HMC after the run, sha256 of the reference
#: arrays as float32 bytes concatenated in reference order, makespan).
PINS = {
    "conv-tiled": (
        "311b81975e24b3c727fcab53e126dc2cb72465f95f5c9a26ce026496e5131e78",
        "822eb87405b6e9c32348c46b62054dc5c413f68fffac513f00fe56bcba809313",
        892.0,
    ),
    "matmul-tiled": (
        "b7e55162aecc680dd43553e32d89bdd8963d253f0928c0de93b49db83dd4e1d1",
        "a818ccf32ac8804d23e5457763e7a6bb56a3caf13d97e72c31ab5b588b30d1d2",
        872.0,
    ),
    "stencil-laplace2d": (
        "a998d472726d4e388489326c7727365549c2b0d6656c057b614af18d653d8857",
        "1f3a0c533e81dba298805badf18e2bb643d2ca69409a56f6dfa88a68d46541e1",
        1004.0,
    ),
    "dnn-training-step": (
        "93e5b702c1a2c61e459e0fc93f5b8181596ea5029d42b6e854a0e579efc7d300",
        "9e705172fbd81bfd2243c700ad6313f164ee9749a90f19d0403cf7e92c592d68",
        2399.0,
    ),
    "opcode-stream": (
        "f703ae5ef178dec588c2b952f0cb65bc525c36b5b5cd17656f64a11ee22c555b",
        "0af2122cad46af91ad0e304ee42f0833ca2955255a71d0a6df3a9df1045aa515",
        4050.0,
    ),
    "cstencil-laplace27": (
        "6dce3d938c163a7d0997ab9273d40b6334520c3e95b03e11385672bc8afec4fa",
        "396354aee6fb705a6b1f6fa66584a644c07dcee7c9eeeab1272359c1dd1406a1",
        1901.0,
    ),
    "cstencil-heat3d": (
        "c6429ec4c97c90dc8580daf1cbebe5acfbb001542bb72a5fa793672e8737fb2e",
        "a9ac4201ae24dd2c522ee234eea25072fcf7ae0aaed2ce0aa96f87bb50c5ec0a",
        3886.0,
    ),
    "cstencil-gauss-blur": (
        "3d0085aaf0e62140c0bcf1f39fbe97b99e56c28fa2469faf8755cbab534f468d",
        "60a6340875422ed04b5c2ed6e7275a675e13a367559f4de377084df7529ae64e",
        7523.0,
    ),
    "cstencil-bilateral": (
        "d4f4e3e58dbc0830743582ebf4b978417d4cbe9075dc120b472e7f35be4118cf",
        "de425fd958243bd5330c16728303552a171c8bf97de6045cba7c871f4e083784",
        2484.0,
    ),
    "cstencil-laplace2d-vn": (
        "6aab76e4b31e8dc4d70c996090d9c3585294a72db22957f26f116a0486d5201d",
        "1f3a0c533e81dba298805badf18e2bb643d2ca69409a56f6dfa88a68d46541e1",
        1079.0,
    ),
    "pipeline-blur-stencil-reduce": (
        "f08962810b18d1f647c19d2ca4f5bba775b070f43682ea494ffbc4cf52561955",
        "dbd45509eb73142d9eb71302bc55ea8d892b9906f2313b6dcd6378c5d8cf6110",
        2794.0,
    ),
}


def _references_digest(references):
    digest = hashlib.sha256()
    for _, expected in references:
        digest.update(np.ascontiguousarray(expected, dtype=np.float32).tobytes())
    return digest.hexdigest()


def test_every_registered_scenario_is_pinned():
    assert sorted(PINS) == sorted(registered_scenarios())


@pytest.mark.parametrize("name", sorted(PINS))
def test_hmc_references_and_makespan_are_pinned(name):
    outcome = run_scenario(name)
    hmc_digest, references_digest, makespan = PINS[name]
    assert _references_digest(outcome.workload.references) == references_digest
    assert hashlib.sha256(outcome.simulator.hmc.memory.data).hexdigest() == hmc_digest
    assert outcome.result.makespan_cycles == makespan


# --------------------------------------------------------------------------- #
# One program per workload                                                    #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", registered_scenarios())
def test_tiles_share_one_program(name):
    spec = get_scenario(name)
    tiles = build_workload(spec, Hmc(spec.system_config().hmc)).tiles
    assert len(tiles) == spec.num_tiles > 1
    first = tiles[0]
    for tile in tiles[1:]:
        assert tile.program is first.program
        assert tile.hmc_in != first.hmc_in or tile.hmc_out != first.hmc_out

    calls = []
    derived = program_facts(tiles, object(), lambda program: calls.append(program) or len(calls))
    assert set(derived) == {1}
    assert calls == [first.program]


# --------------------------------------------------------------------------- #
# Stacked goldens                                                             #
# --------------------------------------------------------------------------- #

DRAWS = {
    "lattice": lambda rng, shape: (rng.integers(-32, 32, size=shape) / 16.0).astype(
        np.float32
    ),
    "normal": lambda rng, shape: rng.standard_normal(shape).astype(np.float32),
}


def _conv3d_per_plane(volume, weights):
    """The per-plane loop the stacked 3D golden replaced."""
    depth, k = volume.shape[0], weights.shape[0]
    planes = []
    for z in range(depth - k + 1):
        acc = conv2d_f64(volume[z], weights[0]).astype(np.float32)
        for dz in range(1, k):
            acc = (
                acc.astype(np.float64) + conv2d_f64(volume[z + dz], weights[dz])
            ).astype(np.float32)
        planes.append(acc)
    return np.stack(planes)


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("shape, k", [((5, 6, 7), 3), ((7, 9, 8), 5), ((3, 4, 4), 3)])
def test_conv3d_reference_equals_the_per_plane_loop(draw, shape, k):
    rng = np.random.default_rng(11)
    volumes = DRAWS[draw](rng, (3, *shape))
    weights = DRAWS[draw](rng, (k, k, k))
    stacked = conv3d_reference(volumes, weights)
    for volume, got in zip(volumes, stacked):
        want = _conv3d_per_plane(volume, weights)
        assert got.tobytes() == want.tobytes()
        assert conv3d_reference(volume, weights).tobytes() == want.tobytes()


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize(
    "params",
    [
        {"neighborhood": "moore", "radius": 2, "grid_shape": (9, 11), "boundary": "edge"},
        {"neighborhood": "von_neumann", "radius": 1, "grid_shape": (6, 7)},
        {"neighborhood": "moore", "radius": 1, "grid_shape": (6, 5), "boundary": "constant"},
        {"neighborhood": "moore", "radius": 1, "grid_shape": (5, 6, 4), "boundary": "wrap"},
    ],
)
def test_stencil_reference_over_tiles_equals_the_per_tile_calls(draw, params):
    spec = StencilSpec(**params)
    grids = DRAWS[draw](np.random.default_rng(3), (4, *spec.grid_shape))
    stacked = spec.reference(grids)
    assert np.array_equal(spec.pad(grids)[1], spec.pad(grids[1]))
    # The builder's path: the stack padded once, checked as staged.
    assert spec.staged_reference(spec.pad(grids)).tobytes() == stacked.tobytes()
    for grid, got in zip(grids, stacked):
        staged = spec.pad(grid)
        if spec.dims == 2:
            want = conv2d_f64(staged, spec.dense_kernel()).astype(np.float32)
        else:
            want = _conv3d_per_plane(staged, spec.dense_kernel())
        assert got.tobytes() == want.tobytes()


def _pipeline_per_tile(pipe, grid):
    """The per-tile chain the stacked ``pipeline`` golden replaced: every
    stencil stage pads its own input, a reduction flattens it."""
    value = np.asarray(grid, dtype=np.float32)
    for stage in pipe.stages:
        if isinstance(stage, StencilSpec):
            value = stage.reference(value)
            continue
        flat = value.ravel()
        if stage.op == "sum":
            value = np.array([flat.astype(np.float64).sum()], dtype=np.float32)
        elif stage.op == "max":
            value = np.array([flat.max()], dtype=np.float32)
        else:
            value = np.array([flat.min()], dtype=np.float32)
    return value


def _stencil_stage(**fields):
    return {"kind": "stencil", "neighborhood": "moore", "radius": 1, **fields}


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize(
    "grid_shape, stages",
    [
        ((12, 12), ({"kind": "stencil", "neighborhood": "von_neumann"}, {"kind": "reduce"})),
        (
            (9, 11),
            (_stencil_stage(boundary="edge"), _stencil_stage(), {"kind": "reduce", "op": "max"}),
        ),
        ((7, 8, 6), (_stencil_stage(boundary="wrap"), {"kind": "reduce", "op": "min"})),
        ((10, 9), (_stencil_stage(radius=2, boundary="constant"), _stencil_stage())),
        ((33, 65), ({"kind": "reduce", "op": "sum"},)),
    ],
)
def test_pipeline_golden_over_tiles_equals_the_per_tile_chain(draw, grid_shape, stages):
    from repro.scenarios.compiler import PipelineSpec

    pipe = PipelineSpec.from_params({"grid_shape": grid_shape, "stages": stages})
    grids = DRAWS[draw](np.random.default_rng(5), (5, *grid_shape))
    first = pipe.stages[0]
    staged = first.pad(grids) if isinstance(first, StencilSpec) else grids
    stacked = pipe.staged_reference(staged)
    assert stacked.shape == (5, *pipe.output_shape)
    for grid, got in zip(grids, stacked):
        want = _pipeline_per_tile(pipe, grid)
        assert got.tobytes() == want.tobytes()
        assert pipe.reference(grid).tobytes() == want.tobytes()


def test_dense_kernel_is_computed_once_and_read_only():
    spec = StencilSpec(neighborhood="moore", radius=1, grid_shape=(4, 4, 4))
    kernel = spec.dense_kernel()
    assert spec.dense_kernel() is kernel
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0, 0] = 1.0


def _dnn_golden_per_channel(image, weights, target, lr):
    """The per-tile, per-channel loop the stacked ``dnn`` golden replaced."""
    out_channels, in_channels = weights.shape[:2]
    out_size = target.shape[-1]
    grad_ref = np.empty((out_channels, out_size, out_size), dtype=np.float32)
    w_new = np.empty_like(weights)
    for co in range(out_channels):
        out_co = conv2d_reference(image[0], weights[co, 0])
        for ci in range(1, in_channels):
            out_co = (
                out_co.astype(np.float64) + conv2d_f64(image[ci], weights[co, ci])
            ).astype(np.float32)
        grad_ref[co] = (
            out_co.astype(np.float64) - target[co].astype(np.float64)
        ).astype(np.float32)
        for ci in range(in_channels):
            dw = conv2d_reference(image[ci], grad_ref[co])
            w_new[co, ci] = (
                weights[co, ci].astype(np.float64) - np.float64(lr) * dw.astype(np.float64)
            ).astype(np.float32)
    return w_new, grad_ref


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize(
    "tiles, in_channels, out_channels, size, kernel, lr",
    [(4, 2, 3, 8, 3, 0.0625), (2, 3, 2, 9, 2, 0.125), (1, 1, 4, 6, 3, 0.5)],
)
def test_dnn_golden_equals_the_per_channel_loop(
    draw, tiles, in_channels, out_channels, size, kernel, lr
):
    out_size = size - kernel + 1
    rng = np.random.default_rng(29)
    images = DRAWS[draw](rng, (tiles, in_channels, size, size))
    weights = DRAWS[draw](rng, (tiles, out_channels, in_channels, kernel, kernel))
    targets = DRAWS[draw](rng, (tiles, out_channels, out_size, out_size))
    new_weights, grads = dnn_step_reference(images, weights, targets, lr)
    for index in range(tiles):
        want_w, want_grad = _dnn_golden_per_channel(
            images[index], weights[index], targets[index], lr
        )
        assert new_weights[index].tobytes() == want_w.tobytes()
        assert grads[index].tobytes() == want_grad.tobytes()


# --------------------------------------------------------------------------- #
# Only the hardware a run steps                                               #
# --------------------------------------------------------------------------- #

#: name -> (sha256[:16] of the JSON list, over every cluster and NTX, of
#: ``[*astuple(ntx.stats), *astuple(ntx.fpu_stats)]``; each cluster's
#: ``total_flops_executed``) after a 2-tile run.  Both engines leave these.
STATS = {
    "conv-tiled": ("0b6e5007d2997f98", [2160, 2160, 0, 0, 0, 0, 0, 0]),
    "matmul-tiled": ("3835cfe60556bf0a", [1920, 1920, 0, 0, 0, 0, 0, 0]),
    "stencil-laplace2d": ("cdcdc119dba704ed", [960, 960, 0, 0, 0, 0, 0, 0]),
    "dnn-training-step": ("730b9fb6eeed127d", [10656, 10656, 0, 0, 0, 0, 0, 0]),
    "opcode-stream": ("dff34e1260e505c1", [2048]),
    "cstencil-laplace27": ("847a36d31720abfe", [7776, 7776, 0, 0, 0, 0, 0, 0]),
    "cstencil-heat3d": ("1727cc7cb12b56f1", [20736, 20736, 0, 0, 0, 0, 0, 0]),
    "cstencil-gauss-blur": ("f478671ab021f876", [12800, 12800, 0, 0, 0, 0, 0, 0]),
    "cstencil-bilateral": ("31f565a2688b0c0f", [3528, 3528, 0, 0, 0, 0, 0, 0]),
    "cstencil-laplace2d-vn": ("2aeac940037a1840", [1440, 1440, 0, 0, 0, 0, 0, 0]),
    "pipeline-blur-stencil-reduce": ("a2735c0ab7b9eec3", [4592, 4592, 0, 0, 0, 0, 0, 0]),
}


@pytest.fixture
def constructions(monkeypatch):
    """Counts of NTX register files, FPUs and L2 memories built."""
    counts = {"regs": 0, "fpu": 0, "l2": 0}

    def counting(cls, key, when=lambda *args, **kwargs: True):
        original = cls.__init__

        def init(self, *args, **kwargs):
            if when(*args, **kwargs):
                counts[key] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    counting(registers_module.NtxRegisterFile, "regs")
    counting(fpu_module.NtxFpu, "fpu")
    counting(memory_module.Memory, "l2", lambda *args, **kwargs: kwargs.get("name") == "l2")
    return counts


@pytest.mark.parametrize("name", registered_scenarios())
def test_a_vectorized_run_builds_no_register_file_fpu_or_l2(name, constructions):
    outcome = run_scenario(name, options=ExecutionOptions(engine="vectorized"))
    assert outcome.verified
    assert constructions["regs"] == constructions["l2"] == 0
    if timing_core.mac_kernel() is not None:
        assert constructions["fpu"] == 0
    else:  # without the compiled MAC kernel, MACs walk the FPU per op
        num_ntx = sum(len(cluster.ntx) for cluster in outcome.simulator.clusters)
        assert constructions["fpu"] <= num_ntx


def test_the_scalar_engine_builds_no_fpu(constructions):
    """The scalar engine times addresses only and leaves the data to the
    data plane, so, like the vectorized engine, it builds no FPU."""
    outcome = run_scenario(
        "opcode-stream", num_tiles=1, options=ExecutionOptions(engine="scalar")
    )
    assert outcome.verified
    assert constructions["regs"] == constructions["l2"] == 0
    if timing_core.mac_kernel() is not None:
        assert constructions["fpu"] == 0
        assert all(ntx._fpu is None for ntx in outcome.simulator.clusters[0].ntx)


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
@pytest.mark.parametrize("name", registered_scenarios())
def test_per_ntx_statistics_are_unchanged(engine, name):
    outcome = run_scenario(name, num_tiles=2, options=ExecutionOptions(engine=engine))
    clusters = outcome.simulator.clusters
    table = [
        [*astuple(ntx.stats), *astuple(ntx.fpu_stats)]
        for cluster in clusters
        for ntx in cluster.ntx
    ]
    digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()[:16]
    assert (digest, [c.total_flops_executed for c in clusters]) == (
        STATS[name][0],
        STATS[name][1],
    )


def test_the_functional_offload_builds_what_it_uses_once():
    cluster = Cluster(ClusterConfig(num_ntx=2))
    assert "ntx_regs" not in vars(cluster) and "l2" not in vars(cluster)
    regs = cluster.ntx_regs
    assert len(regs) == 2 and cluster.ntx_regs is regs
    assert cluster.l2 is cluster.l2

    image = np.arange(16, dtype=np.float32).reshape(4, 4)
    weights = np.ones((3, 3), dtype=np.float32)
    base = cluster.tcdm.base
    cluster.stage_in(base, image)
    cluster.stage_in(base + image.nbytes, weights)
    (command,) = conv2d_commands(4, 4, 3, base, base + image.nbytes, base + 100 * 4)
    cluster.offload(command, ntx_id=1)
    assert np.array_equal(
        cluster.stage_out(base + 100 * 4, (2, 2)), conv2d_reference(image, weights)
    )
    ntx = cluster.ntx[1]
    assert ntx.fpu.stats is ntx.fpu_stats and ntx.fpu_stats.macs == 36
    assert cluster.ntx[0]._fpu is None
    assert cluster.ntx_regs is regs
