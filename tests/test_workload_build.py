"""The chunked conv build equals a tile-by-tile build byte for byte.

:func:`repro.scenarios.workloads.conv_workload` draws, stores and
correlates a chunk of tiles at a time.  The reference below is the
tile-by-tile builder it replaced — per tile: draw the image, draw the
kernel, store both, compute the golden model — kept here, not in
``src/``, as the definition the chunked build must reproduce: the same
HMC bytes, references, transfers, commands and store count, for every
tile count around the chunk edges, both ``draw`` generators and odd
image/kernel shapes.  A workload over the HMC capacity must raise before
it writes anything.

Verify compares uniformly strided outputs as one view of the HMC; a
wrong word, a NaN or a wrong region of a shuffled reference list must
still fail with the region-by-region diagnostics, and exact outputs must
pass without ``assert_allclose``.
"""

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.tiling import TileSchedule
from repro.kernels.conv import conv2d_commands, conv2d_f64, conv2d_reference
from repro.mem.dma import DmaTransfer
from repro.mem.hmc import Hmc, HmcConfig
from repro.mem.tcdm import TcdmConfig
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.families import CONV_DRAWS
from repro.scenarios.workloads import _DRAWS as DRAWS
from repro.scenarios.workloads import _chunk_tiles, _lattice, conv_workload

_WORD = 4


def _conv_build(hmc, num_tiles, image_shape=(12, 14), kernel=3, seed=2019, draw="lattice"):
    """The shipped chunked build of a conv scenario into ``hmc``."""
    spec = ScenarioSpec(
        name="build-conv",
        family="conv",
        params={"image_shape": image_shape, "kernel": kernel, "draw": draw},
        num_tiles=num_tiles,
        seed=seed,
    )
    return conv_workload(spec, hmc, ClusterConfig())


def test_normal_draw_is_the_standard_normal_stream():
    """``draw="normal"`` takes ``standard_normal`` cast to float32."""
    got = DRAWS["normal"](np.random.default_rng(7), (3, 5))
    want = np.random.default_rng(7).standard_normal((3, 5)).astype(np.float32)
    assert got.tobytes() == want.tobytes()


def test_unknown_draw_rejected_at_spec_time():
    """The family table names exactly the draws the builder has."""
    assert tuple(DRAWS) == CONV_DRAWS
    with pytest.raises(ValueError, match="lattice"):
        ScenarioSpec(name="x", family="conv", params={"draw": "uniform"})


def _per_tile_build(hmc, num_tiles, image_shape, kernel, num_ntx, seed, draw):
    """The tile-by-tile conv-tiled builder (tiles, references)."""
    tcdm = TcdmConfig()
    height, width = image_shape
    out_h, out_w = height - kernel + 1, width - kernel + 1
    image_bytes = height * width * _WORD
    weight_bytes = kernel * kernel * _WORD
    out_bytes = out_h * out_w * _WORD
    tcdm_image = tcdm.base_address
    tcdm_weights = tcdm_image + image_bytes
    tcdm_out = tcdm_weights + weight_bytes

    band_commands = []
    bands = min(num_ntx, out_h)
    rows_per_band = -(-out_h // bands)
    row_start = 0
    while row_start < out_h:
        band_rows = min(rows_per_band, out_h - row_start)
        band_commands.append(
            conv2d_commands(
                band_rows + kernel - 1,
                width,
                kernel,
                tcdm_image + row_start * width * _WORD,
                tcdm_weights,
                tcdm_out + row_start * out_w * _WORD,
            )[0]
        )
        row_start += band_rows

    rng = np.random.default_rng(seed)
    cursor = hmc.base
    tiles, references = [], []
    for _ in range(num_tiles):
        image = draw(rng, image_shape)
        weights = draw(rng, (kernel, kernel))
        hmc_image, cursor = cursor, cursor + image_bytes
        hmc_weights, cursor = cursor, cursor + weight_bytes
        hmc_out, cursor = cursor, cursor + out_bytes
        hmc.memory.store_array(hmc_image, image)
        hmc.memory.store_array(hmc_weights, weights)
        tiles.append(
            TileSchedule(
                transfers_in=[
                    DmaTransfer(src=hmc_image, dst=tcdm_image, row_bytes=image_bytes),
                    DmaTransfer(src=hmc_weights, dst=tcdm_weights, row_bytes=weight_bytes),
                ],
                commands=list(band_commands),
                transfers_out=[DmaTransfer(src=tcdm_out, dst=hmc_out, row_bytes=out_bytes)],
            )
        )
        references.append((hmc_out, conv2d_reference(image, weights)))
    return tiles, references


def _hmc_bytes(hmc):
    return np.frombuffer(hmc.memory.data, dtype=np.uint8)


def _assert_same_build(shape, kernel, num_tiles, draw, seed=2019):
    chunked_hmc, reference_hmc = Hmc(), Hmc()
    workload = _conv_build(chunked_hmc, num_tiles, shape, kernel, seed, draw)
    tiles, references = _per_tile_build(
        reference_hmc, num_tiles, shape, kernel, num_ntx=8, seed=seed, draw=DRAWS[draw]
    )
    assert np.array_equal(_hmc_bytes(chunked_hmc), _hmc_bytes(reference_hmc))
    assert chunked_hmc.memory.writes == reference_hmc.memory.writes == 2 * num_tiles
    assert len(workload.references) == len(references) == num_tiles
    for (address, expected), (ref_address, ref_expected) in zip(
        workload.references, references
    ):
        assert address == ref_address
        assert expected.shape == ref_expected.shape
        assert expected.dtype == ref_expected.dtype == np.float32
        assert np.array_equal(expected.view(np.uint32), ref_expected.view(np.uint32))
    assert len(workload.tiles) == num_tiles
    for tile, ref_tile in zip(workload.tiles, tiles):
        assert tile.transfers_in == ref_tile.transfers_in
        assert tile.transfers_out == ref_tile.transfers_out
        assert tile.commands == ref_tile.commands
        assert tile.placements == ref_tile.placements


SHAPES = [((48, 52), 3), ((13, 17), 5), ((9, 11), 1)]


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("shape,kernel", SHAPES, ids=["48x52k3", "13x17k5", "9x11k1"])
@pytest.mark.parametrize("where", ["none", "one", "chunk-1", "chunk", "chunk+1", "400"])
def test_chunked_build_equals_per_tile_build(draw, shape, kernel, where):
    chunk = _chunk_tiles(shape)
    num_tiles = {
        "none": 0, "one": 1, "chunk-1": chunk - 1, "chunk": chunk,
        "chunk+1": chunk + 1, "400": 400,
    }[where]
    _assert_same_build(shape, kernel, num_tiles, draw)


@pytest.mark.parametrize("seed", [0, 5, 2019])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_one_batched_draw_equals_the_per_tile_draws(seed, draw):
    """The generator contract the chunked build rests on."""
    draw = DRAWS[draw]
    shape, kernel, tiles = (48, 52), 3, 7
    rng = np.random.default_rng(seed)
    per_tile = [
        np.concatenate([draw(rng, shape).ravel(), draw(rng, (kernel, kernel)).ravel()])
        for _ in range(tiles)
    ]
    batched = draw(np.random.default_rng(seed), (tiles, shape[0] * shape[1] + kernel * kernel))
    assert np.array_equal(np.stack(per_tile).view(np.uint32), batched.view(np.uint32))


@pytest.mark.parametrize("seed", [0, 1, 5, 2019, 31337])
def test_lattice_draw_is_the_int64_formula_bit_for_bit(seed):
    """The int32 draw scaled in float32 leaves the bytes, and the stream
    after them, of ``integers(-32, 32) / 16.0`` cast to float32."""
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for shape in (1, 7, (3, 5), (48, 52), (4, 3, 3, 3), (13, 2509), 0):
        got = _lattice(new, shape)
        want = (old.integers(-32, 32, size=shape) / 16.0).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert new.integers(0, 2**62) == old.integers(0, 2**62)


def test_the_chunk_edges_are_exercised():
    assert 1 < _chunk_tiles((48, 52)) < 400
    assert _chunk_tiles((13, 17)) + 1 < 400


def test_a_workload_over_capacity_raises_before_writing():
    hmc = Hmc(HmcConfig(capacity_bytes=64 * 1024))
    shape, kernel = (12, 14), 3
    per_tile = (12 * 14 + 3 * 3 + 10 * 12) * _WORD
    fits = hmc.config.capacity_bytes // per_tile
    _conv_build(Hmc(HmcConfig(capacity_bytes=64 * 1024)), fits, shape)
    with pytest.raises(MemoryError, match="HMC capacity"):
        _conv_build(hmc, fits + 1, shape, kernel)
    assert not _hmc_bytes(hmc).any()
    assert hmc.memory.writes == 0


def _conv2d_f64_loop(image, weights):
    """One image's float64 correlation, one ``(dy, dx)`` tap at a time."""
    k_h, k_w = weights.shape
    out_h, out_w = image.shape[0] - k_h + 1, image.shape[1] - k_w + 1
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for dy in range(k_h):
        for dx in range(k_w):
            out += np.float64(weights[dy, dx]) * image[
                dy : dy + out_h, dx : dx + out_w
            ].astype(np.float64)
    return out


@pytest.mark.parametrize("shape,kernel", SHAPES + [((5, 4), 2)], ids=str)
def test_stacked_golden_model_equals_the_per_image_loop(shape, kernel):
    """Bit for bit, on data whose sums round: wide exponents, signed
    zeros, infinities and a NaN."""
    rng = np.random.default_rng(11)
    tiles = 6
    scale = np.float32(2.0) ** rng.integers(-40, 40, size=(tiles, *shape))
    images = (rng.standard_normal((tiles, *shape)) * scale).astype(np.float32)
    weights = rng.standard_normal((tiles, kernel, kernel)).astype(np.float32)
    images[0, 0, 0] = -0.0
    images[1, -1, -1] = np.inf
    weights[2, 0, 0] = np.nan
    stacked = conv2d_f64(images, weights)
    for index in range(tiles):
        expected = _conv2d_f64_loop(images[index], weights[index])
        assert np.array_equal(stacked[index].view(np.uint64), expected.view(np.uint64))
        single = conv2d_f64(images[index], weights[index])
        assert np.array_equal(single.view(np.uint64), expected.view(np.uint64))

# -- verify ----------------------------------------------------------------------


def _per_region_verify(hmc, references, rtol, atol):
    """Region-by-region verify: the diagnostics the one-view path keeps."""
    for address, expected in references:
        produced = hmc.memory.load_array(address, expected.shape)
        if not np.array_equal(produced, expected):
            np.testing.assert_allclose(produced, expected, rtol=rtol, atol=atol)


def _ran_workload(num_tiles=8):
    outcome = run_scenario(
        "conv-tiled", verify=False, num_tiles=num_tiles, num_vaults=1, clusters_per_vault=2
    )
    return outcome.simulator.hmc, outcome.workload


def _failure(check):
    with pytest.raises(AssertionError) as caught:
        check()
    return str(caught.value)


def test_exact_outputs_pass_as_one_view_without_allclose(monkeypatch):
    hmc, workload = _ran_workload()
    reads = hmc.memory.reads
    monkeypatch.setattr(
        np.testing, "assert_allclose", lambda *a, **k: pytest.fail("not short-circuited")
    )
    monkeypatch.setattr(
        hmc.memory, "load_array", lambda *a, **k: pytest.fail("read region by region")
    )
    workload.verify(hmc)
    assert hmc.memory.reads == reads + len(workload.references)


@pytest.mark.parametrize("bad", [np.float32(0.5), np.float32(np.nan)], ids=["flip", "nan"])
@pytest.mark.parametrize("order", ["strided", "shuffled"])
def test_a_wrong_output_fails_with_the_per_region_diagnostics(bad, order):
    hmc, workload = _ran_workload()
    references = list(workload.references)
    if order == "shuffled":
        references = [references[i] for i in (3, 0, 7, 1, 2, 6, 4, 5)]
        workload.references = references
    address, expected = references[5]
    word = address + 4 * (expected.size // 2)
    hmc.memory.write_f32(word, np.float32(expected.flat[expected.size // 2]) + bad)
    reads = hmc.memory.reads
    message = _failure(lambda: workload.verify(hmc))
    # Every region up to the wrong one was loaded once, as before.
    assert hmc.memory.reads - reads == 6
    assert "Not equal to tolerance" in message
    assert message == _failure(
        lambda: _per_region_verify(hmc, references, rtol=1e-6, atol=1e-7)
    )


def test_verify_keeps_its_tight_tolerance():
    """Verification passes within ``rtol=1e-6`` and fails beyond it."""
    hmc, workload = _ran_workload()
    address, expected = workload.references[2]
    value = expected.flat[0] if expected.flat[0] else np.float32(1e-6)
    hmc.memory.write_f32(address, value * np.float32(1 + 5e-7))
    workload.verify(hmc)
    hmc.memory.write_f32(address, value * np.float32(1 + 3e-6))
    assert "Not equal to tolerance" in _failure(lambda: workload.verify(hmc))
