"""Property-based tests (hypothesis) on the core invariants of the model."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agu import AddressGenerationUnit
from repro.core.commands import AguConfig, LoopConfig
from repro.core.golden import golden_address
from repro.core.hwloop import HardwareLoopNest
from repro.mem.dma import DmaEngine, DmaTransfer
from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.riscv.assembler import assemble
from repro.riscv.decoder import decode
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.compiler import BOUNDARIES, NEIGHBORHOODS, distance_classes
from repro.softfloat.ieee754 import Float32, float_to_bits
from repro.softfloat.pcs import PcsAccumulator

# ---------------------------------------------------------------------------
# IEEE-754 round trips
# ---------------------------------------------------------------------------

finite_float32_bits = st.integers(min_value=0, max_value=0xFFFFFFFF).filter(
    lambda bits: (bits >> 23) & 0xFF != 0xFF
)


@given(bits=finite_float32_bits)
def test_float32_bits_round_trip(bits):
    f = Float32(bits)
    assert float_to_bits(f.to_float()) == bits


@given(bits=finite_float32_bits)
def test_float32_field_reconstruction(bits):
    f = Float32(bits)
    value = (-1) ** f.sign * f.significand() * 2.0 ** f.unbiased_exponent()
    assert value == f.to_float()


@given(value=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_round_exact_matches_numpy(value):
    # Doubles beyond the float32 range round to inf, as the hardware does.
    with np.errstate(over="ignore"):
        expected = float(np.float32(value))
    assert Float32.round_exact(value).to_float() == expected


# ---------------------------------------------------------------------------
# PCS accumulator exactness
# ---------------------------------------------------------------------------

small_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


@given(pairs=st.lists(st.tuples(small_floats, small_floats), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_pcs_accumulator_is_correctly_rounded(pairs):
    acc = PcsAccumulator()
    reference = Fraction(0)
    for a, b in pairs:
        a32 = float(np.float32(a))
        b32 = float(np.float32(b))
        acc.fma(a32, b32)
        reference += Fraction(a32) * Fraction(b32)
    expected = float(np.float32(float(reference))) if reference != 0 else 0.0
    got = acc.to_float()
    if reference == 0:
        assert got == 0.0
    else:
        # Correct rounding of the exact sum: at most one representable value
        # apart only when the binary64 conversion of the reference itself is
        # the rounding boundary; in practice they must be equal.
        assert got == expected


@given(values=st.lists(small_floats, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_pcs_accumulation_order_invariance(values):
    forward = PcsAccumulator()
    backward = PcsAccumulator()
    for v in values:
        forward.fma(float(np.float32(v)), 1.0)
    for v in reversed(values):
        backward.fma(float(np.float32(v)), 1.0)
    assert forward.to_float() == backward.to_float()


# ---------------------------------------------------------------------------
# Hardware loops and address generation vs the closed-form oracle
# ---------------------------------------------------------------------------

loop_counts = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)
strides = st.lists(st.integers(min_value=-64, max_value=64), min_size=5, max_size=5)


@given(counts=loop_counts, stride_values=strides, base=st.integers(0, 1 << 16))
@settings(max_examples=80, deadline=None)
def test_agu_walk_matches_closed_form(counts, stride_values, base):
    loops = LoopConfig.nest(*counts)
    agu_config = AguConfig(base=base, strides=tuple(s * 4 for s in stride_values))
    nest = HardwareLoopNest(loops)
    agu = AddressGenerationUnit(agu_config)
    for t, step in enumerate(nest):
        assert agu.address == golden_address(agu_config, loops.enabled_counts, t)
        agu.advance(step.wrap_level)


@given(counts=loop_counts)
@settings(max_examples=60, deadline=None)
def test_hwloop_visits_every_index_exactly_once(counts):
    loops = LoopConfig.nest(*counts)
    nest = HardwareLoopNest(loops)
    seen = [step.indices for step in nest]
    assert len(seen) == loops.total_iterations
    assert len(set(seen)) == loops.total_iterations


@given(counts=loop_counts)
@settings(max_examples=60, deadline=None)
def test_hwloop_wrap_level_consistency(counts):
    loops = LoopConfig.nest(*counts)
    products = [1]
    for c in loops.enabled_counts:
        products.append(products[-1] * c)
    for t, step in enumerate(HardwareLoopNest(loops)):
        expected_level = 0
        for level in range(1, len(products)):
            if (t + 1) % products[level] == 0:
                expected_level = level
        assert step.wrap_level == expected_level


# ---------------------------------------------------------------------------
# TCDM bank mapping and DMA copies
# ---------------------------------------------------------------------------


@given(word_index=st.integers(min_value=0, max_value=16383))
def test_tcdm_bank_mapping_is_word_interleaved(word_index):
    tcdm = Tcdm()
    address = tcdm.base + 4 * word_index
    assert tcdm.bank_of(address) == word_index % 32
    assert tcdm.contains(address, 4)


@given(
    rows=st.integers(min_value=1, max_value=5),
    row_bytes=st.integers(min_value=1, max_value=64),
    src_pitch_extra=st.integers(min_value=0, max_value=16),
    dst_pitch_extra=st.integers(min_value=0, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_dma_2d_transfer_preserves_every_row(rows, row_bytes, src_pitch_extra, dst_pitch_extra, seed):
    rng = np.random.default_rng(seed)
    src = Memory(8192, name="src")
    dst = Memory(8192, name="dst")
    src_pitch = row_bytes + src_pitch_extra
    dst_pitch = row_bytes + dst_pitch_extra
    payloads = []
    for row in range(rows):
        payload = rng.integers(0, 256, row_bytes, dtype=np.uint8).tobytes()
        payloads.append(payload)
        src.write_bytes(row * src_pitch, payload)
    transfer = DmaTransfer(
        src=0, dst=256, row_bytes=row_bytes, rows=rows,
        src_pitch=src_pitch, dst_pitch=dst_pitch,
    )
    DmaEngine().execute(transfer, src, dst)
    for row, payload in enumerate(payloads):
        assert dst.read_bytes(256 + row * dst_pitch, row_bytes) == payload


# ---------------------------------------------------------------------------
# Assembler / decoder agreement
# ---------------------------------------------------------------------------

_REGS = ["x0", "ra", "sp", "a0", "a1", "t0", "t3", "s1", "s11", "t6"]


@given(
    rd=st.sampled_from(_REGS),
    rs1=st.sampled_from(_REGS),
    rs2=st.sampled_from(_REGS),
    mnemonic=st.sampled_from(["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu", "mul", "div"]),
)
def test_r_type_round_trip(rd, rs1, rs2, mnemonic):
    from repro.riscv.registers import reg_index

    word = assemble(f"{mnemonic} {rd}, {rs1}, {rs2}").words[0]
    inst = decode(word)
    assert inst.mnemonic == mnemonic
    assert inst.rd == reg_index(rd)
    assert inst.rs1 == reg_index(rs1)
    assert inst.rs2 == reg_index(rs2)


@given(
    rd=st.sampled_from(_REGS),
    rs1=st.sampled_from(_REGS),
    imm=st.integers(min_value=-2048, max_value=2047),
    mnemonic=st.sampled_from(["addi", "andi", "ori", "xori", "slti"]),
)
def test_i_type_round_trip(rd, rs1, imm, mnemonic):
    word = assemble(f"{mnemonic} {rd}, {rs1}, {imm}").words[0]
    inst = decode(word)
    assert inst.mnemonic == mnemonic
    assert inst.imm == imm


@given(offset=st.integers(min_value=-512, max_value=511))
def test_load_store_offset_round_trip(offset):
    lw = decode(assemble(f"lw a0, {offset}(sp)").words[0])
    sw = decode(assemble(f"sw a0, {offset}(sp)").words[0])
    assert lw.imm == offset
    assert sw.imm == offset


@given(value=st.integers(min_value=-(2**31), max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_li_loads_arbitrary_constants(value):
    from repro.riscv.cpu import Cpu, CpuConfig
    from tests.test_riscv import _RamBus

    bus = _RamBus()
    program = assemble(f"li a0, {value}\necall")
    bus.mem.write_bytes(0, program.to_bytes())
    cpu = Cpu(bus, config=CpuConfig(reset_pc=0))
    cpu.run()
    assert cpu.exit_code == value


# ---------------------------------------------------------------------------
# Compiled-scenario fuzzing: random declarative stencils to parity
# ---------------------------------------------------------------------------
#
# Every draw is a full end-to-end property: a random (neighborhood, radius,
# coefficients, grid shape, boundary) tuple must compile, run on BOTH cycle
# engines, match the auto-derived golden *bitwise*, and leave bit-identical
# HMC contents across the engines.  Numpy-seeded draws (not hypothesis) so
# the quick tier runs a guaranteed, reproducible 25 specs.


def _draw_stencil_params(rng: np.random.Generator, deep: bool) -> dict:
    """One random declarative stencil, sized for its test tier."""
    dims = int(rng.integers(2, 4))
    neighborhood = NEIGHBORHOODS[int(rng.integers(len(NEIGHBORHOODS)))]
    if dims == 3:
        radius = int(rng.integers(1, 3)) if deep else 1
        span = 4 if deep else 3
    else:
        radius = int(rng.integers(1, 3))
        span = 8 if deep else 5
    low = 2 * radius + 1  # smallest grid a 'valid' output fits on
    grid_shape = tuple(int(n) for n in rng.integers(low, low + span, size=dims))
    boundary = BOUNDARIES[int(rng.integers(len(BOUNDARIES)))]
    if rng.integers(2):
        coefficients = "auto"
    else:
        classes = distance_classes(neighborhood, radius, dims)
        # Multiples of 1/256 in [-1/4, 1/4]: already on the coefficient
        # lattice, so quantization is the identity and products stay exact.
        coefficients = tuple(
            float(k) / 256.0 for k in rng.integers(-64, 65, size=classes)
        )
    return {
        "neighborhood": neighborhood,
        "radius": radius,
        "coefficients": coefficients,
        "grid_shape": grid_shape,
        "boundary": boundary,
    }


def _assert_compiled_spec_runs_to_parity(seed: int, deep: bool = False) -> None:
    params = _draw_stencil_params(np.random.default_rng(seed), deep)
    spec = ScenarioSpec(
        name=f"fuzz-cstencil-{seed}",
        family="cstencil",
        params=params,
        num_tiles=1,
        seed=seed,
        num_vaults=1,
        clusters_per_vault=1,
        stagger_cycles=0,
    )
    hmc_bytes = {}
    for engine in ("scalar", "vectorized"):
        outcome = run_scenario(spec, verify=False, engine=engine)
        for produced, (_, expected) in zip(
            outcome.output_arrays(), outcome.workload.references
        ):
            assert produced.tobytes() == expected.tobytes(), (engine, params)
        hmc_bytes[engine] = bytes(outcome.simulator.hmc.memory.data)
    assert hmc_bytes["scalar"] == hmc_bytes["vectorized"], params


@pytest.mark.parametrize("seed", range(25))
def test_fuzzed_compiled_stencil_is_bit_exact_on_both_engines(seed):
    _assert_compiled_spec_runs_to_parity(1000 + seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(60))
def test_fuzzed_compiled_stencil_deep_sweep(seed):
    """Larger grids, 3D radius 2: the full-depth version of the fuzz."""
    _assert_compiled_spec_runs_to_parity(20_000 + seed, deep=True)
