"""The data plane's one mode against the per-op walk.

Both engines replay through the shared data plane
(:func:`repro.cluster.vecsim.run_data_plane`): MACs in the compiled
kernel — a double-double lane certified per tile by TwoSum residuals, and
an exact superaccumulator lane for every tile the certificate does not
cover and for every non-default accumulator geometry — and the other opcodes as
array formulas.  Every store must be bit-identical to the per-op
soft-float walk (:func:`~repro.core.vecops.execute_functional`) on every
input, with no fallback.  These tests check that against the walk — TCDM
bytes (NaN payloads included), bank accesses, memory read/write counts
and ``FpuStats`` — for both engines, over MAC commands of every init
source, store level and stack height (1, 2, 37 and 400 tiles, a few
poisoned lanes among lattice lanes), over narrow accumulators that
saturate or truncate, over the data classes that defeat the certificate
(normal, wide exponents, subnormals, signed zeros, near ``FLT_MAX``,
``±inf`` and NaN payloads), and over the non-MAC opcodes with NaN and
signed-zero inputs.
"""

import shutil
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sim import ClusterSimulator
from repro.core.commands import AguConfig, InitSource, LoopConfig, NtxCommand, NtxOpcode
from repro.core.ntx import STAT_COLUMNS, NtxConfig
from repro.core.vecops import command_plan, execute_functional
from repro.softfloat.pcs import PcsConfig

ENGINES = ("scalar", "vectorized")

#: Without a C compiler every MAC walks per op by design, counted as
#: ``no_compiler`` with the walk's bytes: the fallback checks leave that
#: reason out on such a host and still see every other.
_NO_COMPILER = () if shutil.which("cc") else ("no_compiler",)

_FLT_MAX = float(np.finfo(np.float32).max)
#: NaN bit patterns: quiet and signalling, both signs, with payloads.
_NAN_BITS = np.array(
    [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF812345, 0x7FC12345, 0x7FA00000],
    dtype=np.uint32,
)

#: Accumulator geometries: the exact default, one that saturates at 2**2
#: and one that truncates product bits below 2**-150.
PCS_CONFIGS = {
    "default": None,
    "saturating": PcsConfig(width=300),
    "truncating": PcsConfig(lsb_exponent=-150, width=300),
}


def _lattice(rng, n):
    return rng.integers(-64, 64, size=n) / 16.0


def _normal(rng, n):
    return rng.standard_normal(n)


def _wide(rng, n):
    return rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, size=n))


def _subnormal(rng, n):
    # Products of two subnormals reach 2**-298.
    return rng.integers(-8, 8, size=n) * np.exp2(rng.integers(-149, -120, size=n))


def _zeros(rng, n):
    values = rng.choice([0.0, -0.0, 1.0, -0.5], size=n)
    return np.where(rng.random(n) < 0.6, np.copysign(0.0, rng.random(n) - 0.5), values)


def _near_max(rng, n):
    return rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.0, size=n) * _FLT_MAX


def _infinite(rng, n):
    return rng.choice([-np.inf, np.inf], size=n)


def _nan(rng, n):
    return rng.choice(_NAN_BITS, size=n).view(np.float32)


def _nonfinite(rng, n):
    values = _lattice(rng, n).astype(np.float32)
    special = rng.random(n)
    values[special < 0.15] = np.inf
    values[(special >= 0.15) & (special < 0.3)] = -np.inf
    nan = special >= 0.85
    values[nan] = _nan(rng, int(nan.sum()))
    return values


DATA_CLASSES = {
    "lattice": _lattice,
    "normal": _normal,
    "wide": _wide,
    "subnormal": _subnormal,
    "zeros": _zeros,
    "near_max": _near_max,
    "nonfinite": _nonfinite,
}

#: What a poisoned lane of a stack holds in some of its words.
POISONS = {
    "nan": _nan,
    "inf": _infinite,
    "subnormal": _subnormal,
    "zeros": _zeros,
    "wide": _wide,
    "near_max": _near_max,
}


def _draw(data_class, rng, n, classes=DATA_CLASSES):
    """``n`` float32 words of ``data_class``."""
    with np.errstate(over="ignore"):
        return np.asarray(classes[data_class](rng, n)).astype(np.float32)


def _command(opcode, counts, init_level, store_level, init_source, base):
    """A three-level nest streaming two disjoint regions and storing to a
    third through AGU2, which also serves the AGU2 init reads."""
    total = int(np.prod(counts))
    contiguous = (4, 4, 4, 0, 0)
    stores = tuple(0 if level < store_level else 4 for level in range(3)) + (0, 0)
    return NtxCommand(
        opcode=opcode,
        loops=LoopConfig.nest(*counts),
        agu0=AguConfig(base=base, strides=contiguous),
        agu1=AguConfig(base=base + 4 * total, strides=contiguous),
        agu2=AguConfig(base=base + 8 * total, strides=stores),
        init_level=init_level,
        store_level=store_level,
        init_source=init_source,
        scalar=0.25,
    )


def _fallbacks():
    """``repro_dataplane_fallbacks_total`` by reason (metrics switched on)."""
    from repro.obs import metrics

    metrics.set_metrics_enabled(True)
    counter = metrics.REGISTRY.get("repro_dataplane_fallbacks_total")

    def by_reason():
        return {
            reason: value
            for _, pairs, value in counter.samples()
            if (reason := dict(pairs)["reason"]) not in _NO_COMPILER
        }

    return by_reason


def _config(pcs):
    return None if pcs is None else ClusterConfig(ntx=NtxConfig(pcs=pcs))


def _loaded(words, config=None):
    """A cluster whose TCDM starts as ``words``."""
    cluster = Cluster(config)
    np.frombuffer(cluster.tcdm.memory.data, dtype=np.float32)[: len(words)] = words
    return cluster


def _replay(engine, command, words, config=None):
    """``command`` through ``engine``'s data plane on a cluster whose TCDM
    starts as ``words``: the scalar engine's timing-cache hit path, the
    vectorized engine's cycle run."""
    cluster = _loaded(words, config)
    simulator = ClusterSimulator(cluster, engine=engine)
    if engine == "scalar":
        simulator.run_data_plane([(0, command)])
    else:
        simulator.run([(0, command)])
    return cluster


def _walk(command, words, config=None):
    """The per-op soft-float walk of ``command``."""
    cluster = _loaded(words, config)
    execute_functional(cluster.fpu, command, cluster.tcdm)
    _credit_the_walk(cluster)
    return cluster


#: The first FPU column of ``Cluster.ntx_stats``.
_FPU = STAT_COLUMNS.index("issues")


def _credit_the_walk(cluster):
    """Credit NTX 0 of ``cluster`` the FPU counters its walks counted."""
    cluster.ntx_stats[0, _FPU:] = astuple(cluster.fpu.stats)


def _assert_same_effects(got, ref):
    """TCDM bytes, access counters and the FPU statistics credited to
    NTX 0 all agree."""
    assert bytes(got.tcdm.memory.data) == bytes(ref.tcdm.memory.data)
    assert np.array_equal(got.tcdm.bank_accesses, ref.tcdm.bank_accesses)
    assert (got.tcdm.memory.reads, got.tcdm.memory.writes) == (
        ref.tcdm.memory.reads, ref.tcdm.memory.writes
    )
    assert got.ntx_stats[0, _FPU:].tolist() == ref.ntx_stats[0, _FPU:].tolist()


def _assert_both_engines_match_the_walk(command, words, config=None):
    ref = _walk(command, words, config)
    for engine in ENGINES:
        _assert_same_effects(_replay(engine, command, words, config), ref)
    return ref


def _assert_stack_matches_the_walk(command, stack, config=None):
    """Both engines' stacked replay of ``stack`` against the per-op walk of
    each tile's column, loaded in turn into one reference TCDM, whose
    counters sum over the tiles."""
    expected = stack.copy()
    ref = Cluster(config)
    base = ref.tcdm.base
    image = np.frombuffer(ref.tcdm.memory.data, dtype=np.float32)[: len(stack)]
    for column in expected.T:
        image[:] = column
        execute_functional(ref.fpu, command, ref.tcdm)
        column[:] = image
    for engine in ENGINES:
        got = Cluster(config)
        replayed = stack.copy()
        ClusterSimulator(got, engine=engine).run_data_plane([(0, command)], replayed, base)
        assert np.array_equal(replayed.view(np.uint32), expected.view(np.uint32)), engine
        assert np.array_equal(got.tcdm.bank_accesses, ref.tcdm.bank_accesses)
        assert (got.tcdm.memory.reads, got.tcdm.memory.writes) == (
            ref.tcdm.memory.reads, ref.tcdm.memory.writes
        )
        assert got.ntx_stats[0, _FPU:].tolist() == list(astuple(ref.fpu.stats))
    return expected


def _poisoned_stack(rng, words, tiles):
    """Lattice lanes, with a few lanes holding poison in some of their
    words (lane 0 always, so a stack of one is poisoned too)."""
    stack = _draw("lattice", rng, words * tiles).reshape(words, tiles)
    lanes = {0} | set(rng.choice(tiles, size=min(4, tiles), replace=False).tolist())
    for number, lane in enumerate(sorted(lanes)):
        kind = sorted(POISONS)[(number + int(rng.integers(len(POISONS)))) % len(POISONS)]
        hit = rng.random(words) < 0.3
        stack[hit, lane] = _draw(kind, rng, int(hit.sum()), POISONS)
    return stack


@pytest.mark.parametrize("pcs", list(PCS_CONFIGS), ids=list(PCS_CONFIGS))
@pytest.mark.parametrize("store_level", [0, 1, 2])
@pytest.mark.parametrize("init_source", [InitSource.ZERO, InitSource.AGU2])
@pytest.mark.parametrize("tiles", [1, 2, 37, 400])
def test_stacked_mac_with_poisoned_lanes_matches_the_walk(tiles, init_source, store_level, pcs):
    by_reason = _fallbacks()
    before = by_reason()
    config = _config(PCS_CONFIGS[pcs])
    command = _command(NtxOpcode.MAC, (4, 3, 2), 2, store_level, init_source,
                       Cluster().tcdm.base)
    rng = np.random.default_rng([tiles, store_level, list(PCS_CONFIGS).index(pcs)])
    stack = _poisoned_stack(rng, 3 * command_plan(command).total, tiles)
    _assert_stack_matches_the_walk(command, stack, config)
    assert by_reason() == before


@st.composite
def _mac_cases(draw):
    counts = (
        draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    )
    init_level = draw(st.integers(1, 3))
    return dict(
        counts=counts,
        init_level=init_level,
        store_level=draw(st.integers(0, init_level)),
        init_source=draw(st.sampled_from([InitSource.ZERO, InitSource.AGU2])),
        data_class=draw(st.sampled_from(sorted(DATA_CLASSES))),
        pcs=draw(st.sampled_from(sorted(PCS_CONFIGS))),
        tiles=draw(st.sampled_from([1, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@seed(20191105)
@settings(max_examples=400, deadline=None)
@given(case=_mac_cases())
def test_exact_mac_matches_the_per_op_walk(case):
    rng = np.random.default_rng(case["seed"])
    command = _command(
        NtxOpcode.MAC, case["counts"], case["init_level"], case["store_level"],
        case["init_source"], Cluster().tcdm.base,
    )
    config = _config(PCS_CONFIGS[case["pcs"]])
    words = 3 * command_plan(command).total
    if case["tiles"] == 1:
        _assert_both_engines_match_the_walk(
            command, _draw(case["data_class"], rng, words), config
        )
    else:
        stack = _draw(case["data_class"], rng, words * case["tiles"]).reshape(words, -1)
        _assert_stack_matches_the_walk(command, stack, config)


@pytest.mark.parametrize("data_class", ["lattice", "zeros"])
@pytest.mark.parametrize("init_source", [InitSource.ZERO, InitSource.AGU2])
def test_lattice_and_zero_macs_are_certified(data_class, init_source):
    """Exact data never falls back."""
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(NtxOpcode.MAC, (5, 2, 3), 2, 0, init_source, Cluster().tcdm.base)
    words = _draw(data_class, np.random.default_rng(11), 3 * 30)
    _assert_both_engines_match_the_walk(command, words)
    assert by_reason() == before


def test_inexact_standard_normal_mac_falls_back_and_matches():
    """Normal data, whose float64 running sums round, no longer falls
    back: the compensated lane carries the residuals, and the exact lane
    serves every store its certificate refuses."""
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(NtxOpcode.MAC, (16, 2, 2), 2, 1, InitSource.AGU2, Cluster().tcdm.base)
    words = _draw("normal", np.random.default_rng(7), 3 * 64)
    _assert_both_engines_match_the_walk(command, words)
    assert by_reason() == before


@pytest.mark.parametrize(
    "counts,init_source,words",
    [
        # (1 + 2**-12)**2 = 1 + 2**-11 + 2**-24 plus 2**-80 lies just above a
        # binary32 tie; float64 drops the 2**-80 and the tie rounds to even.
        ((1, 1, 1), InitSource.AGU2, [1 + 2.0**-12, 1 + 2.0**-12, 2.0**-80]),
        ((2, 1, 1), InitSource.ZERO,
         [1 + 2.0**-12, 2.0**-40, 1 + 2.0**-12, 2.0**-40, 0.0]),
    ],
    ids=["init_add", "running_sum"],
)
def test_double_rounding_sums_are_refused(counts, init_source, words):
    """A sum float64 rounds must not be cast as is: it would round twice
    and miss the accumulator's single rounding.  The compensated lane
    keeps the residual and rounds once, without a fallback."""
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(NtxOpcode.MAC, counts, 2, 2, init_source, Cluster().tcdm.base)
    ref = _assert_both_engines_match_the_walk(command, np.array(words, dtype=np.float32))
    assert by_reason() == before
    stored = np.frombuffer(ref.tcdm.memory.data, dtype=np.float32)[len(words) - 1]
    assert stored == np.float32(1 + 2.0**-11 + 2.0**-23)



@pytest.mark.parametrize("tiles", [1, 37])
def test_round_to_odd_steps_toward_the_residual(tiles):
    """1 + 3 * 2**-24 is a binary32 tie that rounds to even, up to
    1 + 2**-22.  A product of 2**-80 below it (or above it) must round it
    down to 1 + 2**-23 (or up): float64 holds the tie, the residual holds
    the sign, and the write-back rounds the tie to odd toward the residual
    before its one cast.  Lanes alternate both signs and the bare tie."""
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(NtxOpcode.MAC, (3, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    results = [1 + 2.0**-23, 1 + 2.0**-22, 1 + 2.0**-22]
    tails = [-(2.0**-40), 2.0**-40, 0.0]
    stack = np.zeros((9, tiles), dtype=np.float32)
    for lane in range(tiles):
        stack[:3, lane] = [1.0, 3 * 2.0**-24, tails[lane % 3]]
        stack[3:6, lane] = [1.0, 1.0, 2.0**-40]
    expected = _assert_stack_matches_the_walk(command, stack)
    assert expected[6].tolist() == [np.float32(results[lane % 3]) for lane in range(tiles)]
    assert by_reason() == before


@pytest.mark.parametrize("tiles", [1, 37])
def test_a_compensation_that_rounds_takes_the_exact_lane(tiles):
    """The tie 1 + 3 * 2**-24, plus 2**-60, then -2**-140 (or +2**-140),
    then -2**-60 lies just below (above) the tie and rounds down to
    1 + 2**-23 (up to 1 + 2**-22).  float64 holds the tie and the
    compensation holds 2**-60, but not 2**-60 - 2**-140 as well: its own
    residual flags the tile for the exact lane.  A kernel that missed the
    flag would write back the bare tie, which rounds to even, up."""
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(NtxOpcode.MAC, (5, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    stack = np.zeros((15, tiles), dtype=np.float32)
    for lane in range(tiles):
        sign = -1.0 if lane % 2 == 0 else 1.0
        stack[:5, lane] = [1.0, 3 * 2.0**-24, 2.0**-30, sign * 2.0**-70, -(2.0**-30)]
        stack[5:10, lane] = [1.0, 1.0, 2.0**-30, 2.0**-70, 2.0**-30]
    expected = _assert_stack_matches_the_walk(command, stack)
    assert expected[10].tolist() == [
        np.float32(1 + 2.0**-23 if lane % 2 == 0 else 1 + 2.0**-22) for lane in range(tiles)
    ]
    assert by_reason() == before

@st.composite
def _nan_cases(draw):
    return dict(
        opcode=draw(st.sampled_from([op for op in NtxOpcode if op is not NtxOpcode.MAC])),
        counts=(draw(st.integers(1, 5)), draw(st.integers(1, 2)), 2),
        init_source=draw(st.sampled_from([InitSource.ZERO, InitSource.AGU2])),
        store_level=draw(st.integers(0, 1)),
        data_class=draw(st.sampled_from(["nonfinite", "zeros"])),
        tiles=draw(st.sampled_from([1, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@seed(20190325)
@settings(max_examples=300, deadline=None)
@given(case=_nan_cases())
def test_exact_non_mac_opcodes_with_nan_and_signed_zero_inputs(case):
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(
        case["opcode"], case["counts"], 2, case["store_level"], case["init_source"],
        Cluster().tcdm.base,
    )
    rng = np.random.default_rng(case["seed"])
    words = 3 * command_plan(command).total
    with np.errstate(invalid="ignore", over="ignore"):
        if case["tiles"] == 1:
            _assert_both_engines_match_the_walk(
                command, _draw(case["data_class"], rng, words)
            )
        else:
            stack = _draw(case["data_class"], rng, words * case["tiles"])
            _assert_stack_matches_the_walk(command, stack.reshape(words, -1))
    assert by_reason() == before


@pytest.mark.parametrize(
    "opcode,bits,stored",
    [
        # COPY moves a signalling NaN, which the FPU's conversions quiet.
        (NtxOpcode.COPY, [0x3F800000, 0x7FA00000], 0x7FE00000),
        # MAX keeps the first of a ``±0`` tie, either way round.
        (NtxOpcode.MAX, [0x00000000, 0x80000000], 0x00000000),
        (NtxOpcode.MAX, [0x80000000, 0x00000000], 0x80000000),
        # A NaN first element sticks in the MIN register, quieted.
        (NtxOpcode.MIN, [0xFF812345, 0xBF800000], 0xFFC12345),
    ],
    ids=["copy_snan", "max_pos_zero_first", "max_neg_zero_first", "min_nan_first"],
)
def test_exact_mode_refusals_are_counted(opcode, bits, stored):
    """Operands the array formulas used to refuse (a NaN that COPY moves,
    a ``±0`` tie or NaN seed of MAX/MIN) now match the walk and count
    nothing."""
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(opcode, (2, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    words = np.array(bits + [0] * 4, dtype=np.uint32).view(np.float32)
    ref = _assert_both_engines_match_the_walk(command, words)
    assert by_reason() == before
    assert np.frombuffer(ref.tcdm.memory.data, dtype=np.uint32)[4] == stored


def test_narrow_accumulator_never_takes_the_certified_path():
    """A 300-bit accumulator anchored at 2**-298 tops out at 2**2, so a
    sum the float64 certificate would vouch for saturates there: the
    kernel runs every lane of that geometry through the exact lane."""
    by_reason = _fallbacks()
    before = by_reason()
    narrow = _config(PCS_CONFIGS["saturating"])
    command = _command(NtxOpcode.MAC, (4, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    words = np.array([1.5, 1.0, 0.5, 1.0] + [1.5, 1.0, 0.5, 1.0] + [0.0], np.float32)
    ref = _assert_both_engines_match_the_walk(command, words, narrow)
    assert by_reason() == before
    assert np.frombuffer(ref.tcdm.memory.data, dtype=np.float32)[8] == np.inf
    assert bytes(_walk(command, words).tcdm.memory.data) != bytes(ref.tcdm.memory.data)


@pytest.mark.parametrize("tiles", [1, 37])
def test_narrow_overflow_mid_chain_stays_infinite(tiles):
    """The saturating register (300 bits from 2**-298) holds [-2, 2).
    The chain 1.5 + 1 - 2 overflows at its second product and ends back in
    range at 0.5, and 1.5 + 1 - 4 ends at -1.5: the overflow flag is
    sticky, so they write back +inf and -inf (the sign of the final
    content), while a chain that never leaves the range (1 + 0.5 - 1)
    writes back 0.5."""
    by_reason = _fallbacks()
    before = by_reason()
    narrow = _config(PCS_CONFIGS["saturating"])
    command = _command(NtxOpcode.MAC, (3, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    chains = {np.inf: [1.5, 1.0, -2.0], -np.inf: [1.5, 1.0, -4.0], 0.5: [1.0, 0.5, -1.0]}
    results = list(chains)
    stack = np.zeros((9, tiles), dtype=np.float32)
    for lane in range(tiles):
        stack[:3, lane] = chains[results[lane % 3]]
        stack[3:6, lane] = 1.0
    expected = _assert_stack_matches_the_walk(command, stack, narrow)
    assert expected[6].tolist() == [results[lane % 3] for lane in range(tiles)]
    assert by_reason() == before


@pytest.mark.parametrize("pcs", ["saturating", "truncating"])
def test_narrow_accumulator_cold_runs_agree_across_engines(pcs):
    """The data plane reads the accumulator geometry for both engines: a
    vectorized cycle run of a MAC on a narrow accumulator stores the
    scalar engine's bytes (``inf`` where a 300-bit register anchored at
    2**-298 saturates, not the float64 sum's 4.5), without a fallback."""
    by_reason = _fallbacks()
    before = by_reason()
    config = _config(PCS_CONFIGS[pcs])
    command = _command(NtxOpcode.MAC, (4, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    words = np.array([1.5, 1.0, 0.5, 1.0] * 2 + [0.0], np.float32)
    clusters = {}
    for engine in ENGINES:
        cluster = clusters[engine] = _loaded(words, config)
        ClusterSimulator(cluster, engine=engine).run([(0, command)])
    assert by_reason() == before
    stored = np.frombuffer(clusters["scalar"].tcdm.memory.data, dtype=np.float32)[8]
    assert stored == (np.inf if pcs == "saturating" else 4.5)
    _assert_same_effects(clusters["vectorized"], clusters["scalar"])


def test_quick_engine_shootout_replays_without_fallbacks(tmp_path):
    """Both engines' points of the quick shootout run every command on the
    array kernel; a fallback here would silently cost the speedup."""
    from repro.campaign import run_campaign
    from repro.options import ExecutionOptions

    by_reason = _fallbacks()
    before = by_reason()
    outcome = run_campaign(
        "engine-shootout",
        store_path=tmp_path / "shootout.jsonl",
        options=ExecutionOptions(quick=True),
    )
    assert outcome.complete
    assert {point.spec.engine for point in outcome.points} == {"scalar", "vectorized"}
    assert by_reason() == before
