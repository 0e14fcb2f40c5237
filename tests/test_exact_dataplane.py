"""The data-plane kernel's certified-exact mode against the per-op walk.

The scalar engine's timing-cache hits replay through the shared data
plane (:func:`repro.cluster.vecsim.run_data_plane`) in the kernel's
``exact=True`` mode: a MAC is
served from float64 running sums only when a TwoSum residual proves every
addition exact, and any command the kernel cannot vouch for runs through
:func:`~repro.core.vecops.execute_functional`.  These tests fuzz that mode
against the per-op soft-float walk — TCDM bytes (NaN payloads included),
bank accesses, memory read/write counts and ``FpuStats`` — over MAC
commands of every init source, store level and stack height, over the
data classes that exercise the certificate (lattice, normal, wide
exponents, subnormals, signed zeros, near ``FLT_MAX``, ``±inf`` and NaN),
and over the non-MAC opcodes with NaN and signed-zero inputs.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sim import ClusterSimulator
from repro.cluster.vecsim import _ImageTcdm
from repro.core.commands import AguConfig, InitSource, LoopConfig, NtxCommand, NtxOpcode
from repro.core.ntx import NtxConfig
from repro.core.vecops import command_plan, execute_functional, execute_streams_batched
from repro.softfloat.pcs import PcsConfig

_FLT_MAX = float(np.finfo(np.float32).max)
#: NaN bit patterns: quiet and signalling, both signs, with payloads.
_NAN_BITS = np.array(
    [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF812345, 0x7FC12345, 0x7FA00000],
    dtype=np.uint32,
)


def _lattice(rng, n):
    return rng.integers(-64, 64, size=n) / 16.0


def _normal(rng, n):
    return rng.standard_normal(n)


def _wide(rng, n):
    return rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, size=n))


def _subnormal(rng, n):
    # Products of two subnormals reach 2**-298; sums stay exact in float64
    # only while the exponents stay close.
    return rng.integers(-8, 8, size=n) * np.exp2(rng.integers(-149, -120, size=n))


def _zeros(rng, n):
    values = rng.choice([0.0, -0.0, 1.0, -0.5], size=n)
    return np.where(rng.random(n) < 0.6, np.copysign(0.0, rng.random(n) - 0.5), values)


def _near_max(rng, n):
    return rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.0, size=n) * _FLT_MAX


def _nonfinite(rng, n):
    values = _lattice(rng, n).astype(np.float32)
    special = rng.random(n)
    values[special < 0.15] = np.inf
    values[(special >= 0.15) & (special < 0.3)] = -np.inf
    nan = special >= 0.85
    values.view(np.uint32)[nan] = rng.choice(_NAN_BITS, size=int(nan.sum()))
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


def _draw(data_class, rng, n):
    """``n`` float32 words of ``data_class``."""
    with np.errstate(over="ignore"):
        return np.asarray(DATA_CLASSES[data_class](rng, n)).astype(np.float32)


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
        return {dict(pairs)["reason"]: value for _, pairs, value in counter.samples()}

    return by_reason


def _replay_both(command, words, config=None):
    """The exact-mode hit path and the per-op walk of ``command`` on two
    clusters whose TCDMs start as ``words``; returns both clusters."""
    clusters = []
    for exact_replay in (True, False):
        cluster = Cluster(config)
        tcdm = cluster.tcdm
        view = np.frombuffer(tcdm.memory.data, dtype=np.float32)
        view[: len(words)] = words
        if exact_replay:
            ClusterSimulator(cluster, engine="scalar").run_data_plane([(0, command)])
        else:
            execute_functional(cluster.ntx[0], command, tcdm)
        clusters.append(cluster)
    return clusters


def _assert_same_effects(got, ref):
    """TCDM bytes, access counters and FPU statistics all agree."""
    assert bytes(got.tcdm.memory.data) == bytes(ref.tcdm.memory.data)
    assert np.array_equal(got.tcdm.bank_accesses, ref.tcdm.bank_accesses)
    assert (got.tcdm.memory.reads, got.tcdm.memory.writes) == (
        ref.tcdm.memory.reads, ref.tcdm.memory.writes
    )
    assert vars(got.ntx[0].fpu.stats) == vars(ref.ntx[0].fpu.stats)


@st.composite
def _mac_cases(draw):
    counts = (
        draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    )
    init_level = draw(st.integers(1, 2))
    return dict(
        counts=counts,
        init_level=init_level,
        store_level=draw(st.integers(0, init_level - 1)),
        init_source=draw(st.sampled_from([InitSource.ZERO, InitSource.AGU2])),
        data_class=draw(st.sampled_from(sorted(DATA_CLASSES))),
        tiles=draw(st.sampled_from([1, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@seed(20191105)
@settings(max_examples=400, deadline=None)
@given(case=_mac_cases())
def test_exact_mac_matches_the_per_op_walk(case):
    rng = np.random.default_rng(case["seed"])
    base = Cluster().tcdm.base
    command = _command(
        NtxOpcode.MAC, case["counts"], case["init_level"], case["store_level"],
        case["init_source"], base,
    )
    streams = command_plan(command)
    words = 3 * streams.total
    if case["tiles"] == 1:
        got, ref = _replay_both(command, _draw(case["data_class"], rng, words))
        _assert_same_effects(got, ref)
        return
    # A stack of several tiles: the kernel either certifies the whole stack
    # or leaves it untouched for the caller's per-tile walk.
    stack = _draw(case["data_class"], rng, words * case["tiles"]).reshape(words, -1)
    expected = stack.copy()
    scratch = Cluster()
    for tile in range(case["tiles"]):
        execute_functional(
            scratch.ntx[0], command, _ImageTcdm(expected[:, tile], base, scratch.tcdm)
        )
    before = stack.copy()
    if not execute_streams_batched(command, streams, stack, base, exact=True):
        assert before.view(np.uint32).tobytes() == stack.view(np.uint32).tobytes()
        return
    assert np.array_equal(stack.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize("data_class", ["lattice", "zeros"])
@pytest.mark.parametrize("init_source", [InitSource.ZERO, InitSource.AGU2])
def test_lattice_and_zero_macs_are_certified(data_class, init_source):
    """Exact data never falls back — the point of the certificate."""
    by_reason = _fallbacks()
    before = by_reason()
    command = _command(NtxOpcode.MAC, (5, 2, 3), 2, 0, init_source, Cluster().tcdm.base)
    words = _draw(data_class, np.random.default_rng(11), 3 * 30)
    got, ref = _replay_both(command, words)
    _assert_same_effects(got, ref)
    assert by_reason() == before


def test_inexact_standard_normal_mac_falls_back_and_matches():
    by_reason = _fallbacks()
    before = by_reason().get("inexact_mac", 0)
    command = _command(NtxOpcode.MAC, (16, 2, 2), 2, 1, InitSource.AGU2, Cluster().tcdm.base)
    words = _draw("normal", np.random.default_rng(7), 3 * 64)
    got, ref = _replay_both(command, words)
    assert by_reason()["inexact_mac"] == before + 1
    _assert_same_effects(got, ref)


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
    """A sum float64 rounds must not be certified: its float32 conversion
    would round twice and miss the accumulator's single rounding."""
    by_reason = _fallbacks()
    before = by_reason().get("inexact_mac", 0)
    command = _command(NtxOpcode.MAC, counts, 2, 2, init_source, Cluster().tcdm.base)
    got, ref = _replay_both(command, np.array(words, dtype=np.float32))
    assert by_reason()["inexact_mac"] == before + 1
    _assert_same_effects(got, ref)
    stored = np.frombuffer(ref.tcdm.memory.data, dtype=np.float32)[len(words) - 1]
    assert stored == np.float32(1 + 2.0**-11 + 2.0**-23)


@st.composite
def _nan_cases(draw):
    return dict(
        opcode=draw(st.sampled_from([op for op in NtxOpcode if op is not NtxOpcode.MAC])),
        counts=(draw(st.integers(1, 5)), draw(st.integers(1, 2)), 2),
        init_source=draw(st.sampled_from([InitSource.ZERO, InitSource.AGU2])),
        store_level=draw(st.integers(0, 1)),
        data_class=draw(st.sampled_from(["nonfinite", "zeros"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@seed(20190325)
@settings(max_examples=300, deadline=None)
@given(case=_nan_cases())
def test_exact_non_mac_opcodes_with_nan_and_signed_zero_inputs(case):
    command = _command(
        case["opcode"], case["counts"], 2, case["store_level"], case["init_source"],
        Cluster().tcdm.base,
    )
    words = _draw(
        case["data_class"], np.random.default_rng(case["seed"]),
        3 * command_plan(command).total,
    )
    with np.errstate(invalid="ignore", over="ignore"):
        got, ref = _replay_both(command, words)
    _assert_same_effects(got, ref)


@pytest.mark.parametrize(
    "opcode,data,reason",
    [
        (NtxOpcode.COPY, [1.0, np.nan], "nan_operand"),
        (NtxOpcode.MAX, [0.0, -0.0], "signed_zero"),
    ],
)
def test_exact_mode_refusals_are_counted(opcode, data, reason):
    by_reason = _fallbacks()
    before = by_reason().get(reason, 0)
    command = _command(opcode, (2, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    got, ref = _replay_both(command, np.array(data + [0.0] * 4, dtype=np.float32))
    assert by_reason()[reason] == before + 1
    _assert_same_effects(got, ref)


def test_narrow_accumulator_never_takes_the_certified_path():
    """A 300-bit accumulator anchored at 2**-298 tops out at 2**2, so a
    sum the float64 certificate would vouch for saturates there; its MACs
    must run the per-op walk."""
    by_reason = _fallbacks()
    before = by_reason().get("pcs_config", 0)
    narrow = ClusterConfig(ntx=NtxConfig(pcs=PcsConfig(width=300)))
    command = _command(NtxOpcode.MAC, (4, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    words = np.array([1.5, 1.0, 0.5, 1.0] + [1.5, 1.0, 0.5, 1.0] + [0.0], np.float32)
    got, ref = _replay_both(command, words, narrow)
    assert by_reason()["pcs_config"] == before + 1
    _assert_same_effects(got, ref)
    default, _ = _replay_both(command, words)
    assert bytes(default.tcdm.memory.data) != bytes(got.tcdm.memory.data)


@pytest.mark.parametrize(
    "pcs",
    [PcsConfig(width=300), PcsConfig(lsb_exponent=-150, width=300)],
    ids=["saturating", "truncating"],
)
def test_narrow_accumulator_cold_runs_agree_across_engines(pcs):
    """The data plane reads the accumulator geometry for both engines: a
    vectorized cycle run of a MAC on a narrow accumulator walks per op and
    stores the scalar engine's bytes (``inf`` where a 300-bit register
    anchored at 2**-298 saturates, not the float64 sum's 4.5)."""
    by_reason = _fallbacks()
    config = ClusterConfig(ntx=NtxConfig(pcs=pcs))
    command = _command(NtxOpcode.MAC, (4, 1, 1), 2, 2, InitSource.ZERO, Cluster().tcdm.base)
    words = np.array([1.5, 1.0, 0.5, 1.0] * 2 + [0.0], np.float32)
    clusters = {}
    for engine in ("scalar", "vectorized"):
        cluster = clusters[engine] = Cluster(config)
        np.frombuffer(cluster.tcdm.memory.data, dtype=np.float32)[: len(words)] = words
        before = by_reason().get("pcs_config", 0)
        ClusterSimulator(cluster, engine=engine).run([(0, command)])
    assert by_reason()["pcs_config"] == before + 1  # the vectorized run
    stored = np.frombuffer(clusters["scalar"].tcdm.memory.data, dtype=np.float32)[8]
    assert stored == (np.inf if pcs.lsb_exponent == -298 else 4.5)
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
