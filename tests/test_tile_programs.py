"""Tile programs: what every tile of one kernel shares, derived once.

* **A warm program costs no rediscovery.**  A second run of a registered
  scenario — with a fresh timing cache, as ``scenario-mix`` runs — hashes
  and compares no :class:`~repro.core.commands.NtxCommand` and walks no
  self-containment gate: its program comes from the builders' memo with
  its plans, signature, cost and gate verdict.
* **Keys stay values.**  A hand-built program equal in value to a
  memoized one hits a shared timing cache; one AGU stride apart misses.
* **The memo is bounded, its facts are frozen and stay home.**  The
  builders' program memo evicts at its bound; every array a program
  keeps is read-only; a pickled program carries its four fields only.
* **Threads.**  Runs on a thread pool, building and deriving the same
  programs concurrently, equal the serial runs.
"""

import dataclasses
import hashlib
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster.tiling import TileProgram, TileSchedule
from repro.core.commands import NtxCommand
from repro.core.vecops import PLAN_CACHE_SIZE
from repro.mem.hmc import Hmc
from repro.scenarios import get_scenario, registered_scenarios, run_scenario, workloads
from repro.scenarios.workloads import PROGRAM_CACHE_SIZE, build_workload
from repro.system import batch
from repro.system.memo import TileTimingCache
from repro.system.simulator import SystemSimulator


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name", registered_scenarios())
def test_a_warm_program_costs_no_rediscovery(name, monkeypatch):
    run_scenario(name, timing_cache=TileTimingCache())
    counts = Counter()
    _count_calls(monkeypatch, NtxCommand, "__hash__", counts)
    _count_calls(monkeypatch, NtxCommand, "__eq__", counts)
    _count_calls(monkeypatch, batch, "_tcdm_self_contained", counts)
    outcome = run_scenario(name, timing_cache=TileTimingCache())
    assert outcome.verified
    assert outcome.result.cache_misses == 1
    assert counts == Counter()


def _program_copy(program, commands=None):
    """A program equal in value to ``program`` (or with ``commands``),
    built from command objects of its own."""
    commands = commands or [dataclasses.replace(c) for c in program.commands]
    return TileProgram(commands, program.placements, program.dma_in, program.dma_out)


def _run_tiles(spec, tiles, cache):
    simulator = SystemSimulator(spec.system_config(), timing_cache=cache)
    return simulator.run(tiles)


def test_equal_programs_share_timings_and_a_changed_stride_does_not():
    spec = get_scenario("opcode-stream")
    cache = TileTimingCache()
    built = run_scenario(spec, timing_cache=cache).workload.tiles
    program = built[0].program

    twin = _program_copy(program)
    assert twin == program and twin is not program
    assert all(a is not b for a, b in zip(twin.commands, program.commands))
    result = _run_tiles(spec, [TileSchedule(twin, t.hmc_in, t.hmc_out) for t in built], cache)
    assert (result.cache_hits, result.cache_misses) == (len(built), 0)

    (command,) = program.commands
    stationary = dataclasses.replace(
        command, agu0=dataclasses.replace(command.agu0, strides=(0,) * 5)
    )
    other = _program_copy(program, [stationary])
    assert other != program
    result = _run_tiles(spec, [TileSchedule(other, t.hmc_in, t.hmc_out) for t in built], cache)
    assert (result.cache_hits, result.cache_misses) == (len(built) - 1, 1)


def _built_program(spec):
    return build_workload(spec, Hmc(spec.system_config().hmc)).tiles[0].program


def test_program_memo_evicts_at_its_bound(monkeypatch):
    assert workloads._PROGRAMS.size == PROGRAM_CACHE_SIZE == PLAN_CACHE_SIZE
    memo = workloads._ProgramMemo(2)
    monkeypatch.setattr(workloads, "_PROGRAMS", memo)
    conv = get_scenario("conv-tiled").with_overrides(num_tiles=2)
    specs = [conv.with_overrides(params={"image_shape": (h, 10)}) for h in (8, 9, 10)]
    programs = [_built_program(spec) for spec in specs]
    assert len(memo) == 2
    # Neither the seed nor the tile count is part of the key.
    assert _built_program(specs[2].with_overrides(seed=9, num_tiles=3)) is programs[2]
    # The least recently used entry went first: a rebuild is a new object.
    rebuilt = _built_program(specs[0])
    assert rebuilt == programs[0] and rebuilt is not programs[0]
    assert len(memo) == 2
    assert _built_program(specs[2]) is programs[2]
    assert _built_program(specs[1]) is not programs[1]


def _arrays(value, seen):
    """Every NumPy array reachable from ``value`` through containers and
    slotted objects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item, seen)
    else:
        for name in getattr(type(value), "__slots__", ()):
            yield from _arrays(getattr(value, name, None), seen)


def test_every_array_a_program_keeps_is_read_only():
    outcome = run_scenario("dnn-training-step", timing_cache=TileTimingCache())
    facts = outcome.workload.tiles[0].program._facts
    kinds = {type(fact).__name__ for fact in facts.values()}
    assert {"TimingInput", "_Accounts", "_ProgramPlan"} <= kinds
    arrays = list(_arrays(list(facts.values()), set()))
    assert len(arrays) > 20
    assert not any(array.flags.writeable for array in arrays)


def test_a_pickled_program_carries_its_fields_only():
    program = run_scenario("conv-tiled").workload.tiles[0].program
    assert program._facts
    constructor, fields = program.__reduce__()
    assert constructor is TileProgram
    assert fields == (program.commands, program.placements, program.dma_in, program.dma_out)
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program and hash(copy) == hash(program)
    assert copy._facts == {}
    with pytest.raises(AttributeError):
        copy.commands = ()


@pytest.mark.parametrize("rows", [(0x1000_0000, 0, 1), (0x1000_0000, 4, 0)])
def test_a_transfer_without_rows_or_bytes_is_refused(rows):
    """The walker stages a program's transfers as given, so an empty one
    is refused when the program is built."""
    with pytest.raises(ValueError, match="dimensions must be positive"):
        TileProgram(dma_in=[rows])
    with pytest.raises(ValueError, match="dimensions must be positive"):
        TileProgram(dma_out=[rows])


def _outcome(name):
    outcome = run_scenario(name, timing_cache=TileTimingCache())
    digest = hashlib.sha256()
    for array in outcome.output_arrays():
        digest.update(array.tobytes())
    result = outcome.result
    return (
        outcome.verified,
        result.makespan_cycles,
        result.cache_hits,
        result.cache_misses,
        digest.hexdigest(),
    )


def test_concurrent_runs_match_serial_runs():
    """Runs on threads, building and deriving the same programs at once,
    give the same cycles, hits and bytes as one thread alone."""
    names = (sorted(registered_scenarios()) * 3)[:24]
    serial = [_outcome(name) for name in names]
    workloads._PROGRAMS.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(_outcome, name) for name in names]
            concurrent = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
