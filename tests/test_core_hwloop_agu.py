"""Unit tests for the hardware-loop cascade and the address generation units."""

import itertools
import math
import random

import pytest

from repro.core.agu import AddressGenerationUnit
from repro.core.commands import AguConfig, LoopConfig
from repro.core.hwloop import HardwareLoopNest, LoopStep


def _reference_steps(counts):
    """Every LoopStep of a nest, by enumeration and the all()-per-level
    block formulas (the oracle of the cascade's running prefix)."""
    levels, total = len(counts), math.prod(counts)
    for number, outer_first in enumerate(itertools.product(*map(range, counts[::-1]))):
        indices = outer_first[::-1]
        wrap_level = next(
            (k for k in range(levels) if indices[k] != counts[k] - 1), levels
        )
        yield LoopStep(
            indices=indices,
            wrap_level=wrap_level,
            first_of_level=tuple(
                all(indices[i] == 0 for i in range(k)) for k in range(levels + 1)
            ),
            last_of_level=tuple(
                all(indices[i] == counts[i] - 1 for i in range(k))
                for k in range(levels + 1)
            ),
            done=number == total - 1,
        )


class TestHardwareLoops:
    def test_single_loop_sequence(self):
        nest = HardwareLoopNest(LoopConfig.nest(3))
        steps = list(nest)
        assert [s.indices for s in steps] == [(0,), (1,), (2,)]
        assert steps[-1].done

    def test_cascade_wrap_levels(self):
        nest = HardwareLoopNest(LoopConfig.nest(2, 2))
        wrap_levels = [s.wrap_level for s in nest]
        # it.0: loop0 advances; it.1: loop0 wraps -> loop1 advances; ...
        assert wrap_levels == [0, 1, 0, 2]

    def test_first_and_last_of_level(self):
        nest = HardwareLoopNest(LoopConfig.nest(2, 2))
        steps = list(nest)
        # first_of_level[1] is True at the start of each loop-1 block.
        assert [s.first_of_level[1] for s in steps] == [True, False, True, False]
        # last_of_level[1] is True at the end of each loop-1 block.
        assert [s.last_of_level[1] for s in steps] == [False, True, False, True]
        # Level 0 blocks are single iterations: always first and last.
        assert all(s.first_of_level[0] and s.last_of_level[0] for s in steps)

    def test_total_iterations(self):
        nest = HardwareLoopNest(LoopConfig.nest(3, 4, 5))
        assert nest.total_iterations == 60
        assert sum(1 for _ in nest) == 60

    def test_step_after_done_raises(self):
        nest = HardwareLoopNest(LoopConfig.nest(1))
        nest.step()
        with pytest.raises(RuntimeError):
            nest.step()

    def test_reset(self):
        nest = HardwareLoopNest(LoopConfig.nest(2))
        nest.step()
        nest.reset()
        assert nest.indices == (0,)
        assert not nest.done

    @pytest.mark.parametrize("seed", range(8))
    def test_steps_match_the_per_level_formulas(self, seed):
        rng = random.Random(seed)
        for _ in range(12):
            counts = tuple(rng.choice((1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 5)))
            nest = HardwareLoopNest(LoopConfig.nest(*counts))
            assert nest.counts == counts
            assert list(nest) == list(_reference_steps(counts))
            assert nest.done

    def test_counter_width_enforced(self):
        # 2^16 iterations fit the 16 bit counter (counts up to max-1).
        HardwareLoopNest(LoopConfig.nest(1 << 16))


class TestAddressGeneration:
    def test_linear_walk(self):
        agu = AddressGenerationUnit(AguConfig(base=0x1000, strides=(4, 0, 0, 0, 0)))
        addresses = [agu.address]
        for _ in range(3):
            agu.advance(0)
            addresses.append(agu.address)
        assert addresses == [0x1000, 0x1004, 0x1008, 0x100C]

    def test_level_selects_stride(self):
        agu = AddressGenerationUnit(AguConfig(base=0, strides=(4, 100, 0, 0, 0)))
        agu.advance(0)
        agu.advance(1)
        assert agu.address == 104

    def test_negative_stride_and_wraparound(self):
        agu = AddressGenerationUnit(AguConfig(base=0, strides=(-4, 0, 0, 0, 0)))
        agu.advance(0)
        assert agu.address == (1 << 32) - 4  # 32 bit adder wraps

    def test_wrap_level_beyond_strides_is_noop(self):
        agu = AddressGenerationUnit(AguConfig(base=8, strides=(4, 4, 4, 4, 4)))
        assert agu.advance(5) == 8

    def test_peek_does_not_advance(self):
        agu = AddressGenerationUnit(AguConfig(base=0, strides=(4, 0, 0, 0, 0)))
        assert agu.peek(0) == 4
        assert agu.address == 0

    def test_reset(self):
        agu = AddressGenerationUnit(AguConfig(base=12, strides=(4, 0, 0, 0, 0)))
        agu.advance(0)
        agu.reset()
        assert agu.address == 12
        assert agu.advances == 0

    def test_invalid_wrap_level(self):
        agu = AddressGenerationUnit(AguConfig())
        with pytest.raises(ValueError):
            agu.advance(-1)


class TestStridedAccessPatterns:
    """The AGU + loop combination must walk classic access patterns correctly."""

    def _walk(self, loops: LoopConfig, agu_config: AguConfig):
        nest = HardwareLoopNest(loops)
        agu = AddressGenerationUnit(agu_config)
        addresses = []
        for step in nest:
            addresses.append(agu.address)
            agu.advance(step.wrap_level)
        return addresses

    def test_row_major_matrix_walk(self):
        # 3 rows x 4 columns of a matrix with 32-byte row pitch.
        loops = LoopConfig.nest(4, 3)
        agu = AguConfig(base=0, strides=(4, 32 - 3 * 4, 0, 0, 0))
        addresses = self._walk(loops, agu)
        expected = [row * 32 + col * 4 for row in range(3) for col in range(4)]
        assert addresses == expected

    def test_stationary_operand(self):
        loops = LoopConfig.nest(5, 2)
        addresses = self._walk(loops, AguConfig.stationary(0x40))
        assert addresses == [0x40] * 10

    def test_rewinding_vector_operand(self):
        # The x vector of a GEMV is re-read for every row.
        loops = LoopConfig.nest(4, 2)
        agu = AguConfig(base=0, strides=(4, -(4 - 1) * 4, 0, 0, 0))
        addresses = self._walk(loops, agu)
        assert addresses == [0, 4, 8, 12, 0, 4, 8, 12]
