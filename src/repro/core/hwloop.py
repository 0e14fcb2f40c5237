"""The cascade of five 16 bit hardware loops.

Each loop maintains a counter with a programmable maximum count and can be
enabled or disabled.  The counters form a cascade to implement nested
loops: a loop that wraps from its maximum count back to zero increments the
next higher enabled loop.  The *wrap level* of a cycle — the index of the
outermost loop that advances — is what selects the AGU stride applied in
that cycle and what triggers accumulator initialisation and write-back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.commands import LOOP_COUNTER_BITS, LoopConfig

__all__ = ["LoopStep", "HardwareLoopNest"]

_COUNTER_MAX = (1 << LOOP_COUNTER_BITS) - 1


@dataclass(frozen=True)
class LoopStep:
    """Result of advancing the loop nest by one innermost iteration.

    Attributes:
        indices: the loop indices *before* the advance (innermost first,
            one entry per enabled loop).
        wrap_level: index of the outermost loop that advanced; equals the
            number of loops that wrapped.  ``len(indices)`` means every
            enabled loop wrapped, i.e. the command is complete.
        first_of_level: for each level ``k``, True when this iteration is
            the first of a fresh level-``k`` block (all lower indices zero).
        last_of_level: for each level ``k``, True when this iteration is the
            last of its level-``k`` block (all lower indices at maximum).
        done: True when this was the final iteration of the command.
    """

    indices: tuple[int, ...]
    wrap_level: int
    first_of_level: tuple[bool, ...]
    last_of_level: tuple[bool, ...]
    done: bool


class HardwareLoopNest:
    """Simulates the cascaded hardware loop counters for one command."""

    def __init__(self, loops: LoopConfig) -> None:
        self._counts = loops.enabled_counts
        for count in self._counts:
            if count - 1 > _COUNTER_MAX:
                raise ValueError(
                    f"loop count {count} exceeds the {LOOP_COUNTER_BITS} bit counter"
                )
        self._indices = [0] * len(self._counts)
        self._iterations_done = 0
        self._total = loops.total_iterations

    @property
    def num_levels(self) -> int:
        """Number of enabled loops."""
        return len(self._counts)

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def indices(self) -> tuple[int, ...]:
        """Current counter values (innermost first)."""
        return tuple(self._indices)

    @property
    def total_iterations(self) -> int:
        return self._total

    @property
    def done(self) -> bool:
        """Whether every iteration of the nest has been issued."""
        return self._iterations_done >= self._total

    def reset(self) -> None:
        self._indices = [0] * len(self._counts)
        self._iterations_done = 0

    def step(self) -> LoopStep:
        """Issue one innermost iteration and advance the cascade.

        Returns the :class:`LoopStep` describing the iteration that was just
        issued.  Raises :class:`RuntimeError` if called after completion.
        """
        if self.done:
            raise RuntimeError("hardware loop nest already completed")
        indices = tuple(self._indices)
        levels = len(self._counts)

        # Level k is fresh (or ending) when every index below k is zero
        # (or at its maximum): one running prefix over the levels.
        first = last = True
        first_of_level = [True]
        last_of_level = [True]
        for index, count in zip(indices, self._counts):
            first = first and index == 0
            last = last and index == count - 1
            first_of_level.append(first)
            last_of_level.append(last)

        # Cascade increment: find the outermost loop that advances.
        wrap_level = 0
        for level in range(levels):
            self._indices[level] += 1
            if self._indices[level] < self._counts[level]:
                wrap_level = level
                break
            self._indices[level] = 0
        else:
            wrap_level = levels  # every loop wrapped: command complete

        self._iterations_done += 1
        return LoopStep(
            indices=indices,
            wrap_level=wrap_level,
            first_of_level=tuple(first_of_level),
            last_of_level=tuple(last_of_level),
            done=self.done,
        )

    def __iter__(self):
        while not self.done:
            yield self.step()
