"""Declarative description of one runnable scenario.

A :class:`ScenarioSpec` pins everything that decides a run's results —
the workload family and its shape and data parameters, the system
geometry (vaults x clusters per vault) and the cycle engine — as plain
data with a dict round trip.  How a run executes (tile-timing
memoization, tracing, ...) is no part of it: that is
:class:`~repro.options.ExecutionOptions`.  Specs are what the
named-scenario registry stores, what ``python -m repro.eval scenario
run`` resolves, and what the benchmark harness iterates; the same spec
therefore *is* the reproduction recipe for a measurement.

Validation happens at construction: unknown workload families and engine
names raise ``ValueError`` listing the valid choices, so a typo fails
before any simulation starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import TYPE_CHECKING, Any, Dict, Mapping

from repro.cluster.engine import DEFAULT_ENGINE, resolve_engine
from repro.scenarios.families import FAMILIES

if TYPE_CHECKING:
    from repro.system.config import SystemConfig

__all__ = ["ScenarioSpec"]


def _normalize(value):
    """Canonicalize sequence-valued parameters to tuples.

    JSON has no tuple type, so shape parameters like ``image_shape``
    deserialize as lists; normalizing keeps a spec read back from a JSON
    store equal to the spec that was written.  Mappings (e.g. the
    stage dicts of the ``pipeline`` family) normalize recursively so a
    shape nested inside a stage round-trips the same way.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    if isinstance(value, Mapping):
        return {key: _normalize(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: workload family + shape + data + system + engine."""

    #: Registry name of the scenario (``conv-tiled``, ``dnn-training-step``, ...).
    name: str
    #: Workload family key (see :data:`repro.scenarios.families.FAMILIES`).
    family: str
    #: One-line description shown by ``scenario list`` and the CLI epilog.
    description: str = ""
    #: Family-specific shape parameters (merged over the family defaults).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Number of independent tiles staged in the HMC.
    num_tiles: int = 4
    #: Seed of the deterministic data generator.
    seed: int = 2019
    #: System geometry (the :class:`~repro.system.config.SystemConfig` knobs).
    num_vaults: int = 2
    clusters_per_vault: int = 4
    #: Cycle engine (resolved through :mod:`repro.cluster.engine`); a spec
    #: field so that ``engine-shootout`` can sweep it as an axis.
    engine: str = DEFAULT_ENGINE
    #: Per-cluster NTX start stagger.
    stagger_cycles: int = 7

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "params",
            {key: _normalize(value) for key, value in self.params.items()},
        )
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown workload family {self.family!r}; "
                f"available families: {tuple(FAMILIES)}"
            )
        resolve_engine(self.engine)
        if self.num_tiles < 0:
            raise ValueError("tile count must be non-negative")
        merged = self.merged_params()  # unknown shape parameters fail here too
        validate = FAMILIES[self.family].validate
        if validate is not None:
            validate(merged)  # families may reject bad shapes at spec time

    # -- derived objects -----------------------------------------------------

    def system_config(self) -> SystemConfig:
        """The :class:`SystemConfig` this scenario runs on."""
        # Imported here: the system layer pulls in the simulator and NumPy,
        # which building and validating a spec must not.
        from repro.system.config import SystemConfig

        return SystemConfig(
            num_vaults=self.num_vaults,
            clusters_per_vault=self.clusters_per_vault,
            stagger_cycles=self.stagger_cycles,
        )

    def merged_params(self) -> Dict[str, Any]:
        """Family defaults overlaid with this spec's ``params``."""
        family = FAMILIES[self.family]
        unknown = set(self.params) - set(family.default_params)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for family "
                f"{self.family!r}; accepted: {sorted(family.default_params)}"
            )
        merged = dict(family.default_params)
        merged.update(self.params)
        return merged

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields replaced (validated like new)."""
        return replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (JSON-compatible).

        Every field but ``params`` is a flat value, copied as it is;
        ``params`` is copied one level deep.  Point ids hash this payload.
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        if not isinstance(data, Mapping):
            raise ValueError("a scenario spec must be a mapping")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"accepted: {sorted(fields)}"
            )
        missing = {"name", "family"} - set(data)
        if missing:
            raise ValueError(f"scenario spec is missing {sorted(missing)}")
        payload = dict(data)
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("params must be a mapping")
        payload["params"] = dict(params)
        return cls(**payload)


#: Field names in declaration order: the key order of :meth:`ScenarioSpec.to_dict`.
_FIELD_NAMES = tuple(f.name for f in dataclass_fields(ScenarioSpec))
