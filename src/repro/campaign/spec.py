"""Declarative description of one design-space exploration campaign.

A :class:`SweepSpec` is a base :class:`~repro.scenarios.spec.ScenarioSpec`
plus named **axes**: ordered value lists over spec fields (``num_vaults``,
``clusters_per_vault``, ``num_tiles``, ``engine``, ...) or family
shape parameters (``params.kernel``).  Two
expansion modes turn the axes into concrete scenario points:

* ``grid`` — the cartesian product of every axis (Table-II style sweeps);
* ``zip`` — axes of equal length advanced in lockstep (weak-scaling style
  sweeps where the workload grows with the machine).

**Constraints** are boolean expressions over the point's field values
(e.g. ``"num_vaults * clusters_per_vault <= 16"``) evaluated during
expansion; a point failing any constraint is pruned *before* the scenario
spec is constructed, so a sweep may declare axis ranges whose corners are
not buildable.  Constraint syntax is a validated subset of Python
expressions — literals, names (spec fields, merged family parameters and
the derived ``num_clusters``), arithmetic/boolean operators and
comparisons; calls, attribute access, subscripts and every other node
are rejected at construction time, so a campaign definition loaded from
JSON cannot execute code.

Like ``ScenarioSpec``, a sweep validates at construction (unknown axis
paths, empty axes, mismatched ``zip`` lengths and malformed constraints
all raise ``ValueError``) and round-trips through a plain dict, so a
campaign definition *is* the reproduction recipe for a whole result set.

Every expanded :class:`CampaignPoint` carries a **content hash** of its
scenario spec (:func:`point_id`); the result store keys records by it,
which is what makes interrupted campaigns resumable by skipping
already-recorded points.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Dict, List, Mapping, Tuple

from repro.scenarios.spec import ScenarioSpec, _normalize

__all__ = ["CampaignPoint", "SweepSpec", "point_id"]

#: Spec fields an axis may sweep (``name``/``description`` identify the
#: scenario rather than shape it, and ``params`` is addressed per key).
_SWEEPABLE_FIELDS = tuple(
    f.name
    for f in dataclass_fields(ScenarioSpec)
    if f.name not in ("name", "description", "params")
)

_PARAM_PREFIX = "params."


def point_id(spec: ScenarioSpec) -> str:
    """Content hash of one scenario point (stable across processes).

    The hash covers everything that shapes the run — workload family and
    parameters, geometry, engine, seed — but not the
    ``name`` and ``description``, which are presentation only.  Records
    in a campaign's result store are keyed by this, so a point whose
    definition changes in any run-relevant way is re-executed rather
    than wrongly resumed, while renaming a scenario or campaign leaves
    every stored result resumable.

    The *merged* family parameters are hashed, not the spec's explicit
    ``params`` overlay: a change to a workload family's defaults in
    :mod:`repro.scenarios.workloads` must invalidate stored results just
    like an explicit parameter change would.
    """
    payload = spec.to_dict()
    payload.pop("name", None)
    payload.pop("description", None)
    payload["params"] = spec.merged_params()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded scenario of a campaign, with its store key."""

    #: Content hash of ``spec`` (the result-store key).
    id: str
    #: The axis values that produced this point, in axis order.
    axis_values: Dict[str, Any]
    #: The fully resolved, validated scenario to run.
    spec: ScenarioSpec

    def describe(self) -> str:
        knobs = ", ".join(f"{k}={v}" for k, v in self.axis_values.items())
        return f"{self.spec.name} ({knobs})"


def _normalize_axis_values(values) -> Tuple[Any, ...]:
    """Canonicalize an axis to a tuple (tuples inside, for JSON identity)."""
    if isinstance(values, (list, tuple)):
        return tuple(_normalize(value) for value in values)
    raise ValueError("axis values must be a list or tuple")


def _normalize_deep(value):
    """Canonicalize nested mappings/sequences (quick_overrides may carry a
    whole ``params`` dict, whose sequence values JSON turns into lists)."""
    if isinstance(value, Mapping):
        return {key: _normalize_deep(item) for key, item in value.items()}
    return _normalize(value)


@dataclass(frozen=True)
class SweepSpec:
    """One campaign: a base scenario, sweep axes, and pruning constraints."""

    #: Registry name of the campaign (``conv-geometry-sweep``, ...).
    name: str
    #: The scenario every point is derived from.
    base: ScenarioSpec
    #: One-line description shown by ``campaign list`` and the CLI epilog.
    description: str = ""
    #: Ordered axes: field path -> values.  Paths are top-level
    #: :class:`ScenarioSpec` fields or ``params.<key>`` family parameters.
    axes: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)
    #: ``grid`` (cartesian product) or ``zip`` (lockstep, equal lengths).
    mode: str = "grid"
    #: Boolean expressions pruning invalid points during expansion.
    constraints: Tuple[str, ...] = ()
    #: Base-spec overrides applied in quick (CI-sized) mode.  Axes are
    #: never shrunk — quick mode reduces the per-point workload, not the
    #: design space.
    quick_overrides: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign needs a non-empty name")
        if self.mode not in ("grid", "zip"):
            raise ValueError(
                f"unknown expansion mode {self.mode!r}; expected 'grid' or 'zip'"
            )
        if not self.axes:
            raise ValueError("a campaign needs at least one sweep axis")
        object.__setattr__(
            self,
            "axes",
            {path: _normalize_axis_values(values) for path, values in self.axes.items()},
        )
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(
            self, "quick_overrides", _normalize_deep(self.quick_overrides)
        )

        base_params = self.base.merged_params()
        for path, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {path!r} has no values")
            if path.startswith(_PARAM_PREFIX):
                key = path[len(_PARAM_PREFIX):]
                if key not in base_params:
                    raise ValueError(
                        f"axis {path!r} names no parameter of family "
                        f"{self.base.family!r}; accepted: "
                        f"{sorted(_PARAM_PREFIX + k for k in base_params)}"
                    )
            elif path not in _SWEEPABLE_FIELDS:
                raise ValueError(
                    f"axis {path!r} names no sweepable scenario field; "
                    f"accepted: {sorted(_SWEEPABLE_FIELDS)} or 'params.<key>'"
                )
        if self.mode == "zip":
            lengths = {path: len(values) for path, values in self.axes.items()}
            if len(set(lengths.values())) > 1:
                raise ValueError(
                    f"zip mode needs equal-length axes, got {lengths}"
                )
        # Compile every constraint now (syntax errors) and evaluate it
        # against the base point (unknown names) so a typo fails at
        # construction, before any simulation starts.
        for expression in self.constraints:
            code = self._compile_constraint(expression)
            self._evaluate_constraint(
                code, expression, self._namespace(self.base)
            )
        if self.quick_overrides:
            self.base.with_overrides(**self.quick_overrides)  # validate now

    # -- constraint machinery -------------------------------------------------

    #: AST nodes a constraint expression may contain: literals (including
    #: tuple/list/set literals for ``engine in (...)`` membership tests),
    #: names, boolean/arithmetic operators and comparisons.  Everything
    #: else — calls, attribute access, subscripts, comprehensions — is
    #: rejected, so a campaign definition loaded from JSON is data, not
    #: code (``eval`` without builtins alone would not guarantee that).
    _CONSTRAINT_NODES = (
        ast.Expression, ast.BoolOp, ast.And, ast.Or,
        ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
        ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
        ast.Mod, ast.Pow,
        ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
        ast.In, ast.NotIn, ast.Is, ast.IsNot,
        ast.IfExp, ast.Name, ast.Load, ast.Constant,
        ast.Tuple, ast.List, ast.Set,
    )

    @classmethod
    def _compile_constraint(cls, expression: str):
        try:
            tree = ast.parse(expression, "<campaign constraint>", "eval")
        except SyntaxError as error:
            raise ValueError(
                f"constraint {expression!r} is not a valid expression: {error}"
            ) from None
        for node in ast.walk(tree):
            if not isinstance(node, cls._CONSTRAINT_NODES):
                raise ValueError(
                    f"constraint {expression!r} uses {type(node).__name__}, "
                    "which is not allowed; constraints are limited to "
                    "literals, names, arithmetic/boolean operators and "
                    "comparisons"
                )
        return compile(tree, "<campaign constraint>", "eval")

    @staticmethod
    def _namespace(spec: ScenarioSpec) -> Dict[str, Any]:
        """Names a constraint may reference, for one candidate point."""
        names = spec.to_dict()
        names.pop("params", None)
        names.pop("description", None)
        names.update(spec.merged_params())
        names["num_clusters"] = spec.num_vaults * spec.clusters_per_vault
        return names

    @staticmethod
    def _evaluate_constraint(code, expression: str, namespace: Dict[str, Any]) -> bool:
        try:
            return bool(eval(code, {"__builtins__": {}}, namespace))
        except NameError as error:
            raise ValueError(
                f"constraint {expression!r} references an unknown name "
                f"({error}); accepted names: {sorted(namespace)}"
            ) from None
        except Exception as error:
            # E.g. a type mismatch ("engine <= 16") — name the constraint
            # rather than leaking a bare TypeError out of expand().
            raise ValueError(
                f"constraint {expression!r} failed to evaluate: {error}"
            ) from None

    # -- expansion ------------------------------------------------------------

    def for_quick(self) -> "SweepSpec":
        """The CI-sized variant: same axes, ``quick_overrides`` on the base."""
        if not self.quick_overrides:
            return self
        return replace(
            self, base=self.base.with_overrides(**self.quick_overrides)
        )

    def _combinations(self) -> List[Tuple[Any, ...]]:
        values = list(self.axes.values())
        if self.mode == "zip":
            return list(zip(*values))
        return list(itertools.product(*values))

    def _point_spec(self, axis_values: Dict[str, Any]) -> ScenarioSpec:
        overrides: Dict[str, Any] = {}
        params = dict(self.base.params)
        for path, value in axis_values.items():
            if path.startswith(_PARAM_PREFIX):
                params[path[len(_PARAM_PREFIX):]] = value
            else:
                overrides[path] = value
        overrides["params"] = params
        knobs = ",".join(f"{k}={v}" for k, v in axis_values.items())
        overrides["name"] = f"{self.base.name}/{knobs}"
        return self.base.with_overrides(**overrides)

    def expand(self) -> List[CampaignPoint]:
        """All surviving points, in deterministic axis order.

        Constraints prune candidates before the scenario spec is built;
        a surviving candidate that still fails ``ScenarioSpec`` validation
        is an error in the campaign definition and raises with context.
        """
        compiled = [
            (self._compile_constraint(expr), expr) for expr in self.constraints
        ]
        points: List[CampaignPoint] = []
        seen: Dict[str, Dict[str, Any]] = {}
        base_names = self._namespace(self.base)
        for combo in self._combinations():
            axis_values = dict(zip(self.axes, combo))
            probe = dict(base_names)
            for path, value in axis_values.items():
                probe[path[len(_PARAM_PREFIX):] if path.startswith(_PARAM_PREFIX) else path] = value
            probe["num_clusters"] = probe["num_vaults"] * probe["clusters_per_vault"]
            if not all(
                self._evaluate_constraint(code, expr, probe)
                for code, expr in compiled
            ):
                continue
            try:
                spec = self._point_spec(axis_values)
            except ValueError as error:
                raise ValueError(
                    f"campaign {self.name!r}: point {axis_values} does not "
                    f"build ({error}); prune it with a constraint"
                ) from None
            identifier = point_id(spec)
            if identifier in seen:
                raise ValueError(
                    f"campaign {self.name!r}: points {seen[identifier]} and "
                    f"{axis_values} expand to the same scenario"
                )
            seen[identifier] = axis_values
            points.append(
                CampaignPoint(id=identifier, axis_values=axis_values, spec=spec)
            )
        if not points:
            raise ValueError(
                f"campaign {self.name!r} expands to no points "
                f"(constraints pruned the whole design space)"
            )
        return points

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (JSON-compatible)."""
        return {
            "name": self.name,
            "description": self.description,
            "base": self.base.to_dict(),
            "axes": {path: list(values) for path, values in self.axes.items()},
            "mode": self.mode,
            "constraints": list(self.constraints),
            "quick_overrides": dict(self.quick_overrides),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        if not isinstance(data, Mapping):
            raise ValueError("a campaign spec must be a mapping")
        accepted = {
            "name", "description", "base", "axes", "mode",
            "constraints", "quick_overrides",
        }
        unknown = set(data) - accepted
        if unknown:
            raise ValueError(
                f"unknown campaign field(s) {sorted(unknown)}; "
                f"accepted: {sorted(accepted)}"
            )
        missing = {"name", "base", "axes"} - set(data)
        if missing:
            raise ValueError(f"campaign spec is missing {sorted(missing)}")
        payload = dict(data)
        payload["base"] = ScenarioSpec.from_dict(payload["base"])
        axes = payload["axes"]
        if not isinstance(axes, Mapping):
            raise ValueError("axes must be a mapping of path -> values")
        # Values pass through verbatim: __post_init__ normalizes them and
        # rejects non-sequences (pre-tupling here would silently split a
        # string axis into characters).
        payload["axes"] = dict(axes)
        payload["constraints"] = tuple(payload.get("constraints", ()))
        payload["quick_overrides"] = dict(payload.get("quick_overrides", {}))
        return cls(**payload)
