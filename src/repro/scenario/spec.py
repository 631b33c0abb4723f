"""Scenario specs and the scenario registry.

Every analyzed system in the paper follows the same shape -- build a
world, wire entities onto the network, drive traffic, derive the
knowledge table.  A :class:`ScenarioSpec` declares one such system:
its id, display title, paper table, entity display order, parameter
schema (with defaults), and the program class that implements the
``build -> drive -> settle -> analyze`` lifecycle.

Specs register themselves at import time via :func:`register`;
:func:`discover` imports every ``repro.*.scenario`` module so the
registry is complete no matter which package a caller imported first.
The harness's D-series sweeps use the same pattern through
:class:`SweepSpec` / :func:`register_sweep`.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Param",
    "ScenarioSpec",
    "SweepSpec",
    "ScenarioError",
    "register",
    "register_sweep",
    "get_spec",
    "find_spec",
    "all_specs",
    "experiment_specs",
    "sweep_specs",
    "discover",
]


class ScenarioError(LookupError):
    """An unknown scenario id or bad parameter binding."""


@dataclass(frozen=True)
class Param:
    """One declared scenario parameter: name, default, documentation."""

    name: str
    default: Any = None
    doc: str = ""


#: A paper table: either the printed mapping or, for tables that
#: generalize with a parameter (T2's mix count), a callable from the
#: bound params to the mapping.
ExpectedTable = Union[Mapping[str, str], Callable[[Dict[str, Any]], Mapping[str, str]]]

#: Entity display order: a fixed list, or a callable from bound params
#: (mix pools and relay chains grow with their degree knob).
EntityOrder = Union[Sequence[str], Callable[[Dict[str, Any]], Sequence[str]]]


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario, declaratively.

    ``program`` is a :class:`~repro.scenario.runtime.ScenarioProgram`
    subclass; the runtime instantiates it per run and steps it through
    the lifecycle phases.  ``experiment_id`` marks specs that appear in
    the paper report (T1..E2c); ``order`` fixes their presentation
    order there.
    """

    id: str
    title: str
    program: type
    params: Tuple[Param, ...] = ()
    expected: Optional[ExpectedTable] = None
    entities: Optional[EntityOrder] = None
    experiment_id: Optional[str] = None
    order: float = 1000.0
    tags: Tuple[str, ...] = ()

    def defaults(self) -> Dict[str, Any]:
        """The parameter schema's default binding."""
        return {param.name: param.default for param in self.params}

    def bind(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Defaults overlaid with ``overrides``; unknown names fail."""
        bound = self.defaults()
        for name, value in (overrides or {}).items():
            if name not in bound:
                known = ", ".join(sorted(bound)) or "(none)"
                raise ScenarioError(
                    f"scenario {self.id!r} has no parameter {name!r};"
                    f" known parameters: {known}"
                )
            bound[name] = value
        return bound

    def expected_table(
        self, params: Optional[Dict[str, Any]] = None
    ) -> Optional[Dict[str, str]]:
        """The paper table under ``params`` (defaults if omitted)."""
        if self.expected is None:
            return None
        if callable(self.expected):
            return dict(self.expected(params if params is not None else self.defaults()))
        return dict(self.expected)

    def entity_order(
        self, params: Optional[Dict[str, Any]] = None
    ) -> Optional[List[str]]:
        """The table's entity display order under ``params``."""
        if self.entities is None:
            return None
        if callable(self.entities):
            return list(self.entities(params if params is not None else self.defaults()))
        return list(self.entities)


@dataclass(frozen=True)
class SweepSpec:
    """One D-series sweep: a stable key plus a no-argument runner."""

    key: str
    runner: Callable[[], object]
    title: str = ""
    order: float = 1000.0


_REGISTRY: Dict[str, ScenarioSpec] = {}
_SWEEPS: Dict[str, SweepSpec] = {}
_DISCOVERED = False


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the registry (import-time; duplicate ids fail)."""
    existing = _REGISTRY.get(spec.id)
    if existing is not None and existing is not spec:
        raise ScenarioError(f"scenario id {spec.id!r} registered twice")
    _REGISTRY[spec.id] = spec
    return spec


def register_sweep(
    key: str, title: str = "", order: float = 1000.0
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Decorator registering a D-series sweep runner under ``key``."""

    def _decorate(runner: Callable[[], object]) -> Callable[[], object]:
        if key in _SWEEPS and _SWEEPS[key].runner is not runner:
            raise ScenarioError(f"sweep key {key!r} registered twice")
        _SWEEPS[key] = SweepSpec(key=key, runner=runner, title=title, order=order)
        return runner

    return _decorate


def discover() -> None:
    """Import every ``repro.*.scenario`` module exactly once.

    Specs register at import time; this walks the ``repro`` package so
    the registry is complete regardless of what was imported before.
    """
    global _DISCOVERED
    if _DISCOVERED:
        return
    _DISCOVERED = True
    import repro

    for info in pkgutil.iter_modules(repro.__path__):
        if not info.ispkg:
            continue
        name = f"repro.{info.name}.scenario"
        if importlib.util.find_spec(name) is not None:
            importlib.import_module(name)


def get_spec(scenario_id: str) -> ScenarioSpec:
    """The spec registered under ``scenario_id`` (after discovery)."""
    discover()
    try:
        return _REGISTRY[scenario_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ScenarioError(
            f"unknown scenario {scenario_id!r}; try: {known}"
        ) from None


def find_spec(scenario_id: str) -> Optional[ScenarioSpec]:
    """Like :func:`get_spec` but ``None`` instead of raising."""
    discover()
    return _REGISTRY.get(scenario_id)


def all_specs() -> List[ScenarioSpec]:
    """Every registered spec, ordered by id."""
    discover()
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def experiment_specs() -> List[ScenarioSpec]:
    """The T/E-series specs in the paper's presentation order."""
    discover()
    specs = [spec for spec in _REGISTRY.values() if spec.experiment_id]
    return sorted(specs, key=lambda spec: (spec.order, spec.experiment_id))


def sweep_specs() -> List[SweepSpec]:
    """The D-series sweeps in presentation order, by stable key."""
    # Sweeps register when the harness imports; make sure it has.
    importlib.import_module("repro.harness")
    return sorted(_SWEEPS.values(), key=lambda spec: (spec.order, spec.key))
