"""The shared scenario-run base: what every completed run can do.

Every scenario run carries the same core triple -- the world (hence
the observation ledger), the network, and a decoupling analyzer over
the settled world -- plus a display contract (entity order, table
title, optional tracked subject) that :meth:`ScenarioRun.table` turns
into the paper-style knowledge table.  Per-package run classes
subclass this and add only their scenario-specific extras (answer
lists, latency figures, ground-truth maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.net.network import Network

__all__ = ["ScenarioRun"]


@dataclass
class ScenarioRun:
    """A completed scenario: world, network, analyzer, display contract.

    Subclasses provide the display contract either as class attributes
    (fixed-entity scenarios), dataclass fields (variant-dependent
    orders), or properties (titles derived from run state):

    * ``table_entities`` -- entity display order for :meth:`table`;
    * ``table_title``    -- the table's title string;
    * ``table_subject``  -- optional tracked :class:`Subject`.

    The runtime stamps ``scenario_id`` and ``params`` after the run
    completes, so any run can say which spec and binding produced it.
    """

    world: World
    network: Network
    analyzer: DecouplingAnalyzer

    # Display contract defaults; subclasses override (class attribute,
    # dataclass field, or property).  Deliberately unannotated so they
    # stay class attributes, not dataclass fields -- subclasses keep
    # the freedom to declare required fields of their own.
    table_entities = None
    table_title = ""
    table_subject = None

    #: Fault accounting (:meth:`repro.faults.FaultRuntime.summary`),
    #: stamped by the runtime when the run carried a fault plan;
    #: ``None`` for fault-free runs, and then absent from
    #: :meth:`to_dict` so fault-free output stays byte-identical.
    fault_summary = None

    #: The ambient population engine, stamped by the runtime when the
    #: run was launched with ``run_scenario(population=...)``; ``None``
    #: otherwise.  The risk layer reads its linkability population.
    population_engine = None

    def __post_init__(self) -> None:
        #: Stamped by the runtime (empty for hand-built runs).
        self.scenario_id: str = ""
        self.params: Dict[str, Any] = {}

    # -- the uniform analysis surface ----------------------------------

    def table(self):
        """The run's knowledge table in the declared display order."""
        return self.analyzer.table(
            entities=(
                list(self.table_entities)
                if self.table_entities is not None
                else None
            ),
            subject=self.table_subject,
            title=self.table_title,
        )

    def audit(self, narrate: bool = True):
        """The full decoupling audit of this run, as one document."""
        from repro.core.audit import audit

        return audit(
            self.world,
            title=self.table_title or self.scenario_id or "scenario run",
            entities=(
                list(self.table_entities)
                if self.table_entities is not None
                else None
            ),
            narrate=narrate,
        )

    def verdict(self):
        """The analyzer's decoupling verdict."""
        return self.analyzer.verdict()

    def coalitions(self) -> List[frozenset]:
        """Minimal re-coupling coalitions, if any."""
        return list(self.analyzer.minimal_recoupling_coalitions())

    def observations(self) -> int:
        """How many observations the run's ledger recorded."""
        return len(self.world.ledger)

    def to_dict(self) -> Dict[str, Any]:
        """The run as a plain dict (see ``core.serialize``)."""
        from repro.core.serialize import scenario_run_to_dict

        return scenario_run_to_dict(self)
