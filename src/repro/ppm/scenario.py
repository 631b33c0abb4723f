"""The T7 scenarios: naive, OHTTP-proxied, and Prio aggregation."""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    register,
)

from .naive import NaiveCollector, OhttpRelay, ReportingClient
from .prio import PrioAggregator, PrioClient, PrioCollector, COLLECT_PROTOCOL

__all__ = [
    "PpmRun",
    "PAPER_TABLE_T7",
]

#: The paper's section 3.2.5 table, exactly as printed.
PAPER_TABLE_T7: Dict[str, str] = {
    "Client": "(▲, ●)",
    "Aggregator": "(▲, ⊙)",
    "Collector": "(△, ⊙)",
}


@dataclass
class PpmRun(ScenarioRun):
    """Everything produced by one aggregate-statistics run."""

    variant: str = ""
    table_entities: List[str] = None  # type: ignore[assignment]
    reported_total: int = 0
    true_total: int = 0
    clients: int = 0
    #: Histogram runs: per-bucket (reported, true) series.
    reported_histogram: List[int] = None  # type: ignore[assignment]
    true_histogram: List[int] = None  # type: ignore[assignment]

    table_subject = Subject("client-0")

    @property
    def table_title(self) -> str:
        return f"T7: {self.variant}"

    def collector_sees_individual_values(self) -> bool:
        """Did any collector entity observe a per-client sensitive value?"""
        for obs in self.world.ledger.by_entity("Collector"):
            if obs.label.is_data and obs.label.is_sensitive:
                return True
        return False


def _client_bits(clients: int, seed: int) -> List[int]:
    rng = _random.Random(seed)
    return [rng.randrange(2) for _ in range(clients)]


def _client_entity(world, index: int):
    return world.entity(
        "Client" if index == 0 else f"Client {index}",
        f"client-device-{index}",
        trusted_by_user=True,
    )


def _client_subject(program: ScenarioProgram, index: int) -> Subject:
    """Client ``index``'s subject: population-engine name, or the
    historical ``client-{index}`` when the run has no engine."""
    names = getattr(program, "_client_names", None)
    if names is None:
        names = program._client_names = program.population_names(
            program.param("clients"), lambda i: f"client-{i}"
        )
    return Subject(names[index])


class NaiveProgram(ScenarioProgram):
    """Baseline: one trusted server sees everything."""

    def build(self) -> None:
        collector_entity = self.world.entity("Collector", "collector-org")
        self.collector = NaiveCollector(self.network, collector_entity)
        self.bits = _client_bits(self.param("clients"), self.param("seed"))

    def drive(self) -> None:
        for index, bit in enumerate(self.bits):
            entity = _client_entity(self.world, index)
            client = ReportingClient(
                self.network, entity, _client_subject(self, index), f"192.0.2.{index + 1}"
            )
            client.submit_naive(bit, self.collector)

    def analyze(self) -> PpmRun:
        return PpmRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant="naive single server",
            table_entities=["Client", "Collector"],
            reported_total=self.collector.total(),
            true_total=sum(self.bits),
            clients=self.param("clients"),
        )


class OhttpProgram(ScenarioProgram):
    """Intermediate: OHTTP hides identity, not individual values."""

    def build(self) -> None:
        collector_entity = self.world.entity("Collector", "collector-org")
        relay_entity = self.world.entity("Relay", "relay-org")
        self.collector = NaiveCollector(self.network, collector_entity)
        self.relay = OhttpRelay(self.network, relay_entity, self.collector)
        self.bits = _client_bits(self.param("clients"), self.param("seed"))

    def drive(self) -> None:
        for index, bit in enumerate(self.bits):
            entity = _client_entity(self.world, index)
            client = ReportingClient(
                self.network, entity, _client_subject(self, index), f"192.0.2.{index + 1}"
            )
            client.submit_via_ohttp(bit, self.relay)

    def analyze(self) -> PpmRun:
        return PpmRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant="OHTTP-proxied single server",
            table_entities=["Client", "Relay", "Collector"],
            reported_total=self.collector.total(),
            true_total=sum(self.bits),
            clients=self.param("clients"),
        )


class _PrioBase(ScenarioProgram):
    """Shared aggregator/collector topology for the Prio variants."""

    def validate(self) -> None:
        if self.params["aggregators"] < 2:
            raise ValueError("prio needs at least two aggregators")

    def build(self) -> None:
        aggregators = self.param("aggregators")
        self.aggregator_objs: List[PrioAggregator] = []
        for index in range(aggregators):
            entity = self.world.entity(
                "Aggregator" if index == 0 else f"Aggregator {index + 1}",
                f"aggregator-org-{index + 1}",
            )
            self.aggregator_objs.append(
                PrioAggregator(self.network, entity, index=index, total=aggregators)
            )
        collector_entity = self.world.entity("Collector", "collector-org")
        self.collector = PrioCollector(self.network, collector_entity)

    def _client(self, index: int) -> PrioClient:
        entity = _client_entity(self.world, index)
        return PrioClient(
            self.network,
            entity,
            _client_subject(self, index),
            f"192.0.2.{index + 1}",
            rng=self.rng,
        )


class PrioProgram(_PrioBase):
    """The full PPM/Prio protocol with ``aggregators`` servers."""

    def drive(self) -> None:
        self.bits = _client_bits(self.param("clients"), self.param("seed"))
        for index, bit in enumerate(self.bits):
            self._client(index).submit(bit, self.aggregator_objs)

        leader, *peers = self.aggregator_objs
        leader.run_validity_checks(peers)
        for aggregator in self.aggregator_objs:
            aggregator.host.transact(
                self.collector.address, aggregator.sum_contribution(), COLLECT_PROTOCOL
            )

    def analyze(self) -> PpmRun:
        return PpmRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant=f"Prio ({self.param('aggregators')} aggregators)",
            table_entities=["Client", "Aggregator", "Collector"],
            reported_total=self.collector.total(),
            true_total=sum(self.bits),
            clients=self.param("clients"),
        )


class PrioHistogramProgram(_PrioBase):
    """The full PPM/Prio protocol over one-hot histogram reports."""

    def drive(self) -> None:
        buckets = self.param("buckets")
        self.true_histogram = [0] * buckets
        for index in range(self.param("clients")):
            client = self._client(index)
            bucket = self.rng.randrange(buckets)
            self.true_histogram[bucket] += 1
            client.submit_histogram(bucket, buckets, self.aggregator_objs)

        leader, *peers = self.aggregator_objs
        leader.run_validity_checks(peers)
        leader.run_histogram_checks(peers)
        for aggregator in self.aggregator_objs:
            aggregator.host.transact(
                self.collector.address,
                aggregator.histogram_contribution(),
                COLLECT_PROTOCOL,
            )

    def analyze(self) -> PpmRun:
        reported = self.collector.histogram()
        buckets = self.param("buckets")
        return PpmRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant=(
                f"Prio histogram ({buckets} buckets, "
                f"{self.param('aggregators')} aggregators)"
            ),
            table_entities=["Client", "Aggregator", "Collector"],
            reported_total=sum(reported),
            true_total=self.param("clients"),
            clients=self.param("clients"),
            reported_histogram=reported,
            true_histogram=self.true_histogram,
        )


_SEED_PARAM = Param("seed", 20221114, "per-run RNG seed (None: system entropy)")

register(
    ScenarioSpec(
        id="prio",
        title="Private aggregate statistics -- Prio (3.2.5)",
        program=PrioProgram,
        params=(
            Param("clients", 5, "reporting clients"),
            Param("aggregators", 2, "non-colluding aggregator servers"),
            _SEED_PARAM,
        ),
        expected=PAPER_TABLE_T7,
        entities=("Client", "Aggregator", "Collector"),
        experiment_id="T7",
        order=70.0,
    )
)

register(
    ScenarioSpec(
        id="ppm-naive",
        title="Aggregate statistics, naive baseline (3.2.5)",
        program=NaiveProgram,
        params=(Param("clients", 5, "reporting clients"), _SEED_PARAM),
        entities=("Client", "Collector"),
        order=71.0,
    )
)

register(
    ScenarioSpec(
        id="ppm-ohttp",
        title="Aggregate statistics over OHTTP (3.2.5)",
        program=OhttpProgram,
        params=(Param("clients", 5, "reporting clients"), _SEED_PARAM),
        entities=("Client", "Relay", "Collector"),
        order=72.0,
    )
)

register(
    ScenarioSpec(
        id="prio-histogram",
        title="Prio over one-hot histograms (3.2.5)",
        program=PrioHistogramProgram,
        params=(
            Param("clients", 6, "reporting clients"),
            Param("aggregators", 2, "non-colluding aggregator servers"),
            Param("buckets", 4, "histogram buckets"),
            _SEED_PARAM,
        ),
        entities=("Client", "Aggregator", "Collector"),
        order=73.0,
    )
)
