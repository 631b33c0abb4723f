"""The T4 scenarios: plain DNS (baseline), ODNS, and ODoH.

Each run resolves a handful of names and then fetches content from the
web origin.  Following the paper's layering argument (section 2.1), the
fetch rides a connection-level privacy layer (an anonymized network
identity, as Private Relay or Tor would provide): the T4 table analyzes
the *resolution* path, and its Origin column presumes the connection
layer is not re-identifying the user.  The plain-DNS baseline shows the
coupled alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.zones import AuthoritativeServer, Zone, ZoneRegistry
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    client_ip_identity,
    fetch_via_anonymized,
    register,
)

from .doh import DohClient, DohResolver
from .odns import ObliviousResolver, OdnsAwareResolver, OdnsClient
from .odoh import ObliviousProxy, ObliviousTarget, OdohClient

__all__ = [
    "OdnsRun",
    "PAPER_TABLE_T4_ODNS",
    "PAPER_TABLE_T4_ODOH",
]

#: The paper's section 3.2.2 table (ODNS naming), exactly as printed.
PAPER_TABLE_T4_ODNS: Dict[str, str] = {
    "Client": "(▲, ●)",
    "Resolver": "(▲, ⊙)",
    "Oblivious Resolver": "(△, ⊙/●)",
    "Origin": "(△, ●)",
}

#: The same analysis under ODoH naming (proxy/target).
PAPER_TABLE_T4_ODOH: Dict[str, str] = {
    "Client": "(▲, ●)",
    "Oblivious Proxy": "(▲, ⊙)",
    "Oblivious Target": "(△, ⊙/●)",
    "Origin": "(△, ●)",
}

_NAMES = ["www.example.com", "mail.example.com", "news.example.com"]


@dataclass
class OdnsRun(ScenarioRun):
    """Everything produced by one DNS-privacy scenario run."""

    variant: str = ""
    table_entities: List[str] = None  # type: ignore[assignment]
    answers: List[str] = None  # type: ignore[assignment]
    fetches: int = 0
    #: The protocol client (OdnsClient / OdohClient / StubResolver),
    #: kept so benchmarks can issue further queries against the run.
    client: Optional[object] = None

    @property
    def table_title(self) -> str:
        return f"T4: {self.variant}"


class _DnsBase(ScenarioProgram):
    """Shared authoritative zone, client host, and resolve-then-fetch loop.

    Subclasses add the variant's resolution topology in
    :meth:`build_resolution` and must set ``self.client`` (an object
    with a ``lookup(name)`` method returning a DNS answer).
    """

    variant = ""
    table_entities: List[str] = []

    def build(self) -> None:
        self.registry = ZoneRegistry()
        zone = Zone("example.com")
        for name in _NAMES:
            zone.add(name, "93.184.216.34")
        auth_entity = self.world.entity("Authoritative (example.com)", "dns-infra")
        AuthoritativeServer(self.network, auth_entity, zone, self.registry)
        self.subject = Subject("alice")
        self.client_entity = self.world.entity(
            "Client", "client-device", trusted_by_user=True
        )
        client_identity = client_ip_identity(self.subject, "198.51.100.7")
        self.query_host = self.network.add_host(
            "client", self.client_entity, identity=client_identity
        )
        self.client_entity.observe(client_identity, channel="self", session="self")
        self.build_resolution()

    def build_resolution(self) -> None:
        raise NotImplementedError

    def _lookup(self, name: str):
        return self.client.lookup(name)

    def _fallback_for(self, name: str):
        """The variant's availability fallback for one lookup, or ``None``.

        Only consulted under fault injection, after retries are
        exhausted -- the degraded path a real deployment would take.
        """
        return None

    def drive(self) -> None:
        # Cycle the zone's names so ``queries`` scales past the name
        # list (drive-phase benchmarks run hundreds); for queries <=
        # len(_NAMES) this is exactly the old ``_NAMES[:queries]``
        # prefix, so default runs stay byte-identical.
        names = [_NAMES[i % len(_NAMES)] for i in range(self.param("queries"))]
        self.answers = []
        self.fetches = 0
        for name in names:
            answer = self.attempt(
                lambda name=name: self._lookup(name),
                fallback=self._fallback_for(name),
                label=f"resolve {name}",
            )
            self.answers.append(
                "DROPPED" if answer is None else answer.rdata or "NXDOMAIN"
            )
        self.fetches = fetch_via_anonymized(
            self.world, self.network, self.subject, self.client_entity, names,
            attempt=self.attempt,
        )

    def analyze(self) -> OdnsRun:
        return OdnsRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant=self.variant,
            table_entities=list(self.table_entities),
            answers=self.answers,
            fetches=self.fetches,
            client=self.client,
        )


class PlainDnsProgram(_DnsBase):
    """The coupled baseline: a stock recursive resolver sees all."""

    variant = "plain DNS (baseline)"
    table_entities = ["Client", "Resolver", "Origin"]

    def build_resolution(self) -> None:
        resolver_entity = self.world.entity("Resolver", "resolver-org")
        resolver = RecursiveResolver(self.network, resolver_entity, self.registry)
        self.client = StubResolver(self.query_host, resolver.address)

    def _lookup(self, name: str):
        return self.client.lookup(name, self.subject)


class DohProgram(_DnsBase):
    """DNS over HTTPS: encrypted to the resolver, still coupled there.

    The rung between plain DNS and ODoH: a wire observer no longer sees
    query names, but the resolver's knowledge is unchanged -- the
    paper's motivation for *oblivious* designs.
    """

    variant = "DoH (encrypted, not oblivious)"
    table_entities = ["Client", "Network Observer", "Resolver", "Origin"]

    def build_resolution(self) -> None:
        from repro.net.network import WireObserver

        # The observer is the client's access network (coffee-shop WiFi,
        # ISP): it taps the client's links, not the resolver's upstream
        # (where recursion to authoritatives is plaintext regardless).
        observer_entity = self.world.entity("Network Observer", "access-isp")
        self.network.add_observer(
            WireObserver(observer_entity, prefixes=(self.query_host.address.prefix,))
        )
        resolver_entity = self.world.entity("Resolver", "resolver-org")
        resolver = DohResolver(
            self.network, resolver_entity, self.registry,
            key_seed=self.param("key_seed"),
        )
        self.client = DohClient(self.query_host, resolver, self.subject)


class OdnsProgram(_DnsBase):
    """The original ODNS protocol run."""

    variant = "ODNS"
    table_entities = ["Client", "Resolver", "Oblivious Resolver", "Origin"]

    def build_resolution(self) -> None:
        resolver_entity = self.world.entity("Resolver", "resolver-org")
        oblivious_entity = self.world.entity("Oblivious Resolver", "oblivious-org")
        resolver = OdnsAwareResolver(self.network, resolver_entity, self.registry)
        oblivious = ObliviousResolver(self.network, oblivious_entity, self.registry)
        self.client = OdnsClient(
            self.query_host, resolver.address, oblivious, self.subject
        )


class OdohProgram(_DnsBase):
    """The ODoH protocol run (real HPKE on the wire)."""

    variant = "ODoH"
    table_entities = ["Client", "Oblivious Proxy", "Oblivious Target", "Origin"]

    def build_resolution(self) -> None:
        proxy_entity = self.world.entity("Oblivious Proxy", "proxy-org")
        target_entity = self.world.entity("Oblivious Target", "target-org")
        target = ObliviousTarget(
            self.network, target_entity, self.registry,
            key_seed=self.param("key_seed"),
        )
        proxy = ObliviousProxy(self.network, proxy_entity, target.address)
        self.client = OdohClient(self.query_host, proxy, target, self.subject)
        self.target = target
        self._direct_stub: Optional[StubResolver] = None

    def _fallback_for(self, name: str):
        """Proxy down -> query the target directly, as deployed DoH does.

        This is the paper's unstated failure mode: the target now sees
        the client's network identity next to the plaintext query name
        on one connection, re-coupling exactly what the oblivious
        layering decoupled.  The analyzer's verdict flips accordingly.
        """

        def direct_doh():
            if self._direct_stub is None:
                self._direct_stub = StubResolver(
                    self.query_host, self.target.address
                )
            return self._direct_stub.lookup(name, self.subject)

        return direct_doh


_QUERIES_PARAM = Param("queries", 3, "names resolved and fetched")
_SEED_PARAM = Param("seed", None, "unused: the scenario is deterministic")

register(
    ScenarioSpec(
        id="odns",
        title="Oblivious DNS -- ODNS (3.2.2)",
        program=OdnsProgram,
        params=(_QUERIES_PARAM, _SEED_PARAM),
        expected=PAPER_TABLE_T4_ODNS,
        entities=("Client", "Resolver", "Oblivious Resolver", "Origin"),
        experiment_id="T4a",
        order=40.0,
    )
)

register(
    ScenarioSpec(
        id="odoh",
        title="Oblivious DNS -- ODoH (3.2.2)",
        program=OdohProgram,
        params=(
            _QUERIES_PARAM,
            Param("key_seed", b"\x42" * 32, "HPKE key seed for the target"),
            _SEED_PARAM,
        ),
        expected=PAPER_TABLE_T4_ODOH,
        entities=("Client", "Oblivious Proxy", "Oblivious Target", "Origin"),
        experiment_id="T4b",
        order=41.0,
    )
)

register(
    ScenarioSpec(
        id="plain-dns",
        title="Plain DNS, coupled baseline (3.2.2)",
        program=PlainDnsProgram,
        params=(_QUERIES_PARAM, _SEED_PARAM),
        entities=("Client", "Resolver", "Origin"),
        order=42.0,
    )
)

register(
    ScenarioSpec(
        id="doh",
        title="DNS over HTTPS, encrypted not oblivious (3.2.2)",
        program=DohProgram,
        params=(
            _QUERIES_PARAM,
            Param("key_seed", b"\x51" * 32, "TLS key seed for the resolver"),
            _SEED_PARAM,
        ),
        entities=("Client", "Network Observer", "Resolver", "Origin"),
        order=43.0,
    )
)
