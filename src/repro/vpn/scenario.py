"""The T8 scenarios: VPN and ECH cautionary tales (section 3.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.http.messages import make_request
from repro.net.network import WireObserver
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    add_origin,
    client_ip_identity,
    register,
)
from repro.tls.handshake import TlsClientSession, TlsServer

from .vpn import VpnClient, VpnServer

__all__ = [
    "VpnRun",
    "EchRun",
    "PAPER_TABLE_T8",
]

#: The paper's section 3.3 table, exactly as printed.
PAPER_TABLE_T8: Dict[str, str] = {
    "Client": "(▲, ●)",
    "VPN Server": "(▲, ●)",
    "Origin": "(△, ●)",
}


@dataclass
class VpnRun(ScenarioRun):
    requests: int = 0

    table_title = "T8: centralized VPN"


class VpnProgram(ScenarioProgram):
    """All traffic through one trusted provider: the anti-pattern."""

    def build(self) -> None:
        client_entity = self.world.entity(
            "Client", "client-device", trusted_by_user=True
        )
        vpn_entity = self.world.entity("VPN Server", "vpn-provider")
        origin = add_origin(self.world, self.network)
        server = VpnServer(self.network, vpn_entity, origin.directory)
        self.client = VpnClient(
            self.network, client_entity, Subject("alice"), server
        )

    def drive(self) -> None:
        for index in range(self.param("requests")):
            self.client.fetch("www.example.com", f"/private/{index}")

    def analyze(self) -> VpnRun:
        return VpnRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            requests=self.param("requests"),
        )


register(
    ScenarioSpec(
        id="vpn",
        title="Centralized VPN, cautionary (3.3)",
        program=VpnProgram,
        params=(
            Param("requests", 3, "pages fetched through the VPN"),
            Param("seed", None, "unused: the scenario is deterministic"),
        ),
        expected=PAPER_TABLE_T8,
        entities=("Client", "VPN Server", "Origin"),
        experiment_id="T8",
        order=90.0,
    )
)


@dataclass
class EchRun(ScenarioRun):
    use_ech: bool = False

    @property
    def table_title(self) -> str:
        return f"T8b: TLS {'with' if self.use_ech else 'without'} ECH"

    def observer_saw_sni(self) -> bool:
        return any(
            obs.description == "target fqdn" and obs.label.is_sensitive
            for obs in self.world.ledger.by_entity("Network Observer")
        )


class EchProgram(ScenarioProgram):
    """TLS with/without ECH under a passive network observer.

    ECH hides the SNI from the observer but -- the paper's point --
    "does not alter what information the TLS server sees": the server
    column is (▲, ●) either way.
    """

    def build(self) -> None:
        self.client_entity = self.world.entity(
            "Client", "client-device", trusted_by_user=True
        )
        observer_entity = self.world.entity("Network Observer", "transit-isp")
        server_entity = self.world.entity("TLS Server", "server-org")

        self.network.add_observer(WireObserver(observer_entity))
        server = TlsServer(self.network, server_entity, "secret-site.example")
        self.subject = Subject("alice")
        identity = client_ip_identity(self.subject, "198.51.100.23")
        host = self.network.add_host("tls-client", self.client_entity, identity=identity)
        self.client_entity.observe(identity, channel="self", session="self")
        self.session = TlsClientSession(
            host, server, self.subject, use_ech=self.param("use_ech")
        )

    def drive(self) -> None:
        for index in range(self.param("requests")):
            request = make_request("secret-site.example", f"/page/{index}", self.subject)
            self.client_entity.observe(request.content, channel="self", session="self")
            self.session.request(request)

    def analyze(self) -> EchRun:
        return EchRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            use_ech=self.param("use_ech"),
        )


register(
    ScenarioSpec(
        id="ech",
        title="TLS with/without ECH, cautionary (3.3)",
        program=EchProgram,
        params=(
            Param("use_ech", True, "encrypt the ClientHello SNI"),
            Param("requests", 2, "requests issued over the session"),
            Param("seed", None, "unused: the scenario is deterministic"),
        ),
        entities=("Client", "Network Observer", "TLS Server"),
        order=91.0,
    )
)
