#!/usr/bin/env python3
"""Quickstart: analyze a tiny system with the Decoupling Principle.

We model a minimal "search service" twice: once where the frontend
both identifies the user and reads her query (coupled), and once where
an identity-blind relay forwards the sealed query to the backend
(decoupled).  The knowledge tables and verdicts are *derived* from the
protocol runs, not asserted.

Run:  python examples/quickstart.py
"""

from repro.core import (
    DecouplingAnalyzer,
    LabeledValue,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
    Sealed,
    Subject,
    World,
)
from repro.net import Network


def coupled_search() -> None:
    """One server sees who you are and what you search for."""
    world = World()
    network = Network()
    alice = Subject("alice")

    user = world.entity("User", "user-device", trusted_by_user=True)
    server = world.entity("Search Server", "search-org")

    ip = LabeledValue("198.51.100.7", SENSITIVE_IDENTITY, alice, "client ip")
    query = LabeledValue("embarrassing ailment", SENSITIVE_DATA, alice, "search query")
    user.observe([ip, query], channel="self", session="self")

    user_host = network.add_host("user", user, identity=ip)
    server_host = network.add_host("server", server)
    server_host.register("search", lambda pkt: "results")
    user_host.transact(server_host.address, query, "search")

    analyzer = DecouplingAnalyzer(world)
    print(analyzer.table(title="Coupled search service").render())
    print(analyzer.verdict(), "\n")


def decoupled_search() -> None:
    """A relay strips identity; the backend reads only sealed queries."""
    world = World()
    network = Network()
    alice = Subject("alice")

    user = world.entity("User", "user-device", trusted_by_user=True)
    relay = world.entity("Relay", "relay-org")
    backend = world.entity("Search Backend", "search-org")
    backend.grant_key("backend-key")

    ip = LabeledValue("198.51.100.7", SENSITIVE_IDENTITY, alice, "client ip")
    query = LabeledValue("embarrassing ailment", SENSITIVE_DATA, alice, "search query")
    user.observe([ip, query], channel="self", session="self")

    user_host = network.add_host("user", user, identity=ip)
    relay_host = network.add_host("relay", relay)
    backend_host = network.add_host("backend", backend)

    backend_host.register("search", lambda pkt: "sealed results")
    relay_host.register(
        "relayed-search",
        lambda pkt: relay_host.transact(backend_host.address, pkt.payload, "search"),
    )

    sealed = Sealed.wrap("backend-key", [query], subject=alice)
    user_host.transact(relay_host.address, sealed, "relayed-search")

    analyzer = DecouplingAnalyzer(world)
    print(analyzer.table(title="Decoupled search service").render())
    print(analyzer.verdict())
    coalitions = analyzer.minimal_recoupling_coalitions()
    print("Minimal re-coupling coalitions:", [sorted(c) for c in coalitions])
    for report in analyzer.breach_reports():
        status = "breach-proof" if report.breach_proof else "EXPOSED"
        print(f"  breach of {report.organization}: {status}")


if __name__ == "__main__":
    coupled_search()
    decoupled_search()
