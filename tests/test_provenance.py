"""Tests for the provenance graph and trace analytics.

The acceptance scenario is a three-host relay: a client sends a sealed
query through a forwarding relay to a server that holds the key.  Every
edge of the expected chain -- originating send, forwarding hop, final
delivery, observation -- is pinned exactly, including packet ids and
the value's derivation steps.
"""

import json
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.values import LabeledValue, Sealed, ShareInfo, Subject
from repro.net.network import Network
from repro.obs import analyze
from repro.obs import export as obs_export
from repro.obs.provenance import (
    ProvenanceError,
    ProvenanceGraph,
    build_provenance,
    knowledge_timeline,
    render_timeline,
)

ALICE = Subject("alice")


def _relay_run():
    """Client --fwd--> Relay --inner--> Server (which holds the key)."""
    world = World()
    network = Network()
    client_ip = LabeledValue("10.9.0.1", SENSITIVE_IDENTITY, ALICE, "client ip")
    client = network.add_host(
        "client", world.entity("Client", "user", trusted_by_user=True),
        identity=client_ip,
    )
    relay = network.add_host("relay", world.entity("Relay", "relay-org"))
    server = network.add_host(
        "server", world.entity("Server", "server-org", keys={"k-server"})
    )
    query = LabeledValue("example.com", SENSITIVE_DATA, ALICE, "query")
    envelope = Sealed.wrap("k-server", [query.derived("example.com", step="encode")])

    relay.register(
        "fwd", lambda packet: (relay.send(server.address, packet.payload, "inner"), None)[1]
    )
    server.register("inner", lambda packet: None)
    client.send(relay.address, envelope, "fwd")
    network.run()
    return SimpleNamespace(world=world, network=network), client, relay, server


def _traced_relay_run():
    with obs.capture() as (tracer, _registry):
        run, client, relay, server = _relay_run()
    return build_provenance(run, tracer), run, client, relay, server


class TestEndToEndChain:
    def test_exact_chain_send_hop_delivery_observation(self):
        graph, run, client, relay, server = _traced_relay_run()
        chains = graph.why("Server")
        assert len(chains) == 1
        chain = chains[0]
        # The fact: the sensitive query, with its derivation steps.
        assert chain.glyph == "●"
        assert chain.observation["description"] == "query"
        assert chain.derivation == ("encode",)
        # The wire: packet 1 (client -> relay) forwarded as packet 2
        # (relay -> server), exactly.
        assert [hop.packet_id for hop in chain.hops] == [1, 2]
        assert chain.hops[0].src == str(client.address)
        assert chain.hops[0].dst == str(relay.address)
        assert chain.hops[1].src == str(relay.address)
        assert chain.hops[1].dst == str(server.address)
        assert chain.origin == f"sent from {client.address}"
        # The observation: the final delivery produced it.
        assert chain.observation["channel"] == "inner"
        assert chain.observation["packet_id"] == 2
        rendered = chain.render()
        assert "pkt#1" in rendered and "pkt#2" in rendered
        assert "derivation: encode" in rendered

    def test_relay_knows_identity_via_first_packet_only(self):
        graph, *_ = _traced_relay_run()
        (chain,) = graph.why("Relay")
        assert chain.glyph == "▲"
        assert [hop.packet_id for hop in chain.hops] == [1]
        assert chain.observation["channel"] == "network-header"

    def test_without_spans_chain_degrades_to_final_packet(self):
        run, *_ = _relay_run()
        graph = build_provenance(run)  # no tracer: no forwarding edges
        (chain,) = graph.why("Server")
        assert [hop.packet_id for hop in chain.hops] == [2]
        assert chain.hops[0].src is not None  # wire trace still present

    def test_local_acts_have_no_hops(self):
        run, *_ = _relay_run()
        run.world.get("Server").observe(
            LabeledValue("note", SENSITIVE_DATA, ALICE, "local note"),
            channel="self",
        )
        graph = build_provenance(run)
        chains = graph.why("Server", "local note")
        assert chains[0].hops == ()
        assert "local act" in chains[0].origin


class TestWhyErrors:
    def test_unknown_entity_lists_known_ones(self):
        graph, *_ = _traced_relay_run()
        with pytest.raises(ProvenanceError) as excinfo:
            graph.why("Nobody")
        assert "Relay" in str(excinfo.value) and "Server" in str(excinfo.value)

    def test_fact_not_held_lists_held_facts(self):
        graph, *_ = _traced_relay_run()
        with pytest.raises(ProvenanceError) as excinfo:
            graph.why("Relay", "●")  # the relay never sees the query
        message = str(excinfo.value)
        assert "does not hold" in message
        assert "▲[client ip]" in message  # what it does hold

    def test_unknown_subject(self):
        graph, *_ = _traced_relay_run()
        with pytest.raises(ProvenanceError):
            graph.why("Server", subject=Subject("bob"))


class TestFactMatching:
    def test_glyph_kind_and_description_matching(self):
        graph, *_ = _traced_relay_run()
        by_glyph = graph.why("Server", "●")
        by_description = graph.why("Server", "QUERY")
        assert by_glyph[0].observation["id"] == by_description[0].observation["id"]
        # Kind words match every label of that kind, sensitive or not:
        # the server also sees the ⊙ ciphertext exterior.
        by_kind = graph.why("Server", "data")
        assert {chain.glyph for chain in by_kind} == {"⊙", "●"}

    def test_label_object_matching(self):
        graph, *_ = _traced_relay_run()
        (chain,) = graph.why("Relay", SENSITIVE_IDENTITY)
        assert chain.glyph == "▲"


class TestTimeline:
    def test_events_grow_monotonically_and_dedup(self):
        graph, *_ = _traced_relay_run()
        events = graph.knowledge_timeline()
        times = [event.time for event in events]
        assert times == sorted(times)
        keys = [(e.entity, e.subject, e.glyph) for e in events]
        assert len(keys) == len(set(keys))  # one growth step per new mark
        relay_event = next(e for e in events if e.entity == "Relay" and e.glyph == "▲")
        assert relay_event.packet_id == 1
        assert "pkt#1" in render_timeline(events)

    def test_convenience_accepts_world_and_graph(self):
        run, *_ = _relay_run()
        from_world = knowledge_timeline(run.world)
        from_graph = knowledge_timeline(build_provenance(run))
        assert [e.entity for e in from_world] == [e.entity for e in from_graph]


class TestBreachChain:
    def test_coupling_traced_to_shared_session_packet(self):
        world = World()
        network = Network()
        client_ip = LabeledValue("10.9.0.1", SENSITIVE_IDENTITY, ALICE, "client ip")
        client = network.add_host(
            "client", world.entity("Client", "user", trusted_by_user=True),
            identity=client_ip,
        )
        server = network.add_host("server", world.entity("Server", "server-org"))
        server.register("q", lambda packet: None)
        with obs.capture() as (tracer, _):
            client.send(
                server.address,
                LabeledValue("example.com", SENSITIVE_DATA, ALICE, "query"),
                "q",
            )
            network.run()
        run = SimpleNamespace(world=world, network=network)
        breach = DecouplingAnalyzer(world).breach("server-org")
        assert breach.coupled_subjects == (ALICE,)
        graph = build_provenance(run, tracer)
        (chain,) = graph.breach_chain(breach)
        assert chain.subject == "alice"
        assert chain.link == "shared session 'pkt:1'"
        assert [h.packet_id for h in chain.identity_chain.hops] == [1]
        assert [h.packet_id for h in chain.data_chain.hops] == [1]
        assert "breach of server-org couples alice" in chain.render()

    def test_breach_proof_org_yields_no_chains(self):
        graph, run, *_ = _traced_relay_run()
        breach = DecouplingAnalyzer(run.world).breach("relay-org")
        assert breach.breach_proof
        assert graph.breach_chain(breach) == []


def _witness(*rows):
    """The witness triple of breaching one org that saw ``rows``.

    Each row is ``(label, payload, session)`` or ``(label, payload,
    session, share_info)``, observed by one server at time = position,
    so node ``obs:i`` is row ``i``.
    """
    world = World()
    server = world.entity("Server", "server-org")
    for position, (label, payload, session, *share) in enumerate(rows):
        value = LabeledValue(
            payload, label, ALICE, f"row {position}",
            share_info=share[0] if share else None,
        )
        server.observe(value, time=float(position), session=session)
    breach = DecouplingAnalyzer(world).breach("server-org")
    assert breach.coupled_subjects == (ALICE,)
    (chain,) = build_provenance(ledger=world.ledger).breach_chain(breach)
    return (
        chain.identity_chain.observation["id"],
        chain.data_chain.observation["id"],
        chain.link,
    )


class TestBreachWitness:
    """One pinned witness triple per kind of link the analyzer joins on."""

    def test_shared_session(self):
        assert _witness(
            (SENSITIVE_DATA, "unlinked query", "s0"),
            (SENSITIVE_IDENTITY, "10.9.0.1", "s1"),
            (SENSITIVE_DATA, "example.com", "s1"),
        ) == ("obs:1", "obs:2", "shared session 's1'")

    def test_same_value(self):
        assert _witness(
            (SENSITIVE_IDENTITY, "alice@example.org", "s1"),
            (NONSENSITIVE_DATA, "ciphertext", "s2"),
            (SENSITIVE_DATA, "alice@example.org", "s3"),
        ) == ("obs:0", "obs:2", "the same value seen in both observations")

    def test_transitive_linkage(self):
        assert _witness(
            (SENSITIVE_IDENTITY, "10.9.0.1", "s1"),
            (NONSENSITIVE_IDENTITY, "pseudonym-7", "s1"),
            (NONSENSITIVE_IDENTITY, "pseudonym-7", "s2"),
            (SENSITIVE_DATA, "example.com", "s2"),
        ) == ("obs:0", "obs:3", "transitive linkage through further observations")

    def test_share_reconstruction_names_first_member(self):
        # The identity joins the group through its second share; the
        # witness is the group's first share in the pool.
        assert _witness(
            (NONSENSITIVE_DATA, "share-0", "s0", ShareInfo("g", 0, 2)),
            (SENSITIVE_IDENTITY, "10.9.0.1", "s1"),
            (NONSENSITIVE_DATA, "share-1", "s1", ShareInfo("g", 1, 2)),
        ) == ("obs:1", "obs:0", "reconstruction of all secret shares of group 'g'")

    def test_earliest_identity_then_earliest_linked_data(self):
        assert _witness(
            (SENSITIVE_IDENTITY, "10.9.0.9", "s9"),
            (SENSITIVE_DATA, "other.org", "s8"),
            (SENSITIVE_IDENTITY, "10.9.0.1", "s1"),
            (SENSITIVE_DATA, "example.com", "s1"),
            (SENSITIVE_DATA, "example.net", "s1"),
        ) == ("obs:2", "obs:3", "shared session 's1'")


class TestRoundTrip:
    def test_graph_round_trips_through_jsonl(self):
        graph, *_ = _traced_relay_run()
        rebuilt = ProvenanceGraph.from_jsonl(graph.to_jsonl())
        assert set(rebuilt.nodes) == set(graph.nodes)
        assert rebuilt.edges == graph.edges
        original = graph.why("Server")[0]
        restored = rebuilt.why("Server")[0]
        assert [h.packet_id for h in restored.hops] == [
            h.packet_id for h in original.hops
        ]
        assert restored.derivation == original.derivation
        assert restored.render() == original.render()

    def test_rows_are_typed_provenance_records(self):
        graph, *_ = _traced_relay_run()
        rows = graph.to_dicts()
        assert all(row["type"] == "provenance" for row in rows)
        assert {row["record"] for row in rows} == {"node", "edge"}

    def test_export_embeds_and_recovers_the_graph(self, tmp_path):
        with obs.capture() as (tracer, registry):
            run, *_ = _relay_run()
        graph = build_provenance(run, tracer)
        text = obs_export.to_jsonl(tracer, registry, graph)
        rows = [json.loads(line) for line in text.splitlines()]
        assert {"span", "counter", "provenance"} <= {row["type"] for row in rows}
        recovered = obs_export.provenance_from_jsonl(text)
        assert set(recovered.nodes) == set(graph.nodes)
        (chain,) = recovered.why("Server")
        assert [h.packet_id for h in chain.hops] == [1, 2]

    def test_summary_counts_nodes_and_edges(self):
        graph, *_ = _traced_relay_run()
        summary = graph.summary()
        assert summary["nodes.packet"] == 2
        assert summary["edges.forwarded"] == 1
        assert summary["edges.observed"] == len(
            [n for n in graph.nodes.values() if n["node"] == "observation"
             if n.get("packet_id") is not None]
        )


def _fake_span(span_id, parent_id, name, wall_s, sim_s):
    return SimpleNamespace(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        wall_seconds=wall_s,
        sim_duration=sim_s,
    )


class TestAnalyze:
    SPANS = [
        _fake_span(1, None, "transact", 0.010, 0.05),
        _fake_span(2, 1, "deliver", 0.006, 0.02),
        _fake_span(3, 2, "deliver", 0.004, 0.01),
        _fake_span(4, 1, "deliver", 0.001, 0.01),
    ]

    def test_span_stats_aggregates_both_clocks(self):
        stats = {s.name: s for s in analyze.span_stats(self.SPANS)}
        deliver = stats["deliver"]
        assert deliver.count == 3
        assert deliver.wall_total_ms == pytest.approx(11.0)
        assert deliver.wall_mean_ms == pytest.approx(11.0 / 3)
        assert deliver.wall_max_ms == pytest.approx(6.0)
        assert deliver.sim_total == pytest.approx(0.04)
        assert deliver.sim_max == pytest.approx(0.02)
        # Sorted by wall total, descending.
        assert [s.name for s in analyze.span_stats(self.SPANS)] == [
            "deliver",
            "transact",
        ]

    def test_critical_path_descends_heaviest_children(self):
        path = analyze.critical_path(self.SPANS, clock="wall")
        assert [s.span_id for s in path] == [1, 2, 3]
        sim_path = analyze.critical_path(self.SPANS, clock="sim")
        assert [s.span_id for s in sim_path] == [1, 2, 3]

    def test_critical_path_rejects_unknown_clock(self):
        with pytest.raises(ValueError):
            analyze.critical_path(self.SPANS, clock="lunar")
        assert analyze.critical_path([], clock="wall") == []

    def test_renderers(self):
        stats_text = analyze.render_span_stats(analyze.span_stats(self.SPANS))
        assert "deliver" in stats_text and "count" in stats_text
        path_text = analyze.render_critical_path(
            analyze.critical_path(self.SPANS), "wall"
        )
        assert "-> transact" in path_text
        assert analyze.render_span_stats([]) == "(no spans recorded)"
        assert analyze.render_critical_path([]) == "(no spans recorded)"

    def test_stats_over_real_capture(self):
        with obs.capture() as (tracer, _):
            _relay_run()
        stats = {s.name: s for s in analyze.span_stats(tracer.spans)}
        assert stats["deliver"].count == 2
        path = analyze.critical_path(tracer.spans, clock="sim")
        assert path and path[0].name == "transact"
