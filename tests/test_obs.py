"""Tests for ``repro.obs``: tracing, metrics, exporters, instrumentation."""

import json

import pytest

from repro import obs
from repro.core.entities import World
from repro.core.labels import SENSITIVE_DATA
from repro.core.values import LabeledValue, Subject
from repro.net.network import Network
from repro.net.sim import Simulator
from repro.obs import export as obs_export
from repro.obs import runtime
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry
from repro.obs.tracing import NOOP_SPAN, Tracer, get_tracer

ALICE = Subject("alice")


class TestRuntimeGate:
    def test_disabled_by_default(self):
        assert runtime.ENABLED is False
        assert obs.is_enabled() is False

    def test_enable_disable(self):
        obs.enable()
        try:
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert not obs.is_enabled()


class TestNoopFastPath:
    def test_default_tracer_returns_noop_when_disabled(self):
        tracer = Tracer()  # follows the global gate, which is off
        span = tracer.span("anything", sim_time=1.0, foo="bar")
        assert span is NOOP_SPAN
        with span as inner:
            inner.set("key", "value").end_sim(2.0)
        assert tracer.spans == []
        assert NOOP_SPAN.attributes == {}

    def test_noop_span_is_reentrant(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert outer is inner is NOOP_SPAN
        assert len(tracer) == 0

    def test_disabled_network_records_no_spans_or_metrics(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        previous_tracer = obs.set_tracer(tracer)
        previous_registry = obs.set_registry(registry)
        try:
            network = _request_response_network()
            reply = network["client"].transact(
                network["server"].address, "ping", "echo"
            )
            assert reply == "pong"
        finally:
            obs.set_tracer(previous_tracer)
            obs.set_registry(previous_registry)
        assert tracer.spans == []
        assert len(registry) == 0


class TestTracer:
    def test_spans_nest_via_with_blocks(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", sim_time=0.0) as outer:
            with tracer.span("inner", sim_time=0.5) as inner:
                inner.end_sim(1.0)
            outer.end_sim(2.0)
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert tracer.spans[0].parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.sim_duration == pytest.approx(0.5)
        assert outer.wall_seconds >= inner.wall_seconds

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a") as a:
            pass
        with tracer.span("b"):
            with tracer.span("c", parent=a) as c:
                pass
        assert c.parent_id == a.span_id

    def test_explicit_none_parent_makes_root(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b", parent=None) as b:
                pass
        assert b.parent_id is None

    def test_attributes_and_by_name(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x", color="red") as span:
            span.set("count", 3)
        assert tracer.by_name("x")[0].attributes == {"color": "red", "count": 3}

    def test_reset(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x"):
            pass
        tracer.reset()
        assert len(tracer) == 0


class TestMetrics:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        assert registry.counter_value("a") == 3
        assert registry.counter_value("missing") == 0
        with pytest.raises(ValueError):
            registry.counter("a").inc(-1)

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(7)
        assert registry.gauge("depth").value == 7

    def test_histogram_bucketing(self):
        histogram = Histogram("h", buckets=(10, 100))
        for value in (5, 10, 11, 250):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]  # <=10, <=100, overflow
        assert histogram.count == 4
        assert histogram.min == 5 and histogram.max == 250
        assert histogram.mean == pytest.approx((5 + 10 + 11 + 250) / 4)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1))

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h", (1,)).observe(0.5)
        rows = registry.snapshot()
        assert [row["type"] for row in rows] == ["counter", "gauge", "histogram"]
        registry.reset()
        assert len(registry) == 0


class TestCapture:
    def test_capture_installs_and_restores(self):
        before_tracer, before_registry = get_tracer(), get_registry()
        assert not runtime.ENABLED
        with obs.capture() as (tracer, registry):
            assert runtime.ENABLED
            assert get_tracer() is tracer
            assert get_registry() is registry
        assert not runtime.ENABLED
        assert get_tracer() is before_tracer
        assert get_registry() is before_registry

    def test_capture_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert not runtime.ENABLED


def _request_response_network():
    """A two-host network serving one ``echo`` protocol."""
    world = World()
    network = Network()
    client = network.add_host("client", world.entity("Client", "client-org"))
    server = network.add_host("server", world.entity("Server", "server-org"))
    server.register("echo", lambda packet: "pong")
    return {"world": world, "network": network, "client": client, "server": server}


class TestNetworkInstrumentation:
    def test_transact_produces_nested_spans(self):
        with obs.capture() as (tracer, registry):
            net = _request_response_network()
            reply = net["client"].transact(net["server"].address, "ping", "echo")
        assert reply == "pong"
        names = [s.name for s in tracer.spans]
        assert names.count("transact") == 1
        assert names.count("deliver") == 2  # request + response
        transact = tracer.by_name("transact")[0]
        for deliver in tracer.by_name("deliver"):
            # response delivery parents to the request delivery, which
            # parents to transact: all under the transact ancestor.
            node = deliver
            by_id = {s.span_id: s for s in tracer.spans}
            while node.parent_id is not None and node.name != "transact":
                node = by_id[node.parent_id]
            assert node is transact
        # Sim-time bookkeeping: transact covers both deliveries.
        simulator = net["network"].simulator
        assert transact.sim_end == pytest.approx(simulator.now)
        for deliver in tracer.by_name("deliver"):
            assert transact.sim_start <= deliver.sim_start
            assert deliver.sim_end <= transact.sim_end

    def test_one_way_send_gets_transact_wrapper(self):
        with obs.capture() as (tracer, _):
            net = _request_response_network()
            sink = []
            net["server"].register("oneway", lambda packet: sink.append(packet) and None)
            net["client"].send(net["server"].address, "fire", "oneway")
            net["network"].run()
        deliver = tracer.by_name("deliver")[0]
        wrapper = tracer.by_name("transact")[0]
        assert deliver.parent_id == wrapper.span_id
        assert wrapper.attributes.get("one_way") is True

    def test_counters_and_histograms(self):
        with obs.capture() as (_, registry):
            net = _request_response_network()
            net["client"].transact(net["server"].address, "ping", "echo")
        assert registry.counter_value("net.messages") == 2
        assert registry.counter_value("net.bytes") > 0
        assert registry.histogram("net.packet_bytes").count == 2
        assert registry.histogram("net.hop_latency").count == 2
        assert registry.counter_value("sim.events") == 2

    def test_mixnet_deliveries_all_nest_under_transact(self):
        from repro.mixnet import run_mixnet

        with obs.capture() as (tracer, _):
            run = run_mixnet(mixes=2, senders=3)
        by_id = {s.span_id: s for s in tracer.spans}
        delivers = tracer.by_name("deliver")
        assert delivers, "mixnet run produced no delivery spans"
        for deliver in delivers:
            node = deliver
            while node.parent_id is not None:
                node = by_id[node.parent_id]
                if node.name == "transact":
                    break
            assert node.name == "transact"
            assert deliver.sim_end <= run.network.simulator.now


class TestLedgerInstrumentation:
    def test_observation_counters(self):
        with obs.capture() as (_, registry):
            world = World()
            entity = world.entity("E", "org")
            value = LabeledValue("secret", SENSITIVE_DATA, ALICE, "query")
            entity.observe(value, channel="wire")
            entity.observe(value, channel="message")
        assert registry.counter_value("ledger.observations") == 2
        assert registry.counter_value("ledger.observations.wire") == 1
        assert registry.counter_value("ledger.observations.message") == 1


class TestSimulatorInstrumentation:
    def test_event_hooks_fire_per_event(self):
        sim = Simulator()
        seen = []
        sim.add_hook(lambda time, callback: seen.append(time))
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.run_until_idle()
        assert seen == [pytest.approx(0.1), pytest.approx(0.2)]
        sim.remove_hook(sim._hooks[0])
        assert sim._hooks == []

    def test_events_counter_only_when_enabled(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run_until_idle()
        with obs.capture() as (_, registry):
            sim.schedule(0.1, lambda: None)
            sim.run_until_idle()
        assert registry.counter_value("sim.events") == 1


class TestExport:
    def _traced_run(self):
        with obs.capture() as (tracer, registry):
            net = _request_response_network()
            net["client"].transact(net["server"].address, "ping", "echo")
        return tracer, registry

    def test_jsonl_is_valid_and_typed(self):
        tracer, registry = self._traced_run()
        text = obs_export.to_jsonl(tracer, registry)
        rows = [json.loads(line) for line in text.splitlines()]
        types = {row["type"] for row in rows}
        assert "span" in types and "counter" in types and "histogram" in types
        span_rows = [row for row in rows if row["type"] == "span"]
        ids = {row["span_id"] for row in span_rows}
        for row in span_rows:
            assert row["parent_id"] is None or row["parent_id"] in ids
            assert row["wall_ms"] >= 0

    def test_write_jsonl_counts_lines(self, tmp_path):
        tracer, registry = self._traced_run()
        path = tmp_path / "spans.jsonl"
        lines = obs_export.write_jsonl(str(path), tracer, registry)
        assert lines == len(path.read_text().splitlines())
        assert lines == len(tracer.spans) + len(registry.snapshot())

    def test_render_span_tree_indents_children(self):
        tracer, _ = self._traced_run()
        tree = obs_export.render_span_tree(tracer.spans)
        lines = tree.splitlines()
        assert lines[0].startswith("transact")
        assert any(line.startswith("  deliver") for line in lines)
        assert any(line.startswith("    deliver") for line in lines)

    def test_empty_export(self, tmp_path):
        tracer = Tracer(enabled=True)
        path = tmp_path / "empty.jsonl"
        assert obs_export.write_jsonl(str(path), tracer) == 0
        assert path.read_text() == ""
        assert obs_export.render_span_tree([]) == ""


class TestMetricsEdgeCases:
    def test_empty_registry_snapshot_and_export(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == []
        assert len(registry) == 0
        tracer = Tracer(enabled=True)
        assert obs_export.to_jsonl(tracer, registry) == ""

    def test_histogram_value_exactly_on_bucket_boundary(self):
        """A value equal to a bound lands in that bound's bucket."""
        histogram = Histogram("sizes", buckets=(10, 100))
        histogram.observe(10)
        histogram.observe(100)
        histogram.observe(101)
        assert histogram.counts == [1, 1, 1]
        assert histogram.min == 10 and histogram.max == 101

    def test_noted_deliveries_fold_like_per_value_observes(self):
        """Deliveries past the drain threshold, with a read mid-way, fold
        into the same instruments, float sums included, as observing
        each value as it happens."""
        import random

        from repro.obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS

        rng = random.Random(3)
        deliveries = [
            (rng.randrange(2000), rng.random() / 7)
            for _ in range(2 * MetricsRegistry.DRAIN_THRESHOLD + 5)
        ]
        registry, reference = MetricsRegistry(), MetricsRegistry()
        for index, (size, latency) in enumerate(deliveries):
            registry.note_delivery(size, latency)
            if index == 100:
                registry.snapshot()
            reference.histogram("net.packet_bytes", SIZE_BUCKETS).observe(size)
            reference.histogram("net.hop_latency", LATENCY_BUCKETS).observe(latency)
        reference.counter("net.messages").inc(len(deliveries))
        reference.counter("net.bytes").inc(sum(size for size, _ in deliveries))
        assert registry.snapshot() == reference.snapshot()

    def test_counter_merge_across_workers(self):
        """Per-worker counter snapshots fold into one totals mapping,

        the way ``--jobs`` workers report back to the parent process.
        """
        from types import SimpleNamespace

        from repro.cli import _fold_counters

        parts = [
            SimpleNamespace(counters={"net.packets_sent": 3, "obs.records": 7}),
            SimpleNamespace(counters={"net.packets_sent": 5}),
            SimpleNamespace(counters={}),
        ]
        assert _fold_counters(parts) == {
            "net.packets_sent": 8,
            "obs.records": 7,
        }
        assert _fold_counters([]) == {}


def _strip_wall_clock(text):
    """Drop host-clock fields so runs can be compared byte-for-byte."""
    rows = []
    for line in text.splitlines():
        row = json.loads(line)
        row.pop("wall_ms", None)
        rows.append(json.dumps(row, ensure_ascii=False, sort_keys=True))
    return "\n".join(rows)


class TestDeterminism:
    def test_identical_runs_export_identical_jsonl(self):
        """Two identical demo runs yield byte-identical span, metric,

        and provenance JSONL once wall-clock fields are stripped.
        Packet/request/span ids are per-instance counters, so nothing
        leaks between runs.
        """
        from repro.mixnet import run_mixnet
        from repro.obs.provenance import build_provenance

        exports = []
        for _ in range(2):
            with obs.capture() as (tracer, registry):
                run = run_mixnet(mixes=2, senders=3)
            graph = build_provenance(run, tracer)
            exports.append(obs_export.to_jsonl(tracer, registry, graph))
        assert _strip_wall_clock(exports[0]) == _strip_wall_clock(exports[1])
        # The comparison is not vacuous: the export carries all three
        # record families.
        types = {json.loads(line)["type"] for line in exports[0].splitlines()}
        assert {"span", "counter", "provenance"} <= types
