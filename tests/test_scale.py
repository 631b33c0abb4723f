"""Scale/soak tests: the framework at population sizes beyond the demos.

These keep the analyzer and simulator honest about complexity: the
linkage analysis is per-subject, so large runs must stay tractable.
"""

import time

import pytest

from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import SENSITIVE_IDENTITY
from repro.core.values import LabeledValue, Subject
from repro.dns.zones import AuthoritativeServer, Zone, ZoneRegistry
from repro.net.network import Network
from repro.odns.odoh import ObliviousProxy, ObliviousTarget, OdohClient
from repro.scenario import run_scenario


class TestOdohAtScale:
    def test_fifty_clients_three_queries_each(self):
        world, network = World(), Network()
        registry = ZoneRegistry()
        zone = Zone("example.com")
        for index in range(10):
            zone.add(f"s{index}.example.com", "203.0.113.1")
        AuthoritativeServer(network, world.entity("Auth", "dns-infra"), zone, registry)
        target = ObliviousTarget(
            network, world.entity("Target", "target-org"), registry,
            key_seed=b"\x55" * 32,
        )
        proxy = ObliviousProxy(
            network, world.entity("Proxy", "proxy-org"), target.address
        )
        clients = []
        for index in range(50):
            subject = Subject(f"user-{index}")
            entity = world.entity(
                f"Client {index}", f"device-{index}", trusted_by_user=True
            )
            host = network.add_host(
                f"c{index}", entity,
                identity=LabeledValue(
                    f"198.51.{index // 250}.{index % 250 + 1}",
                    SENSITIVE_IDENTITY, subject, "client ip",
                ),
            )
            clients.append(OdohClient(host, proxy, target, subject))

        started = time.monotonic()
        for index, client in enumerate(clients):
            for query in range(3):
                answer = client.lookup(f"s{(index + query) % 10}.example.com")
                assert answer.rdata == "203.0.113.1"
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"150 oblivious queries took {elapsed:.1f}s"

        analyzer = DecouplingAnalyzer(world)
        assert analyzer.verdict().decoupled
        # Ledger volume sanity: hundreds of observations analyzed.
        assert len(world.ledger) > 800

    def test_verdict_time_scales_with_ledger(self):
        """The per-subject linkage analysis stays near-linear."""
        run = run_scenario("prio", clients=20, aggregators=2)
        started = time.monotonic()
        verdict = run.analyzer.verdict()
        elapsed = time.monotonic() - started
        assert verdict.decoupled
        assert elapsed < 10


class TestPrioAtScale:
    def test_forty_clients_three_aggregators(self):
        run = run_scenario("prio", clients=40, aggregators=3)
        assert run.reported_total == run.true_total
        assert run.analyzer.verdict().decoupled
        (coalition,) = run.analyzer.minimal_recoupling_coalitions()
        assert len(coalition) == 3


class TestScalePoint:
    def test_scale_point_shape_and_invariants(self):
        from repro import harness

        point = harness.scale_point(
            300, 3_000, segment_rows=256, checkpoints=3
        )
        assert point.users == 300
        assert point.observations >= 2_996  # 4 rows per arrival
        assert point.mid_run_matches
        assert point.decoupled
        assert point.collusion_resistance == 2
        assert point.segments_sealed > 0
        assert point.segments_spilled > 0
        assert point.resident_rows < point.observations
        assert point.peak_rss_mb > 0
        document = point.to_dict()
        assert document["users"] == 300
        assert document["mid_run_matches"] is True

    def test_scale_sweep_parallel_spill_does_not_collide(self):
        """Regression (satellite 6): sweep workers each spill sealed
        segments to temp files; with ``jobs=2`` the per-process spill
        directories must never collide on paths."""
        from repro import harness

        points = harness.scale_sweep((120, 240), segment_rows=128, jobs=2)
        assert [p.users for p in points] == [120, 240]
        for point in points:
            assert point.segments_spilled > 0
            assert point.mid_run_matches
            assert point.collusion_resistance == 2

    def test_workload_observation_floor(self):
        from repro.population.workload import run_scale_workload

        with pytest.raises(ValueError):
            run_scale_workload(users=10, observations=3)
