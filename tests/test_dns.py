"""Unit tests for the DNS substrate: zones, resolver, cache, striping."""

import random

import pytest

from repro.core.entities import World
from repro.core.labels import PARTIAL_SENSITIVE_DATA, SENSITIVE_IDENTITY
from repro.core.values import LabeledValue, Subject
from repro.dns.cache import DnsCache
from repro.dns.messages import DnsAnswer, make_query
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.striping import (
    HashPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    StripingStub,
)
from repro.dns.zones import AuthoritativeServer, Zone, ZoneRegistry
from repro.net.network import Network

ALICE = Subject("alice")


def _setup(num_resolvers=1):
    world = World()
    network = Network()
    registry = ZoneRegistry()
    zone = Zone("example.com")
    zone.add("www.example.com", "93.184.216.34")
    zone.add("api.example.com", "93.184.216.35", "A")
    auth = AuthoritativeServer(
        network, world.entity("Auth", "dns-infra"), zone, registry
    )
    resolvers = [
        RecursiveResolver(
            network,
            world.entity(f"Resolver {i}", f"resolver-org-{i}"),
            registry,
            name=f"resolver-{i}",
        )
        for i in range(num_resolvers)
    ]
    identity = LabeledValue("198.51.100.7", SENSITIVE_IDENTITY, ALICE, "ip")
    user = network.add_host(
        "user", world.entity("Client", "device", trusted_by_user=True), identity=identity
    )
    return world, network, registry, auth, resolvers, user


class TestMessages:
    def test_make_query_labels_the_name_as_partial(self):
        query = make_query("www.example.com", ALICE)
        assert query.qname.label == PARTIAL_SENSITIVE_DATA
        assert query.name == "www.example.com"

    def test_cache_key_is_case_insensitive(self):
        assert make_query("WWW.Example.COM", ALICE).cache_key() == (
            "www.example.com",
            "A",
        )


class TestZones:
    def test_zone_lookup_hit_and_miss(self):
        zone = Zone("example.com")
        zone.add("www.example.com", "1.2.3.4")
        assert zone.lookup("www.example.com").rdata == "1.2.3.4"
        assert zone.lookup("nope.example.com").is_nxdomain

    def test_registry_longest_suffix_match(self):
        registry = ZoneRegistry()
        from repro.net.addressing import Address

        registry.delegate("com", Address("10.0.0.1"))
        registry.delegate("example.com", Address("10.0.0.2"))
        assert registry.authoritative_for("www.example.com") == Address("10.0.0.2")
        assert registry.authoritative_for("other.com") == Address("10.0.0.1")
        with pytest.raises(LookupError):
            registry.authoritative_for("example.org")


class TestResolver:
    def test_resolution_and_answer(self):
        world, network, registry, auth, (resolver,), user = _setup()
        stub = StubResolver(user, resolver.address)
        answer = stub.lookup("www.example.com", ALICE)
        assert answer.rdata == "93.184.216.34"
        assert auth.queries_served == 1

    def test_cache_prevents_repeat_recursion(self):
        world, network, registry, auth, (resolver,), user = _setup()
        stub = StubResolver(user, resolver.address)
        stub.lookup("www.example.com", ALICE)
        stub.lookup("www.example.com", ALICE)
        assert auth.queries_served == 1
        assert resolver.cache.hits == 1

    def test_cache_expires_by_ttl(self):
        world, network, registry, auth, (resolver,), user = _setup()
        stub = StubResolver(user, resolver.address)
        stub.lookup("www.example.com", ALICE)
        network.simulator.advance(10_000)  # past the 300s TTL
        stub.lookup("www.example.com", ALICE)
        assert auth.queries_served == 2

    def test_nxdomain_propagates(self):
        world, network, registry, auth, (resolver,), user = _setup()
        stub = StubResolver(user, resolver.address)
        assert stub.lookup("missing.example.com", ALICE).is_nxdomain


class TestDnsCache:
    def test_eviction_prefers_expired(self):
        cache = DnsCache(max_entries=2)
        a = DnsAnswer("a", "A", "1.1.1.1", ttl=1)
        b = DnsAnswer("b", "A", "2.2.2.2", ttl=1000)
        cache.put(("a", "A"), a, now=0)
        cache.put(("b", "A"), b, now=0)
        cache.put(("c", "A"), DnsAnswer("c", "A", "3.3.3.3"), now=10)  # a expired
        assert cache.get(("b", "A"), now=10) is not None
        assert len(cache) == 2

    def test_hit_rate(self):
        cache = DnsCache()
        answer = DnsAnswer("a", "A", "1.1.1.1")
        cache.put(("a", "A"), answer, now=0)
        cache.get(("a", "A"), now=1)
        cache.get(("b", "A"), now=1)
        assert cache.hit_rate == pytest.approx(0.5)


class TestStriping:
    def test_round_robin_is_even(self):
        world, network, registry, auth, resolvers, user = _setup(num_resolvers=4)
        stub = StripingStub(user, [r.address for r in resolvers], RoundRobinPolicy())
        for index in range(8):
            stub.lookup("www.example.com", ALICE)
        assert stub.max_resolver_share() == pytest.approx(0.25)
        assert stub.load_imbalance() == pytest.approx(0.0)

    def test_hash_policy_is_sticky_per_name(self):
        world, network, registry, auth, resolvers, user = _setup(num_resolvers=3)
        stub = StripingStub(user, [r.address for r in resolvers], HashPolicy())
        stub.lookup("www.example.com", ALICE)
        stub.lookup("www.example.com", ALICE)
        assert stub.max_resolver_share() == pytest.approx(1.0)
        assert stub.max_name_coverage(total_names=1) == pytest.approx(1.0)

    def test_random_policy_uses_seeded_rng(self):
        world, network, registry, auth, resolvers, user = _setup(num_resolvers=2)
        policy = RandomPolicy(rng=random.Random(1))
        stub = StripingStub(user, [r.address for r in resolvers], policy)
        for _ in range(6):
            stub.lookup("www.example.com", ALICE)
        assert sum(stub.queries_by_resolver.values()) == 6

    def test_more_resolvers_reduce_per_resolver_knowledge(self):
        shares = {}
        for count in (1, 2, 4):
            world, network, registry, auth, resolvers, user = _setup(num_resolvers=count)
            stub = StripingStub(user, [r.address for r in resolvers], RoundRobinPolicy())
            for index in range(8):
                stub.lookup("www.example.com" if index % 2 else "api.example.com", ALICE)
            shares[count] = stub.max_resolver_share()
        assert shares[1] > shares[2] > shares[4]

    def test_hash_policy_spreads_names_over_the_striping_world(self):
        """Sticky hashing still spreads *names*, but any one name's
        queries all land on one resolver."""
        from repro.harness import STRIPING_NAMES, striping_stub

        stub = striping_stub(4, HashPolicy())
        assert stub.max_name_coverage(len(STRIPING_NAMES)) < 1.0
        assert sum(stub.queries_by_resolver.values()) == len(STRIPING_NAMES)

    def test_requires_at_least_one_resolver(self):
        with pytest.raises(ValueError):
            StripingStub(None, [])
