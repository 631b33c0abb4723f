"""Unit and system tests for the TEE package (CACTI, Phoenix)."""

import random

import pytest

from repro.core.entities import World
from repro.crypto.hashutil import sha256
from repro.scenario import run_scenario
from repro.tee import (
    AttestationAuthority,
    EXPECTED_TABLE_CACTI,
    EXPECTED_TABLE_PHOENIX,
    TeeEnclave,
)


class TestAttestation:
    def _authority(self):
        return AttestationAuthority(rng=random.Random(1))

    def test_quote_verifies_for_the_right_measurement(self):
        authority = self._authority()
        world = World()
        enclave = TeeEnclave(world, authority, "e1", code="code-v1")
        assert AttestationAuthority.verify(
            authority.public_key, enclave.quote, enclave.measurement
        )

    def test_wrong_measurement_rejected(self):
        authority = self._authority()
        world = World()
        enclave = TeeEnclave(world, authority, "e1", code="code-v1")
        assert not AttestationAuthority.verify(
            authority.public_key, enclave.quote, sha256(b"evil-code")
        )

    def test_wrong_vendor_rejected(self):
        authority = self._authority()
        rogue = AttestationAuthority(name="rogue", rng=random.Random(2))
        world = World()
        enclave = TeeEnclave(world, authority, "e1", code="code-v1")
        assert not AttestationAuthority.verify(
            rogue.public_key, enclave.quote, enclave.measurement
        )

    def test_provision_after_verify_gates_the_key(self):
        authority = self._authority()
        world = World()
        enclave = TeeEnclave(world, authority, "e1", code="code-v1")
        assert not enclave.provision_key(
            "k", authority.public_key, sha256(b"other-code")
        )
        assert "k" not in enclave.entity.keyring
        assert enclave.provision_key("k", authority.public_key, enclave.measurement)
        assert "k" in enclave.entity.keyring

    def test_enclave_organization_is_attested(self):
        authority = self._authority()
        world = World()
        enclave = TeeEnclave(world, authority, "e1", code="c")
        assert enclave.entity.organization.attested


class TestCacti:
    def test_table_and_verdict(self):
        run = run_scenario("cacti")
        assert run.table().as_mapping() == EXPECTED_TABLE_CACTI
        assert run.analyzer.verdict().decoupled
        assert run.served == 3

    def test_enclave_rate_limit_is_enforced(self):
        run = run_scenario("cacti", requests=8, rate_limit=5)
        assert run.served == 5

    def test_origin_rejects_replayed_proofs(self):
        from repro.core.values import Subject
        from repro.net.network import Network
        from repro.tee.cacti import CactiOrigin, CactiTee, _CactiRequest, CACTI_PROTOCOL
        from repro.core.labels import SENSITIVE_DATA, NONSENSITIVE_IDENTITY
        from repro.core.values import LabeledValue

        world, network = World(), Network()
        authority = AttestationAuthority(rng=random.Random(3))
        subject = Subject("alice")
        client = world.entity("Client", "device", trusted_by_user=True)
        tee = CactiTee(world, authority, subject)
        origin = CactiOrigin(
            network,
            world.entity("Origin", "origin-org"),
            authority.public_key,
            tee.enclave.measurement,
        )
        host = network.add_host("c", client)
        proof = tee.rate_proof()
        request = _CactiRequest(
            proof=proof,
            proof_handle=LabeledValue(proof.proof_id, NONSENSITIVE_IDENTITY, subject, "id"),
            request=LabeledValue("r", SENSITIVE_DATA, subject, "req"),
        )
        assert host.transact(origin.address, request, CACTI_PROTOCOL) == "served"
        assert host.transact(origin.address, request, CACTI_PROTOCOL) == "rejected"


class TestPhoenix:
    def test_table_matches_expectation(self):
        run = run_scenario("phoenix")
        assert run.table().as_mapping() == EXPECTED_TABLE_PHOENIX

    def test_verdict_depends_on_trusting_attestation(self):
        """The paper's point: the TEE *moves* the locus of trust."""
        run = run_scenario("phoenix")
        assert not run.analyzer.verdict().decoupled
        assert run.analyzer.verdict(trust_attested=True).decoupled

    def test_operator_is_breach_proof(self):
        run = run_scenario("phoenix")
        assert run.analyzer.breach("cdn-operator").breach_proof

    def test_cache_works_inside_the_enclave(self):
        from repro.core.values import Subject
        from repro.http.messages import make_request
        from repro.net.network import Network
        from repro.tee.phoenix import PhoenixClient, PhoenixPop
        from repro.core.labels import SENSITIVE_IDENTITY
        from repro.core.values import LabeledValue

        world, network = World(), Network()
        authority = AttestationAuthority(rng=random.Random(4))
        subject = Subject("alice")
        client_entity = world.entity("Client", "device", trusted_by_user=True)
        pop = PhoenixPop(world, network, world.entity("Op", "op-org"), authority)
        host = network.add_host(
            "c", client_entity,
            identity=LabeledValue("ip", SENSITIVE_IDENTITY, subject, "ip"),
        )
        client = PhoenixClient(host, pop, authority.public_key, subject)
        client.fetch(make_request("cdn.example", "/a", subject))
        client.fetch(make_request("cdn.example", "/a", subject))
        assert pop.cache_hits == 1 and pop.cache_misses == 1

    def test_attestation_failure_blocks_the_session(self):
        from repro.core.values import Subject, LabeledValue
        from repro.core.labels import SENSITIVE_IDENTITY
        from repro.http.messages import make_request
        from repro.net.network import Network
        from repro.tee.phoenix import PhoenixClient, PhoenixPop

        world, network = World(), Network()
        authority = AttestationAuthority(rng=random.Random(5))
        rogue = AttestationAuthority(name="rogue", rng=random.Random(6))
        subject = Subject("alice")
        client_entity = world.entity("Client", "device", trusted_by_user=True)
        pop = PhoenixPop(world, network, world.entity("Op", "op-org"), authority)
        host = network.add_host(
            "c", client_entity,
            identity=LabeledValue("ip", SENSITIVE_IDENTITY, subject, "ip"),
        )
        client = PhoenixClient(host, pop, rogue.public_key, subject)
        with pytest.raises(RuntimeError):
            client.fetch(make_request("cdn.example", "/a", subject))
