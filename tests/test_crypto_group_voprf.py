"""Unit and property tests for the Schnorr group and the VOPRF."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.group import (
    GROUP_256,
    GROUP_512,
    GROUP_768,
    SchnorrGroup,
    default_group,
)
from repro.crypto.hashutil import sha256
from repro.crypto.numtheory import is_probable_prime
from repro.crypto.voprf import (
    DleqProof,
    VoprfServer,
    verify_dleq,
    voprf_blind,
    voprf_finalize,
)


class TestSchnorrGroup:
    def test_fixed_groups_are_valid(self):
        # The seed of the generation script in the module docstring.
        for group in (GROUP_256, GROUP_512, GROUP_768):
            q = (group.p - 1) // 2
            assert is_probable_prime(group.p, rng=random.Random(20221114))
            assert is_probable_prime(q, rng=random.Random(20221114))
            assert group.order == q
            assert group.is_element(group.generator)
            assert group.exp(group.generator, group.order) == 1

    def test_invalid_modulus_rejected(self):
        with pytest.raises(ValueError):
            SchnorrGroup(15)
        with pytest.raises(ValueError):
            SchnorrGroup(13)  # prime but 6 is not prime -> not safe

    def test_membership_euler_criterion(self):
        group = GROUP_256
        element = group.exp(group.generator, 12345)
        assert group.is_element(element)
        assert not group.is_element(0)
        assert not group.is_element(group.p)

    def test_hash_to_group_lands_in_subgroup(self):
        group = GROUP_256
        for message in (b"", b"a", b"privacy pass", b"\x00" * 40):
            assert group.is_element(group.hash_to_group(message))

    def test_hash_to_group_distinct_inputs_distinct_outputs(self):
        group = GROUP_256
        assert group.hash_to_group(b"a") != group.hash_to_group(b"b")

    def test_encode_decode_roundtrip(self):
        group = GROUP_256
        element = group.exp(group.generator, 99)
        assert group.decode_element(group.encode_element(element)) == element

    def test_decode_rejects_non_elements(self):
        group = GROUP_256
        with pytest.raises(ValueError):
            group.decode_element((0).to_bytes(group.element_bytes, "big"))

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=15)
    def test_scalar_inverse(self, scalar):
        group = GROUP_256
        inv = group.scalar_inv(scalar)
        element = group.exp(group.generator, scalar)
        assert group.exp(element, inv) == group.generator

    def test_exp_mul_consistency(self):
        group = GROUP_256
        g = group.generator
        assert group.mul(group.exp(g, 3), group.exp(g, 4)) == group.exp(g, 7)


class TestVoprf:
    def test_blind_evaluate_finalize_matches_direct(self):
        server = VoprfServer(rng=random.Random(1))
        state = voprf_blind(b"input", rng=random.Random(2))
        evaluated, proof = server.evaluate(state.blinded_element)
        output = voprf_finalize(state, evaluated, proof, server.public_key)
        assert output == server.evaluate_unblinded(b"input")

    def test_different_inputs_different_outputs(self):
        server = VoprfServer(rng=random.Random(3))
        assert server.evaluate_unblinded(b"a") != server.evaluate_unblinded(b"b")

    def test_different_keys_different_outputs(self):
        one = VoprfServer(rng=random.Random(4))
        two = VoprfServer(rng=random.Random(5))
        assert one.evaluate_unblinded(b"x") != two.evaluate_unblinded(b"x")

    def test_dleq_proof_verifies(self):
        server = VoprfServer(rng=random.Random(6))
        state = voprf_blind(b"x", rng=random.Random(7))
        evaluated, proof = server.evaluate(state.blinded_element)
        assert verify_dleq(
            server.group, server.public_key, state.blinded_element, evaluated, proof
        )

    def test_tampered_proof_rejected(self):
        server = VoprfServer(rng=random.Random(8))
        state = voprf_blind(b"x", rng=random.Random(9))
        evaluated, proof = server.evaluate(state.blinded_element)
        bad = DleqProof(challenge=proof.challenge, response=proof.response + 1)
        with pytest.raises(ValueError):
            voprf_finalize(state, evaluated, bad, server.public_key)

    def test_key_substitution_rejected(self):
        """A server trying to segregate users by key fails the DLEQ."""
        honest = VoprfServer(rng=random.Random(10))
        rogue = VoprfServer(rng=random.Random(11))
        state = voprf_blind(b"x", rng=random.Random(12))
        evaluated, proof = rogue.evaluate(state.blinded_element)
        with pytest.raises(ValueError):
            voprf_finalize(state, evaluated, proof, honest.public_key)

    def test_skipping_the_dleq_check_lets_keys_segregate_users(self):
        """Ablation: a client that unblinds without verifying the proof
        lets a two-keyed issuer recover each user's group at redemption."""
        issuer_keys = [VoprfServer(rng=random.Random(seed)) for seed in (1, 2)]
        for user_index in range(4):
            server = issuer_keys[user_index % 2]  # segregate by key
            token_input = f"user-{user_index}-token".encode()
            state = voprf_blind(token_input, rng=random.Random(user_index))
            evaluated, _ = server.evaluate(state.blinded_element)
            g = server.group
            unblinded = g.exp(evaluated, g.scalar_inv(state.blind))
            token = sha256(b"VOPRF-finalize", token_input, g.encode_element(unblinded))
            # The key whose evaluation validates reveals the user's group.
            recovered = None
            for key_index, candidate in enumerate(issuer_keys):
                if candidate.evaluate_unblinded(token_input) == token:
                    recovered = key_index
            assert recovered == user_index % 2

    def test_rejects_non_group_blinded_element(self):
        server = VoprfServer(rng=random.Random(13))
        with pytest.raises(ValueError):
            server.evaluate(0)

    def test_server_view_is_blinded(self):
        """The blinded element differs from the hashed input element."""
        server = VoprfServer(rng=random.Random(14))
        state = voprf_blind(b"x", rng=random.Random(15))
        assert state.blinded_element != server.group.hash_to_group(b"x")

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=10)
    def test_unlinkability_blinds_uniformly(self, input_data):
        """Two blindings of the same input are distinct group elements."""
        one = voprf_blind(input_data, rng=random.Random(16))
        two = voprf_blind(input_data, rng=random.Random(17))
        assert one.blinded_element != two.blinded_element
