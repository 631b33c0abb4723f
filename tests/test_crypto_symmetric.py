"""RFC test vectors and property tests: ChaCha20-Poly1305, HKDF, hashes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.chacha20poly1305 import (
    ChaCha20Poly1305,
    chacha20_block,
    chacha20_encrypt,
    poly1305_mac,
)
from repro.crypto.hashutil import (
    constant_time_equal,
    expand_message_xmd,
    full_domain_hash,
    i2osp,
    os2ip,
)
from repro.crypto.hkdf import hkdf, hkdf_expand, hkdf_extract


class TestChaCha20Rfc8439:
    def test_block_function_vector_2_3_2(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        assert block[:16].hex() == "10f1e7e4d13b5915500fdd1fa32071c4"
        assert block[-16:].hex() == "b5129cd1de164eb9cbd083e8a2503c4e"

    def test_encrypt_vector_2_4_2(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_encrypt(key, 1, nonce, plaintext)
        assert ciphertext[:16].hex() == "6e2e359a2568f98041ba0728dd0d6981"
        # counter-mode is an involution
        assert chacha20_encrypt(key, 1, nonce, ciphertext) == plaintext

    def test_counter_outside_32_bits_raises(self):
        key, nonce = bytes(range(32)), bytes(12)
        for counter in (-1, 2**32):
            with pytest.raises(ValueError, match="counter"):
                chacha20_block(key, counter, nonce)
            with pytest.raises(ValueError, match="counter"):
                chacha20_encrypt(key, counter, nonce, b"")

    def test_encryption_past_the_last_counter_raises(self):
        # A second block at counter 2**32 - 1 would wrap to block 0,
        # the Poly1305 one-time-key block (RFC 8439 section 2.4).
        key, nonce = bytes(range(32)), bytes(12)
        last = 2**32 - 1
        assert chacha20_encrypt(key, last, nonce, bytes(64)) == chacha20_block(key, last, nonce)
        for counter, size in ((last, 65), (last, 128), (last - 1, 129)):
            with pytest.raises(ValueError, match="counter"):
                chacha20_encrypt(key, counter, nonce, bytes(size))

    def test_poly1305_vector_2_5_2(self):
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag.hex() == "a8061dc1305136c6c22b8baf0c0127a9"

    def test_aead_vector_2_8_2(self):
        key = bytes(range(0x80, 0xA0))
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        sealed = ChaCha20Poly1305(key).seal(nonce, plaintext, aad)
        assert sealed[:16].hex() == "d31a8d34648e60db7b86afbc53ef7ec2"
        assert sealed[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"

    def test_aead_rejects_tampering(self):
        aead = ChaCha20Poly1305(b"\x01" * 32)
        sealed = bytearray(aead.seal(b"\x02" * 12, b"msg", b"aad"))
        sealed[0] ^= 1
        with pytest.raises(ValueError):
            aead.open(b"\x02" * 12, bytes(sealed), b"aad")

    def test_aead_rejects_wrong_aad(self):
        aead = ChaCha20Poly1305(b"\x01" * 32)
        sealed = aead.seal(b"\x02" * 12, b"msg", b"aad")
        with pytest.raises(ValueError):
            aead.open(b"\x02" * 12, sealed, b"other")

    def test_aead_rejects_short_input_and_bad_sizes(self):
        aead = ChaCha20Poly1305(b"\x01" * 32)
        with pytest.raises(ValueError):
            aead.open(b"\x02" * 12, b"short")
        with pytest.raises(ValueError):
            ChaCha20Poly1305(b"short")
        with pytest.raises(ValueError):
            aead.seal(b"bad-nonce", b"msg")

    @given(st.binary(max_size=300), st.binary(max_size=40))
    @settings(max_examples=15)
    def test_aead_roundtrip(self, plaintext, aad):
        aead = ChaCha20Poly1305(b"\x07" * 32)
        nonce = b"\x0b" * 12
        assert aead.open(nonce, aead.seal(nonce, plaintext, aad), aad) == plaintext


class TestHkdfRfc5869:
    def test_case_1(self):
        okm = hkdf(
            ikm=b"\x0b" * 22,
            salt=bytes(range(13)),
            info=bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"),
            length=42,
        )
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_case_3_no_salt_no_info(self):
        okm = hkdf(ikm=b"\x0b" * 22, length=42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_extract_then_expand_matches_one_shot(self):
        prk = hkdf_extract(b"salt", b"ikm")
        assert hkdf_expand(prk, b"info", 32) == hkdf(b"ikm", b"salt", b"info", 32)

    def test_expand_length_limit(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=15)
    def test_expand_prefix_property(self, length):
        prk = hkdf_extract(b"s", b"k")
        long_output = hkdf_expand(prk, b"i", 200)
        assert hkdf_expand(prk, b"i", length) == long_output[:length]


class TestHashUtil:
    def test_i2osp_os2ip_roundtrip(self):
        assert os2ip(i2osp(123456, 8)) == 123456

    def test_i2osp_bounds(self):
        with pytest.raises(ValueError):
            i2osp(256, 1)
        with pytest.raises(ValueError):
            i2osp(-1, 4)

    def test_full_domain_hash_fills_requested_width(self):
        value = full_domain_hash(b"m", 64)
        assert 0 <= value < 1 << (64 * 8)
        assert value.bit_length() > 64 * 8 - 32  # overwhelmingly likely

    def test_expand_message_xmd_lengths_and_determinism(self):
        a = expand_message_xmd(b"msg", b"DST", 48)
        b = expand_message_xmd(b"msg", b"DST", 48)
        assert a == b and len(a) == 48
        assert expand_message_xmd(b"msg", b"DST2", 48) != a

    def test_expand_message_xmd_limits(self):
        with pytest.raises(ValueError):
            expand_message_xmd(b"m", b"d" * 300, 32)

    def test_constant_time_equal(self):
        assert constant_time_equal(b"ab", b"ab")
        assert not constant_time_equal(b"ab", b"ac")
