"""The original ChaCha20-Poly1305, kept as a test oracle.

``repro.crypto.chacha20poly1305`` runs the ChaCha20 block function on
four integers, one per row of the state, with each 32-bit word in its
own 64-bit lane, and XORs a keystream as one integer.  This module
keeps the code it replaced -- the RFC 8439 quarter round on a list of
16 words, ``_rotl32`` per word, and a byte-at-a-time XOR -- exactly as
it was, so ``tests/test_chacha20_kernel.py`` can check that both give
the same bytes.  Poly1305 and the AEAD construction are copied too, so
the oracle shares no code with the module it checks.

Like the code it was, this block function reduces the counter mod
2**32 instead of rejecting one out of range; draw only valid counters.
"""

import hmac
import struct
from typing import List

_MASK32 = 0xFFFFFFFF


def _rotl32(v: int, c: int) -> int:
    return ((v << c) & _MASK32) | (v >> (32 - c))


def _quarter_round(state: List[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 section 2.3)."""
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    constants = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
    state = list(constants)
    state.extend(struct.unpack("<8L", key))
    state.append(counter & _MASK32)
    state.extend(struct.unpack("<3L", nonce))
    working = state.copy()
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK32 for w, s in zip(working, state)]
    return struct.pack("<16L", *out)


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, plaintext: bytes) -> bytes:
    """ChaCha20 counter-mode encryption (RFC 8439 section 2.4)."""
    out = bytearray()
    for block_index in range(0, len(plaintext), 64):
        keystream = chacha20_block(key, counter + block_index // 64, nonce)
        chunk = plaintext[block_index : block_index + 64]
        out.extend(x ^ y for x, y in zip(chunk, keystream))
    return bytes(out)


def _poly1305_clamp(r: int) -> int:
    return r & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """The Poly1305 one-time authenticator (RFC 8439 section 2.5)."""
    if len(key) != 32:
        raise ValueError("poly1305 key must be 32 bytes")
    r = _poly1305_clamp(int.from_bytes(key[:16], "little"))
    s = int.from_bytes(key[16:], "little")
    p = (1 << 130) - 5
    accumulator = 0
    for i in range(0, len(message), 16):
        chunk = message[i : i + 16]
        n = int.from_bytes(chunk + b"\x01", "little")
        accumulator = ((accumulator + n) * r) % p
    accumulator = (accumulator + s) & ((1 << 128) - 1)
    return accumulator.to_bytes(16, "little")


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return b"\x00" * (16 - len(data) % 16)


class ChaCha20Poly1305:
    """The AEAD_CHACHA20_POLY1305 construction (RFC 8439 section 2.8)."""

    KEY_SIZE = 32
    NONCE_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_SIZE:
            raise ValueError("key must be 32 bytes")
        self._key = key

    def _one_time_key(self, nonce: bytes) -> bytes:
        return chacha20_block(self._key, 0, nonce)[:32]

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac_data = (
            aad
            + _pad16(aad)
            + ciphertext
            + _pad16(ciphertext)
            + struct.pack("<Q", len(aad))
            + struct.pack("<Q", len(ciphertext))
        )
        return poly1305_mac(self._one_time_key(nonce), mac_data)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError("nonce must be 12 bytes")
        ciphertext = chacha20_encrypt(self._key, 1, nonce, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises ``ValueError`` on forgery."""
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError("nonce must be 12 bytes")
        if len(sealed) < self.TAG_SIZE:
            raise ValueError("ciphertext too short")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        expected = self._tag(nonce, ciphertext, aad)
        if not hmac.compare_digest(tag, expected):
            raise ValueError("authentication tag mismatch")
        return chacha20_encrypt(self._key, 1, nonce, ciphertext)
