"""ChaCha20-Poly1305 AEAD (RFC 8439), implemented from scratch.

The AEAD used by HPKE and by the simulated transport layers.  The
implementation follows RFC 8439 exactly: the ChaCha20 block function
(section 2.3), counter-mode encryption (2.4), the Poly1305 MAC (2.5),
the one-time-key derivation (2.6), and the AEAD construction (2.8).

The block function holds the 4 x 4 word state as four integers, one
per row (a, b, c, d), with each 32-bit word in the low half of its own
64-bit lane, so one integer operation acts on four words at once:

- a column round is four add-xor-rotate steps on whole rows;
- a diagonal round is the same four steps after rotating the lanes of
  b, c and d by one, two and three positions, which puts each diagonal
  in one lane; the rows are rotated back after it.

A carry out of a word lands in its lane's upper half, and a mask
clears it.  Counter-mode encryption XORs the whole keystream with the
message as one integer.  Verified against the RFC's test vectors in
``tests/test_crypto_symmetric.py`` and against the quarter-round form
it replaced (``tests/chacha20_reference.py``) in
``tests/test_chacha20_kernel.py``.
"""

from __future__ import annotations

import struct
from typing import Tuple

from .hashutil import constant_time_equal

__all__ = ["chacha20_block", "chacha20_encrypt", "poly1305_mac", "ChaCha20Poly1305"]

#: The low 32 bits of each of a row's four 64-bit lanes.
_LANES = 0x00000000FFFFFFFF00000000FFFFFFFF00000000FFFFFFFF00000000FFFFFFFF
#: Row a: the constants "expand 32-byte k", one word per lane.
_SIGMA = 0x000000006B2065740000000079622D32000000003320646E0000000061707865
#: Blocks per (key, nonce): the block counter is one 32-bit word.
_COUNTERS = 1 << 32


def _row(words: bytes) -> int:
    """Up to four little-endian words, one per 64-bit lane."""
    lanes = (words[0:4], words[4:8], words[8:12], words[12:16])
    return int.from_bytes(b"\x00\x00\x00\x00".join(lanes), "little")


def _rows(key: bytes, nonce: bytes) -> Tuple[int, int, int]:
    """Rows b and c (the key), and row d with a zero counter."""
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    return _row(key[:16]), _row(key[16:]), _row(nonce) << 64


def _check_counter(counter: int) -> None:
    if not 0 <= counter < _COUNTERS:
        raise ValueError("counter must be in [0, 2**32)")


def _block(b0: int, c0: int, d0: int) -> bytes:
    """The keystream block of the state with rows ``_SIGMA``, b0, c0, d0.

    A lane rotation leaves a copy of lanes above bit 256.  Each row is
    masked by its next add-xor-rotate step, whose right shifts, by
    less than 32 bits, move those bits no lower than lane 3's upper
    half, which the mask clears.
    """
    m = _LANES  # a local: read 16 times a double round
    a, b, c, d = _SIGMA, b0, c0, d0
    for _ in range(10):
        # Column round.
        a = (a + b) & m
        d ^= a
        d = (d << 16 | d >> 16) & m
        c = (c + d) & m
        b ^= c
        b = (b << 12 | b >> 20) & m
        a = (a + b) & m
        d ^= a
        d = (d << 8 | d >> 24) & m
        c = (c + d) & m
        b ^= c
        b = (b << 7 | b >> 25) & m
        # Diagonal round: lane i of b, c and d takes lane i + 1, i + 2
        # and i + 3 (mod 4), so each diagonal lines up in lane i.
        b = b >> 64 | b << 192
        c = c >> 128 | c << 128
        d = d >> 192 | d << 64
        a = (a + b) & m
        d ^= a
        d = (d << 16 | d >> 16) & m
        c = (c + d) & m
        b ^= c
        b = (b << 12 | b >> 20) & m
        a = (a + b) & m
        d ^= a
        d = (d << 8 | d >> 24) & m
        c = (c + d) & m
        b ^= c
        b = (b << 7 | b >> 25) & m
        # Back to columns.
        b = b >> 192 | b << 64
        c = c >> 128 | c << 128
        d = d >> 64 | d << 192
    state = (
        (a + _SIGMA) & m
        | ((b + b0) & m) << 256
        | ((c + c0) & m) << 512
        | ((d + d0) & m) << 768
    )
    # Every second 32-bit word of the 128 bytes is a lane's empty half.
    return struct.pack("<16L", *struct.unpack("<32L", state.to_bytes(128, "little"))[::2])


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 section 2.3).

    Raises ``ValueError`` for a ``counter`` outside [0, 2**32).
    """
    b0, c0, d0 = _rows(key, nonce)
    _check_counter(counter)
    return _block(b0, c0, d0 | counter)


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, plaintext: bytes) -> bytes:
    """ChaCha20 counter-mode encryption (RFC 8439 section 2.4).

    Raises ``ValueError`` for a ``counter`` outside [0, 2**32), and for
    a message whose last block would need a counter past 2**32 - 1:
    the counter would wrap to block 0, the Poly1305 one-time key.
    """
    b0, c0, d0 = _rows(key, nonce)
    _check_counter(counter)
    size = len(plaintext)
    blocks = -(-size // 64)
    if counter + blocks > _COUNTERS:
        raise ValueError("message too long: its last block would pass counter 2**32 - 1")
    keystream = b"".join(_block(b0, c0, d0 | (counter + i)) for i in range(blocks))
    mixed = int.from_bytes(plaintext, "little") ^ int.from_bytes(keystream[:size], "little")
    return mixed.to_bytes(size, "little")


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
        if not constant_time_equal(tag, expected):
            raise ValueError("authentication tag mismatch")
        return chacha20_encrypt(self._key, 1, nonce, ciphertext)
