"""HKDF (RFC 5869) over HMAC-SHA-256.

The extract-and-expand key derivation function used by HPKE and the
simulated TLS handshake.  Verified against the RFC 5869 test vectors in
``tests/test_crypto_symmetric.py``.
"""

from __future__ import annotations

from .hashutil import hmac_sha256

__all__ = ["hkdf_extract", "hkdf_expand", "hkdf"]

_HASH_LEN = 32


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract: a pseudorandom key from input keying material."""
    if not salt:
        salt = b"\x00" * _HASH_LEN
    return hmac_sha256(salt, ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: ``length`` bytes of output keying material."""
    if length > 255 * _HASH_LEN:
        raise ValueError("requested HKDF output too long")
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac_sha256(prk, previous, info, bytes([counter]))
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def hkdf(ikm: bytes, salt: bytes = b"", info: bytes = b"", length: int = 32) -> bytes:
    """Extract-then-expand in one call."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)
