"""X25519 Diffie-Hellman (RFC 7748), implemented from scratch.

``x25519(scalar, u)`` is the X25519 function of RFC 7748 section 5:
scalar clamping, little-endian encodings, and the u-coordinate of the
scalar multiple of ``u`` on Curve25519.  It takes one of two paths,
chosen from ``u`` itself:

- **u = 9, the base point.**  Every public key is a multiple of the
  base point, so three of the five multiplications in an ODoH query
  take this path.  It adds one precomputed multiple of B per 4-bit
  window of the scalar on the birationally equivalent twisted Edwards
  curve (edwards25519), then maps back with u = (Z + Y) / (Z - Y) --
  the method of ref10's ``crypto_scalarmult_curve25519_base``, about
  four times faster than the ladder.
- **Any other u.**  The RFC 7748 Montgomery ladder.  A Diffie-Hellman
  peer key is seen once, so no table would pay for itself.

Both paths give the bytes the plain ladder gives on every input,
including 32 zero bytes for the low-order points.  Neither is constant
time: constant-time behaviour is irrelevant to the decoupling analysis
(DESIGN.md).  Verified against the RFC's test vectors in
``tests/test_crypto_x25519_hpke.py`` and against the original ladder in
``tests/test_x25519_kernel.py``.

This is the KEM substrate for HPKE (:mod:`repro.crypto.hpke`), which in
turn powers the ODoH and OHTTP models.
"""

from __future__ import annotations

import functools
import secrets
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["X25519PrivateKey", "x25519", "X25519_BASEPOINT"]

P = 2**255 - 19
A24 = 121665
X25519_BASEPOINT = b"\x09" + b"\x00" * 31

#: d of edwards25519, -x^2 + y^2 = 1 + d x^2 y^2: -121665/121666 mod p.
_D = 37095705934669439343138083508754565189542113879843219016388785533085940283555
_D2 = 2 * _D % P
#: The edwards25519 base point B (RFC 8032): y = 4/5, the point u = 9.
_BASE_X = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_BASE_Y = 46316835694926478169428394003475163141307993866256225615783033603165251855960

#: Window width (bits) for fixed-base multiplication.  Four gives 64
#: windows of 15 multiples: a 960-point table (~0.3 MiB, ~8 ms to
#: build) and at most 64 point additions per base-point multiple:
#: 0.27 ms per call against the ladder's 1.2 ms (2-vCPU x86-64 VM,
#: CPython 3.11).
_FIXED_BASE_WINDOW = 4

_Point = Tuple[int, int, int, int]


def _decode_u_coordinate(u: bytes) -> int:
    if len(u) != 32:
        raise ValueError("u-coordinate must be 32 bytes")
    value = int.from_bytes(u, "little")
    return value & ((1 << 255) - 1)  # mask the high bit per RFC 7748


def _encode_u_coordinate(value: int) -> bytes:
    return (value % P).to_bytes(32, "little")


def _decode_scalar(scalar: bytes) -> int:
    if len(scalar) != 32:
        raise ValueError("scalar must be 32 bytes")
    raw = bytearray(scalar)
    raw[0] &= 248
    raw[31] &= 127
    raw[31] |= 64
    return int.from_bytes(bytes(raw), "little")


def _u_bytes(numerator: int, denominator: int) -> bytes:
    """The encoded quotient; a zero denominator encodes as 0.

    The ladder reaches z = 0 for the low-order u.  ``pow(0, -1, P)``
    raises where the Fermat form z**(p - 2) gave 0, so the zero is
    returned here and ``X25519PrivateKey.exchange`` rejects it.
    """
    denominator %= P
    if not denominator:
        return bytes(32)
    return _encode_u_coordinate(numerator * pow(denominator, -1, P))


def _ladder(k: int, x1: int) -> bytes:
    """The RFC 7748 Montgomery ladder: k times the point with u = x1.

    Sums and differences that only feed a multiplication stay
    unreduced.
    """
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        if swap != k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t

        a = x2 + z2
        aa = a * a % P
        b = x2 - z2
        bb = b * b % P
        e = aa - bb
        da = (x3 - z3) * a % P
        cb = (x3 + z3) * b % P
        x3 = da + cb
        x3 = x3 * x3 % P
        z3 = da - cb
        z3 = z3 * z3 % P * x1 % P
        x2 = aa * bb % P
        z2 = e * (aa + A24 * e) % P

    # No final swap: bit 0 of a clamped scalar is 0, so swap is 0 here.
    return _u_bytes(x2, z2)


def _edwards_add(point: _Point, cached: _Point) -> _Point:
    """``point + cached`` on edwards25519 (Hisil-Wong-Carter-Dawson).

    ``point`` is in extended coordinates (X, Y, Z, T): x = X/Z,
    y = Y/Z, x*y = T/Z.  ``cached`` is the other summand as
    (Y - X, Y + X, 2dT, 2Z).  The formula is complete on this curve:
    it also doubles and adds the identity.
    """
    x, y, z, t = point
    y_minus_x, y_plus_x, t2d, z2 = cached
    a = (y - x) * y_minus_x % P
    b = (y + x) * y_plus_x % P
    c = t * t2d % P
    d = z * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % P, g * h % P, f * g % P, e * h % P


def _cached(point: _Point) -> _Point:
    x, y, z, t = point
    return (y - x) % P, (y + x) % P, t * _D2 % P, 2 * z % P


@functools.lru_cache(maxsize=None)
def _base_table() -> Tuple[Tuple[_Point, ...], ...]:
    """The base point's fixed-base table, built on first use.

    Row ``i`` holds ``d * 16**i * B`` (16 = 2**_FIXED_BASE_WINDOW) in
    cached form for every nonzero window digit ``d``, so a base-point
    multiple is one table entry per window of the scalar -- point
    additions only, no doublings.
    """
    width = 1 << _FIXED_BASE_WINDOW
    rows = []
    row_base = (_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % P)
    for _ in range((255 + _FIXED_BASE_WINDOW - 1) // _FIXED_BASE_WINDOW):
        step = _cached(row_base)
        row = [step]
        multiple = row_base
        for _ in range(width - 2):
            multiple = _edwards_add(multiple, step)
            row.append(_cached(multiple))
        rows.append(tuple(row))
        row_base = _edwards_add(multiple, step)
    return tuple(rows)


def _base_multiple(k: int) -> bytes:
    """The u-coordinate of k * B, from the fixed-base table."""
    mask = (1 << _FIXED_BASE_WINDOW) - 1
    point = (0, 1, 1, 0)  # the identity
    for row in _base_table():
        digit = k & mask
        if digit:
            point = _edwards_add(point, row[digit - 1])
        k >>= _FIXED_BASE_WINDOW
    _, y, z, _ = point
    return _u_bytes(z + y, z - y)


def x25519(scalar: bytes, u: bytes = X25519_BASEPOINT) -> bytes:
    """The X25519 function: scalar multiplication on Curve25519.

    ``scalar`` and ``u`` are 32-byte strings; returns the 32-byte
    little-endian u-coordinate of the product.
    """
    k = _decode_scalar(scalar)
    x1 = _decode_u_coordinate(u)
    if x1 % P == 9:
        return _base_multiple(k)
    return _ladder(k, x1)


@dataclass(frozen=True)
class X25519PrivateKey:
    """A clamped X25519 private key with its public key."""

    private_bytes: bytes

    @staticmethod
    def generate(seed: Optional[bytes] = None) -> "X25519PrivateKey":
        """A fresh key; pass a 32-byte ``seed`` for determinism."""
        raw = seed if seed is not None else secrets.token_bytes(32)
        if len(raw) != 32:
            raise ValueError("seed must be 32 bytes")
        return X25519PrivateKey(private_bytes=raw)

    @property
    def public_bytes(self) -> bytes:
        return x25519(self.private_bytes, X25519_BASEPOINT)

    def exchange(self, peer_public: bytes) -> bytes:
        """The shared secret with ``peer_public``.

        Raises ``ValueError`` on an all-zero result (non-contributory
        key exchange), per RFC 7748's MUST-check guidance.
        """
        shared = x25519(self.private_bytes, peer_public)
        if shared == b"\x00" * 32:
            raise ValueError("non-contributory X25519 exchange (zero shared secret)")
        return shared
