"""The original X25519 Montgomery ladder, kept as a test oracle.

``repro.crypto.x25519`` multiplies the base point u = 9 on the
equivalent twisted Edwards curve from a fixed-base table, and every
other u with a leaner ladder that inverts with ``pow(z, -1, p)``.
This module keeps the function it replaced -- the RFC 7748 ladder with
its ``_cswap`` helper, a ``% P`` after every operation and Fermat
inversion ``z ** (p - 2)`` -- exactly as it was, so
``tests/test_x25519_kernel.py`` can check that both give the same
bytes on every input.  The encoding helpers are copied too, so the
oracle shares no code with the module it checks.

Fermat inversion maps z = 0 to 0, so this ladder returns 32 zero bytes
for the low-order u; the kernel must do the same.
"""

from typing import Tuple

P = 2**255 - 19
A24 = 121665
X25519_BASEPOINT = b"\x09" + b"\x00" * 31


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


def _cswap(swap: int, a: int, b: int) -> Tuple[int, int]:
    """Conditional swap; branchless in spirit (this is a simulator)."""
    mask = -swap  # 0 or all-ones (Python ints extend infinitely)
    dummy = mask & (a ^ b)
    return a ^ dummy, b ^ dummy


def x25519(scalar: bytes, u: bytes = X25519_BASEPOINT) -> bytes:
    """The X25519 function: scalar multiplication on Curve25519.

    ``scalar`` and ``u`` are 32-byte strings; returns the 32-byte
    little-endian u-coordinate of the product.
    """
    k = _decode_scalar(scalar)
    x1 = _decode_u_coordinate(u)
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swap = 0
    for t in reversed(range(255)):
        k_t = (k >> t) & 1
        swap ^= k_t
        x2, x3 = _cswap(swap, x2, x3)
        z2, z3 = _cswap(swap, z2, z3)
        swap = k_t

        a = (x2 + z2) % P
        aa = (a * a) % P
        b = (x2 - z2) % P
        bb = (b * b) % P
        e = (aa - bb) % P
        c = (x3 + z3) % P
        d = (x3 - z3) % P
        da = (d * a) % P
        cb = (c * b) % P
        x3 = (da + cb) % P
        x3 = (x3 * x3) % P
        z3 = (da - cb) % P
        z3 = (z3 * z3) % P
        z3 = (z3 * x1) % P
        x2 = (aa * bb) % P
        z2 = (e * ((aa + A24 * e) % P)) % P

    x2, x3 = _cswap(swap, x2, x3)
    z2, z3 = _cswap(swap, z2, z3)
    result = (x2 * pow(z2, P - 2, P)) % P
    return _encode_u_coordinate(result)
