"""X25519 Diffie-Hellman (RFC 7748), implemented from scratch.

``x25519(scalar, u)`` is the X25519 function of RFC 7748 section 5:
scalar clamping, little-endian encodings, and the u-coordinate of the
scalar multiple of ``u`` on Curve25519.  It takes one of two paths,
chosen from ``u`` itself:

- **A u with a fixed-base table.**  It reads the scalar as signed
  radix-32 digits and adds one precomputed affine multiple of the
  point per digit on the birationally equivalent twisted Edwards curve
  (edwards25519), then maps back with u = (Z + Y) / (Z - Y) -- the
  method of ref10's ``crypto_scalarmult_curve25519_base``, about five
  times faster than the ladder.  The base point u = 9 has its table
  from first use: every public key is a multiple of it, three of the
  five multiplications in an ODoH query.  Any other u gets its table
  once the ladder calls it has taken have cost about what the table
  costs to build; in an ODoH query that is the fourth multiplication,
  the sender's ``exchange`` with the recipient's static key.
- **Any other u.**  The RFC 7748 Montgomery ladder: a u seen too few
  times to pay for a table (the fifth multiplication, the recipient's
  ``exchange`` with a fresh ephemeral key), and a u with no
  edwards25519 point (u = -1, and every u on the twist).

Tables and sighting counts live in small bounded maps keyed by u mod
p, guarded by one lock; nothing is computed at import.  Both paths give
the bytes the plain ladder gives on every input, including 32 zero
bytes for the low-order points.  Neither is constant time:
constant-time behaviour is irrelevant to the decoupling analysis
(DESIGN.md).  Verified against the RFC's test vectors in
``tests/test_crypto_x25519_hpke.py`` and against the original ladder in
``tests/test_x25519_kernel.py``.

This is the KEM substrate for HPKE (:mod:`repro.crypto.hpke`), which in
turn powers the ODoH and OHTTP models.
"""

from __future__ import annotations

import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
#: A square root of -1 mod p, 2**((p - 1) / 4) mod p.
_SQRT_M1 = 19681161376707505956807079304988542015446066515923890162744021073123829784752

#: Digit width (bits) for fixed-base multiplication.  Five gives 51
#: signed digits in [-16, 16) and a carry: a table of 51 rows of 16
#: affine multiples per u and a carry row of one (817 entries, 225 KiB,
#: 10.5 ms to build) and at most 52 mixed additions per multiple:
#: 0.37 ms per call against the ladder's 2.0 ms (2-vCPU x86-64 VM,
#: CPython 3.11; docs/PERFORMANCE.md, "Fixed-base X25519").
_FIXED_BASE_WINDOW = 5

#: Ladder calls a u other than 9 takes before it gets a table, by ski
#: rental: its point and table cost 11.0 ms to build and save 1.6 ms on
#: every later call, so seven ladder calls lose about what the table
#: costs (break-even at 7.0), and the 8th sighting builds it.  A u seen
#: once -- the ephemeral key a recipient decapsulates -- never pays.
_LADDER_CALLS = 7

#: Most tables kept for u other than 9, the oldest evicted first.  A
#: run seals every message to one static key (the ``odoh`` target's,
#: the ``doh`` resolver's, the ``ohttp`` gateway's) and a process runs
#: its runs one after another, so one table serves: replayed through
#: these maps, the u of every X25519 call of ``repro report``,
#: ``resilience`` and ``risk`` and of ``perfbench``'s ``odoh-hpke`` ops
#: take the ladder exactly as often as with unbounded maps
#: (docs/PERFORMANCE.md, "Bounded maps").
_PEER_TABLES = 1

#: Most u whose sightings are counted, the least recently seen evicted
#: first.  ``Network.transact`` is synchronous and a run resolves its
#: queries one after another, so between two calls on the static key
#: comes one other u, the fresh ephemeral key the recipient
#: decapsulates: two entries keep the static key counted.
_SIGHTINGS = 2

_Point = Tuple[int, int, int, int]
#: (y + x, y - x, 2dxy) of an affine point.
_Entry = Tuple[int, int, int]
_Table = Tuple[Tuple[_Entry, ...], ...]

#: u mod p -> its fixed-base table, oldest first.  u = 9's entry,
#: built on its first use, is never evicted.
_tables: "Dict[int, _Table]" = {}
#: u mod p -> calls seen, for each u without a table.
_sightings: "OrderedDict[int, int]" = OrderedDict()
#: Guards both maps, so two threads never build one table twice.
_lock = threading.Lock()


def _decode_u_coordinate(u: bytes) -> int:
    if len(u) != 32:
        raise ValueError("u-coordinate must be 32 bytes")
    value = int.from_bytes(u, "little")
    # Mask the high bit per RFC 7748; reduce, so every encoding of a u
    # is one key of the table maps.
    return (value & ((1 << 255) - 1)) % P


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


def _edwards_point(u: int) -> Optional[_Point]:
    """The edwards25519 point with Montgomery u-coordinate ``u``.

    y = (u - 1) / (u + 1), and x is a square root of
    (y**2 - 1) / (d y**2 + 1); the root's sign flips every multiple's
    x and no u.  None for u = -1, which has no y, and for u on the
    twist, where that quotient is not a square.  B's coordinates are
    known, so u = 9 takes no square root.
    """
    if u == 9:
        return _BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % P
    if u == P - 1:
        return None
    y = (u - 1) * pow(u + 1, -1, P) % P
    yy = y * y % P
    xx = (yy - 1) * pow(_D * yy + 1, -1, P) % P
    # p = 5 (mod 8): x or x * sqrt(-1) is a root if xx has one.
    x = pow(xx, (P + 3) // 8, P)
    if x * x % P != xx:
        x = x * _SQRT_M1 % P
        if x * x % P != xx:
            return None
    return x, y, 1, x * y % P


def _table(point: _Point) -> _Table:
    """The fixed-base table of ``point``.

    Row ``i`` holds ``j * 32**i * point`` (32 = 2**_FIXED_BASE_WINDOW)
    for j = 1..16, the magnitudes of a signed radix-32 digit, so a
    multiple of ``point`` is one table entry per digit of the scalar --
    point additions only, no doublings.  The row after the last window
    takes the final carry, 0 or 1, so it holds its j = 1 entry only.
    The rows are built in extended coordinates, then one batch inversion
    makes every entry affine, (y + x, y - x, 2dxy): its Z is 1, so an
    addition needs no Z product.
    """
    half = 1 << (_FIXED_BASE_WINDOW - 1)
    windows = (255 + _FIXED_BASE_WINDOW - 1) // _FIXED_BASE_WINDOW
    multiples = []
    row_base = point
    for _ in range(windows):
        step = _cached(row_base)
        multiple = row_base
        multiples.append(multiple)
        for _ in range(half - 1):
            multiple = _edwards_add(multiple, step)
            multiples.append(multiple)
        row_base = _edwards_add(multiple, _cached(multiple))  # 2 * (16 * row_base)
    multiples.append(row_base)  # the carry row
    # Montgomery's trick: one inversion of the product of every Z, then
    # two multiplications per entry give each entry's 1/Z.
    prefixes = []
    product = 1
    for _, _, z, _ in multiples:
        prefixes.append(product)
        product = product * z % P
    inverse = pow(product, -1, P)
    entries = []
    while multiples:  # popped, so the build never holds both forms of every entry
        x, y, z, t = multiples.pop()
        z_inverse = inverse * prefixes.pop() % P
        inverse = inverse * z % P
        entries.append(
            ((y + x) * z_inverse % P, (y - x) * z_inverse % P, t * z_inverse % P * _D2 % P)
        )
    entries.reverse()
    return tuple(tuple(entries[i : i + half]) for i in range(0, len(entries), half))


def _multiple(table: _Table, k: int) -> bytes:
    """The u-coordinate of k times the table's point.

    k is read as signed radix-32 digits in [-16, 16): a window of 16 or
    more, carry included, becomes its value minus 32 and carries one
    into the next, and the row after the last window takes the final
    carry.  A negative digit adds the negated entry: -(x, y) = (-x, y)
    swaps y + x with y - x and negates 2dxy.
    """
    mask = (1 << _FIXED_BASE_WINDOW) - 1
    half = 1 << (_FIXED_BASE_WINDOW - 1)
    x, y, z, t = 0, 1, 1, 0  # the identity
    carry = 0
    for row in table:
        digit = (k & mask) + carry
        k >>= _FIXED_BASE_WINDOW
        carry = digit >= half
        if carry:
            digit -= mask + 1
        if digit > 0:
            y_plus_x, y_minus_x, t2d = row[digit - 1]
        elif digit:
            y_minus_x, y_plus_x, t2d = row[-digit - 1]
            t2d = -t2d
        else:
            continue
        # Mixed addition (ref10's ge_madd): _edwards_add with Z2 = 1.
        a = (y - x) * y_minus_x % P
        b = (y + x) * y_plus_x % P
        c = t * t2d % P
        d = z + z
        e, f, g, h = b - a, d - c, d + c, b + a
        x, y, z, t = e * f % P, g * h % P, f * g % P, e * h % P
    return _u_bytes(z + y, z - y)


def _table_for(u: int) -> Optional[_Table]:
    """``u``'s fixed-base table, or None while ``u`` takes the ladder.

    u = 9 gets its table on first use, any other u on the sighting
    after its ``_LADDER_CALLS`` ladder calls.  A u with no edwards25519
    point stays on the ladder and counts again from zero, so it pays
    one failed square root per ``_LADDER_CALLS + 1`` calls.
    """
    with _lock:
        table = _tables.get(u)
        if table is not None:
            return table
        if u != 9:
            seen = _sightings.pop(u, 0) + 1
            if seen <= _LADDER_CALLS:
                _sightings[u] = seen
                if len(_sightings) > _SIGHTINGS:
                    _sightings.popitem(last=False)
                return None
        point = _edwards_point(u)
        if point is None:
            return None
        _tables[u] = table = _table(point)
        peers = [v for v in _tables if v != 9]
        if len(peers) > _PEER_TABLES:
            del _tables[peers[0]]
        return table


def x25519(scalar: bytes, u: bytes = X25519_BASEPOINT) -> bytes:
    """The X25519 function: scalar multiplication on Curve25519.

    ``scalar`` and ``u`` are 32-byte strings; returns the 32-byte
    little-endian u-coordinate of the product.
    """
    k = _decode_scalar(scalar)
    x1 = _decode_u_coordinate(u)
    table = _table_for(x1)
    if table is None:
        return _ladder(k, x1)
    return _multiple(table, k)


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
