"""X25519 against the Montgomery ladder it replaced.

``repro.crypto.x25519.x25519`` takes one of two paths: a u with a
fixed-base table is multiplied on edwards25519 from that table, every
other u by a leaner ladder that inverts with ``pow(z, -1, p)``.  u = 9
has its table from first use; any other u on the curve gets one after
``_LADDER_CALLS`` ladder calls.  The RFC vectors pin a handful of
points; here both paths are checked against the original ladder
(``tests/x25519_reference.py``) on Hypothesis-drawn scalars, with each
u reused past its build point: for public keys, for random u (about
half on the twist, which must never get a table), for every 32-byte
encoding of u = 9 and of a peer u, and for the edge and low-order u
where the ladder's z reaches 0 -- where ``pow(0, -1, p)`` raises and
the Fermat form gave 0.  Threads that reuse one u together must build
its table once and lose none of its sightings.  Every test starts from
empty table and sighting maps, so test order cannot matter.
"""

import importlib
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from x25519_reference import x25519 as reference_x25519
from repro.crypto.x25519 import P, X25519_BASEPOINT, X25519PrivateKey, x25519

# By module path: the ``repro.crypto`` package re-exports the function
# under the submodule's own name.
x25519_module = importlib.import_module("repro.crypto.x25519")

BYTES32 = st.binary(min_size=32, max_size=32)

#: Calls that take one u past its build point: its ladder calls, the
#: call that builds its table, and one that reads it.
REUSES = x25519_module._LADDER_CALLS + 2

#: One scalar per call on a reused u.
SCALARS = st.lists(BYTES32, min_size=REUSES, max_size=REUSES)


def _u(value: int) -> bytes:
    return value.to_bytes(32, "little")


def _key(u: bytes) -> int:
    """u mod p, the key of the module's table and sighting maps."""
    return (int.from_bytes(u, "little") & ((1 << 255) - 1)) % P


def _has_edwards_point(value: int) -> bool:
    """u is on Curve25519, not its twist, and is not -1.

    Euler's criterion on v**2 = u**3 + 486662 u**2 + u, independent of
    the module's square root.
    """
    v2 = (value**3 + 486662 * value**2 + value) % P
    return value != P - 1 and pow(v2, (P - 1) // 2, P) != P - 1


def _empty_maps() -> None:
    with x25519_module._lock:
        x25519_module._tables.clear()
        x25519_module._sightings.clear()


@pytest.fixture(autouse=True)
def empty_maps():
    _empty_maps()
    yield
    _empty_maps()


def _reused(u: bytes, scalars) -> None:
    """Each scalar times u, from empty maps, equals the oracle's bytes."""
    _empty_maps()
    for scalar in scalars:
        assert x25519(scalar, u) == reference_x25519(scalar, u)


#: Every encoding of u = 9: canonical, non-canonical 9 + p, and both
#: with bit 255 set (which X25519 masks).
BASE_POINT_ENCODINGS = [_u(9), _u(9 + 2**255), _u(9 + P), _u(9 + P + 2**255)]

#: u whose every clamped multiple is the point at infinity: 0 (and its
#: non-canonical p), 1 (and p + 1), p - 1, and the two order-8 points.
LOW_ORDER_U = [
    0,
    1,
    P - 1,
    P,
    P + 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
]

#: The low-order u plus the largest encoding, 2**255 - 1 = p + 18.
EDGE_U = LOW_ORDER_U + [2**255 - 1]

#: Every encoding of u = 4, a point of the curve other than the base
#: point and small enough that u + p fits in 255 bits.
PEER_ENCODINGS = [_u(4), _u(4 + 2**255), _u(4 + P), _u(4 + P + 2**255)]


@given(SCALARS, BYTES32)
def test_random_u_matches_reference(scalars, u):
    _reused(u, scalars)
    assert (_key(u) in x25519_module._tables) == _has_edwards_point(_key(u))


@given(SCALARS, BYTES32)
def test_reused_public_key_matches_reference_and_gets_a_table(scalars, private):
    u = x25519(private, X25519_BASEPOINT)
    _reused(u, scalars)
    assert list(x25519_module._tables) == [_key(u)]


@given(SCALARS)
def test_every_encoding_of_a_u_shares_one_table(scalars):
    _empty_maps()
    for index, scalar in enumerate(scalars):
        u = PEER_ENCODINGS[index % len(PEER_ENCODINGS)]
        assert x25519(scalar, u) == reference_x25519(scalar, u)
    assert list(x25519_module._tables) == [4]
    assert not x25519_module._sightings


@given(BYTES32, st.sampled_from(BASE_POINT_ENCODINGS))
def test_base_point_matches_reference(scalar, u):
    assert x25519(scalar, u) == reference_x25519(scalar, u)


@given(SCALARS, st.sampled_from(EDGE_U))
def test_edge_u_matches_reference(scalars, u):
    _reused(_u(u), scalars)


@given(SCALARS, st.sampled_from(LOW_ORDER_U))
def test_low_order_u_gives_zero_and_exchange_raises(scalars, u):
    _empty_maps()
    for scalar in scalars:
        assert x25519(scalar, _u(u)) == bytes(32)
        with pytest.raises(ValueError, match="non-contributory"):
            X25519PrivateKey(scalar).exchange(_u(u))


@pytest.mark.parametrize("u", BASE_POINT_ENCODINGS, ids=lambda u: u.hex()[-4:])
def test_base_point_takes_the_table_path(monkeypatch, u):
    def no_ladder(k, x1):
        raise AssertionError("u = 9 reached the ladder")

    monkeypatch.setattr(x25519_module, "_ladder", no_ladder)
    scalar = bytes(range(32))
    assert x25519(scalar, u) == reference_x25519(scalar, u)


def test_maps_stay_bounded_and_keep_the_base_table():
    peer_tables = x25519_module._PEER_TABLES
    sightings = x25519_module._SIGHTINGS
    scalar = bytes(range(32))
    keys = [x25519(bytes([i]) * 32, X25519_BASEPOINT) for i in range(peer_tables + 2)]
    for u in keys:
        for _ in range(REUSES):
            x25519(scalar, u)
    for value in range(100, 100 + sightings + 8):
        x25519(scalar, _u(value))
    tables = x25519_module._tables
    assert len(tables) == peer_tables + 1
    assert 9 in tables
    assert [value for value in tables if value != 9] == [
        _key(u) for u in keys[-peer_tables:]
    ]
    assert len(x25519_module._sightings) == sightings


def test_threads_reusing_one_u_build_one_table_and_lose_no_sighting(monkeypatch):
    u = x25519(bytes([7]) * 32, X25519_BASEPOINT)
    _empty_maps()
    calls = []
    ladder, table = x25519_module._ladder, x25519_module._table

    def counted_ladder(k, x1):
        calls.append("ladder")
        return ladder(k, x1)

    def counted_table(point):
        calls.append("table")
        return table(point)

    monkeypatch.setattr(x25519_module, "_ladder", counted_ladder)
    monkeypatch.setattr(x25519_module, "_table", counted_table)
    results = {}

    def reuse(thread):
        for call in range(REUSES):
            scalar = bytes([thread, call]) * 16
            results[scalar] = x25519(scalar, u)

    threads = [threading.Thread(target=reuse, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert calls.count("ladder") == x25519_module._LADDER_CALLS
    assert calls.count("table") == 1
    assert len(results) == 4 * REUSES
    for scalar, shared in results.items():
        assert shared == reference_x25519(scalar, u)
