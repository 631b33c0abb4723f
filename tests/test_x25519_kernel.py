"""X25519 against the Montgomery ladder it replaced.

``repro.crypto.x25519.x25519`` takes one of two paths: u = 9 is
multiplied on edwards25519 from a fixed-base table, every other u by a
leaner ladder that inverts with ``pow(z, -1, p)``.  The RFC vectors
pin a handful of points; here both paths are checked against the
original ladder (``tests/x25519_reference.py``) on Hypothesis-drawn
scalars, for random u, for every 32-byte encoding of u = 9, and for
the edge and low-order u where the ladder's z reaches 0 -- where
``pow(0, -1, p)`` raises and the Fermat form gave 0.
"""

import importlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from x25519_reference import x25519 as reference_x25519
from repro.crypto.x25519 import P, X25519PrivateKey, x25519

# By module path: the ``repro.crypto`` package re-exports the function
# under the submodule's own name.
x25519_module = importlib.import_module("repro.crypto.x25519")

BYTES32 = st.binary(min_size=32, max_size=32)


def _u(value: int) -> bytes:
    return value.to_bytes(32, "little")


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


@given(BYTES32, BYTES32)
def test_random_u_matches_reference(scalar, u):
    assert x25519(scalar, u) == reference_x25519(scalar, u)


@given(BYTES32, st.sampled_from(BASE_POINT_ENCODINGS))
def test_base_point_matches_reference(scalar, u):
    assert x25519(scalar, u) == reference_x25519(scalar, u)


@given(BYTES32, st.sampled_from(EDGE_U))
def test_edge_u_matches_reference(scalar, u):
    assert x25519(scalar, _u(u)) == reference_x25519(scalar, _u(u))


@given(BYTES32, st.sampled_from(LOW_ORDER_U))
def test_low_order_u_gives_zero_and_exchange_raises(scalar, u):
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
