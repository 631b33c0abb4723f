"""ChaCha20 on four integer lanes against the quarter rounds it replaced.

``repro.crypto.chacha20poly1305`` runs the block function on four
integers, one per row of the state, with one 32-bit word per 64-bit
lane, rotating the lanes of rows b, c and d for the diagonal round and
back after it, and XORs a keystream with the message as one integer.
The RFC 8439 vectors pin a few blocks; here the block function,
counter-mode encryption and the AEAD's ``seal`` and ``open`` are
checked against the original code (``tests/chacha20_reference.py``) on
Hypothesis-drawn keys, nonces, counters and messages, and on every
length at and around a block boundary.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chacha20_reference as reference
from repro.crypto.chacha20poly1305 import ChaCha20Poly1305, chacha20_block, chacha20_encrypt

KEYS = st.binary(min_size=32, max_size=32)
NONCES = st.binary(min_size=12, max_size=12)

#: Message lengths at and around the 64-byte block boundaries.
EDGE_LENGTHS = (0, 1, 63, 64, 65, 128, 129)

LAST_COUNTER = 2**32 - 1

#: Counters in range, the first, second and last always among them.
COUNTERS = st.one_of(st.sampled_from([0, 1, LAST_COUNTER]), st.integers(0, LAST_COUNTER))

MESSAGES = st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 300)).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)


def _blocks(message: bytes) -> int:
    return -(-len(message) // 64)


def _check(key: bytes, nonce: bytes, counter: int, message: bytes, aad: bytes) -> None:
    """Block, encryption, seal and open each equal the oracle's bytes.

    ``counter`` is lowered, where it must be, so that the message's
    last block still has a counter in range.
    """
    assert chacha20_block(key, counter, nonce) == reference.chacha20_block(key, counter, nonce)
    counter = min(counter, 2**32 - _blocks(message))
    assert chacha20_encrypt(key, counter, nonce, message) == reference.chacha20_encrypt(
        key, counter, nonce, message
    )
    sealed = ChaCha20Poly1305(key).seal(nonce, message, aad)
    assert sealed == reference.ChaCha20Poly1305(key).seal(nonce, message, aad)
    assert ChaCha20Poly1305(key).open(nonce, sealed, aad) == message
    assert reference.ChaCha20Poly1305(key).open(nonce, sealed, aad) == message


@given(KEYS, NONCES, COUNTERS, MESSAGES, st.binary(max_size=40))
def test_lanes_match_reference(key, nonce, counter, message, aad):
    _check(key, nonce, counter, message, aad)


@pytest.mark.parametrize("size", EDGE_LENGTHS)
@pytest.mark.parametrize("counter", [0, 1, LAST_COUNTER])
def test_block_edges_match_reference(size, counter):
    key, nonce = bytes(range(32)), bytes(range(100, 112))
    message = bytes(range(size))
    _check(key, nonce, counter, message, b"aad")
