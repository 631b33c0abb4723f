"""Schnorr groups: prime-order subgroups of Z_p* for a safe prime p.

The discrete-log substrate for the VOPRF (:mod:`repro.crypto.voprf`)
behind Privacy Pass.  With ``p = 2q + 1`` (p a safe prime), the
quadratic residues form a subgroup of prime order ``q``; elements are
integers, scalars live in ``Z_q``, and hashing to the group squares a
hash-to-field output.

Fixed parameters were generated once with the seeded script recorded
below (``random.Random(20221114)``), so every run of the test suite and
benchmarks uses identical groups::

    from repro.crypto.numtheory import random_safe_prime
    import random
    rng = random.Random(20221114)
    [random_safe_prime(bits, rng) for bits in (256, 512, 768)]

``GROUP_256``, ``GROUP_512`` and ``GROUP_768`` are built and checked on
first use, not at import (a PEP 562 module ``__getattr__``).  Each is
made by the ``SchnorrGroup`` constructor, so p and q pass the same
primality checks as any other group, and the one instance is kept for
the process, so its generator table is built once.  A process that
never uses a group never pays for its checks.
"""

from __future__ import annotations

import random as _random
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from .hashutil import expand_message_xmd, os2ip
from .numtheory import is_probable_prime, modinv, random_below

__all__ = ["SchnorrGroup", "GROUP_256", "GROUP_512", "GROUP_768", "default_group"]

#: Window width (bits) for fixed-base exponentiation.  Six keeps the
#: per-group table small (ceil(|q|/6) rows x 63 entries) while cutting
#: generator exponentiations to ~1/4 the cost of ``pow`` -- measured
#: 126us -> 29us on schnorr-256, 594us -> 130us on schnorr-512.
_FIXED_BASE_WINDOW = 6

_P256 = 0x8FCD5BF9765E1180A34EC7F9B23DDCD1642E9D8F94BF81E9F4B2D667D1AC031F
_P512 = (
    0xEC403FA91E29C6D775FD9D6E17EDACB4F9FDCB90A33FDA540FCBD574686E7BFB
    * 2**256
    + 0x24B4ECF9F39AA3DE0F53668430DCD17FC5951267BDFDFCED6B62A4C273DA8347
)
_P768 = int(
    "e4eae008c1a205da9c72a83ef678cf4c9a769d7fa0785410c9bb3edd39dea051"
    "371c99a91baf200da320d0bd1b0a538d9f8b1378d881037b34ff5d824d23d2c6"
    "99c186b00e0a69aa5708b91c98da80bcc4a9325022e5f092e54887a830d66263",
    16,
)


@dataclass(frozen=True)
class SchnorrGroup:
    """A prime-order-q subgroup of Z_p*, p = 2q + 1 a safe prime."""

    p: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.p % 2 == 0 or not is_probable_prime(self.p):
            raise ValueError("p must be an odd prime")
        if not is_probable_prime(self.order):
            raise ValueError("p must be a safe prime (so (p-1)/2 is prime)")
        # Lazily built windowed table for generator exponentiation,
        # cached per group instance (the dataclass is frozen, hence the
        # object.__setattr__).
        object.__setattr__(self, "_generator_table", None)

    @property
    def order(self) -> int:
        """The subgroup order q = (p - 1) / 2."""
        return (self.p - 1) // 2

    @property
    def generator(self) -> int:
        """4 = 2^2, always a quadratic residue and of order q."""
        return 4

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def is_element(self, x: int) -> bool:
        """Membership test: x is a QR mod p (Euler criterion), x != 0."""
        return 0 < x < self.p and pow(x, self.order, self.p) == 1

    def exp(self, base: int, scalar: int) -> int:
        return pow(base, scalar % self.order, self.p)

    def _fixed_base_rows(self) -> tuple:
        """The generator's windowed-exponent table, built on first use.

        Row ``i`` holds ``g**(d << (w*i)) mod p`` for every window
        digit ``d``, so one exponentiation is a product of one table
        entry per window of the scalar -- ceil(|q|/w) modular
        multiplications, no squarings.
        """
        rows = self._generator_table  # type: ignore[attr-defined]
        if rows is None:
            w = _FIXED_BASE_WINDOW
            width = 1 << w
            built = []
            row_base = self.generator
            for _ in range((self.order.bit_length() + w - 1) // w):
                row = [1] * width
                for digit in range(1, width):
                    row[digit] = row[digit - 1] * row_base % self.p
                built.append(tuple(row))
                row_base = row[width - 1] * row_base % self.p
            rows = tuple(built)
            object.__setattr__(self, "_generator_table", rows)
        return rows

    def exp_gen(self, scalar: int) -> int:
        """``generator ** scalar mod p`` via the cached windowed table.

        Every VOPRF issuance and DLEQ proof/verification performs
        fixed-base exponentiations; this routes them through the
        precomputed table instead of a full square-and-multiply.
        """
        rows = self._fixed_base_rows()
        k = scalar % self.order
        mask = (1 << _FIXED_BASE_WINDOW) - 1
        acc = 1
        index = 0
        while k:
            digit = k & mask
            if digit:
                acc = acc * rows[index][digit] % self.p
            k >>= _FIXED_BASE_WINDOW
            index += 1
        return acc

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        return modinv(a, self.p)

    def random_scalar(self, rng: Optional[_random.Random] = None) -> int:
        """Uniform non-zero scalar in Z_q."""
        return random_below(self.order - 1, rng) + 1

    def scalar_inv(self, scalar: int) -> int:
        return modinv(scalar % self.order, self.order)

    def hash_to_group(self, message: bytes, dst: bytes = b"repro-h2g") -> int:
        """Hash a message to a group element (square of hash-to-field).

        Squaring maps any unit into the QR subgroup; the composition is
        a random-oracle-style map adequate for the OPRF construction.
        """
        width = self.element_bytes + 16  # oversample to flatten mod bias
        candidate = os2ip(expand_message_xmd(message, dst, width)) % self.p
        if candidate == 0:
            candidate = 1
        return (candidate * candidate) % self.p

    def encode_element(self, x: int) -> bytes:
        return x.to_bytes(self.element_bytes, "big")

    def decode_element(self, data: bytes) -> int:
        x = os2ip(data)
        if not self.is_element(x):
            raise ValueError("not a group element")
        return x


#: Module attribute -> (safe prime, group name) of the fixed groups.
_FIXED_GROUPS = {
    "GROUP_256": (_P256, "schnorr-256"),
    "GROUP_512": (_P512, "schnorr-512"),
    "GROUP_768": (_P768, "schnorr-768"),
}


#: The fixed groups built so far: one instance each per process, so
#: identity holds across access paths and each generator table is
#: built once.  The lock keeps two threads from building two.
_built: Dict[str, SchnorrGroup] = {}
_build_lock = threading.Lock()


def _fixed_group(attribute: str) -> SchnorrGroup:
    with _build_lock:
        if attribute not in _built:
            p, name = _FIXED_GROUPS[attribute]
            _built[attribute] = SchnorrGroup(p, name=name)
        return _built[attribute]


def __getattr__(attribute: str) -> SchnorrGroup:
    if attribute in _FIXED_GROUPS:
        return _fixed_group(attribute)
    raise AttributeError(f"module {__name__!r} has no attribute {attribute!r}")


def default_group() -> SchnorrGroup:
    """The group used by the system models (fast yet structurally real)."""
    return _fixed_group("GROUP_256")
