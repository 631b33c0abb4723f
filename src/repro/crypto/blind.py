"""Chaum blind signatures over RSA (paper section 3.1.1).

The protocol that first demonstrated the Decoupling Principle: a signer
authorizes a message it cannot read, and the unblinded signature cannot
be linked back to the signing session.

Protocol (all arithmetic mod ``n``)::

    requester: m' = H(m) * r^e        (blind with random unit r)
    signer:    s' = (m')^d            (sign the blinded value)
    requester: s  = s' * r^{-1}       (unblind)
    anyone:    s^e == H(m)            (verify as a normal RSA-FDH sig)

Unlinkability is information-theoretic: for *any* (blinded message,
final signature) pair there exists exactly one blinding factor
connecting them, so the signer's view is independent of which final
signature corresponds to which session.  A property test in
``tests/test_crypto_rsa_blind.py`` checks exactly this.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional

from .numtheory import modinv, random_unit
from .rsa import RsaPrivateKey, RsaPublicKey

__all__ = ["BlindingState", "blind", "sign_blinded", "unblind", "BlindSigner"]


@dataclass(frozen=True)
class BlindingState:
    """The requester's secret state: the blinding factor and message."""

    message: bytes
    blinding_factor: int
    blinded_value: int


def blind(
    public: RsaPublicKey, message: bytes, rng: Optional[_random.Random] = None
) -> BlindingState:
    """Blind ``message`` for signing under ``public``."""
    r = random_unit(public.n, rng)
    hashed = public.hash_to_modulus(message)
    blinded = (hashed * pow(r, public.e, public.n)) % public.n
    return BlindingState(message=message, blinding_factor=r, blinded_value=blinded)


def sign_blinded(private: RsaPrivateKey, blinded_value: int) -> int:
    """The signer's operation: a raw RSA signature on the blinded value.

    The signer learns nothing about the underlying message: the blinded
    value is uniformly distributed in the group of units mod ``n``.
    """
    return private.raw_sign_value(blinded_value)


def unblind(public: RsaPublicKey, state: BlindingState, blinded_signature: int) -> int:
    """Strip the blinding factor, yielding a plain RSA-FDH signature.

    Raises ``ValueError`` if the signer cheated (signature does not
    verify after unblinding).
    """
    signature = (blinded_signature * modinv(state.blinding_factor, public.n)) % public.n
    if not public.verify(state.message, signature):
        raise ValueError("unblinded signature failed verification")
    return signature


class BlindSigner:
    """A stateful signer that also tracks (blinded) signing sessions.

    The session log is what a curious or breached signer would hold;
    the unlinkability tests feed it to the analyzer to show the log
    cannot be correlated with redeemed signatures.
    """

    def __init__(self, private: RsaPrivateKey) -> None:
        self._private = private
        self.sessions: list[int] = []

    @property
    def public(self) -> RsaPublicKey:
        return self._private.public

    def sign(self, blinded_value: int) -> int:
        self.sessions.append(blinded_value)
        return sign_blinded(self._private, blinded_value)

    def could_link(self, message: bytes, signature: int) -> bool:
        """Whether the session log pins down which session signed this.

        For RSA blind signatures the answer is always ``False`` when
        more than one session exists: every session is consistent with
        every final signature (there is a blinding factor connecting
        each pair).  Implemented by exhibiting that factor.
        """
        n = self.public.n
        hashed = self.public.hash_to_modulus(message)
        consistent = 0
        for blinded in self.sessions:
            # The connecting factor r^e = blinded / H(m); it exists
            # whenever H(m) is invertible, making the session consistent.
            try:
                _ = (blinded * modinv(hashed, n)) % n
                consistent += 1
            except ValueError:
                continue
        return consistent <= 1 and bool(self.sessions)
