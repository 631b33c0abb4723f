"""From-scratch cryptographic substrates for the decoupled systems.

Everything here is implemented on Python integers and bytes with no
third-party dependencies: number theory, RSA and Chaum blind
signatures, X25519, ChaCha20-Poly1305, HKDF, HPKE (RFC 9180 profile),
a Schnorr-group VOPRF with DLEQ proofs, secret sharing with
Prio-style boolean validity checks, and traffic-padding helpers.

These are *simulation-grade* implementations: algorithmically faithful
(verified against RFC test vectors where they exist) but not hardened
against side channels, and used with reduced parameter sizes where
speed matters.
"""

from .blind import BlindingState, BlindSigner, blind, sign_blinded, unblind
from .chacha20poly1305 import ChaCha20Poly1305, chacha20_block, chacha20_encrypt, poly1305_mac
from . import group
from .group import SchnorrGroup, default_group
from .hashutil import (
    constant_time_equal,
    expand_message_xmd,
    full_domain_hash,
    hmac_sha256,
    i2osp,
    os2ip,
    sha256,
)
from .hkdf import hkdf, hkdf_expand, hkdf_extract
from .hpke import (
    HpkeKeyPair,
    HpkeRecipientContext,
    HpkeSenderContext,
    open_sealed,
    seal,
    setup_base_recipient,
    setup_base_sender,
)
from .numtheory import (
    crt_pair,
    egcd,
    is_probable_prime,
    modinv,
    random_below,
    random_prime,
    random_safe_prime,
    random_unit,
)
from .padding import (
    CELL_SIZE,
    bucket_pad_length,
    pad_to_cell,
    padded_length,
    unpad_from_cell,
)
from .rsa import RsaPrivateKey, RsaPublicKey, generate_rsa_keypair
from .secretshare import (
    FIELD_PRIME,
    BeaverTriple,
    BooleanValidityProof,
    HistogramProof,
    check_boolean_shares,
    check_histogram_shares,
    make_boolean_proof,
    make_histogram_proof,
    reconstruct_additive,
    shamir_reconstruct,
    shamir_share,
    share_additive,
)
from .voprf import (
    DleqProof,
    VoprfClientState,
    VoprfServer,
    verify_dleq,
    voprf_blind,
    voprf_finalize,
)
from .x25519 import X25519PrivateKey, X25519_BASEPOINT, x25519

__all__ = [
    # numtheory
    "is_probable_prime", "random_prime", "random_safe_prime", "modinv",
    "egcd", "crt_pair", "random_below", "random_unit",
    # hashes
    "i2osp", "os2ip", "sha256", "hmac_sha256", "full_domain_hash",
    "expand_message_xmd", "constant_time_equal",
    # rsa / blind
    "RsaPublicKey", "RsaPrivateKey", "generate_rsa_keypair",
    "BlindingState", "BlindSigner", "blind", "sign_blinded", "unblind",
    # group / voprf
    "SchnorrGroup", "GROUP_256", "GROUP_512", "GROUP_768", "default_group",
    "VoprfServer", "VoprfClientState", "DleqProof", "voprf_blind",
    "voprf_finalize", "verify_dleq",
    # symmetric
    "ChaCha20Poly1305", "chacha20_block", "chacha20_encrypt", "poly1305_mac",
    "hkdf", "hkdf_extract", "hkdf_expand",
    # hpke
    "HpkeKeyPair", "HpkeSenderContext", "HpkeRecipientContext",
    "setup_base_sender", "setup_base_recipient", "seal", "open_sealed",
    # x25519
    "X25519PrivateKey", "x25519", "X25519_BASEPOINT",
    # secret sharing
    "FIELD_PRIME", "share_additive", "reconstruct_additive",
    "shamir_share", "shamir_reconstruct", "BeaverTriple",
    "BooleanValidityProof", "make_boolean_proof", "check_boolean_shares",
    "HistogramProof", "make_histogram_proof", "check_histogram_shares",
    # padding
    "CELL_SIZE", "pad_to_cell", "unpad_from_cell", "padded_length",
    "bucket_pad_length",
]


def __getattr__(name: str) -> SchnorrGroup:
    # The fixed groups are built on first use (see repro.crypto.group).
    if name in ("GROUP_256", "GROUP_512", "GROUP_768"):
        return getattr(group, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
