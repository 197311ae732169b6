"""Simulated EUF-CMA digital signatures.

"It is by default that all messages are sent authentically via the digital
signature scheme throughout the protocol."  (§IV-A)

A signature is a keyed MAC over the canonical encoding of the message,
verified through the :class:`~repro.crypto.pki.PKI`.  Within the simulation
this is existentially unforgeable: producing a valid ``Signature`` for a
public key requires either that key's secret (held only by its owner) or the
registry (held only by verification code).
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Any, Iterable

from repro.crypto.hashing import canonical_bytes
from repro.crypto.pki import PKI, KeyPair


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature: the signer's public key plus the MAC tag.

    Carrying ``pk`` inside the object mirrors the paper's ``SIG_i < ... >``
    notation where the signer identity is always recoverable.
    """

    pk: str
    tag: bytes

    def __repr__(self) -> str:
        return f"Signature(pk={self.pk!r}, tag={self.tag[:6].hex()}…)"


def _encode(message: Any) -> bytes:
    return b"sig" + canonical_bytes(message)


def sign(keypair: KeyPair, message: Any) -> Signature:
    """Sign ``message`` (any canonically-encodable structure)."""
    tag = hmac.digest(keypair.sk, _encode(message), "sha256")
    return Signature(pk=keypair.pk, tag=tag)


def verify(pki: PKI, signature: Signature, message: Any) -> bool:
    """Check ``signature`` over ``message`` against its embedded public key.

    Returns ``False`` (never raises) for unregistered keys or wrong tags so
    protocol code can treat bad signatures uniformly as Byzantine noise.
    """
    if not pki.is_registered(signature.pk):
        return False
    expected = pki.mac(signature.pk, _encode(message))
    return hmac.compare_digest(expected, signature.tag)


def signed_by(pki: PKI, signature: Signature, message: Any, pk: str) -> bool:
    """Verify and additionally pin the signer identity to ``pk``.

    Used where the protocol requires a message "signed by the leader": a
    valid signature from the *wrong* party must not count.
    """
    return signature.pk == pk and verify(pki, signature, message)


# -- encode-once forms -------------------------------------------------------
# Consensus is dominated by one pattern: a single statement checked against
# (or produced for) an entire recipient set — a certificate's signer list, a
# committee's worth of CONFIRMs, every member auditing the same relayed
# PROPOSE header.  The scalar helpers above re-run the canonical encoding of
# the statement on every call, which costs more than the HMAC itself for
# realistic statements.  ``encode_statement`` + ``sign_encoded`` /
# ``verify_encoded`` / ``signed_by_encoded`` encode ONCE per statement and
# reuse the bytes; ``signers_of`` does the same for a whole certificate.
# They equal looping the scalar forms (the test suite asserts it).


def encode_statement(message: Any) -> bytes:
    """Canonical signing encoding of ``message``.

    Exposed so statement-heavy sessions can encode once and feed the bytes
    to :func:`sign_encoded` / :func:`verify_encoded` for every signer or
    verifier that touches the same statement.
    """
    return _encode(message)


def sign_encoded(keypair: KeyPair, encoded: bytes) -> Signature:
    """:func:`sign` over a pre-encoded statement (see
    :func:`encode_statement`)."""
    tag = hmac.digest(keypair.sk, encoded, "sha256")
    return Signature(pk=keypair.pk, tag=tag)


def verify_encoded(pki: PKI, signature: Signature, encoded: bytes) -> bool:
    """:func:`verify` over a pre-encoded statement."""
    if not pki.is_registered(signature.pk):
        return False
    expected = pki.mac(signature.pk, encoded)
    return hmac.compare_digest(expected, signature.tag)


def signed_by_encoded(
    pki: PKI, signature: Signature, encoded: bytes, pk: str
) -> bool:
    """:func:`signed_by` over a pre-encoded statement."""
    return signature.pk == pk and verify_encoded(pki, signature, encoded)


def signers_of(
    pki: PKI,
    signatures: Iterable[Signature],
    message: Any,
    members: "set[str] | None" = None,
) -> set[str]:
    """Public keys with a valid signature over ``message``.

    The certificate-checking primitive: encodes the statement once,
    discards signatures from outside ``members`` (when given) and from
    unregistered keys *before* paying for a MAC, then batches the MAC
    recomputation through :meth:`~repro.crypto.pki.PKI.mac_many`.  The
    result set deduplicates signers, so a padded or duplicated
    certificate can never count higher than the honest one.
    """
    encoded = _encode(message)
    candidates = [
        sig
        for sig in signatures
        if (members is None or sig.pk in members) and pki.is_registered(sig.pk)
    ]
    tags = pki.mac_many((sig.pk for sig in candidates), encoded)
    return {
        sig.pk
        for sig, tag in zip(candidates, tags)
        if hmac.compare_digest(tag, sig.tag)
    }
