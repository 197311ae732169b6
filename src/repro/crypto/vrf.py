"""Simulated Verifiable Random Function (VRF).

The paper's cryptographic sortition (Algorithm 1) computes::

    <hash, pi> <- VRF_SK(COMMON_MEMBER || r || R_r)

and any party can verify ``(hash, pi)`` against the caller's public key.

Our simulation-grade VRF provides the three properties sortition needs:

* **uniqueness** — for a fixed ``(sk, alpha)`` there is exactly one output;
* **pseudorandomness** — the output is a hash of a secret-keyed MAC, so it is
  uniform and unpredictable to parties not holding ``sk``;
* **public verifiability** — ``vrf_verify`` recomputes the proof through the
  PKI registry (the simulated trapdoor).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import canonical_bytes
from repro.crypto.pki import PKI, KeyPair

VRF_OUTPUT_BITS = 256
VRF_OUTPUT_SPACE = 1 << VRF_OUTPUT_BITS


@dataclass(frozen=True, slots=True)
class VRFOutput:
    """The pair ``<hash, pi>`` from Algorithm 1.

    ``value`` is the 256-bit pseudorandom integer (the paper's ``hash``);
    ``proof`` is the certifying tag (the paper's ``pi``).
    """

    pk: str
    value: int
    proof: bytes

    def __repr__(self) -> str:
        return f"VRFOutput(pk={self.pk!r}, value={self.value:#066x})"


def vrf_input(alpha: Any) -> bytes:
    """The bytes the VRF MACs for input ``alpha``."""
    return b"vrf" + canonical_bytes(alpha)


def vrf_eval(keypair: KeyPair, alpha: Any) -> VRFOutput:
    """Evaluate the VRF on input ``alpha`` under ``keypair``."""
    return vrf_output(keypair, vrf_input(alpha))


def vrf_output(keypair: KeyPair, message: bytes) -> VRFOutput:
    """The VRF on an input :func:`vrf_input` already encoded.

    The proof is the MAC itself; the value is a hash of the proof so the
    value is a deterministic public function of the proof (verifiers check
    both links).
    """
    proof = keypair.mac_key.tag(message)
    value = int.from_bytes(hashlib.sha256(b"vrfout" + proof).digest(), "big")
    return VRFOutput(pk=keypair.pk, value=value, proof=proof)


def vrf_verify(pki: PKI, output: VRFOutput, alpha: Any) -> bool:
    """Paper's ``VRF_VERIFY_PK(Q, hash, pi)``: check proof and value."""
    if not pki.is_registered(output.pk):
        return False
    expected_proof = pki.mac(output.pk, vrf_input(alpha))
    if not hmac.compare_digest(expected_proof, output.proof):
        return False
    expected_value = int.from_bytes(
        hashlib.sha256(b"vrfout" + output.proof).digest(), "big"
    )
    return expected_value == output.value
