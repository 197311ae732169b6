"""Public-Key Infrastructure (PKI) registry.

The paper: "We use a Public-Key Infrastructure (PKI) to give each node a
public/secret key pair (PK, SK)."

Key pairs here are simulation-grade: the secret key is 32 random bytes and
the public key is a hash-derived identifier.  Verification of signatures and
VRF proofs is mediated by the registry, which plays the role of the
asymmetric trapdoor: it can check that a MAC was produced under the secret
key registered for a public key, without protocol code ever reading foreign
secret keys.  Honest *and* adversarial node implementations only ever hold
their own :class:`KeyPair`; nothing in the protocol hands out the registry's
private table.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Iterable

from repro.crypto.hashing import H, canonical_bytes


@dataclass(frozen=True)
class KeyPair:
    """A node's public/secret key pair.

    ``pk`` is a short printable identifier (hex) so it can be embedded in
    member lists and hashed; ``sk`` never leaves the owning node except via
    the PKI registration call.
    """

    pk: str
    sk: bytes

    def __repr__(self) -> str:  # avoid leaking sk in logs/tracebacks
        return f"KeyPair(pk={self.pk!r}, sk=<hidden>)"


class PKI:
    """Registry mapping public keys to verification capability.

    The registry keeps ``pk -> sk`` privately.  :meth:`mac` recomputes the
    keyed MAC a signer with that ``pk`` would have produced; signature and
    VRF verification are built on it.  This models, inside the simulation,
    exactly the two properties the paper's security proofs use:

    * **unforgeability** — only the holder of ``sk`` (or the verifier via the
      registry) can produce a valid MAC;
    * **public verifiability** — anyone holding the registry handle can check
      a claimed signature/proof against a public key.
    """

    def __init__(self) -> None:
        self._secrets: dict[str, bytes] = {}

    def generate(self, seed: bytes | str | int) -> KeyPair:
        """Deterministically derive and register a key pair from ``seed``.

        Determinism keeps whole-protocol runs reproducible from one integer
        seed, per the repository's determinism convention.
        """
        sk = hashlib.sha256(b"sk" + canonical_bytes(seed)).digest()
        pk = hashlib.sha256(b"pk" + sk).hexdigest()[:40]
        if pk in self._secrets and self._secrets[pk] != sk:
            raise ValueError(f"public key collision for {pk}")
        self._secrets[pk] = sk
        return KeyPair(pk=pk, sk=sk)

    def register(self, keypair: KeyPair) -> None:
        """Register an externally created key pair."""
        existing = self._secrets.get(keypair.pk)
        if existing is not None and existing != keypair.sk:
            raise ValueError(f"public key {keypair.pk} already registered")
        self._secrets[keypair.pk] = keypair.sk

    def is_registered(self, pk: str) -> bool:
        return pk in self._secrets

    def mac(self, pk: str, message: bytes) -> bytes:
        """MAC of ``message`` under the secret key registered for ``pk``.

        Raises ``KeyError`` for unregistered keys — an unregistered identity
        can never verify, matching the paper's requirement that the referee
        committee checks "all members in any list are registered".
        """
        return hmac.digest(self._secrets[pk], message, "sha256")

    def mac_many(self, pks: "Iterable[str]", message: bytes) -> list[bytes]:
        """MACs of one ``message`` under many registered public keys.

        The batched form of :meth:`mac` for the consensus fan-out pattern
        (one statement checked against a whole recipient set, e.g. a
        certificate's signer list): one call, not one per ``(pk, message)``.
        Raises ``KeyError`` on the first unregistered ``pk``, like
        :meth:`mac`.
        """
        return [hmac.digest(self._secrets[pk], message, "sha256") for pk in pks]

    def __len__(self) -> int:
        return len(self._secrets)

    def fingerprint(self) -> bytes:
        """Commitment to the full registry contents (for genesis blocks)."""
        return H(sorted(self._secrets))
