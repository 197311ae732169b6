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

Every tag in the library is HMAC-SHA256 (RFC 2104) made by one primitive,
:class:`MacKey`, whose key schedule runs once per key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro.crypto.hashing import canonical_bytes

_BLOCK = 64  # SHA-256's block size in bytes
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class MacKey:
    """HMAC-SHA256 under one key, scheduled once.

    RFC 2104's tag is ``H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`` with ``K`` the
    key zero-padded to one block (hashed first if longer than a block).  The
    two padded blocks are the same for every message, so the SHA-256 states
    that absorbed them are kept and :meth:`tag` extends copies of them: the
    bytes the ``hmac`` module's one-shot digest returns for ``(sk, m)``,
    without redoing the key schedule on every call.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, sk: bytes) -> None:
        if len(sk) > _BLOCK:
            sk = hashlib.sha256(sk).digest()
        sk = sk.ljust(_BLOCK, b"\x00")
        self._inner = hashlib.sha256(sk.translate(_IPAD))
        self._outer = hashlib.sha256(sk.translate(_OPAD))

    def tag(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def __repr__(self) -> str:
        return "MacKey(<hidden>)"


@dataclass(frozen=True)
class KeyPair:
    """A node's public/secret key pair.

    ``pk`` is a short printable identifier (hex) so it can be embedded in
    member lists and hashed; ``sk`` never leaves the owning node except via
    the PKI registration call.  ``mac_key`` is derived from ``sk`` on
    construction and is not a field: equality, hashing and the pickled form
    are those of ``(pk, sk)``.
    """

    pk: str
    sk: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "mac_key", MacKey(self.sk))

    def __reduce__(self) -> tuple:
        # hash states do not pickle: a copy rebuilds ``mac_key`` from ``sk``
        return (KeyPair, (self.pk, self.sk))

    def __repr__(self) -> str:  # avoid leaking sk in logs/tracebacks
        return f"KeyPair(pk={self.pk!r}, sk=<hidden>)"


class PKI:
    """Registry mapping public keys to verification capability.

    The registry keeps ``pk -> sk`` privately, and beside it the key pair's
    :class:`MacKey`.  :meth:`mac` recomputes the keyed MAC a signer with
    that ``pk`` would have produced; signature and VRF verification are
    built on it.  This models, inside the simulation,
    exactly the two properties the paper's security proofs use:

    * **unforgeability** — only the holder of ``sk`` (or the verifier via the
      registry) can produce a valid MAC;
    * **public verifiability** — anyone holding the registry handle can check
      a claimed signature/proof against a public key.
    """

    def __init__(self) -> None:
        self._secrets: dict[str, bytes] = {}
        self._mac_keys: dict[str, MacKey] = {}

    def generate(self, seed: bytes | str | int) -> KeyPair:
        """Deterministically derive and register a key pair from ``seed``.

        Determinism keeps whole-protocol runs reproducible from one integer
        seed, per the repository's determinism convention.
        """
        sk = hashlib.sha256(b"sk" + canonical_bytes(seed)).digest()
        pk = hashlib.sha256(b"pk" + sk).hexdigest()[:40]
        if pk in self._secrets and self._secrets[pk] != sk:
            raise ValueError(f"public key collision for {pk}")
        keypair = KeyPair(pk=pk, sk=sk)
        self._secrets[pk] = sk
        self._mac_keys[pk] = keypair.mac_key
        return keypair

    def register(self, keypair: KeyPair) -> None:
        """Register an externally created key pair."""
        existing = self._secrets.get(keypair.pk)
        if existing is not None and existing != keypair.sk:
            raise ValueError(f"public key {keypair.pk} already registered")
        self._secrets[keypair.pk] = keypair.sk
        self._mac_keys[keypair.pk] = keypair.mac_key

    def is_registered(self, pk: str) -> bool:
        return pk in self._secrets

    def mac(self, pk: str, message: bytes) -> bytes:
        """MAC of ``message`` under the secret key registered for ``pk``.

        Raises ``KeyError`` for unregistered keys — an unregistered identity
        can never verify, matching the paper's requirement that the referee
        committee checks "all members in any list are registered".
        """
        return self._mac_keys[pk].tag(message)

    def mac_many(self, pks: "Iterable[str]", message: bytes) -> list[bytes]:
        """MACs of one ``message`` under many registered public keys.

        The batched form of :meth:`mac` for the consensus fan-out pattern
        (one statement checked against a whole recipient set, e.g. a
        certificate's signer list): one call, not one per ``(pk, message)``.
        Raises ``KeyError`` on the first unregistered ``pk``, like
        :meth:`mac`.
        """
        keys = self._mac_keys
        return [keys[pk].tag(message) for pk in pks]

    def __len__(self) -> int:
        return len(self._secrets)
