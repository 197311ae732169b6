"""Cryptographic sortition (Algorithm 1) and role lotteries (§IV-F).

Algorithm 1 assigns an undetermined node to a committee::

    <hash, pi> <- VRF_SK(COMMON_MEMBER || r || R_r)
    id <- hash mod m

Role selection for round r+1 uses hash thresholds::

    H(r+1 || R_r || PK_i || role) <= d_r(role)

The paper sizes committees *in expectation*; for reproducible simulation we
also provide :func:`rank_select`, the exact-size variant: sort candidates by
the same hash and take the required count.  This is the standard
derandomization (identical distribution, fixed size) and is what the round
orchestrator uses; the threshold form is kept and tested for fidelity.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashing import H_int, canonical_bytes
from repro.crypto.pki import PKI, KeyPair
from repro.crypto.vrf import VRFOutput, vrf_eval, vrf_verify

COMMON_MEMBER = "COMMON_MEMBER"
REFEREE_ROLE = "REFEREE_COMMITTEE_MEMBER"
PARTIAL_ROLE = "PARTIAL_SET_MEMBER"

_HASH_SPACE = 1 << 256


@dataclass(frozen=True, slots=True)
class SortitionTicket:
    """The triple ``(id, hash, pi)`` returned by Algorithm 1."""

    committee_id: int
    vrf: VRFOutput


def sortition_input(round_number: int, randomness: bytes) -> tuple:
    """The VRF input Q = COMMON_MEMBER || r || R_r."""
    return (COMMON_MEMBER, round_number, randomness)


def crypto_sort(
    keypair: KeyPair, round_number: int, randomness: bytes, m: int
) -> SortitionTicket:
    """Algorithm 1: which committee does this node belong to this round?"""
    if m <= 0:
        raise ValueError("m must be positive")
    vrf = vrf_eval(keypair, sortition_input(round_number, randomness))
    return SortitionTicket(committee_id=vrf.value % m, vrf=vrf)


def verify_sortition(
    pki: PKI,
    ticket: SortitionTicket,
    round_number: int,
    randomness: bytes,
    m: int,
) -> bool:
    """Key-member side check of a joining node's ticket (Alg. 2 line 7)."""
    if not vrf_verify(pki, ticket.vrf, sortition_input(round_number, randomness)):
        return False
    return ticket.committee_id == ticket.vrf.value % m


# -- role lotteries (§IV-F) --------------------------------------------------


def role_hash(round_number: int, randomness: bytes, pk: str, role: str) -> int:
    """H(r+1 || R_r || PK_i || role) as a 256-bit integer.

    Scalar form: the paper's rule as written, and the reference lottery.
    The batched :func:`role_digests` produces the same digests for a whole
    roster at once and is what the selection paths use at scale.  Equality of the
    two is asserted in the test suite, byte for byte.
    """
    return H_int("ROLE", round_number, randomness, pk, role)


def role_digests(
    round_number: int, randomness: bytes, pks: Sequence[str], role: str
) -> list[bytes]:
    """Batched role lottery: one 32-byte digest per roster entry.

    All draws for one (round, randomness, role) share the SHA-256 prefix
    ``enc("ROLE") || enc(r) || enc(R)``, so the prefix is absorbed once and
    only ``enc(PK) || enc(role)`` is hashed per node — the per-node cost
    drops from four encodings plus a full hash to one encoding plus a
    32-byte-state copy.  Digest bytes compare lexicographically exactly as
    the 256-bit big-endian integers :func:`role_hash` returns, so rankings
    computed on either representation are identical.
    """
    base = hashlib.sha256()
    base.update(canonical_bytes("ROLE"))
    base.update(canonical_bytes(round_number))
    base.update(canonical_bytes(randomness))
    role_enc = canonical_bytes(role)
    digests = []
    for pk in pks:
        h = base.copy()
        h.update(canonical_bytes(pk))
        h.update(role_enc)
        digests.append(h.digest())
    return digests


def passes_threshold(
    round_number: int, randomness: bytes, pk: str, role: str, difficulty: float
) -> bool:
    """Threshold form: selected iff the role hash is below d_r(role).

    ``difficulty`` is the selection *probability* (d_r(role) normalized by
    the hash space), the natural parametrization when the network size
    changes between rounds.
    """
    if not (0.0 <= difficulty <= 1.0):
        raise ValueError("difficulty is a probability")
    return role_hash(round_number, randomness, pk, role) < int(
        difficulty * _HASH_SPACE
    )


def partial_committee_of(
    round_number: int, randomness: bytes, pk: str, m: int
) -> int:
    """Which committee a selected partial member joins (§IV-F):
    ``H(r+1 || R_r || PK_i || PARTIAL_SET_MEMBER) mod m``."""
    return role_hash(round_number, randomness, pk, PARTIAL_ROLE) % m


def assign_partial_sets(
    pool: Sequence[str],
    round_number: int,
    randomness: bytes,
    m: int,
    lam: int,
) -> list[list[str]]:
    """Partial-set staffing (§IV-F): rank the pool with the partial-role
    lottery, place each pick in its hash-assigned committee up to λ, and
    top up underfull committees from the overflow in rank order.

    Shared by the bootstrap assignment (round 1) and the selection phase
    (every subsequent round) so the two can never drift.  One batched
    digest pass serves both the ranking and the mod-m committee draw —
    the per-pk :func:`partial_committee_of` recomputation is gone.
    """
    digests = role_digests(round_number, randomness, pool, PARTIAL_ROLE)
    order = sorted(range(len(pool)), key=digests.__getitem__)
    partials: list[list[str]] = [[] for _ in range(m)]
    overflow: deque[str] = deque()
    for index in order:
        k = int.from_bytes(digests[index], "big") % m
        if len(partials[k]) < lam:
            partials[k].append(pool[index])
        else:
            overflow.append(pool[index])
    for k in range(m):
        while len(partials[k]) < lam and overflow:
            partials[k].append(overflow.popleft())
    return partials


def rank_select(
    candidates: Sequence[str],
    round_number: int,
    randomness: bytes,
    role: str,
    count: int,
) -> list[str]:
    """Exact-size variant of the threshold lottery.

    Sorting by the role hash and taking the lowest ``count`` is distributed
    identically to the threshold rule conditioned on the selected-set size —
    the standard fixed-size derandomization.  Ranks on the batched digest
    vector; byte order equals the scalar integer order, and the sort is
    stable either way, so the selection is unchanged down to tie handling.
    """
    if count > len(candidates):
        raise ValueError(
            f"cannot select {count} from {len(candidates)} candidates"
        )
    digests = role_digests(round_number, randomness, candidates, role)
    order = sorted(range(len(candidates)), key=digests.__getitem__)
    return [candidates[index] for index in order[:count]]
