"""Algorithm 1 sortition and the role lotteries."""

import numpy as np
import pytest
from reference_impls import partial_committee_of, role_hash

from repro.core.sortition import (
    PARTIAL_ROLE,
    REFEREE_ROLE,
    crypto_sort,
    rank_select,
    roster_tickets,
    verify_sortition,
)


def test_sortition_in_range(pki):
    kp = pki.generate(1)
    ticket = crypto_sort(kp, round_number=3, randomness=b"R", m=7)
    assert 0 <= ticket.committee_id < 7


def test_sortition_verifies(pki):
    kp = pki.generate(1)
    ticket = crypto_sort(kp, 3, b"R", 7)
    assert verify_sortition(pki, ticket, 3, b"R", 7)


def test_sortition_wrong_context_fails(pki):
    kp = pki.generate(1)
    ticket = crypto_sort(kp, 3, b"R", 7)
    assert not verify_sortition(pki, ticket, 4, b"R", 7)
    assert not verify_sortition(pki, ticket, 3, b"S", 7)


def test_sortition_forged_committee_fails(pki):
    """A node cannot claim a committee its VRF did not assign."""
    kp = pki.generate(1)
    ticket = crypto_sort(kp, 3, b"R", 7)
    from repro.core.sortition import SortitionTicket

    forged = SortitionTicket(
        committee_id=(ticket.committee_id + 1) % 7, vrf=ticket.vrf
    )
    assert not verify_sortition(pki, forged, 3, b"R", 7)


def test_sortition_m_validation(pki):
    with pytest.raises(ValueError):
        crypto_sort(pki.generate(2), 1, b"R", 0)
    with pytest.raises(ValueError):
        roster_tickets([pki.generate(2)], 1, b"R", 0)


@pytest.mark.parametrize("m", [1, 4, 16])
def test_roster_tickets_are_the_scalar_tickets(pki, m):
    """The roster form (Q encoded once, one MAC per key) gives each node the
    ticket ``crypto_sort`` gives it, and each ticket verifies."""
    keypairs = [pki.generate(("roster", i)) for i in range(40)]
    tickets = roster_tickets(keypairs, 9, b"R" * 32, m)
    assert tickets == [crypto_sort(kp, 9, b"R" * 32, m) for kp in keypairs]
    assert all(verify_sortition(pki, t, 9, b"R" * 32, m) for t in tickets)
    assert roster_tickets([], 9, b"R" * 32, m) == []


def test_sortition_distribution(pki):
    m = 5
    counts = np.zeros(m)
    for i in range(500):
        kp = pki.generate(("dist", i))
        counts[crypto_sort(kp, 1, b"R", m).committee_id] += 1
    expected = 500 / m
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 18.5  # 99.9th pct, 4 dof


def test_role_hash_depends_on_all_inputs():
    base = role_hash(1, b"R", "pk", REFEREE_ROLE)
    assert base != role_hash(2, b"R", "pk", REFEREE_ROLE)
    assert base != role_hash(1, b"S", "pk", REFEREE_ROLE)
    assert base != role_hash(1, b"R", "pk2", REFEREE_ROLE)
    assert base != role_hash(1, b"R", "pk", PARTIAL_ROLE)


def test_rank_select_exact_size_and_deterministic():
    candidates = [f"pk-{i}" for i in range(50)]
    chosen = rank_select(candidates, 2, b"R", REFEREE_ROLE, 10)
    assert len(chosen) == 10
    assert chosen == rank_select(list(reversed(candidates)), 2, b"R", REFEREE_ROLE, 10)


def test_rank_select_matches_threshold_ordering():
    """rank_select picks exactly the lowest role hashes."""
    candidates = [f"pk-{i}" for i in range(30)]
    chosen = set(rank_select(candidates, 1, b"R", PARTIAL_ROLE, 5))
    hashes = {pk: role_hash(1, b"R", pk, PARTIAL_ROLE) for pk in candidates}
    cutoff = sorted(hashes.values())[4]
    assert chosen == {pk for pk, h in hashes.items() if h <= cutoff}


def test_rank_select_too_many_raises():
    with pytest.raises(ValueError):
        rank_select(["a"], 1, b"R", REFEREE_ROLE, 2)


def test_partial_committee_in_range():
    for i in range(20):
        assert 0 <= partial_committee_of(1, b"R", f"pk-{i}", 6) < 6
