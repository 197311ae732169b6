"""Topology: channel classes and the connection-burden census."""

import pytest

from repro.net.params import ChannelClass, NetworkParams
from repro.net.topology import build_cycledger_topology


@pytest.fixture
def channels():
    # Two committees {0..4} keys {0,1} and {5..9} keys {5,6}; referee {10,11}.
    return build_cycledger_topology(
        [({0, 1, 2, 3, 4}, {0, 1}), ({5, 6, 7, 8, 9}, {5, 6})],
        [10, 11],
    )


def test_intra_committee(channels):
    assert channels.classify(2, 3) == ChannelClass.INTRA
    assert channels.classify(0, 4) == ChannelClass.INTRA


def test_referee_internal_is_intra(channels):
    assert channels.classify(10, 11) == ChannelClass.INTRA


def test_key_to_key_cross_committee(channels):
    assert channels.classify(0, 5) == ChannelClass.KEY
    assert channels.classify(1, 6) == ChannelClass.KEY


def test_key_to_referee(channels):
    assert channels.classify(0, 10) == ChannelClass.REFEREE
    assert channels.classify(11, 6) == ChannelClass.REFEREE


def test_common_to_referee_partial(channels):
    # PoW submission / block propagation: partially synchronous only.
    assert channels.classify(3, 10) == ChannelClass.PARTIAL
    assert channels.classify(10, 3) == ChannelClass.PARTIAL


def test_common_cross_committee_no_channel(channels):
    assert channels.classify(2, 7) is None
    assert channels.classify(7, 2) is None


def test_common_to_foreign_key_no_channel(channels):
    # Common members do not hold links to other committees' key members.
    assert channels.classify(2, 5) is None


def test_self_is_local(channels):
    assert channels.classify(3, 3) == ChannelClass.LOCAL


def test_channel_counts(channels):
    # intra: 2 committees of 5 -> 2*10, referee pair -> 1
    assert channels.counts[ChannelClass.INTRA] == 21
    # key clique: 4 keys -> 6 pairs, minus 2 same-committee pairs
    assert channels.counts[ChannelClass.KEY] == 4
    # key-to-referee: 4 keys x 2 referees
    assert channels.counts[ChannelClass.REFEREE] == 8
    assert channels.total_reliable() == 33


def test_overlapping_committees_rejected():
    with pytest.raises(ValueError):
        build_cycledger_topology([({0, 1}, {0}), ({1, 2}, {1})], [])


def test_referee_member_overlap_rejected():
    with pytest.raises(ValueError):
        build_cycledger_topology([({0, 1}, {0})], [1])


def test_key_must_be_member():
    with pytest.raises(ValueError):
        build_cycledger_topology([({0, 1}, {5})], [])


def _enumerated_counts(built, nodes):
    """Undirected pairs per reliable class, found by asking ``classify``
    about every ordered pair."""
    reliable = (ChannelClass.INTRA, ChannelClass.KEY, ChannelClass.REFEREE)
    pairs = {cls: set() for cls in reliable}
    for src in nodes:
        for dst in nodes:
            cls = built.classify(src, dst)
            if cls in pairs:
                pairs[cls].add(frozenset((src, dst)))
    return {cls: len(found) for cls, found in pairs.items()}


def test_closed_form_matches_constructed():
    """The census ``build_cycledger_topology`` computes equals the pairs its
    own classifier links, counted by enumeration."""
    rosters = [
        # Three committees of 20 with key sets of λ + 1 = 3, |C_R| = 6.
        (
            [(set(range(k * 20, k * 20 + 20)), set(range(k * 20, k * 20 + 3)))
             for k in range(3)],
            list(range(60, 66)),
        ),
        # Unequal committees (7, 4, 9) and key sets (1, 3, 2), |C_R| = 3.
        (
            [(set(range(0, 7)), {0}), (set(range(7, 11)), {7, 8, 9}),
             (set(range(11, 20)), {11, 12})],
            [20, 21, 22],
        ),
    ]
    for committees, referee in rosters:
        built = build_cycledger_topology(committees, referee)
        nodes = sorted(set().union(*(members for members, _ in committees), referee))
        counted = _enumerated_counts(built, nodes)
        assert counted == built.counts
        assert sum(counted.values()) == built.total_reliable()


def test_network_params_validation():
    """Each bad value is refused at construction, naming its field.  Before
    the finite and budget rules, a NaN delay ran a round to a NaN clock, an
    infinite one packed nothing at an infinite clock, and a zero budget
    failed at the first event."""
    nan, inf = float("nan"), float("inf")
    for field, value in (
        ("delta", 0),
        ("delta", nan),
        ("delta", inf),
        ("gamma", nan),
        ("gamma", inf),
        ("partial_base", -1.0),
        ("partial_base", inf),
        ("jitter", 1.5),
        ("max_events", 0),
        ("max_events", -5),
    ):
        with pytest.raises(ValueError, match=field):
            NetworkParams(**{field: value})
    params = NetworkParams()
    with pytest.raises(ValueError):
        params.base_delay("bogus")
