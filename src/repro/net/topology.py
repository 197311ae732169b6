"""Connection topology and channel accounting.

Table I's last row contrasts the "burden on connection": prior protocols
need reliable channels between *all* pairs of honest nodes, CycLedger only

* inside each committee (clique of expected size c),
* among all key members (leaders + partial sets, clique of m·(λ+1)),
* from each key member to the whole referee committee,
* inside the referee committee itself,

plus best-effort partially-synchronous links for PoW submission and block
propagation.  :func:`build_cycledger_topology` realises exactly this graph;
the simulator refuses to carry protocol messages on any other pair, so the
implementation cannot silently depend on a richer network.  How many of
these channels a round uses per node is measured from the fabric
(``repro.exp.table1_cells``), not computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.net.params import ChannelClass


@dataclass
class Channels:
    """Channel classifier plus reliable-channel census."""

    committee_of: dict[int, int]
    is_key: set[int]
    referee: set[int]
    counts: dict[str, int]

    def classify(self, src: int, dst: int) -> str | None:
        """Latency class for the ordered pair, or ``None`` if no channel."""
        if src == dst:
            return ChannelClass.LOCAL
        src_ref = src in self.referee
        dst_ref = dst in self.referee
        if src_ref and dst_ref:
            return ChannelClass.INTRA  # referee committee is itself a committee
        same_committee = (
            not src_ref
            and not dst_ref
            and self.committee_of.get(src) is not None
            and self.committee_of.get(src) == self.committee_of.get(dst)
        )
        if same_committee:
            return ChannelClass.INTRA
        src_key = src in self.is_key
        dst_key = dst in self.is_key
        if src_key and dst_key:
            return ChannelClass.KEY
        if (src_key and dst_ref) or (src_ref and dst_key):
            return ChannelClass.REFEREE
        # PoW submission (common -> referee) and block propagation
        # (referee -> anyone) only need partial synchrony (§III-B).
        if src_ref or dst_ref:
            return ChannelClass.PARTIAL
        return None

    def total_reliable(self) -> int:
        """Number of reliable (synchronous) channels: intra + key + referee."""
        return (
            self.counts.get(ChannelClass.INTRA, 0)
            + self.counts.get(ChannelClass.KEY, 0)
            + self.counts.get(ChannelClass.REFEREE, 0)
        )


def build_cycledger_topology(
    committees: Sequence[tuple[Iterable[int], Iterable[int]]],
    referee: Iterable[int],
) -> Channels:
    """Build the CycLedger channel graph.

    ``committees`` is a sequence of ``(members, key_members)`` id
    collections (key members included in members); ``referee`` is the
    referee-committee id set.
    """
    committee_of: dict[int, int] = {}
    is_key: set[int] = set()
    referee_set = set(referee)
    sizes: list[int] = []
    for index, (members, keys) in enumerate(committees):
        members = list(members)
        keys = set(keys)
        if not keys <= set(members):
            raise ValueError(f"committee {index}: key members must be members")
        for node in members:
            if node in referee_set:
                raise ValueError(f"node {node} cannot be both referee and member")
            if node in committee_of:
                raise ValueError(f"node {node} in two committees")
            committee_of[node] = index
        is_key |= keys
        sizes.append(len(members))

    key_total = len(is_key)
    cr = len(referee_set)
    intra = sum(c * (c - 1) // 2 for c in sizes) + cr * (cr - 1) // 2
    # Key-member clique minus pairs already inside one committee.
    keys_per_committee = [
        sum(1 for node in is_key if committee_of[node] == i)
        for i in range(len(committees))
    ]
    key_cross = key_total * (key_total - 1) // 2 - sum(
        k * (k - 1) // 2 for k in keys_per_committee
    )
    return Channels(
        committee_of=committee_of,
        is_key=is_key,
        referee=referee_set,
        counts={
            ChannelClass.INTRA: intra,
            ChannelClass.KEY: key_cross,
            ChannelClass.REFEREE: key_total * cr,
        },
    )

