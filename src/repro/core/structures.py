"""Round-level data structures shared by the phase executors."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.crypto.hashing import int8_matrix_bytes
from repro.crypto.pki import PKI
from repro.ledger.chain import Chain
from repro.ledger.state import ShardState
from repro.ledger.utxo import UTXOSet
from repro.ledger.workload import TaggedTx
from repro.metrics.counters import MetricsCollector
from repro.net.message import int_matrix_size
from repro.net.simulator import Network

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ProtocolParams
    from repro.core.node import CycNode


class VoteMatrix:
    """One vote round's C x D votes (rows follow the member order) as an
    immutable value.

    It hashes and sizes exactly like the tuple of row tuples it stands for
    (``canonical_bytes`` / ``payload_size`` treat it as a leaf), but its
    bytes are built once and its size is a closed form, however many
    statements, payloads and digests carry it.
    """

    def __init__(self, rows: Any) -> None:
        given = np.array(rows)
        if given.ndim != 2 or (given.size and given.dtype.kind not in "iub"):
            raise ValueError("a vote matrix is members x transactions integers")
        array = given.astype(np.int8)  # a private copy
        if not (array == given).all():
            raise ValueError("votes do not fit int8")
        array.flags.writeable = False
        self.array = array

    @cached_property
    def canonical(self) -> bytes:
        return int8_matrix_bytes(self.array)

    @cached_property
    def wire_size(self) -> int:
        return int_matrix_size(*self.array.shape)

    def __reduce__(self) -> tuple:
        # Rebuild rather than copy ``__dict__``: an unpickled array would be
        # writable, and the cached bytes are derived state.
        return (VoteMatrix, (self.array,))


@dataclass(slots=True)
class CommitteeSpec:
    """One committee C_k for one round: leader, partial set, all members."""

    index: int
    leader: int
    partial: tuple[int, ...]
    members: list[int]  # includes leader and partial members

    def __post_init__(self) -> None:
        member_set = set(self.members)
        if self.leader not in member_set:
            raise ValueError("leader must be a member")
        if not set(self.partial) <= member_set:
            raise ValueError("partial set must be members")
        if self.leader in self.partial:
            raise ValueError("leader cannot be in the partial set")

    @property
    def key_members(self) -> list[int]:
        return [self.leader, *self.partial]

    @property
    def size(self) -> int:
        return len(self.members)

    def replace_leader(self, new_leader: int) -> None:
        """Leader re-selection: promote a partial member (Alg. 6 aftermath)."""
        if new_leader not in self.partial:
            raise ValueError("new leader must come from the partial set")
        self.partial = tuple(p for p in self.partial if p != new_leader)
        self.leader = new_leader


@dataclass(slots=True)
class RecoveryEvent:
    """Record of one leader re-selection (for reports and punishment)."""

    committee: int
    old_leader: int
    new_leader: int | None
    kind: str  # witness kind that triggered it
    accuser: int
    succeeded: bool
    sim_time: float


@dataclass(slots=True)
class RoundContext:
    """Everything the seven phase executors need for one round."""

    params: "ProtocolParams"
    pki: PKI
    net: Network
    metrics: MetricsCollector
    rng: np.random.Generator
    round_number: int
    randomness: bytes
    nodes: dict[int, "CycNode"]
    committees: list[CommitteeSpec]
    referee: list[int]
    reputation: dict[str, float]
    mempools: list[list[TaggedTx]]
    shard_states: list[ShardState]
    chain: Chain
    global_utxos: UTXOSet = field(default_factory=UTXOSet)
    rewards: dict[str, float] = field(default_factory=dict)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    # Cross-phase artifacts
    phase_reports: dict[str, Any] = field(default_factory=dict)
    semi_commitments: dict[int, bytes] = field(default_factory=dict)
    member_lists: dict[int, tuple] = field(default_factory=dict)
    intra_results: dict[int, Any] = field(default_factory=dict)
    inter_results: dict[int, Any] = field(default_factory=dict)
    vote_records: dict[int, Any] = field(default_factory=dict)
    score_lists: dict[int, Any] = field(default_factory=dict)
    expelled_leaders: set[int] = field(default_factory=set)
    # Lazy pk -> node index backing :meth:`node_by_pk` (populations are
    # fixed for a context's lifetime, so one build serves every lookup).
    _pk_index: "dict[str, CycNode] | None" = field(
        default=None, repr=False, compare=False
    )

    # -- helpers ------------------------------------------------------------
    def node(self, node_id: int) -> "CycNode":
        return self.nodes[node_id]

    def pk_of(self, node_id: int) -> str:
        return self.nodes[node_id].pk

    def node_by_pk(self, pk: str) -> "CycNode":
        index = self._pk_index
        if index is None:
            self._pk_index = index = {
                node.pk: node for node in self.nodes.values()
            }
        node = index.get(pk)
        if node is None:
            raise KeyError(pk)
        return node

    def committee(self, index: int) -> CommitteeSpec:
        return self.committees[index]
